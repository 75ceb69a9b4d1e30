"""A fixed computation, timed next to each measurement as the host's speed.

On a shared host the same code runs at speeds up to half apart for seconds
or minutes at a time, as neighbours come and go on the same cores.  A time
divided by the time of this computation, measured just before it in the
same process, moves when the program changes and far less when the
neighbours do.  The work resembles the program's: a small symmetric
eigensolve, a tall Gram product, a trigonometric table and a dictionary
loop in the interpreter.
"""

import time

import numpy as np

REPEATS = 6

_RNG = np.random.default_rng(0)
_SYM = _RNG.standard_normal((81, 81))
_SYM = _SYM + _SYM.T
_TALL = _RNG.standard_normal((512, 81))
_MODES = np.arange(40)


def run():
    for _ in range(REPEATS):
        np.linalg.eigvalsh(_SYM)
        _TALL.T @ _TALL
        np.cos(np.multiply.outer(_TALL[:, 0], _MODES))
        table = {}
        for k in range(2000):
            table[k % 97] = table.get(k % 97, 0.0) + 0.5 * k


def seconds():
    """Wall time of one run() in this process."""
    start = time.perf_counter()
    run()
    return time.perf_counter() - start
