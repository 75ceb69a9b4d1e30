"""Boundary integral constants of the perturbation expansion.

Each constant is a weighted boundary integral of rho, rho', their squares or
their product against trigonometric weights at mode n (and a second mode k
for the coupled family), normalized by 1/sqrt(pi).  One definition table per
family (15 single-index kinds, 8 coupled kinds) is evaluated two ways: exactly
in the Fourier coefficients of rho (constant_table) and by trapezoid
quadrature of samples of rho (quadrature_constant_table, the oracle).  Each
gives a ConstantTable for one mode n, the one input of the expansion engine:
the 15 single-index values and, for the coupled modes ks, one (len(ks), 8)
array whose columns follow COUPLED_KINDS, filled in one array pass over ks.
coupled_constants and quadrature_coupled_table are the one-k cases of the
two tables: the same closed forms on scalars, the same trapezoid sums on a
one-row stack.

Negative coefficient indices in the coupled closed forms follow the signed
convention a_{-j} = -a_j, b_{-j} = b_j.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidMode

# (base factor, trig at mode k, trig at mode n) of each defining integrand;
# a single-index kind is the case k = n
_SINGLE_DEF = {
    "A": ("rho2", "cos", "cos"),
    "B": ("rho", "cos", "cos"),
    "C": ("rhop2", "cos", "cos"),
    "D": ("rhorhop", "sin", "cos"),
    "E": ("rhop", "sin", "cos"),
    "F": ("rho2", "sin", "cos"),
    "G": ("rho", "sin", "cos"),
    "H": ("rhop2", "sin", "cos"),
    "I": ("rhorhop", "cos", "cos"),
    "J": ("rhop", "cos", "cos"),
    "O": ("rhorhop", "sin", "sin"),
    "P": ("rhop", "sin", "sin"),
    "Q": ("rho2", "sin", "sin"),
    "R": ("rho", "sin", "sin"),
    "S": ("rhop2", "sin", "sin"),
}

_COUPLED_DEF = {
    "K": ("rhop", "sin", "cos"),
    "L": ("rho", "cos", "cos"),
    "M": ("rhop", "cos", "cos"),
    "N": ("rho", "sin", "cos"),
    "T": ("rhop", "sin", "sin"),
    "U": ("rho", "cos", "sin"),
    "V": ("rhop", "cos", "sin"),
    "W": ("rho", "sin", "sin"),
}

SINGLE_KINDS = tuple(_SINGLE_DEF)
COUPLED_KINDS = tuple(_COUPLED_DEF)
_HALF_RT_PI = 0.5 * math.sqrt(math.pi)

_BASES = ("rho", "rhop", "rho2", "rhop2", "rhorhop")
_TRIGS = ("cos", "sin")


def _rows(definitions):
    """(base, trig at k, trig at n) of each kind as row indices into _BASES, _TRIGS and _TRIGS."""
    return tuple(
        np.array([names.index(name) for name in column])
        for names, column in zip((_BASES, _TRIGS, _TRIGS), zip(*definitions.values()))
    )


_SINGLE_ROWS = _rows(_SINGLE_DEF)
_COUPLED_ROWS = _rows(_COUPLED_DEF)


def _require_mode(n):
    if n < 1:
        raise InvalidMode(f"mode index n must be >= 1, got {n}")


def _base_spectra(rho):
    """Two-sided spectra of the base factors, one row each in _BASES order.

    Row r holds F_m of f = sum_m F_m e^{i m theta} at column m + 2J,
    m = -2J..2J (J = rho.max_mode).  rho_0 = b_0 and rho_{+-j} =
    (b_j -+ i a_j)/2; the derivative multiplies F_m by i m, and rho*rho' is
    taken as (rho^2)'/2 so that its mean is exactly zero.
    """
    j = rho.max_mode
    half = 0.5 * (rho.b - 1j * rho.a)
    half[0] = rho.b[0]
    s = np.concatenate([np.conj(half[:0:-1]), half])
    sp = 1j * np.arange(-j, j + 1) * s
    out = np.zeros((len(_BASES), 4 * j + 1), dtype=complex)
    out[0, j : 3 * j + 1] = s
    out[1, j : 3 * j + 1] = sp
    out[2] = np.convolve(s, s)
    out[3] = np.convolve(sp, sp)
    out[4] = 0.5j * np.arange(-2 * j, 2 * j + 1) * out[2]
    return out


def single_constants(rho, n):
    """The 15 single-index constants at mode n, exact in the Fourier coefficients.

    With F the spectrum of the base factor of a kind, (1/sqrt(pi)) int f w
    reads two entries of F: sqrt(pi) (F_0 + Re F_2n) for w = cos^2(n.),
    sqrt(pi) (F_0 - Re F_2n) for sin^2(n.) and -sqrt(pi) Im F_2n for
    sin(n.)cos(n.).  Those weights of the five spectra form one table, and
    each kind reads its entry.
    """
    _require_mode(n)
    rt = math.sqrt(math.pi)
    spectra = _base_spectra(rho)
    mid = spectra.shape[1] // 2
    f0 = spectra[:, mid].real
    f2n = spectra[:, mid + 2 * n] if 2 * n <= mid else np.zeros(len(_BASES), dtype=complex)
    cos2, sin2, sin_cos = rt * (f0 + f2n.real), rt * (f0 - f2n.real), -rt * f2n.imag
    weights = np.array([[cos2, sin_cos], [sin_cos, sin2]])  # [trig at k, trig at n, base]
    bk, tk, tn = _SINGLE_ROWS
    return dict(zip(SINGLE_KINDS, weights[tk, tn, bk].tolist()))


def _require_coupled(n, k):
    if k < 0:
        raise InvalidMode(f"coupled mode index k must be >= 0, got {k}")
    if k == n:
        raise InvalidMode("coupled constants are undefined at k = n; use the single-index family")


def _coupled_modes(rho, n, ks):
    """ks as an integer array, refusing k < 0 and k = n.

    None gives every k whose coupled constants can be nonzero: 0..n+max_mode without n.
    """
    if ks is None:
        ks = np.arange(n + rho.max_mode + 1)
        return ks[ks != n]
    for k in ks:
        _require_coupled(n, k)
    return np.array(ks, dtype=int)


def _coupled_forms(n, k, am, bm, ap, bp):
    """The 8 coupled closed forms at modes (n, k), as {kind: value} in COUPLED_KINDS order.

    (am, bm) and (ap, bp) are rho's signed coefficients at k - n and k + n.
    The arithmetic is plain, so k and the coefficients are scalars for one k
    and arrays for a table, with the same result at each k.
    """
    km, kp = k - n, k + n
    return {
        "K": _HALF_RT_PI * (-km * bm - kp * bp),
        "L": _HALF_RT_PI * (bm + bp),
        "M": _HALF_RT_PI * (km * am + kp * ap),
        "N": _HALF_RT_PI * (am + ap),
        "T": _HALF_RT_PI * (km * am - kp * ap),
        "U": _HALF_RT_PI * (-am + ap),
        "V": _HALF_RT_PI * (km * bm - kp * bp),
        "W": _HALF_RT_PI * (bm - bp),
    }


def _signed_coefficients(rho, j):
    """(a_j, b_j) over an integer array j, under the convention a_{-j} = -a_j, b_{-j} = b_j."""
    mag = np.abs(j)
    inside = mag <= rho.max_mode
    at = np.where(inside, mag, 0)
    a = np.where(inside, rho.a[at], 0.0)
    return np.where(j < 0, -a, a), np.where(inside, rho.b[at], 0.0)


def coupled_constants(rho, n, k):
    """Closed forms of the 8 coupled constants at modes (n, k), k != n.

    The one-k case of constant_table: the same closed forms on scalars,
    with the signed convention of _signed_coefficients at k - n.
    """
    _require_mode(n)
    _require_coupled(n, k)
    am, bm = rho.coeff(abs(k - n))
    if k < n:
        am = -am
    return _coupled_forms(n, k, am, bm, *rho.coeff(k + n))


@dataclass(frozen=True, eq=False)
class ConstantTable:
    """Constant values for one mode n: 15 single, and 8 coupled at each k of ks.

    values[i] holds the coupled constants at ks[i] in COUPLED_KINDS order,
    a (len(ks), 8) array; coupled is the same numbers as {k: {kind: value}}.
    """

    n: int
    single: dict
    ks: np.ndarray
    values: np.ndarray

    @cached_property
    def coupled(self):
        """{k: {kind: value}}, built on first use."""
        return {k: dict(zip(COUPLED_KINDS, row)) for k, row in zip(self.ks.tolist(), self.values.tolist())}


def constant_table(rho, n, ks=None):
    """Closed-form table; ks defaults to 0..n+max_mode without n.

    The coupled constants of every k come from one pass of the closed forms
    over the array ks; coupled_constants is the one-k case.
    """
    _require_mode(n)
    ks = _coupled_modes(rho, n, ks)
    (am, ap), (bm, bp) = _signed_coefficients(rho, np.array([ks - n, ks + n]))
    forms = _coupled_forms(n, ks, am, bm, ap, bp)
    values = np.array([forms[kind] for kind in COUPLED_KINDS]).T
    return ConstantTable(n=n, single=single_constants(rho, n), ks=ks, values=values)


def _trapezoid(rho, n, k):
    """sums(rows, ms): the trapezoid sums of the kinds of _rows(definitions) at modes (m, n), m in ms.

    The result is a (len(ms), number of kinds) array.  rho and rho' are
    sampled once, on max(2J + 2n, J + n + k) + 1 points (J = rho.max_mode):
    the fewest on which the trapezoid rule is exact for the single-index
    kinds (m = n) and the coupled kinds at m <= k.  Each sum is a dot
    product of its own, so its value does not depend on the other ms.
    """
    num_points = max(2 * rho.max_mode + 2 * n, rho.max_mode + n + k) + 1
    step = 2.0 * np.pi / num_points
    theta = step * np.arange(num_points)  # np.linspace(0, 2 pi, num_points, endpoint=False), bit for bit
    rv, rp = rho.sample(num_points), rho.derivative().sample(num_points)
    base = np.array([rv, rp, rv * rv, rp * rp, rv * rp])  # _BASES order
    scale = step / math.sqrt(math.pi)
    trig_n = np.array([np.cos(n * theta), np.sin(n * theta)])

    def sums(rows, ms):
        phase = np.multiply.outer(ms, theta)
        # trig[i, j, m] = (trig i at m) * (trig j at n), with _TRIGS indices i, j
        trig = np.array([np.cos(phase), np.sin(phase)])[:, None] * trig_n[:, None, :]
        # a stack of (1 x N) @ (N x 1) products: one dot product per (i, j, base, m)
        dots = trig[:, :, None, :, None, :] @ base[:, None, :, None]
        bk, tk, tn = rows
        return dots[tk, tn, bk, :, 0, 0].T * scale

    return sums


def quadrature_constant_table(rho, n, ks=None):
    """The table of constant_table from the defining integrals (oracle route).

    Each integral is a periodic trapezoid sum.  rho and rho' are sampled
    once, by inverse FFT, on the fewest points that are exact for the
    largest k, and the coupled sums of every k fill the table's array in
    one pass; quadrature_coupled_table is the one-k case.
    """
    _require_mode(n)
    ks = _coupled_modes(rho, n, ks)
    sums = _trapezoid(rho, n, int(ks.max(initial=0)))
    single = dict(zip(SINGLE_KINDS, sums(_SINGLE_ROWS, [n])[0].tolist()))
    return ConstantTable(n=n, single=single, ks=ks, values=sums(_COUPLED_ROWS, ks))


def quadrature_single_table(rho, n):
    """All 15 single-index constants via periodic trapezoid quadrature."""
    _require_mode(n)
    return dict(zip(SINGLE_KINDS, _trapezoid(rho, n, 0)(_SINGLE_ROWS, [n])[0].tolist()))


def quadrature_coupled_table(rho, n, k):
    """All 8 coupled constants at (n, k) via periodic trapezoid quadrature.

    The one-k case of quadrature_constant_table, on the grid exact for k.
    """
    _require_mode(n)
    _require_coupled(n, k)
    return dict(zip(COUPLED_KINDS, _trapezoid(rho, n, k)(_COUPLED_ROWS, [k])[0].tolist()))
