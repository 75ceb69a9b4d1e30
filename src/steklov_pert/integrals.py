"""Boundary integral constants of the perturbation expansion.

Each constant is (1/sqrt(pi)) times the boundary integral of a base factor
f (rho, rho', rho^2, rho'^2 or rho*rho') against a trigonometric weight at
a mode k times one at the mode n.  One definition table per family (15
single-index kinds, the case k = n, and 8 coupled kinds) is evaluated
exactly in the Fourier coefficients of rho (constant_table) and by
trapezoid quadrature of samples of rho (quadrature_constant_table, the
oracle).  Each gives a ConstantTable for one mode n, the one input of the
expansion engine and of `steklov constants`: the 15 single-index values and,
for the coupled modes ks, each coupled kind's array over ks.  single_constants
and quadrature_single_table give a table's .single alone; coupled_constants and
quadrature_coupled_table are the one-k coupled cases.

The exact route is one product-to-sum rule for both families.  With
f = sum_m F_m e^{i m theta} (F_{-m} = conj F_m, as f is real),
(1/sqrt(pi)) int f trig_k(k theta) trig_n(n theta) dtheta is
sqrt(pi) (lo P(F_{k-n}) + hi P(F_{k+n})), with (P, lo, hi) by row:

    cos(k.) cos(n.)   Re  +  +        sin(k.) cos(n.)   Im  -  -
    sin(k.) sin(n.)   Re  +  -        cos(k.) sin(n.)   Im  +  -

A single-index kind reads F_0 and F_2n of its base factor, a coupled kind
F_{k-n} and F_{k+n} of rho or rho' (F_m times i m).  Every spectrum is
read from the two-sided spectra of rho and rho' (rho.derivative()'s),
which each FourierSeries builds when it is built (FourierSeries._spectrum):
a table, or a one-k call, builds no spectrum of its own.  The rule is one
+-1 sign matrix per family, built from its definition table (_signs), so
one matrix product gives every kind, at every k of a table at once.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidMode

# (base factor, trig at k, trig at n) of each defining integrand;
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
_RT_PI = math.sqrt(math.pi)

_BASES = ("rho", "rhop", "rho2", "rhop2", "rhorhop")
_TRIGS = ("cos", "sin")

# the product-to-sum rule for each (trig at k, trig at n): (P, lo, hi) as in the module docstring
_RULE = {
    ("cos", "cos"): ("real", 1.0, 1.0),
    ("sin", "sin"): ("real", 1.0, -1.0),
    ("sin", "cos"): ("imag", -1.0, -1.0),
    ("cos", "sin"): ("imag", 1.0, -1.0),
}


def _rows(definitions):
    """(base, trig at k, trig at n) of each kind as row indices into _BASES, _TRIGS and _TRIGS."""
    return tuple(
        np.array([names.index(name) for name in column])
        for names, column in zip((_BASES, _TRIGS, _TRIGS), zip(*definitions.values()))
    )


def _signs(definitions, bases):
    """The rule for each kind of definitions as one row of +-1 and 0 over the parts of _by_signs."""
    signs = np.zeros((len(definitions), 2, len(bases), 2))  # kind, (F_{k-n}, F_{k+n}), base, (Re, Im)
    for row, (base, trig_k, trig_n) in zip(signs, definitions.values()):
        part, lo, hi = _RULE[trig_k, trig_n]
        row[:, bases.index(base), ("real", "imag").index(part)] = lo, hi
    return signs.reshape(len(definitions), -1)


_SINGLE_ROWS = _rows(_SINGLE_DEF)
_COUPLED_ROWS = _rows(_COUPLED_DEF)
_SINGLE_SIGNS = _signs(_SINGLE_DEF, _BASES)
_COUPLED_SIGNS = _signs(_COUPLED_DEF, _BASES[:2])


def _by_signs(signs, factors):
    """sqrt(pi) (signs @ the Re, Im parts of factors, F_{k-n} and then F_{k+n} of each base factor of signs).

    One value per kind for scalar factors (one k), one row over k for arrays; +-1 and 0 multiply exactly.
    """
    parts = np.ascontiguousarray(np.array(factors).T).view(float)  # Re, Im of each factor, by k
    return _RT_PI * np.dot(signs, parts.T)


def _require_mode(n):
    if n < 1:
        raise InvalidMode(f"mode index n must be >= 1, got {n}")


def _single(rho, n):
    """The 15 single-index constants at mode n from the two-sided spectra of rho and rho': the rule at k = n.

    F_m of f^2 is sum_j F_j F_{m-j}, and rho rho' = (rho^2)'/2 has F_0 = 0
    exactly and F_2n = i n F_2n(rho^2).
    """
    spectrum, slope = rho._spectrum(), rho.derivative()._spectrum()
    top = spectrum.size // 2
    lower = [spectrum.item(top), slope.item(top)]  # F_0 and F_2n of each base factor, in _BASES order
    upper = [f.item(top + 2 * n) if 2 * n <= top else 0j for f in (spectrum, slope)]
    for f in (spectrum, slope):  # rho^2, rho'^2
        # f[m:] and reverse[:2J+1-m] pair F_j with F_{m-j} for j = m-J..J, empty past
        # m = 2J; the copy is contiguous, so each sum is one BLAS dot product
        reverse = f[::-1].copy()
        lower.append(complex(np.dot(f, reverse)))
        upper.append(complex(np.dot(f[2 * n :], reverse[: f[2 * n :].size])))
    factors = lower + [0j] + upper + [1j * n * upper[2]]  # rho rho': F_0 = 0, F_2n = i n F_2n(rho^2)
    return dict(zip(SINGLE_KINDS, _by_signs(_SINGLE_SIGNS, factors).tolist()))


def single_constants(rho, n):
    """The 15 single-index constants at mode n, exact in the Fourier coefficients: constant_table's .single."""
    _require_mode(n)
    return _single(rho, n)


def _require_coupled(n, *ks):
    for k in ks:
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
    ks = np.array(ks, dtype=int)
    if np.count_nonzero((ks < 0) | (ks == n)):
        _require_coupled(n, *ks.tolist())
    return ks


def _coupled(n, k, lower, upper):
    """The 8 coupled constants at (n, k) from rho's F_{k-n} and F_{k+n}: (8,), or (8, len(k)) for an array k."""
    return _by_signs(_COUPLED_SIGNS, (lower, 1j * (k - n) * lower, upper, 1j * (k + n) * upper))


def coupled_constants(rho, n, k):
    """The 8 coupled constants at modes (n, k), k != n, exact in the Fourier coefficients.

    The one-k case of constant_table, on scalars: F_{k-n} and F_{k+n} are
    the entries of rho's kept two-sided spectrum there, 0 past its ends.
    """
    _require_mode(n)
    _require_coupled(n, k)
    spectrum, top = rho._spectrum(), rho.max_mode
    lower = spectrum.item(top + k - n) if abs(k - n) <= top else 0j
    upper = spectrum.item(top + k + n) if k + n <= top else 0j
    return dict(zip(COUPLED_KINDS, _coupled(n, k, lower, upper).tolist()))


class ConstantTable(NamedTuple):
    """Constant values for one mode n: 15 single, and 8 coupled at each k of ks.

    coupled[kind][i] is the coupled constant kind at ks[i], one array per kind in COUPLED_KINDS order.
    """

    single: dict
    ks: np.ndarray
    coupled: dict


def constant_table(rho, n, ks=None):
    """Closed-form table; ks defaults to 0..n+max_mode without n.

    rho's kept spectrum feeds both families, and the rule makes one pass
    over the array ks; coupled_constants is the one-k case.
    """
    _require_mode(n)
    ks = _coupled_modes(rho, n, ks)
    spectrum = rho._spectrum()
    bordered = np.zeros(spectrum.size + 2, dtype=complex)  # F_m at m + J + 1, and a zero past each end
    bordered[1:-1] = spectrum
    lower, upper = bordered.take(np.add.outer((rho.max_mode + 1 - n, rho.max_mode + 1 + n), ks), mode="clip")
    coupled = dict(zip(COUPLED_KINDS, _coupled(n, ks, lower, upper)))
    return ConstantTable(single=_single(rho, n), ks=ks, coupled=coupled)


def _trapezoid(rho, n, k):
    """sums(rows, ms): the trapezoid sums of the kinds of _rows(definitions) at modes (m, n), m in ms.

    The result is a (number of kinds, len(ms)) array.  rho and rho' are
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
        return dots[tk, tn, bk, :, 0, 0] * scale

    return sums


def quadrature_constant_table(rho, n, ks=None):
    """The table of constant_table from the defining integrals (oracle route).

    Each integral is a periodic trapezoid sum.  rho and rho' are sampled
    once, by inverse FFT, on the fewest points that are exact for the
    largest k, and the coupled sums of every k fill the table's arrays in
    one pass; quadrature_coupled_table is the one-k case.
    """
    _require_mode(n)
    ks = _coupled_modes(rho, n, ks)
    sums = _trapezoid(rho, n, int(ks.max(initial=0)))
    single = dict(zip(SINGLE_KINDS, sums(_SINGLE_ROWS, [n])[:, 0].tolist()))
    return ConstantTable(single=single, ks=ks, coupled=dict(zip(COUPLED_KINDS, sums(_COUPLED_ROWS, ks))))


def quadrature_single_table(rho, n):
    """All 15 single-index constants via periodic trapezoid quadrature: quadrature_constant_table's."""
    return quadrature_constant_table(rho, n, []).single


def quadrature_coupled_table(rho, n, k):
    """All 8 coupled constants at (n, k) by trapezoid quadrature, as quadrature_constant_table(rho, n, [k])."""
    _require_mode(n)
    _require_coupled(n, k)
    return dict(zip(COUPLED_KINDS, _trapezoid(rho, n, k)(_COUPLED_ROWS, [k])[:, 0].tolist()))
