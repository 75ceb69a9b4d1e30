"""Boundary integral constants of the perturbation expansion.

Each constant is a weighted boundary integral of rho, rho', their squares or
their product against trigonometric weights at mode n (and a second mode k
for the coupled family), normalized by 1/sqrt(pi).  One definition table per
family (15 single-index kinds, 8 coupled kinds) is evaluated two ways: exactly
in the Fourier coefficients of rho (constant_table) and by trapezoid
quadrature of samples of rho (quadrature_constant_table, the oracle).  Each
gives a ConstantTable for one mode n, the one input of the expansion engine.

Negative coefficient indices in the coupled closed forms follow the signed
convention a_{-j} = -a_j, b_{-j} = b_j.
"""

import math
from dataclasses import dataclass

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


def _require_mode(n):
    if n < 1:
        raise InvalidMode(f"mode index n must be >= 1, got {n}")


def _base_spectra(rho):
    """Two-sided spectra of the base factors: f = sum_m f_m e^{i m theta}, m = -M..M.

    rho_0 = b_0 and rho_{+-j} = (b_j -+ i a_j)/2; the derivative multiplies
    f_m by i m, and rho*rho' is taken as (rho^2)'/2 so that its mean is
    exactly zero.
    """
    half = 0.5 * (rho.b - 1j * rho.a)
    half[0] = rho.b[0]
    s = np.concatenate([np.conj(half[:0:-1]), half])
    sp = 1j * np.arange(-rho.max_mode, rho.max_mode + 1) * s
    s2 = np.convolve(s, s)
    return {
        "rho": s,
        "rhop": sp,
        "rho2": s2,
        "rhop2": np.convolve(sp, sp),
        "rhorhop": 0.5j * np.arange(-2 * rho.max_mode, 2 * rho.max_mode + 1) * s2,
    }


def single_constants(rho, n):
    """The 15 single-index constants at mode n, exact in the Fourier coefficients.

    With F the spectrum of the base factor of a kind, (1/sqrt(pi)) int f w
    reads two entries of F: sqrt(pi) (F_0 + Re F_2n) for w = cos^2(n.),
    sqrt(pi) (F_0 - Re F_2n) for sin^2(n.) and -sqrt(pi) Im F_2n for
    sin(n.)cos(n.).
    """
    _require_mode(n)
    rt = math.sqrt(math.pi)
    pairs = {}
    for name, spec in _base_spectra(rho).items():
        mid = spec.size // 2
        top = spec[mid + 2 * n] if 2 * n <= mid else 0j
        pairs[name] = (spec[mid].real, top)
    weights = {
        ("cos", "cos"): lambda f0, f2n: rt * (f0 + f2n.real),
        ("sin", "sin"): lambda f0, f2n: rt * (f0 - f2n.real),
        ("sin", "cos"): lambda f0, f2n: -rt * f2n.imag,
    }
    return {
        kind: float(weights[tk, tn](*pairs[bk])) for kind, (bk, tk, tn) in _SINGLE_DEF.items()
    }


def _require_coupled(n, k):
    if k < 0:
        raise InvalidMode(f"coupled mode index k must be >= 0, got {k}")
    if k == n:
        raise InvalidMode("coupled constants are undefined at k = n; use the single-index family")


def _default_ks(rho, n):
    """Every k whose coupled constants can be nonzero: 0..n+max_mode without n."""
    return [k for k in range(n + rho.max_mode + 1) if k != n]


def coupled_constants(rho, n, k):
    """Closed forms of the 8 coupled constants at modes (n, k), k != n."""
    _require_mode(n)
    _require_coupled(n, k)
    rt2 = 0.5 * math.sqrt(math.pi)
    am, bm = rho.signed_coefficient(k - n)
    ap, bp = rho.signed_coefficient(k + n)
    return {
        "K": rt2 * (-(k - n) * bm - (k + n) * bp),
        "L": rt2 * (bm + bp),
        "M": rt2 * ((k - n) * am + (k + n) * ap),
        "N": rt2 * (am + ap),
        "T": rt2 * ((k - n) * am - (k + n) * ap),
        "U": rt2 * (-am + ap),
        "V": rt2 * ((k - n) * bm - (k + n) * bp),
        "W": rt2 * (bm - bp),
    }


@dataclass(frozen=True)
class ConstantTable:
    """Constant values for one mode n: 15 single + 8 per coupled k."""

    n: int
    single: dict
    coupled: dict  # k -> {kind: value}


def constant_table(rho, n, ks=None):
    """Closed-form table; ks defaults to 0..n+max_mode without n."""
    _require_mode(n)
    if ks is None:
        ks = _default_ks(rho, n)
    return ConstantTable(
        n=n,
        single=single_constants(rho, n),
        coupled={k: coupled_constants(rho, n, k) for k in ks},
    )


def _trapezoid(rho, n, k):
    """sums(definitions, m): the trapezoid sums of definitions at modes (m, n).

    rho and rho' are sampled once, on max(2J + 2n, J + n + k) + 1 points
    (J = rho.max_mode): the fewest on which the trapezoid rule is exact for
    the single-index kinds (m = n) and the coupled kinds at m <= k.
    """
    num_points = max(2 * rho.max_mode + 2 * n, rho.max_mode + n + k) + 1
    theta = np.linspace(0.0, 2.0 * np.pi, num_points, endpoint=False)
    rv, rp = rho.sample(num_points), rho.derivative().sample(num_points)
    base = {"rho": rv, "rhop": rp, "rho2": rv * rv, "rhop2": rp * rp, "rhorhop": rv * rp}
    scale = (2.0 * np.pi / num_points) / math.sqrt(math.pi)
    trig_n = {"sin": np.sin(n * theta), "cos": np.cos(n * theta)}

    def sums(definitions, m):
        trig_m = {"sin": np.sin(m * theta), "cos": np.cos(m * theta)}
        return {
            kind: float(np.dot(base[bk], trig_m[tk] * trig_n[tn]) * scale)
            for kind, (bk, tk, tn) in definitions.items()
        }

    return sums


def quadrature_constant_table(rho, n, ks=None):
    """The table of constant_table from the defining integrals (oracle route).

    Each integral is a periodic trapezoid sum.  rho and rho' are sampled
    once, by inverse FFT, on the fewest points that are exact for the
    largest k.
    """
    _require_mode(n)
    if ks is None:
        ks = _default_ks(rho, n)
    for k in ks:
        _require_coupled(n, k)
    sums = _trapezoid(rho, n, max(ks, default=0))
    return ConstantTable(
        n=n, single=sums(_SINGLE_DEF, n), coupled={k: sums(_COUPLED_DEF, k) for k in ks}
    )


def quadrature_single_table(rho, n):
    """All 15 single-index constants via periodic trapezoid quadrature."""
    _require_mode(n)
    return _trapezoid(rho, n, 0)(_SINGLE_DEF, n)


def quadrature_coupled_table(rho, n, k):
    """All 8 coupled constants at (n, k) via periodic trapezoid quadrature."""
    _require_mode(n)
    _require_coupled(n, k)
    return _trapezoid(rho, n, k)(_COUPLED_DEF, k)
