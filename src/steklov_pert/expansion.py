"""Eigenvalue corrections of the perturbed disk, through second order.

On the unit-area disk every nonzero Steklov eigenvalue n*sqrt(pi) is double,
with eigenspace spanned by cos(n theta) and sin(n theta) traces.  Perturbing
the boundary splits each pair; the first- and second-order corrections are
the eigenvalues of 2x2 matrices acting on that eigenspace, assembled here
from the boundary integral constants.  M2's coupled sum and the order-eps
coefficients beta/mu are products of coefficient matrices over COUPLED_KINDS,
each written once (_FIRST_ORDER, _M2_ROWS), with one ConstantTable's coupled
constants as an (8, len(ks)) array; first_order_coefficients is the one-k case.
The work that depends on rho alone (its spectra, the coefficient norm of
the split test and M2's sum of squares) is done once per FourierSeries,
which keeps it; each pair n builds one table and one product _M2_ROWS @ it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FirstOrderSplit, InvalidMode
from .integrals import (
    COUPLED_KINDS,
    _require_mode,
    constant_table,
    coupled_constants,
    quadrature_constant_table,
    quadrature_single_table,
)
from .series import FourierSeries

# |(a_2n, b_2n)| at or below this share of the norm of all of rho's
# coefficients is rounding of an exact zero, at every scale of rho
SPLIT_RTOL = 1e-14
# the highest split order _split_order searches for; it bounds the search's work
SPLIT_ORDER_CAP = 32


def _over_kinds(*rows):
    """Rows {kind: coefficient} as one (len(rows), 8) matrix over COUPLED_KINDS."""
    return np.array([[row.get(kind, 0.0) for kind in COUPLED_KINDS] for row in rows])


# the map (alpha, gamma) -> (beta, mu) up to its prefactor: the rows (beta_a, beta_g, mu_a, mu_g) of its 2x2 matrix
_FIRST_ORDER = _over_kinds({"L": -1, "V": 1}, {"U": -1, "M": -1}, {"N": -1, "T": 1}, {"W": -1, "K": -1})
# M2's coupled rows (row1_a, row1_b, row2_a, row2_b) are constant + (k - n - 1) slope: those two, then the map
_M2_ROWS = np.concatenate([_over_kinds({"K": 1}, {"M": -1}, {"T": 1}, {"V": -1}),
                           _over_kinds({"L": 1}, {"N": 1}, {"U": 1}, {"W": 1}), _FIRST_ORDER])


@dataclass(frozen=True)
class TwoByTwoSym:
    """Real 2x2 matrix on the span of cos(n theta), sin(n theta)."""

    m11: float
    m12: float
    m21: float
    m22: float

    def as_array(self):
        return np.array([[self.m11, self.m12], [self.m21, self.m22]])

    def eigenvalues(self):
        """(low, high) eigenvalue pair via the trace/determinant formula."""
        tr = self.m11 + self.m22
        det = self.m11 * self.m22 - self.m12 * self.m21
        disc = tr * tr - 4.0 * det
        root = math.sqrt(max(disc, 0.0))
        return (0.5 * (tr - root), 0.5 * (tr + root))

    def max_entry(self):
        return max(abs(self.m11), abs(self.m12), abs(self.m21), abs(self.m22))


@dataclass(frozen=True)
class PerturbationReport:
    """Full expansion record for one eigenvalue pair and its profile rho; immutable once built."""

    n: int
    lambda0: float
    lambda1: tuple
    m1: TwoByTwoSym
    eigvec1: list
    beta_mu: list
    lambda2: tuple = None
    m2: TwoByTwoSym = None
    rho: FourierSeries = field(default_factory=FourierSeries)

    def to_dict(self):
        return {
            "n": self.n,
            "rho": self.rho.to_dict(),
            "lambda0": self.lambda0,
            "lambda1": list(self.lambda1),
            "lambda2": list(self.lambda2) if self.lambda2 is not None else None,
            "M1": self.m1.as_array().tolist(),
            "M2": self.m2.as_array().tolist() if self.m2 is not None else None,
            "eigvec1": [list(v) for v in self.eigvec1],
            "beta_mu": [
                {str(m): [bm, mm] for m, (bm, mm) in sorted(branch.items())}
                for branch in self.beta_mu
            ],
        }


def lambda0(n):
    """Unperturbed eigenvalue n*sqrt(pi) of the unit-area disk."""
    _require_mode(n)
    return n * math.sqrt(math.pi)


def matrix_first_order(rho, n):
    """First-order pair matrix: -(n^2 + n/2)*sqrt(pi) * [[b_2n, a_2n], [a_2n, -b_2n]]."""
    _require_mode(n)
    a2n, b2n = rho.coeff(2 * n)
    c = -(n * n + 0.5 * n) * math.sqrt(math.pi)
    return TwoByTwoSym(m11=c * b2n, m12=c * a2n, m21=c * a2n, m22=-c * b2n)


def matrix_first_order_quadrature(rho, n):
    """First-order matrix assembled from the defining integrals (oracle route)."""
    _require_mode(n)
    s = quadrature_single_table(rho, n)
    b0 = rho.coeff(0)[1]
    rt = math.sqrt(math.pi)
    return TwoByTwoSym(
        m11=n * (s["E"] - s["B"]) + n * rt * b0,
        m12=n * (-s["J"] - s["G"]),
        m21=n * (s["P"] - s["G"]),
        m22=n * (-s["E"] - s["R"]) + n * rt * b0,
    )


def lambda1(rho, n):
    """First-order correction pair +/- (n^2 + n/2) * sqrt(pi*(a_2n^2 + b_2n^2))."""
    _require_mode(n)
    a2n, b2n = rho.coeff(2 * n)
    mag = (n * n + 0.5 * n) * math.sqrt(math.pi * (a2n * a2n + b2n * b2n))
    return (-mag, mag)


def first_order_coefficients(rho, n, eigvec, m):
    """Order-eps eigenfunction coefficients (beta_m, mu_m) at frequency m != n.

    beta_m = (pi^{(m-n-1)/2} / (n-m)) * n * [(-L + V)*alpha + (-U - M)*gamma]
    mu_m   = (pi^{(m-n-1)/2} / (n-m)) * n * [(-N + T)*alpha + (-W - K)*gamma]

    with the coupled constants taken at (n, m).  mu_0 is 0 since sin(0) == 0.
    """
    _require_mode(n)
    if m < 0:
        raise InvalidMode(f"frequency m must be >= 0, got {m}")
    if m == n:
        raise InvalidMode("beta/mu are undefined at m = n (that mode carries the eigenvector)")
    alpha, gamma = eigvec
    if alpha == 0.0 and gamma == 0.0:
        raise ValueError("eigvec must be nonzero")
    beta, mu = _beta_mu(n, m, np.reshape(eigvec, (2, 1)), _FIRST_ORDER @ _stacked(coupled_constants(rho, n, m)))
    return beta.item(), mu.item()


def _stacked(coupled):
    """Coupled constants {kind: value or array over k} as one array over COUPLED_KINDS, then k."""
    return np.array([coupled[kind] for kind in COUPLED_KINDS])


def _beta_mu(n, m, eigvec, first):
    """(beta_m, mu_m) of first_order_coefficients from first, _FIRST_ORDER times the coupled constants at (n, m).

    m is one frequency with first a (4,) array, or an array of them with
    first (4, len(m)); the formulas are the same.  eigvec is (alpha, gamma)
    as a (2, 1) array, or a (2, branches, 1) array of columns over several
    branches, which then broadcast against m.
    """
    pref = math.pi ** (0.5 * (m - (n + 1))) * n / (n - m)
    # the map with an axis for the branches; the sum over axis 1 is the alpha term plus the gamma term
    beta, mu = pref * (first.reshape((2, 2, 1) + np.shape(m)) * eigvec).sum(axis=1)
    return beta, np.where(m > 0, mu, 0.0)


def _nonzero_mode(rho, m):
    """Whether rho's mode m is nonzero: |(a_m, b_m)| > SPLIT_RTOL * |(all coefficients of rho)|.

    It gives the same answer for rho and for c*rho; the zero profile has no
    nonzero mode.
    """
    a, b = rho.coeff(m)
    return math.hypot(a, b) > SPLIT_RTOL * rho._norm()


def _splits_at_first_order(rho, n):
    """Whether pair n splits at first order: rho's mode 2n is nonzero (_nonzero_mode)."""
    return _nonzero_mode(rho, 2 * n)


def _split_order(rho, n):
    """p, the order at which pair n first splits: the fewest nonzero modes of rho that sum to 2n, or None.

    Each mode m >= 1 that _nonzero_mode accepts counts with either sign, and
    may repeat: for rho with modes 3 and 4, 2 = 3 + 3 - 4 gives p = 3 at
    n = 1.  The traceless part of the pair's effective 2 x 2 matrix at order
    p is a sum of products of p Fourier coefficients whose modes sum to
    +-2n, so the split is c eps^p + O(eps^(p + 1)), unless c vanishes for a
    reason the modes do not show.  p = 1 is _splits_at_first_order.  A
    breadth-first search over the signed sums finds p: a sum of p modes that
    reaches 2n can be ordered so that every partial sum stays in
    [-J, 2n + J] (J = rho.max_mode; add a positive mode while below 2n, a
    negative one otherwise), so the search keeps only sums there.  It stops
    after SPLIT_ORDER_CAP modes, and returns None when 2n is not reached by then.
    """
    modes = [m for m in range(1, rho.max_mode + 1) if _nonzero_mode(rho, m)]
    steps = modes + [-m for m in modes]
    reached = frontier = {0}
    for p in range(1, SPLIT_ORDER_CAP + 1):
        frontier = {s + d for s in frontier for d in steps if -rho.max_mode <= s + d <= 2 * n + rho.max_mode} - reached
        if 2 * n in frontier:
            return p
        reached = reached | frontier
    return None


def _check_no_split(rho, n):
    if _splits_at_first_order(rho, n):
        raise FirstOrderSplit(
            f"pair n={n} splits at first order (coefficients at mode {2 * n} are nonzero); "
            "the second-order matrix is only defined on non-split pairs"
        )


def _coupled_table(build, rho, n):
    """build(rho, n, ks) on max(0, n - J)..n + J without n, J = rho.max_mode: every k with nonzero constants."""
    ks = np.arange(max(0, n - rho.max_mode), n + rho.max_mode + 1)
    return build(rho, n, ks[ks != n])


def _assemble_m2(rho, n, table):
    """M2 from a ConstantTable of mode n holding every k whose coupled constants can be nonzero.

    Only k with a rho coefficient at |k - n| or k + n contribute
    (_coupled_table); other k add 0.  The coupled sum is a few products over the
    table's (8, len(ks)) array; its prefactor carries the factor k, so k = 0 adds 0.
    The same assembly serves the closed-form and the quadrature table.
    """
    return _m2(rho, n, table, _M2_ROWS @ _stacked(table.coupled))


def _m2(rho, n, table, product):
    """_assemble_m2 with product = _M2_ROWS @ the table's stacked coupled constants, formed by the caller."""
    single = table.single
    rt = math.sqrt(math.pi)
    b0 = rho.coeff(0)[1]
    sq = rho.sum_of_squares()
    common = n * (n - 1.0) * b0 * b0 * rt + 0.25 * n * rt * sq
    m11 = -n * (n - 1.0) * single["A"] - 0.5 * n * single["C"] + n * (n - 2.0) * single["D"] + common
    m12 = -n * (n - 1.0) * single["F"] - 0.5 * n * single["H"] - n * (n - 2.0) * single["I"]
    m21 = -n * (n - 1.0) * single["F"] - 0.5 * n * single["H"] + n * (n - 2.0) * single["O"]
    m22 = -n * (n - 2.0) * single["D"] - n * (n - 1.0) * single["Q"] - 0.5 * n * single["S"] + common

    k = table.ks
    pref = float(n) * k / (rt * (n - k))  # n k in int64 would wrap past n = 3e9
    constant, slope, first = product.reshape(3, 4, -1)
    rows = constant + (k - (n + 1.0)) * slope
    # entry (i, j) adds sum_k pref (row_i_a beta_j + row_i_b mu_j), each k's pair summed first: that keeps M2's rounding
    products = rows.reshape(2, 2, 1, -1) * first.reshape(2, 2, -1)
    (c11, c12), (c21, c22) = np.dot(products.sum(axis=1), pref).tolist()
    return TwoByTwoSym(m11=m11 + c11, m12=m12 + c12, m21=m21 + c21, m22=m22 + c22)


def matrix_second_order(rho, n):
    """Second-order pair matrix from the closed-form constants.

    Requires the pair not to split at first order (see _splits_at_first_order);
    raises FirstOrderSplit otherwise.  The matrix is symmetric up to
    rounding, which the tests bound by |m12 - m21| <= 1e-10 * max entry.
    """
    _require_mode(n)
    _check_no_split(rho, n)
    return _assemble_m2(rho, n, _coupled_table(constant_table, rho, n))


def matrix_second_order_quadrature(rho, n):
    """Second-order matrix with every constant replaced by its quadrature oracle."""
    _require_mode(n)
    _check_no_split(rho, n)
    return _assemble_m2(rho, n, _coupled_table(quadrature_constant_table, rho, n))


def lambda2(rho, n):
    """Second-order correction pair (ascending); requires a non-split pair."""
    return matrix_second_order(rho, n).eigenvalues()


def special_rho(n):
    """Single-cosine profile cos((n + ceil(n/2)) theta) that lifts pair n at second order."""
    if n < 2:
        raise InvalidMode(f"the single-mode profile is defined for n >= 2, got {n}")
    mode = n + math.ceil(0.5 * n)
    return FourierSeries.cosine(mode, cap=max(64, mode))


def closed_form_lambda2_special(n):
    """Second-order correction of pair n under special_rho(n), in closed form.

    even n: (sqrt(pi)/4) * ((3/4) n^3 + 4 n^2 + (7/3) n)
    odd n:  (sqrt(pi)/8) * (9n^5 + 108n^4 + 138n^3 + 36n^2 - 3n) / (6n^2 - 4n - 2)

    Strictly positive for every n >= 2.
    """
    if n < 2:
        raise InvalidMode(f"the closed form is defined for n >= 2, got {n}")
    rt = math.sqrt(math.pi)
    if n % 2 == 0:
        return 0.25 * rt * (0.75 * n**3 + 4.0 * n**2 + (7.0 / 3.0) * n)
    num = 9.0 * n**5 + 108.0 * n**4 + 138.0 * n**3 + 36.0 * n**2 - 3.0 * n
    den = 6.0 * n**2 - 4.0 * n - 2.0
    return 0.125 * rt * num / den


def _first_order_eigvecs(rho, n):
    """Unit eigenvectors of a split pair's M1, ascending, first component above 1e-12 positive.

    M1 = -(n^2 + n/2) sqrt(pi) [[b, a], [a, -b]] with (a, b) = (a_2n, b_2n)
    and r = hypot(a, b) > 0, so the lower vector lies along (b + r, a), or
    along (a, r - b) when b < 0 (neither sum cancels), and the upper one is
    it turned by a right angle.  beta/mu change sign with a vector, so the
    sign rule keeps them comparable; 0.0 - x negates without making -0.0.
    """
    a, b = rho.coeff(2 * n)
    r = math.hypot(a, b)
    x, y = (b + r, a) if b >= 0.0 else (a, r - b)
    norm = math.hypot(x, y)
    vecs = [(x / norm, y / norm), (0.0 - y / norm, x / norm)]
    return [(0.0 - u, 0.0 - v) if (u if abs(u) > 1e-12 else v) < 0.0 else (u, v) for u, v in vecs]


def expand(rho, n):
    """Full perturbation report for eigenvalue pair n.

    Always fills the zeroth- and first-order data.  A pair that splits at
    first order takes M1's eigenvectors; one that does not takes the
    canonical basis, M2 and the second-order pair.  One closed-form constant
    table feeds M2 and every beta/mu: one product _M2_ROWS @ its (8, len(ks))
    array, whose _FIRST_ORDER rows serve both; frequencies where both beta
    and mu vanish are left out.
    """
    _require_mode(n)
    lam0 = lambda0(n)
    m1 = matrix_first_order(rho, n)
    pair1 = lambda1(rho, n)
    table = _coupled_table(constant_table, rho, n)
    product = _M2_ROWS @ _stacked(table.coupled)
    m2 = pair2 = None
    if _splits_at_first_order(rho, n):
        vecs = _first_order_eigvecs(rho, n)
    else:
        vecs = [(1.0, 0.0), (0.0, 1.0)]
        m2 = _m2(rho, n, table, product)
        pair2 = m2.eigenvalues()
    # both branches at once: (alpha, gamma) as columns over the branches
    betas, mus = _beta_mu(n, table.ks, np.array(vecs).T[:, :, None], product[8:])  # its _FIRST_ORDER rows
    beta_mu = [{k: (beta, mu) for k, beta, mu in zip(table.ks.tolist(), *branch) if beta or mu}
               for branch in zip(betas.tolist(), mus.tolist())]
    return PerturbationReport(
        n=n,
        lambda0=lam0,
        lambda1=pair1,
        m1=m1,
        eigvec1=vecs,
        beta_mu=beta_mu,
        lambda2=pair2,
        m2=m2,
        rho=rho,
    )
