"""Direct spectral Steklov eigensolver on star-shaped perturbed domains.

The method expands trial functions in global harmonic polynomials
{1, r^j cos(j theta), r^j sin(j theta)} and enforces the boundary condition
weakly: with S the boundary flux form and B the boundary mass form, the
Steklov eigenvalues solve the generalized Hermitian problem S x = lambda B x.
Both forms are evaluated with periodic trapezoid quadrature, which is
spectrally accurate for these smooth integrands.  Per-mode scaling of the
basis by (max R)^{-j} controls the conditioning of B, which is formed as
the exactly Hermitian Gram product of the weighted boundary values.  One
eigendecomposition of B both gates the solve on cond(B) and reduces the
generalized problem to an ordinary Hermitian one.

When the modes of rho have gcd g >= 2, the domain is invariant under
rotation by 2 pi / g and the basis splits into symmetry classes
(symmetry_blocks): the forms are block diagonal in them, each class's
sums are 2 pi / g-periodic and run over one sector of the grid, a class
and its complex conjugate share their eigenvalues and are solved once
(the group-representation splitting of Bossavit, CMAME 56, 1986), and
symmetry_blocks pads every class once, by zero rows, to the largest, so all
are solved as one stack.  g = 1 is one real class summed over the whole grid.

When rho also has a mirror axis phi, rho(phi + t) = rho(phi - t), the class
rows are phased to it: z^j e^{-ij phi} and conj(z)^j e^{ij phi}.  The
antiunitary mirror-then-conjugate fixes them and the exact forms, so each
class block is real, and assemble keeps the real part of a complex stack's
S and B: the trapezoid sum over the grid and its mirror image 2 phi - theta,
with B still an exact Gram matrix.  That rule equals the plain N-point rule
only where the grid resolves the integrands of S and B.  A self-conjugate
class is cut into its even rows (the constant and c_j) and its odd rows
(s_j).  solve() labels each eigenvalue by class and level; levels of one
class do not cross (von Neumann & Wigner, 1929).

Only the radius depends on eps: sample_boundary works out the grid, the
samples of rho and rho' on its sector, the range of rho on the star-check
grid, the area's coefficients, the symmetry classes and their counts
(BoundarySamples) once per sweep, and every grid point shares them.  The
classes fix the padding rows too, so sweep reads them once, from its first
point's B, and hands them to solve at every point.
"""

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import expansion, geometry
from .errors import IllConditioned, InsufficientGrid
from .kernels import boundary_traces

log = logging.getLogger("steklov_pert.solver")

CONDITION_LIMIT = 1e12
SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class SolverConfig:
    """Discretization parameters.

    basis_size is the number of harmonic mode pairs K (total dimension
    2K+1); assemble() always scales mode j by (max R)^{-j}, and solve()
    judges the resulting cond(B), so K has no fixed upper bound.
    quad_points is the number N of trapezoid points on the boundary,
    folded onto lcm(N, g) points and refused if that grid cannot resolve
    rho (see sample_boundary); without it sample_boundary() picks N for
    each rho.
    """

    basis_size: int = 16
    quad_points: int = None

    def __post_init__(self):
        if self.basis_size < 1:
            raise ValueError("basis_size must be >= 1")
        if self.quad_points is not None and self.quad_points < 4 * self.basis_size + 8:
            raise ValueError("quad_points must be >= 4*basis_size + 8")


@dataclass
class FitResult:
    """One branch's cubic fit; the truncation fields are None on fewer than 7 points (see fit_derivatives)."""

    branch: int
    lambda0: float
    lambda1: float
    lambda2: float
    residual: float
    lambda1_truncation: float = None
    lambda2_truncation: float = None


@dataclass
class EigencurveSet:
    """Eigenvalue branches over an eps grid, each read by its (class, level) label (see sweep).

    branches[i, j] is the i-th tracked nonzero branch at eps_grid[j]; the
    eps = 0 column carries the disk spectrum without the trivial zero.
    """

    eps_grid: np.ndarray
    branches: np.ndarray


class Spectrum(NamedTuple):
    """solve()'s eigenvalues: table[c, l] is class c's level l, inf past its last (a complex class's conjugate next)."""

    table: np.ndarray

    order = property(lambda self: np.argsort(self.table, axis=None, kind="stable")[: np.isfinite(self.table).sum()])
    values = property(lambda self: self.table.ravel()[self.order])  # ascending
    classes = property(lambda self: self.order // self.table.shape[-1])  # the class of each value
    levels = property(lambda self: self.order % self.table.shape[-1])  # and its level


class BoundarySamples(NamedTuple):
    """The eps-independent discretization of rho that assemble() uses at every eps."""

    theta: np.ndarray  # the quadrature points of one 2 pi / g sector, less axis if rho has one
    rho: np.ndarray  # rho(theta)
    rho_prime: np.ndarray  # rho'(theta)
    star_range: tuple  # geometry.star_range(rho)
    area: tuple  # geometry.area_coefficients(rho)
    exponents: np.ndarray  # -j for j = 0 .. K: mode j is scaled by (max R)^-j
    weight: float  # the trapezoid weight of a sector point, 2 pi gcd(N, g) / N
    blocks: list  # the ClassStacks of symmetry_blocks(g, K, mirrored)
    axis: float  # rho's mirror axis (_mirror_axis), or None: then classes stay whole and complex
    counts: np.ndarray  # how many times each class's eigenvalues count, the stacks' counts in order


def _rotation_order(rho):
    """g, the gcd of the modes j >= 1 at which rho has a nonzero coefficient; 1 if none."""
    return math.gcd(*(j for j in range(1, rho.max_mode + 1) if rho.a[j] or rho.b[j])) or 1


def _mirror_axis(rho):
    """phi with rho(phi + t) = rho(phi - t) to rounding (0 for a constant), or None if there is none.

    Turned by phi, mode j has the odd coefficient a_j cos(j phi) - b_j sin(j phi).  phi is the first
    (atan2(a_m, b_m) + k pi) / m, k = 0 .. m - 1 (m the lowest mode) at which every mode's is within
    the rounding bound 8 J eps max_j hypot(a_j, b_j), J = rho.max_mode: mode j multiplies phi's error by j.
    """
    if not rho.max_mode:
        return 0.0
    j = np.arange(rho.max_mode + 1)
    m = next(i for i in j[1:] if rho.a[i] or rho.b[i])
    bound = 8.0 * rho.max_mode * np.finfo(float).eps * np.max(np.hypot(rho.a, rho.b)[1:])
    for k in range(m):
        phi = (math.atan2(rho.a[m], rho.b[m]) + k * math.pi) / m
        if np.max(np.abs(rho.a * np.cos(j * phi) - rho.b * np.sin(j * phi))) <= bound:
            return phi
    return None


def sample_boundary(rho, cfg):
    """The grid, samples and symmetry classes of rho for cfg, shared by assemble() at every eps.

    It finds rho's rotation order g once (the domain is invariant under
    rotation by 2 pi / g).  The grid has N = cfg.quad_points points when
    that is given, else max(512, 8K, 2J + 1) rounded up to a multiple of g
    (J = rho.max_mode): 516 points for cos 12 theta, 513 for cos 3 theta.
    Every product that assemble() sums is 2 pi / g-periodic, so its N-point
    trapezoid sum is exactly the sum over the N / gcd(N, g) sector points
    2 pi m / lcm(N, g), each weighted 2 pi gcd(N, g) / N.  rho and rho' are
    sampled on the lcm(N, g) points and cut to the sector, so those points
    must resolve rho: a quad_points whose lcm(N, g) <= 2J is a ValueError,
    raised before anything is sampled.  The kernel's angles are the sector
    points less rho's mirror axis, if it has one: symmetry_blocks then cuts
    self-conjugate classes, but the disk's, whose levels are all double.  The
    star check's sample range and the area's coefficients are taken here too.
    """
    g, axis = _rotation_order(rho), _mirror_axis(rho)
    n = cfg.quad_points
    if n is None:
        n = -(-max(512, 8 * cfg.basis_size, 2 * rho.max_mode + 1) // g) * g
    shared = math.gcd(n, g)
    count, points = n // shared, n // shared * g  # sector points, lcm(N, g)
    if points <= 2 * rho.max_mode:
        raise ValueError(f"quad_points: {n} points fold onto lcm(N, g) = {points}, too few to resolve "
                         f"rho's mode {rho.max_mode} (it needs more than {2 * rho.max_mode})")
    theta = np.linspace(0.0, 2.0 * np.pi / g, count, endpoint=False) - (axis or 0.0)
    star_range = geometry.star_range(rho)
    values = rho.sample(points)[:count]
    slopes = rho.derivative().sample(points)[:count]
    blocks = symmetry_blocks(g, cfg.basis_size, axis is not None and rho.max_mode > 0)
    counts = np.hstack([stack.counts for stack in blocks])
    if log.isEnabledFor(logging.INFO):  # the axis text and the class count
        log.info("grid N=%d g=%d axis=%s sector points=%d K=%d classes=%d", n, g,
                 "none" if axis is None else f"{axis:.6g}", count, cfg.basis_size, counts.size)
    return BoundarySamples(theta, values, slopes, star_range, geometry.area_coefficients(rho),
                           -np.arange(cfg.basis_size + 1.0), 2.0 * np.pi * shared / n, blocks, axis, counts)


class ClassStack(NamedTuple):
    """Symmetry classes of one kind, padded by rows of weight 0 to the size of the largest class of either kind.

    rows holds the kernel rows of each class, one class per row of the array,
    or every row (slice(None); assemble takes the kernel output whole) when g = 1, unmirrored.
    counts holds how many times each class's eigenvalues count: 2 for a
    complex class, which stands for its conjugate class too, else 1.  A
    self-conjugate class takes its kernel rows where weights is True (partners
    None); a complex class's rows are Re(w) kernel row c + i Im(w) kernel row
    p, for c in rows, p in partners (c + 1) and w in weights (count x size x 1).
    """

    rows: object
    partners: object
    weights: object
    counts: object


# z^j / sqrt(2) = (c_j + i s_j) / sqrt(2) and conj(z)^j / sqrt(2), as weights of c_j and s_j
Z_WEIGHTS = np.array([1.0 + 1.0j, 1.0 - 1.0j]) * SQRT_HALF


def symmetry_blocks(g, num_modes, mirrored):
    """The symmetry classes of the basis for K, on which S and B are block diagonal: at most two ClassStacks.

    With g the rotation order of rho, rotation by 2 pi / g maps the domain
    to itself and multiplies z^j = (r e^{i theta})^j by exp(2 pi i j / g).
    Class r = 0 .. g // 2 holds the functions that it multiplies by
    exp(2 pi i r / g): z^j for the modes j = r and conj(z)^j for j = -r
    (mod g), each (c_j +- i s_j) / sqrt(2), and for r = 0 the constant.
    That is a unitary change of rows, so the mass eigenvalues keep their
    values.  Class g - r is the complex conjugate of class r and has its
    eigenvalues, so it is left out and solve() counts class r twice, unless
    2r = 0 (mod g): that class is its own conjugate, counts once and spans
    the real rows c_j, s_j of its modes; if mirrored (phased to rho's axis),
    its even rows (the constant and c_j) and its odd rows s_j are two
    classes.  Empty classes are dropped; the self-conjugate classes keep
    their real rows, and they and the complex classes form a stack each, of
    one width.  With g = 1 and no mirror there is one real class of all 2K+1 rows.
    """
    if g == 1 and not mirrored:
        return [ClassStack(slice(None), None, None, 1)]
    j = np.arange(1, num_modes + 1)
    r = np.concatenate(([0], j % g, -j % g))  # the class of the constant, of each z^j and of each conj(z)^j
    rows = np.concatenate(([0], 2 * j - 1, 2 * j - 1))
    weights = np.concatenate(([1.0], np.repeat(Z_WEIGHTS, num_modes)))
    real = 2 * r % g == 0
    # 2r, +1 for a mirrored class r's odd rows, +2g for a complex class (real ones first); -1 for conjugates r > g / 2
    key = np.where(r <= g // 2, 2 * r + (mirrored & real & (weights.imag < 0.0)) + 2 * g * ~real, -1)
    chosen = np.flatnonzero(key >= 0)
    chosen = chosen[np.argsort(key[chosen], kind="stable")]
    at = np.arange(chosen.size) - np.searchsorted(key[chosen], key[chosen])  # each row's place in its class
    at = np.cumsum(at == 0) - 1, at
    class_rows = np.zeros((at[0][-1] + 1, at[1].max() + 1), int)  # every class padded to the largest
    class_weights = np.zeros(class_rows.shape + (1,), complex)
    class_rows[at], class_weights[at] = rows[chosen], weights[chosen, None]
    split = np.count_nonzero(real[chosen][at[1] == 0])  # the number of self-conjugate classes
    odd = class_weights[..., 0].imag < 0.0  # a real class takes s_j for conj(z)^j, else c_j or 0
    stacks = [ClassStack(class_rows[:split] + odd[:split], None, class_weights[:split] != 0.0, np.ones(split, int)),
              ClassStack(class_rows[split:], class_rows[split:] + 1, class_weights[split:],
                         np.full(len(odd) - split, 2))]
    return [stack for stack in stacks if stack.counts.size]


def _complex_rows(kernel_rows, partner_rows, weights):
    """Re(w) kernel_rows + i Im(w) partner_rows, written as real and imaginary parts."""
    out = np.empty(kernel_rows.shape, dtype=complex)
    np.multiply(kernel_rows, weights.real, out=out.real)
    np.multiply(partner_rows, weights.imag, out=out.imag)
    return out


def assemble(rho, eps, cfg=None, normalize=True, samples=None):
    """Boundary flux and mass matrices (S_r, B_r) of each symmetry class at eps.

    S_kl = contour integral of (d_nu phi_k) conj(phi_l) ds, which equals
    the interior Dirichlet energy by Green's identity and is therefore
    Hermitian; B is the boundary Gram matrix of the basis.  Mode j is
    scaled by (max R)^{-j}.  Raises NonStarShaped for invalid eps; solve()
    judges the conditioning of B.

    samples, from sample_boundary(rho, cfg), holds the grid, the samples of
    rho and the symmetry classes; sweep() takes it once for all its eps,
    and without it assemble takes its own.  Returns a list of one pair
    (S, B, counts): the (count, size, size) blocks of every class, the real
    ones first, each padded by zero rows and columns (the full S and B for
    g = 1 unmirrored), and the array of class counts, samples.counts.
    Each sum runs over the sector points of samples.  The work done per eps
    is the radius R = (1 + eps*rho) / sqrt(v(eps)) and R', the star-shape
    check on the stored range, the trace kernel on the sector and one
    product per class stack, which forms its B and S together and writes
    them into its classes' place in one (2, classes, size, size) array.
    """
    cfg = cfg or SolverConfig()
    if samples is None:
        samples = sample_boundary(rho, cfg)
    geometry.require_star_shaped(samples.star_range, eps)
    radius = 1.0 + eps * samples.rho
    radius_prime = eps * samples.rho_prime
    if normalize:
        v0, v1, v2 = samples.area
        scale = 1.0 / math.sqrt(v0 + v1 * eps + v2 * (eps * eps))  # geometry.area_value(rho, eps)
        radius = radius * scale
        radius_prime = radius_prime * scale
    scales = float(np.max(radius)) ** samples.exponents
    both = boundary_traces(samples.theta, radius, radius_prime, cfg.basis_size, scales)  # V, T
    # w = hypot(R, R'): rows V sqrt(h w) and T sqrt(h / w) give S = h T V^H, B = h V w V^H
    h = samples.weight
    root_weight = np.sqrt(h * np.hypot(radius, radius_prime))
    both[0] *= root_weight
    both[1] *= h / root_weight
    blocks = samples.blocks
    if blocks[0].weights is None:  # g = 1, unmirrored: every row, as one block
        products = both @ both[0].conj().swapaxes(-1, -2)
    else:  # B and S of every class, complex if a stack is complex
        size = blocks[0].rows.shape[-1]
        dtype = complex if samples.axis is None and blocks[-1].partners is not None else float
        products = np.empty((2, samples.counts.size, size, size), dtype)
        start = 0
        for rows, partners, weights, counts in blocks:  # the real classes, then the complex ones
            if partners is None:  # real rows, and zero rows for padding
                pair = both[:, rows]
                pair *= weights
            else:
                pair = _complex_rows(both[:, rows], both[:, partners], weights)
                if samples.axis is not None:  # real blocks: Re(T V^H) = T_f V_f^T on the interleaved parts
                    pair = pair.view(float)
            np.matmul(pair, pair[0].conj().swapaxes(-1, -2), out=products[:, start : start + counts.size])
            start += counts.size
    bmat, smat = products
    return [(smat, bmat, samples.counts)]


def _padding_layout(bmat):
    """The lift of B's padding rows (1 on their diagonal, else 0) and the number of them in each block.

    A padding row is a zero row of B.  solve() takes the two from each B it
    is given; sweep() takes them once, from its first point's B, since the
    class stacks of sample_boundary fix the padding rows for every eps.
    """
    padding = np.diagonal(bmat, axis1=-2, axis2=-1) == 0.0
    return padding[..., None] * np.eye(bmat.shape[-1]), np.count_nonzero(padding, axis=-1).reshape(-1, 1)


def solve(pairs, _layout=None):
    """The labelled ascending eigenvalues (Spectrum) of S x = lambda B x for assemble()'s one pair.

    The pair (S, B, counts) holds one block or a stack of blocks and the
    number of times each block's eigenvalues count (2 for a complex class:
    its conjugate class has them too, as the next class).  A zero row of B
    is padding: its diagonal entry is set to the block's first (within B's
    eigenvalues), it adds an eigenvalue 0, and the block drops one of its
    eigenvalues nearest 0 for each.  The padding rows are read from B's
    diagonal (_padding_layout), unless sweep() hands over, as _layout, the
    ones it read at its first point.  With B = Q diag(mu) Q^H in each block,
    B must be positive definite with mu_max / mu_min <= CONDITION_LIMIT over
    all blocks, else IllConditioned reports the measured value.  W = Q
    diag(mu)^{-1/2} reduces each block to the eigenvalues of the Hermitian
    part of W^H S W: one stacked eigh and one stacked eigvalsh.
    """
    [(smat, bmat, counts)] = pairs
    lift, padded = _padding_layout(bmat) if _layout is None else _layout
    try:
        mu, q = np.linalg.eigh(bmat + lift * bmat[..., :1, :1])
        lo, hi = mu.min(), mu.max()  # NaN propagates, and fails both tests below
        if not lo > 0.0:
            raise IllConditioned(f"boundary mass matrix smallest eigenvalue {lo:.3e} is not positive")
        cond = hi / lo
        if not cond <= CONDITION_LIMIT:
            raise IllConditioned(
                f"boundary mass matrix condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}"
            )
        log.debug("solve cond(B)=%.3e", cond)
        w = q / np.sqrt(mu)[..., None, :]
        reduced = w.conj().swapaxes(-1, -2) @ smat @ w
        # twice its Hermitian part: S is Hermitian only up to the aliasing
        # of its sums, and an eigvalsh reading one triangle would make the
        # eigenvalues depend on the rows (class rows or kernel rows)
        found = 0.5 * np.linalg.eigvalsh(reduced + reduced.conj().swapaxes(-1, -2)).reshape(-1, smat.shape[-1])
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"generalized eigensolve failed: {exc}") from None
    nearest = np.argsort(np.argsort(np.abs(found), axis=-1), axis=-1)  # 0 for the value nearest 0
    found[nearest < padded] = np.inf
    return Spectrum(np.repeat(np.sort(found, axis=-1), counts, axis=0))  # a complex class's conjugate next


def steklov_eigenvalues(rho, eps, cfg=None, normalize=True):
    """Convenience: assemble and solve in one call; the ascending eigenvalues without their labels."""
    return solve(assemble(rho, eps, cfg, normalize=normalize)).values


def _validate_grid(eps_grid):
    """eps_grid sorted, if it is symmetric_grid(eps_max, count) to 1e-12 in any order; else ValueError."""
    grid = np.sort(np.asarray(eps_grid, dtype=float))
    if grid.size < 1:
        raise InsufficientGrid("eps grid needs at least 1 point")
    if not np.allclose(grid, symmetric_grid(grid[-1], grid.size), rtol=0.0, atol=1e-12):
        raise ValueError("eps grid points must be distinct and evenly spaced, as symmetric_grid builds them")
    return grid


def _match_branches(spectra, n_branches, crosses):
    """The branch rows, read by label from the Spectrum of each point of a symmetric_grid, and the labels read.

    Rows 2n - 2 and 2n - 1 read the labels of pair n, n sqrt(pi) at eps = 0,
    the lower at the next point first.  A pair whose branches share a class,
    as without a mirror axis, and for which crosses(n) holds (it splits at
    an odd order) crosses itself at eps = 0, so its levels swap for eps < 0.
    crosses is asked only about such pairs.
    """
    mid = len(spectra) // 2
    count = n_branches + n_branches % 2  # whole pairs
    right = np.stack((spectra[mid].classes, spectra[mid].levels))[:, 1 : count + 1]
    right = right[:, np.lexsort((spectra[min(mid + 1, len(spectra) - 1)].table[tuple(right)], np.arange(count) // 2))]
    left = right.copy()
    for i in (2 * n - 2 for n in range(1, count // 2 + 1) if right[0, 2 * n - 2] == right[0, 2 * n - 1] and crosses(n)):
        left[:, [i, i + 1]] = right[:, [i + 1, i]]
    labels = [(left if j < mid else right)[:, :n_branches] for j in range(len(spectra))]
    return np.array([spectrum.table[tuple(label)] for spectrum, label in zip(spectra, labels)]).T, labels


def sweep(rho, eps_grid, cfg=None, n_branches=4):
    """The lowest nonzero eigenvalue branches over a grid from symmetric_grid, each read by its label.

    Any other eps_grid is a ValueError.  rho's grid, samples and classes are
    worked out once per sweep (sample_boundary), and so are the padding rows
    of the class stacks, read from the first point's B (_padding_layout);
    each grid point, in ascending eps, then costs one assemble() and one
    solve().  The first point that fails stops the sweep with an error naming
    its eps: NonStarShaped, IllConditioned from solve() (cond(B) too large),
    or IllConditioned when the lowest eigenvalue is not the trivial zero.
    Row i is the branch through the i-th lowest nonzero value just right of
    eps = 0, read at every eps by its (class, level) label (_match_branches).
    The two branches of pair n share a class when rho has no mirror axis and
    g divides 2n.  They are analytic in eps (Rellich; Kato, Perturbation
    Theory for Linear Operators, ch. II), and their difference is
    c eps^p + O(eps^(p + 1)), with p the fewest signed modes of rho that sum
    to 2n (expansion._split_order), so they cross at eps = 0 exactly when p is
    odd, and their levels swap for eps < 0 then.  p is worked out only for
    such pairs.  If c vanishes for a reason the modes do not show, the true
    order is higher and may have the other parity: the rows then have a kink
    at eps = 0, which the fit's truncation estimate and residual are left to
    show.  A pair whose p exceeds expansion.SPLIT_ORDER_CAP is read as not
    crossing.
    """
    cfg = cfg or SolverConfig()
    if n_branches < 1:
        raise ValueError("n_branches must be >= 1")
    if cfg.basis_size < 2 * n_branches + 4:
        raise ValueError(
            f"basis_size {cfg.basis_size} too small for {n_branches} branches "
            f"(needs >= {2 * n_branches + 4})"
        )
    grid = _validate_grid(eps_grid)
    samples = sample_boundary(rho, cfg)
    spectra, layout = [], None
    for eps in grid:
        pairs = assemble(rho, float(eps), cfg, samples=samples)
        if layout is None:  # the class stacks fix the padding rows at every eps
            layout = _padding_layout(pairs[0][1])
        try:
            spectrum = solve(pairs, layout)
        except IllConditioned as exc:
            raise IllConditioned(f"eps={eps:g}: {exc}") from None
        if abs(lowest := spectrum.table[:, 0].min()) > 0.1 * math.sqrt(math.pi):
            raise IllConditioned(
                f"lowest eigenvalue {lowest:.3e} at eps={eps:g} is not the "
                "trivial zero; discretization is unreliable"
            )
        spectra.append(spectrum)
    branches, labels = _match_branches(spectra, n_branches, lambda n: (expansion._split_order(rho, n) or 0) % 2 == 1)
    if log.isEnabledFor(logging.DEBUG):  # each branch as value@class:level
        for eps, spectrum, column, label in zip(grid, spectra, branches.T, labels):
            log.debug("sweep eps=%g trivial eigenvalue %.3e branches %s", eps, spectrum.values[0],
                      " ".join(f"{v:.10g}@{c}:{l}" for v, c, l in zip(column, *label)))
    return EigencurveSet(eps_grid=grid, branches=branches)


def fit_derivatives(curves):
    """Cubic least-squares fit of each branch; returns per-branch FitResult.

    The linear and quadratic coefficients estimate the first- and
    second-order eigenvalue corrections.  Their truncation estimates are
    |cubic - degree-6 coefficient|, the degree-6 fit on the same grid, or
    None on fewer than 7 points.  An estimate assumes that the degree-6 fit
    converges on the window, which fails where the window reaches the
    radius of convergence of the branch in eps: that radius is about
    0.0076 for cos 17 theta at n = 8 and 0.0048 for cos 25 theta at n = 12,
    inside verify's default window of +-0.008, and there the estimate
    says nothing about the error.  The two branches of a pair that is
    degenerate at eps = 0 come in sweep's row order (the lower just right of
    0 first), so callers pair them with predictions by their fitted values.
    """
    grid = curves.eps_grid
    if grid.size < 5:
        raise InsufficientGrid("derivative fits need at least 5 grid points")
    if not np.allclose(grid, -grid[::-1], rtol=0.0, atol=1e-12):
        raise InsufficientGrid("derivative fits need a grid symmetric about 0")
    design = np.vander(grid, 7, increasing=True)  # 1, eps, ..., eps^6
    coef, *_ = np.linalg.lstsq(design[:, :4], curves.branches.T, rcond=None)
    resid = np.sqrt(np.mean((design[:, :4] @ coef - curves.branches.T) ** 2, axis=0))
    truncation = [(None, None)] * len(resid)
    if grid.size >= 7:
        sextic, *_ = np.linalg.lstsq(design, curves.branches.T, rcond=None)
        truncation = np.abs(coef[1:3] - sextic[1:3]).T.tolist()
    return [
        FitResult(i, float(c[0]), float(c[1]), float(c[2]), float(r), *t)
        for i, (c, r, t) in enumerate(zip(coef.T, resid, truncation))
    ]


def symmetric_grid(eps_max, count):
    """The eps grid of a sweep: count evenly spaced points from -eps_max to eps_max.

    count is odd, so the grid includes 0, and more than one point needs 0 < eps_max <= max_float / 2,
    so that linspace's width 2 eps_max is finite.  It is the one valid grid definition: sweep() takes no other.
    """
    if count < 1 or count % 2 == 0:
        raise ValueError(f"count must be odd and >= 1, so the distinct points include 0, got {count}")
    if count == 1:
        return np.array([0.0])
    if not 0.0 < eps_max <= np.finfo(float).max / 2:
        raise ValueError(f"eps_max must be > 0 and 2*eps_max finite for {count} distinct points, got {eps_max}")
    return np.linspace(-eps_max, eps_max, count)
