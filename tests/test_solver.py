import json
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steklov_pert import cli, expansion, geometry, kernels, solver, special_rho
from steklov_pert.errors import IllConditioned, InsufficientGrid, NonStarShaped
from steklov_pert.series import FourierSeries

from conftest import random_series

RT = math.sqrt(math.pi)
DISK7 = np.array([0, 1, 1, 2, 2, 3, 3]) * RT


def rotated_cosine(mode, phi):
    """cos(mode * (theta - phi)): both coefficients of the mode are nonzero."""
    b, a = np.zeros(mode + 1), np.zeros(mode + 1)
    b[mode], a[mode] = math.cos(mode * phi), math.sin(mode * phi)
    return FourierSeries(b=b, a=a)


# 0.5 cos 3 theta plus a mode 6 turned off its mirror axes: g = 3 and no axis
CHIRAL = FourierSeries.from_json('{"b":{"3":0.5,"6":0.2},"a":{"6":0.3}}')


def grid_points(cfg, rho=FourierSeries(b=[0, 0.2, 0.3])):
    """N, the full grid that sample_boundary picks for cfg (rho has g = 1 by default)."""
    samples = solver.sample_boundary(rho, cfg)
    return round(2.0 * np.pi / samples.weight)


class TestConfig:
    def test_defaults(self):
        assert grid_points(solver.SolverConfig()) == 512

    def test_quad_points_resolution(self):
        # the default floor of 512 dominates up to K = 64, then 8K takes over
        assert grid_points(solver.SolverConfig(basis_size=48)) == 512
        assert grid_points(solver.SolverConfig(basis_size=84)) == 672
        assert grid_points(solver.SolverConfig(basis_size=16, quad_points=700)) == 700

    def test_validation(self):
        with pytest.raises(ValueError):
            solver.SolverConfig(basis_size=0)
        with pytest.raises(ValueError):
            solver.SolverConfig(basis_size=16, quad_points=60)


class TestAssemble:
    def test_disk_closed_forms(self):
        # on the unit-area disk with per-mode scaling the forms collapse to
        #   S = diag(0, 1*pi, 1*pi, 2*pi, 2*pi, ...)   (flux of r^j modes)
        #   B = diag(2*sqrt(pi), sqrt(pi), sqrt(pi), ...)
        cfg = solver.SolverConfig(basis_size=6, quad_points=128)
        [(smat, bmat, _)] = solver.assemble(FourierSeries.zero(), 0.0, cfg)
        modes = np.repeat(np.arange(1, 7), 2)
        expected_s = np.diag(np.concatenate(([0.0], modes * math.pi)))
        expected_b = np.diag(np.concatenate(([2 * RT], np.full(12, RT))))
        np.testing.assert_allclose(smat, expected_s, atol=1e-12)
        np.testing.assert_allclose(bmat, expected_b, atol=1e-12)

    def test_flux_matrix_symmetric(self):
        rng = np.random.default_rng(3)
        rho = random_series(rng, max_mode=6)
        [(smat, bmat, _)] = solver.assemble(rho, 0.05, solver.SolverConfig(basis_size=20))
        asym = np.max(np.abs(smat - smat.T))
        assert asym <= 1e-10 * np.max(np.abs(smat))
        assert np.array_equal(bmat, bmat.T)  # B is a Gram product

    def test_mass_matrix_positive_definite(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            rho = random_series(rng, max_mode=5)
            [(_, bmat, _)] = solver.assemble(rho, 0.03, solver.SolverConfig(basis_size=16))
            np.linalg.cholesky(0.5 * (bmat + bmat.T))

    def test_non_star_shaped(self):
        with pytest.raises(NonStarShaped):
            solver.assemble(FourierSeries.cosine(3), 2.0)

    def test_shared_samples_give_identical_matrices(self):
        # assemble's own sample_boundary call builds the grid and the class
        # stacks that a sweep shares; either way assemble returns one pair
        cfg = solver.SolverConfig(basis_size=18)
        for rho, classes in [(random_series(np.random.default_rng(8), max_mode=5), 1),
                             (rotated_cosine(12, 0.7), 1)]:
            samples = solver.sample_boundary(rho, cfg)
            for eps in (-0.03, 0.0, 0.02):
                for normalize in (True, False):
                    own = solver.assemble(rho, eps, cfg, normalize)
                    shared = solver.assemble(rho, eps, cfg, normalize, samples=samples)
                    assert len(own) == len(shared) == classes
                    for got, want in zip(shared, own):
                        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize(
        "rho",
        [FourierSeries(b=[0.0, 0.3, 0.1, 0.2], a=[0.0, 0.0, 0.25]), rotated_cosine(12, 0.7)],
        ids=["g1", "rotated-cos12"],
    )
    def test_peak_memory_is_the_kernel_outputs(self, rho):
        # one allocation per eps point: the peak of one assemble stays within
        # 1.4x the kernel's two (2K+1) x N outputs (1.32x measured; a copy of
        # either output, as a buffered cumprod once made, gives 1.63x)
        cfg = solver.SolverConfig(basis_size=40)
        samples = solver.sample_boundary(rho, cfg)
        assert samples.theta.size <= 512
        solver.assemble(rho, 0.05, cfg, samples=samples)  # warm
        tracemalloc.start()
        try:
            solver.assemble(rho, 0.05, cfg, samples=samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * (2 * 81 * 512 * 8)


def padded_pairs(lowest):
    """A stack of two classes: diag(lowest, 2) padded by a zero row to 3 rows, and diag(1, 3, 4)."""
    smat = np.array([np.diag([lowest, 2.0, 0.0]), np.diag([1.0, 3.0, 4.0])])
    bmat = np.array([np.diag([1.0, 1.0, 0.0]), np.eye(3)])
    return [(smat, bmat, np.array([1, 1]))]


class TestSolve:
    @pytest.mark.parametrize("lowest", [0.5, -0.5, -1e-3])
    def test_padding_drops_the_values_nearest_zero(self, lowest):
        # the padding row adds an eigenvalue 0 to the first class, and that is
        # the one dropped: a negative value of the class keeps its level 0
        spectrum = solver.solve(padded_pairs(lowest))
        order = np.argsort([lowest, 1.0, 2.0, 3.0, 4.0], kind="stable")
        np.testing.assert_array_equal(spectrum.values, np.array([lowest, 1.0, 2.0, 3.0, 4.0])[order])
        np.testing.assert_array_equal(spectrum.classes, np.array([0, 1, 0, 1, 1])[order])
        np.testing.assert_array_equal(spectrum.levels, np.array([0, 0, 1, 1, 2])[order])

    def test_disk_spectrum(self):
        w = solver.steklov_eigenvalues(FourierSeries.zero(), 0.0, solver.SolverConfig(16, 512))
        assert np.max(np.abs(w[:7] - DISK7)) <= 1e-8

    def test_zero_mode_always_present(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            rho = random_series(rng, max_mode=5)
            w = solver.steklov_eigenvalues(rho, 0.02, solver.SolverConfig(basis_size=16))
            assert abs(w[0]) <= 1e-10

    def test_homothety(self):
        cfg = solver.SolverConfig(16, 512)
        for a in (0.5, 2.0):
            w = solver.steklov_eigenvalues(
                FourierSeries.constant(a - 1.0), 1.0, cfg, normalize=False
            )
            target = np.array([0, 1, 1, 2, 2, 3, 3]) / a
            assert np.max(np.abs(w[:7] - target)) <= 1e-8

    def test_convergence_under_refinement(self):
        coarse = solver.SolverConfig(basis_size=16, quad_points=512)
        fine = solver.SolverConfig(basis_size=32, quad_points=1024)
        w1 = solver.steklov_eigenvalues(FourierSeries.zero(), 0.0, coarse)
        w2 = solver.steklov_eigenvalues(FourierSeries.zero(), 0.0, fine)
        assert np.max(np.abs(w1[1:7] - w2[1:7])) <= 1e-9
        rho = FourierSeries.cosine(3)
        w1 = solver.steklov_eigenvalues(rho, 0.05, coarse)
        w2 = solver.steklov_eigenvalues(rho, 0.05, fine)
        assert np.max(np.abs(w1[1:7] - w2[1:7])) <= 1e-7

    def test_singular_mass_matrix(self):
        with pytest.raises(IllConditioned):
            solver.solve([(np.eye(3), np.zeros((3, 3)), 1)])

    def test_ill_conditioned_mass_matrix_reports_condition(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        bmat = (q * np.logspace(0.0, -13.0, 12)) @ q.T  # SPD, cond 1e13
        with pytest.raises(IllConditioned, match="condition number") as info:
            solver.solve([(np.eye(12), bmat, 1)])
        measured = float(re.search(r"condition number (\S+)", str(info.value)).group(1))
        assert measured == pytest.approx(1e13, rel=1e-2)

    def test_failed_eigensolve_is_ill_conditioned(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(IllConditioned, match="^generalized eigensolve failed: Eigenvalues did not converge$"):
            solver.solve([(np.eye(3), np.eye(3), 1)])

    def test_nan_mass_matrix(self):
        bmat = np.eye(4)
        bmat[2, 2] = np.nan
        with pytest.raises(IllConditioned):
            solver.solve([(np.eye(4), bmat, 1)])

    def test_solves_the_hermitian_part_of_s(self):
        # an S that aliasing left slightly non-Hermitian gives the eigenvalues
        # of its Hermitian part, whatever unitary change of rows it comes in
        # (an eigvalsh of one triangle is off by 1.5e-2 and 8.8e-3 here)
        rng = np.random.default_rng(6)
        smat = rng.standard_normal((6, 6))
        smat = smat @ smat.T + 1e-2 * rng.standard_normal((6, 6))
        unitary, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        want = np.linalg.eigvalsh(0.5 * (smat + smat.T))
        for rotated in (smat, unitary @ smat @ unitary.conj().T):
            got = solver.solve([(rotated, np.eye(6), 1)]).values
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))

    def test_matches_scipy_generalized_eigh(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(2)
        for k in (16, 32, 48):
            for _ in range(2):
                rho = random_series(rng, max_mode=6)
                pairs = solver.assemble(rho, 0.02, solver.SolverConfig(basis_size=k))
                [(smat, bmat, _)] = pairs
                got = solver.solve(pairs).values
                want = scipy_linalg.eigh(
                    0.5 * (smat + smat.T), 0.5 * (bmat + bmat.T), eigvals_only=True
                )
                assert abs(got[0] - want[0]) <= 1e-12  # the trivial zero
                np.testing.assert_allclose(got[1:], want[1:], rtol=1e-12, atol=0.0)

    def test_constant_shift_is_a_reparameterization(self):
        # rho -> rho + c changes only the normalization: the domain at eps
        # equals the unshifted domain at eps/(1 + eps*c), so the spectra agree
        rho = FourierSeries.cosine(3)
        shifted = FourierSeries(b=[0.1, 0, 0, 1.0])
        cfg = solver.SolverConfig(basis_size=20)
        eps = 0.05
        w_shifted = solver.steklov_eigenvalues(shifted, eps, cfg)
        w_base = solver.steklov_eigenvalues(rho, eps / (1 + eps * 0.1), cfg)
        assert np.max(np.abs(w_shifted[:9] - w_base[:9])) <= 1e-8


def one_block_pairs(rho, eps, cfg, num_points, axis=None):
    """S, B and the count 1 of one block of all 2K+1 rows, each entry summed over all num_points grid points.

    The reference for the class solve: the plain N-point trapezoid rule on
    the real basis, with no symmetry classes and no sector.  Given rho's
    mirror axis phi, each entry is instead the mean of the sums over the
    grid and over its mirror image 2 phi - theta, where rho is the same and
    rho' changes sign: the rule a profile with a mirror axis is solved with.
    """
    theta = np.linspace(0.0, 2.0 * np.pi, num_points, endpoint=False)
    scale = 1.0 / math.sqrt(geometry.area_value(rho, eps))
    radius = (1.0 + eps * rho.sample(num_points)) * scale
    radius_prime = eps * rho.derivative().sample(num_points) * scale
    k = cfg.basis_size
    scales = np.max(radius) ** -np.arange(k + 1.0)
    values, traces = kernels.boundary_traces(theta, radius, radius_prime, k, scales)
    h = 2.0 * np.pi / num_points
    if axis is None:
        return [(h * traces @ values.T, h * (values * np.hypot(radius, radius_prime)) @ values.T, 1)]
    mirror_values, mirror_traces = kernels.boundary_traces(2.0 * axis - theta, radius, -radius_prime, k, scales)
    weight = np.hypot(radius, radius_prime)
    smat = 0.5 * h * (traces @ values.T + mirror_traces @ mirror_values.T)
    bmat = 0.5 * h * ((values * weight) @ values.T + (mirror_values * weight) @ mirror_values.T)
    return [(smat, bmat, 1)]


def default_grid_points(rho, cfg):
    """N of the default grid, a multiple of g: its sector points times g."""
    return solver.sample_boundary(rho, cfg).theta.size * solver._rotation_order(rho)


def mass_eigenvalues(pairs):
    """Ascending eigenvalues of every B block less its padding (zero rows), each as many times as its class counts."""
    mu = []
    for _, bmat, counts in pairs:
        for block, count in zip(np.reshape(bmat, (-1,) + bmat.shape[-2:]), np.atleast_1d(counts)):
            rows = np.diagonal(block) != 0.0
            mu += [np.linalg.eigvalsh(block[np.ix_(rows, rows)])] * count
    return np.sort(np.concatenate(mu))


def class_layout(blocks):
    """(size, real rows?, count) of each class, in the order of the stacks."""
    return [(rows.size, weights is None, count) for rows, _, weights, count in class_rows(blocks)]


def class_rows(blocks):
    """Per class, padding left out: its kernel rows, its partner rows (None for real rows), its weights (None) and its count."""
    for rows, partners, weights, counts in blocks:
        for i, count in enumerate(counts):
            if partners is None:
                yield rows[i][weights[i, :, 0]], None, None, count
            else:
                kept = weights[i, :, 0] != 0.0
                yield rows[i][kept], partners[i][kept], weights[i, kept, 0], count


def assert_classes_partition(blocks, num_modes):
    """Each kernel row once: a complex class (with its conjugate) covers its rows and partners.

    A self-conjugate class covers its real rows: c_j for z^j and the
    constant, s_j for conj(z)^j.
    """
    covered = []
    for rows, partners, weights, count in class_rows(blocks):
        if weights is None:
            covered.append(rows)
        elif count == 2:
            covered += [rows, partners]
        else:
            covered.append(rows + (weights.imag < 0))
    np.testing.assert_array_equal(np.sort(np.concatenate(covered)), np.arange(2 * num_modes + 1))


def class_basis(samples, num_modes):
    """The unitary change of rows to the classes, conjugate classes included, and each class's index range.

    Row Re(w) e_c + i Im(w) e_p stands for a complex row at kernel row c,
    partner p and weight w; the conjugate of a class counted twice takes
    the conjugate weights.  The kernel's sector starts at minus the axis phi
    that its rows are phased to, so its rows c_j, s_j are those of the
    unphased grid turned by -j phi: U maps to the unphased rows.  Returns U
    and, per class, the slice of U's rows, in the order of the blocks
    (conjugate classes last).
    """
    n = 2 * num_modes + 1
    classes, conjugates = [], []
    for rows, partners, weights, count in class_rows(samples.blocks):
        basis = np.zeros((rows.size, n), dtype=complex)
        index = np.arange(rows.size)
        if weights is None:
            basis[index, rows] = 1.0
        else:
            basis[index, rows] = weights.real
            basis[index, partners] += 1j * weights.imag
        if count == 2:
            conjugates.append(basis.conj())
        classes.append(basis)
    ranges = np.cumsum([0] + [c.shape[0] for c in classes + conjugates])
    phase = -samples.theta[0] * np.arange(1, num_modes + 1)
    turn = np.eye(n)
    turn[1::2, 1::2] = turn[2::2, 2::2] = np.diag(np.cos(phase))
    turn[1::2, 2::2], turn[2::2, 1::2] = np.diag(np.sin(phase)), -np.diag(np.sin(phase))
    return np.vstack(classes + conjugates) @ turn, [slice(a, b) for a, b in zip(ranges[:-1], ranges[1:])]


# the one-block S and B, transformed to the classes, measured <= 5.2e-15 of
# their largest entry outside the class blocks on the cases below, and their
# class blocks within 1.5e-14 of it of assemble()'s (of their real part, for
# a real stack, and the imaginary part assemble() drops is <= 2.7e-15 of it)
OFF_CLASS_BOUND = 5e-14
# a quadrature grid divisible by every g = 2..6, so that the one-block B is
# block diagonal in the classes and shares their mass eigenvalues
SYMMETRIC_POINTS = 480


class TestSymmetryBlocks:
    @pytest.mark.parametrize(
        "rho",
        [FourierSeries.zero(), FourierSeries.constant(0.3), FourierSeries(b=[0, 0, 0.5, 0.2], a=[0, 0, 0, 0.1])],
        ids=["disk", "constant", "modes-2-and-3"],
    )
    def test_one_block_without_symmetry(self, rho):
        # g = 1 and no mirror axis (modes 2 and 3 with a sine part), or the
        # disk: one real class, every row, taken from the kernel output as a view
        [(rows, partners, weights, counts)] = solver.sample_boundary(rho, solver.SolverConfig(basis_size=12)).blocks
        assert rows == slice(None) and partners is None and weights is None and counts == 1

    def test_g1_mirror_profile_is_cut_into_even_and_odd_rows(self):
        # g = 1 with a mirror axis (cosines of modes 2 and 3): two real classes,
        # the even rows (the constant and c_j) and the odd rows s_j, padded to
        # 13 rows by a row of weight False
        [(rows, partners, weights, counts)] = solver.sample_boundary(
            FourierSeries(b=[0, 0, 0.5, 0.2]), solver.SolverConfig(basis_size=12)).blocks
        assert rows.tolist() == [[0, *range(1, 25, 2)], [*range(2, 25, 2), 0]] and partners is None
        assert weights[:, :, 0].tolist() == [[True] * 13, [True] * 12 + [False]] and counts.tolist() == [1, 1]

    def test_rotated_cos12_block_sizes(self):
        # the self-conjugate classes 0 (constant, modes 12, 24, 36) and 6 (modes
        # 6, 18, 30) of a profile with a mirror axis are cut into their even
        # rows (the constant and c_j) and their odd rows s_j, 4 and 3 rows and
        # 3 and 3, each counted once; complex classes 1..4 of 7 rows and 5 of 6,
        # each standing for itself and its conjugate class 12 - r, counted
        # twice; the self-conjugate classes form a real stack and the complex
        # ones a complex stack, every class of both padded to the largest, 7 rows
        blocks = solver.sample_boundary(rotated_cosine(12, 0.7), solver.SolverConfig(basis_size=40)).blocks
        assert class_layout(blocks) == [(4, True, 1), (3, True, 1), (3, True, 1), (3, True, 1)] \
            + [(7, False, 2)] * 4 + [(6, False, 2)]
        assert [stack.rows.shape for stack in blocks] == [(4, 7), (5, 7)]
        assert_classes_partition(blocks, 40)
        assert [rows.tolist() for rows, *_ in class_rows(blocks[:1])] == [
            [0] + [2 * j - 1 for j in (12, 24, 36)], [2 * j for j in (12, 24, 36)],
            [2 * j - 1 for j in (6, 18, 30)], [2 * j for j in (6, 18, 30)]]
        # z^j for j = r (mod 12), then conj(z)^j for j = -r; row 2j-1 is c_j,
        # its partner 2j is s_j, and z^j / sqrt(2) has weight (1 + i) / sqrt(2);
        # a padding row has weight 0
        plus, minus = (1.0 + 1.0j) * solver.SQRT_HALF, (1.0 - 1.0j) * solver.SQRT_HALF
        rows, partners, weights, _ = blocks[1]
        assert rows[4].tolist() == [2 * j - 1 for j in (5, 17, 29, 7, 19, 31)] + [0]
        np.testing.assert_array_equal(partners, rows + 1)
        assert weights[4, :, 0].tolist() == [plus] * 3 + [minus] * 3 + [0.0]

    def test_more_classes_than_modes(self):
        # g = 30 > K = 4: class 0 is the constant (its odd rows are empty), classes
        # 1..4 hold z^1..z^4 alone (no mode j = -r (mod 30) up to 4), and classes
        # 5..15 are empty; all five have one row
        blocks = solver.symmetry_blocks(30, 4, True)
        assert class_layout(blocks) == [(1, True, 1)] + [(1, False, 2)] * 4
        assert_classes_partition(blocks, 4)
        w = solver.steklov_eigenvalues(FourierSeries.cosine(30), 0.0, solver.SolverConfig(basis_size=4))
        np.testing.assert_allclose(w, np.array([0, 1, 1, 2, 2, 3, 3, 4, 4]) * RT, atol=1e-12)

    @pytest.mark.parametrize(
        "rho, k, eps",
        [(special_rho(16), 84, 0.008), (special_rho(16), 84, -0.008),
         (rotated_cosine(12, 0.7), 40, 0.1), (rotated_cosine(12, 0.7), 40, -0.1), (CHIRAL, 20, 0.1)],
        ids=["special16+", "special16-", "cos12+", "cos12-", "chiral"],
    )
    def test_off_block_entries_vanish_and_blocks_solve_alike(self, rho, k, eps):
        # in the class rows the N-point one-block S and B are block diagonal,
        # their blocks are assemble()'s sector sums (their real parts, in a
        # real stack of a profile with a mirror axis), and the spectra agree
        cfg = solver.SolverConfig(basis_size=k)
        full = one_block_pairs(rho, eps, cfg, default_grid_points(rho, cfg))
        pairs = solver.assemble(rho, eps, cfg)
        basis, ranges = class_basis(solver.sample_boundary(rho, cfg), k)
        blocks = [pair for smat, bmat, _ in pairs for pair in zip(smat, bmat)]  # one (S, B) per class, padded
        for which, matrix in enumerate(full[0][:2]):
            transformed = basis @ matrix @ basis.conj().T
            size = np.max(np.abs(transformed))
            outside = np.ones(transformed.shape, dtype=bool)
            for span in ranges:
                outside[span, span] = False
            assert np.max(np.abs(transformed[outside])) <= OFF_CLASS_BOUND * size
            for span, block in zip(ranges, blocks):
                want, n = transformed[span, span], span.stop - span.start
                if np.isrealobj(block[which]):
                    assert np.max(np.abs(want.imag)) <= OFF_CLASS_BOUND * size
                    want = want.real
                np.testing.assert_allclose(want, block[which][:n, :n], rtol=0.0, atol=OFF_CLASS_BOUND * size)
                assert not block[which][n:].any() and not block[which][:, n:].any()  # padding
        want = solver.solve(full).values
        np.testing.assert_allclose(solver.solve(pairs).values, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        g=st.integers(2, 12),
        k=st.integers(8, 40),
        # on a 1e-3 lattice in [-1, 1], so zeros are common
        coefficients=st.lists(
            st.integers(-1000, 1000).map(lambda i: i / 1000.0), min_size=6, max_size=6
        ),
        size=st.floats(-0.15, 0.15),
    )
    def test_random_profiles_with_modes_divisible_by_g(self, g, k, coefficients, size):
        # modes g, 2g and 3g only, at eps with max |eps * rho| = |size|, on the
        # default grid: the class solve equals the one-block N-point solve
        b, a = np.zeros(3 * g + 1), np.zeros(3 * g + 1)
        b[g::g], a[g::g] = coefficients[:3], coefficients[3:]
        rho = FourierSeries(b=b, a=a)
        cfg = solver.SolverConfig(basis_size=k)
        blocks = solver.sample_boundary(rho, cfg).blocks
        if not rho.max_mode:
            assert blocks == [(slice(None), None, None, 1)]
            return
        assert_classes_partition(blocks, k)
        theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
        eps = size / np.max(np.abs(rho.evaluate(theta)))
        want = solver.solve(one_block_pairs(rho, eps, cfg, default_grid_points(rho, cfg))).values
        np.testing.assert_allclose(
            solver.solve(solver.assemble(rho, eps, cfg)).values,
            want,
            rtol=1e-12,
            atol=1e-12 * np.max(np.abs(want)),
        )

    @settings(derandomize=True, max_examples=40, deadline=None)
    @example(g=1, k=12, coefficients=[500, -300, 200], odd=0, angle=0.9, size=0.12)
    @example(g=2, k=15, coefficients=[-400, 700, 100], odd=0, angle=2.3, size=-0.1)
    @given(
        g=st.integers(1, 12),
        k=st.integers(8, 40),
        # on a 1e-3 lattice in [-1, 1], the first nonzero
        coefficients=st.lists(st.integers(-1000, 1000), min_size=3, max_size=3).filter(lambda c: c[0]),
        odd=st.sampled_from([0, -700, 300]),
        angle=st.floats(0.0, 2.0 * math.pi),
        size=st.floats(-0.15, 0.15),
    )
    def test_turned_even_profiles_solve_in_real_arithmetic(self, g, k, coefficients, odd, angle, size):
        # sum_i c_i cos(i g (theta - angle)) has the mirror axis angle, and
        # odd sin(2 g (theta - angle)) is odd about every axis of its mode g:
        # stacks are real with no odd part and stay complex with one; with no
        # odd part every self-conjugate class is cut into its even rows (the
        # constant and c_j) and its odd rows s_j, so for g <= 2 every class is;
        # the class solve equals the one-block N-point solve either way
        modes = g * np.arange(1, 4)
        b, a = np.zeros(3 * g + 1), np.zeros(3 * g + 1)
        b[modes] = np.array(coefficients) / 1000.0 * np.cos(modes * angle)
        a[modes] = np.array(coefficients) / 1000.0 * np.sin(modes * angle)
        b[2 * g] -= odd / 1000.0 * math.sin(2 * g * angle)
        a[2 * g] += odd / 1000.0 * math.cos(2 * g * angle)
        rho = FourierSeries(b=b, a=a)
        cfg = solver.SolverConfig(basis_size=k)
        samples = solver.sample_boundary(rho, cfg)
        assert (samples.axis is None) == bool(odd)
        if not odd:
            assert_classes_partition(samples.blocks, k)
            for rows, _, weights, count in class_rows(samples.blocks):
                real = rows if weights is None else rows + (weights.imag < 0)
                assert count == 2 or len(set(((real > 0) & (real % 2 == 0)).tolist())) == 1
            if g <= 2:
                assert sum(len(counts) for *_, counts in samples.blocks) == 2 * g
        eps = size / np.max(np.abs(rho.sample(512)))
        [(smat, bmat, counts)] = pairs = solver.assemble(rho, eps, cfg, samples=samples)
        assert smat.dtype == bmat.dtype == (complex if odd and 2 in np.atleast_1d(counts) else float)
        want = solver.solve(one_block_pairs(rho, eps, cfg, default_grid_points(rho, cfg))).values
        np.testing.assert_allclose(solver.solve(pairs).values, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("g, k, coefficients, angle", [(9, 8, [1, 0, -1], 1.0), (7, 8, [1, 0, -60], 1.0),
                                                          (8, 8, [1, 0, -3], 4.0)])
    def test_mirrored_classes_solve_the_grid_and_its_mirror_image(self, g, k, coefficients, angle):
        # sum_i c_i cos(i g (theta - angle)) / 1000 at max |eps rho| = 0.125: the
        # real class blocks of a profile with a mirror axis are the trapezoid
        # sums over the grid and its mirror image, so the class solve equals the
        # one-block solve of that rule (measured <= 4.8e-15 relative), where the
        # plain N-point rule misses by 2.2e-12 to 6.3e-12: on these grids the
        # two rules differ by the aliasing of the integrands of S and B
        modes = g * np.arange(1, 4)
        rho = FourierSeries(b=np.bincount(modes, np.array(coefficients) / 1000.0 * np.cos(modes * angle)),
                            a=np.bincount(modes, np.array(coefficients) / 1000.0 * np.sin(modes * angle)))
        cfg = solver.SolverConfig(basis_size=k)
        samples = solver.sample_boundary(rho, cfg)
        assert samples.axis is not None
        eps = 0.125 / np.max(np.abs(rho.sample(512)))
        got = solver.solve(solver.assemble(rho, eps, cfg, samples=samples)).values
        want = solver.solve(one_block_pairs(rho, eps, cfg, default_grid_points(rho, cfg), samples.axis)).values
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))

    @pytest.mark.parametrize("g, reflective", [pytest.param(g, False, id=str(g)) for g in range(2, 7)]
                             + [pytest.param(g, True, id=f"{g}-reflective") for g in range(2, 7)])
    def test_mass_eigenvalues_are_the_one_block_mass_eigenvalues(self, g, reflective):
        # the (c_j +- i s_j) / sqrt(2) rows are a unitary change of rows, so
        # on a grid divisible by g the class blocks keep B's eigenvalues, and
        # with them the cond(B) gate (without the sqrt(2) they would double);
        # so do the real parts that a profile with a mirror axis keeps
        rng = np.random.default_rng(g)
        b, a = np.zeros(2 * g + 1), np.zeros(2 * g + 1)
        b[g::g], a[g::g] = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2)
        if reflective:  # modes g and 2g turned by one angle, 0.4
            turn = 0.4 * np.array([g, 2 * g])
            b[g::g], a[g::g] = b[g::g] * np.cos(turn), b[g::g] * np.sin(turn)
        rho = FourierSeries(b=b, a=a)
        assert (solver.sample_boundary(rho, solver.SolverConfig(basis_size=24)).axis is None) != reflective
        cfg = solver.SolverConfig(basis_size=24, quad_points=SYMMETRIC_POINTS)
        eps = 0.1 / np.max(np.abs(rho.sample(512)))
        want = np.linalg.eigvalsh(one_block_pairs(rho, eps, cfg, SYMMETRIC_POINTS)[0][1])
        np.testing.assert_allclose(mass_eigenvalues(solver.assemble(rho, eps, cfg)), want, rtol=1e-12)

    @pytest.mark.parametrize("rho, k", [(rotated_cosine(12, 0.7), 40), (special_rho(5), 24)],
                             ids=["cos12", "special5"])
    def test_complex_class_eigenvalues_count_twice(self, rho, k):
        # each eigenvalue of a complex class is also its conjugate class's: the
        # class solve gives it exactly twice, labelled by the class and by the
        # next, its conjugate, as the class solved alone gives it, and the
        # one-block solve has it double
        cfg = solver.SolverConfig(basis_size=k)
        pairs = solver.assemble(rho, 0.1, cfg)
        got = solver.solve(pairs)
        full = solver.solve(one_block_pairs(rho, 0.1, cfg, default_grid_points(rho, cfg))).values
        first = 0  # the class number of each pair's first class
        complex_pairs = []
        for s, bm, counts in pairs:
            for i, count in enumerate(counts):
                if count == 2:
                    complex_pairs.append((first, (s[i : i + 1], bm[i : i + 1], counts[i : i + 1])))
                first += count
        assert complex_pairs
        for c, pair in complex_pairs:
            mine, conjugate = (got.values[got.classes == label] for label in (c, c + 1))
            np.testing.assert_array_equal(mine, conjugate)
            np.testing.assert_array_equal(mine, solver.solve([pair]).values[::2])
            for value in mine:
                assert np.count_nonzero(got.values == value) == 2
                assert np.count_nonzero(np.isclose(full, value, rtol=1e-10, atol=0.0)) == 2

    @pytest.mark.parametrize(
        "rho, k",
        [(rotated_cosine(12, 0.7), 40), (special_rho(8), 44), (rotated_cosine(3, 0.7), 20),
         (FourierSeries.from_json('{"b":{"1":0.4,"3":0.5},"a":{"3":0.7,"5":0.2}}'), 20)],
        ids=["cos12", "special8", "cos3", "asymmetric"],
    )
    def test_at_most_two_stacked_eigensolves_of_each_kind(self, monkeypatch, rho, k):
        # every class is padded to the largest class's size and assemble
        # returns all of them as one pair: one solve makes one eigh and one
        # eigvalsh call, however many classes cutting the self-conjugate
        # classes of a profile with a mirror axis into even and odd rows makes
        # (cos 12 theta at K = 40 made 4 and 4 with real and complex classes
        # apart); K = 44 is verify's for special_rho(8), 2 (8 + 12) + 4
        calls = {"eigh": 0, "eigvalsh": 0}
        for name, function in [("eigh", np.linalg.eigh), ("eigvalsh", np.linalg.eigvalsh)]:
            def counting(*args, _name=name, _function=function):
                calls[_name] += 1
                return _function(*args)

            monkeypatch.setattr(np.linalg, name, counting)
        pairs = solver.assemble(rho, 0.05, solver.SolverConfig(basis_size=k))
        solver.solve(pairs)
        assert calls["eigh"] == calls["eigvalsh"] == len(pairs) <= 2

    def test_sector_grids(self, sample_calls):
        # default grid max(512, 8K) rounded up to a multiple of g, one sector of
        # it summed; an explicit grid is kept as given and folded onto the
        # lcm(N, g) points: 72 points with g = 40 give 9 sector points 2 pi / 360
        # apart; with g = 1 the sector is the whole grid
        star = geometry.STAR_CHECK_POINTS
        g1 = FourierSeries(b=[0, 0.2, 0.3])
        for rho, cfg, sampled, sector, weight in [
            (rotated_cosine(12, 0.7), solver.SolverConfig(basis_size=40), 516, 43, 12 / 516),
            (FourierSeries.cosine(3), solver.SolverConfig(basis_size=20), 513, 171, 3 / 513),
            (FourierSeries.cosine(40, 0.5), solver.SolverConfig(basis_size=16, quad_points=72), 360, 9, 8 / 72),
            (g1, solver.SolverConfig(basis_size=84), 672, 672, 1 / 672),
        ]:
            sample_calls.clear()
            samples = solver.sample_boundary(rho, cfg)
            assert sorted(sample_calls) == sorted([sampled, sampled, star])
            assert samples.theta.size == samples.rho.size == samples.rho_prime.size == sector
            assert samples.weight == pytest.approx(2.0 * np.pi * weight, rel=1e-15)
            np.testing.assert_allclose(np.diff(samples.theta), 2.0 * np.pi / sampled, rtol=1e-12)

    def test_refuses_a_grid_that_cannot_resolve_rho(self, sample_calls):
        # an explicit grid is refused, before anything is sampled, when its
        # lcm(N, g) points cannot resolve rho: 80 points for cos 40 theta (g = 40)
        # and 100 for a g = 1 profile of mode 50; 72 and 88 points for cos 40
        # theta fold onto 360 and 440
        cos40 = FourierSeries.cosine(40, 0.5)
        for rho, points in [(cos40, 80), (FourierSeries(b=[0, 0.2] + [0] * 48 + [0.1]), 100)]:
            want = f"^quad_points: {points} points fold onto lcm\\(N, g\\) = {points}, too few "
            with pytest.raises(ValueError, match=want):
                solver.sample_boundary(rho, solver.SolverConfig(basis_size=16, quad_points=points))
        assert sample_calls == []
        for points, folded in [(72, 360), (88, 440)]:
            samples = solver.sample_boundary(cos40, solver.SolverConfig(basis_size=16, quad_points=points))
            assert samples.theta.size * 40 == folded

    def test_grids_of_a_profile_above_the_mode_cap(self, sample_calls):
        # special_rho(342) is cos 513 theta: the star check takes 2J + 1 = 1027
        # points instead of 1024 and the default grid at least 1027, rounded up
        # to a multiple of g = 513, so it solves
        rho, cfg = special_rho(342), solver.SolverConfig(basis_size=4)
        samples = solver.sample_boundary(rho, cfg)
        assert sorted(sample_calls) == [1027, 1539, 1539]
        assert samples.theta.size == 3
        star = rho.sample(1027)
        assert samples.star_range == (star.min(), star.max())
        geometry.check_star_shaped(rho, 0.5)
        assert abs(solver.steklov_eigenvalues(rho, 1e-3, cfg)[0]) < 1e-12


class TestMirrorAxis:
    def test_disk_and_constant_take_axis_zero(self):
        for rho in (FourierSeries.zero(), FourierSeries.constant(0.3)):
            assert solver._mirror_axis(rho) == 0.0

    @pytest.mark.parametrize(
        "rho, axis, period",
        [(FourierSeries.cosine(3, -1.0), 0.0, math.pi / 3),
         (FourierSeries(b=[0, 0, 0, -0.6], a=[0, 0, 0, 0.8]), math.atan2(-0.8, 0.6) / 3, math.pi / 3),
         # -cos 2 (theta - 0.4) + 0.5 cos 3 (theta - 0.4): its lowest mode's first
         # candidate, 0.4 + pi / 2, is not an axis of mode 3
         (FourierSeries(b=[0, 0, -math.cos(0.8), 0.5 * math.cos(1.2)],
                        a=[0, 0, -math.sin(0.8), 0.5 * math.sin(1.2)]), 0.4, math.pi)],
        ids=["cos3-negative", "turned-cos3-negative", "two-modes"],
    )
    def test_axis_makes_rho_even(self, rho, axis, period):
        # single modes with b < 0 and a profile of two modes turned by 0.4:
        # the axis is one of rho's (axis + a multiple of period) and rho is even about it
        phi = solver._mirror_axis(rho)
        turns = (phi - axis) / period
        assert abs(turns - round(turns)) <= 1e-13
        t = np.linspace(0.0, np.pi, 64)
        np.testing.assert_allclose(rho.evaluate(phi + t), rho.evaluate(phi - t), rtol=0.0, atol=1e-14)

    def test_odd_part_above_the_rounding_bound_takes_the_complex_route(self):
        # cos 3 theta + 0.5 cos 6 theta + delta sin 6 theta: the rounding bound is
        # 8 J eps max_j |c_j| with J = 6; below it the axis is 0, class 0 is cut
        # into its even and odd rows and the complex class r = 1 is solved in
        # real arithmetic, above it class 0 is whole and the classes are
        # solved in complex arithmetic, and so are the chiral profile's
        bound = 8.0 * 6 * np.finfo(float).eps
        cfg = solver.SolverConfig(basis_size=12)
        for rho, axis in [(FourierSeries(b=[0, 0, 0, 1, 0, 0, 0.5], a=[0] * 6 + [0.5 * bound]), 0.0),
                          (FourierSeries(b=[0, 0, 0, 1, 0, 0, 0.5], a=[0] * 6 + [1.5 * bound]), None),
                          (CHIRAL, None)]:
            samples = solver.sample_boundary(rho, cfg)
            assert samples.axis == solver._mirror_axis(rho) == axis
            pairs = solver.assemble(rho, 0.05, cfg, samples=samples)
            assert [smat.dtype for smat, _, _ in pairs] == [float if axis == 0.0 else complex]


class TestSweep:
    def test_disk_column(self):
        curves = solver.sweep(
            FourierSeries.cosine(3),
            solver.symmetric_grid(0.02, 5),
            solver.SolverConfig(basis_size=16),
            n_branches=4,
        )
        mid = curves.eps_grid.size // 2
        assert curves.eps_grid[mid] == 0.0
        np.testing.assert_allclose(curves.branches[:, mid], DISK7[1:5], atol=1e-8)

    def test_single_point_grid(self):
        curves = solver.sweep(
            FourierSeries.zero(), [0.0], solver.SolverConfig(basis_size=16), n_branches=4
        )
        assert curves.branches.shape == (4, 1)
        np.testing.assert_allclose(curves.branches[:, 0], DISK7[1:5], atol=1e-8)

    def test_branches_continuous(self):
        curves = solver.sweep(
            FourierSeries.cosine(2),
            solver.symmetric_grid(0.02, 9),
            solver.SolverConfig(basis_size=16),
            n_branches=4,
        )
        jumps = np.abs(np.diff(curves.branches, axis=1))
        assert np.max(jumps) <= 0.1

    def test_grid_validation(self):
        cfg = solver.SolverConfig(basis_size=16)
        with pytest.raises(ValueError):
            solver.sweep(FourierSeries.zero(), [0.0, 0.01, 0.02], cfg)
        with pytest.raises(ValueError):
            solver.sweep(FourierSeries.zero(), [-0.01, 0.01], cfg)
        with pytest.raises(InsufficientGrid):
            solver.sweep(FourierSeries.zero(), [], cfg)
        # five sweeps of one eps would fit a constant curve and report
        # lambda1 = lambda2 = 0 for any rho
        for grid in ([0.0] * 5, [-0.01, 0.0, 0.0, 0.01], [-0.01, -0.01, 0.0, 0.01, 0.01]):
            with pytest.raises(ValueError, match="distinct"):
                solver.sweep(FourierSeries.cosine(2), grid, cfg)

    def test_uneven_grid_rejected(self):
        # only symmetric_grid's grids are taken: on this one the extrapolating
        # tracker that came before the labels folded the split pair of
        # cos 2 theta into two V shapes, fitted as lambda1 = 0
        grid = [-0.1, -0.09, -0.001, 0.0, 0.001, 0.09, 0.1]
        with pytest.raises(ValueError, match="evenly spaced"):
            solver.sweep(FourierSeries.cosine(2), grid, solver.SolverConfig(basis_size=16), n_branches=2)

    def test_every_symmetric_grid_is_accepted_in_any_order(self):
        rng = np.random.default_rng(15)
        for eps_max in (1e-6, 1e-3, 0.008, 0.1, 0.3, 1.0, 5.0):
            for count in range(1, 62, 2):
                grid = solver.symmetric_grid(eps_max, count)
                for order in (grid, grid[::-1], rng.permutation(grid)):
                    assert solver._validate_grid(order).tobytes() == grid.tobytes()

    def test_symmetric_grid_needs_a_positive_width(self):
        for eps_max in (0.0, -0.01, math.inf, math.nan):
            with pytest.raises(ValueError, match="eps_max"):
                solver.symmetric_grid(eps_max, 5)
        assert solver.symmetric_grid(0.0, 1).tolist() == [0.0]
        assert solver.symmetric_grid(0.01, 5).tobytes() == np.linspace(-0.01, 0.01, 5).tobytes()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(eps_max=st.floats(), count=st.integers(0, 30).map(lambda half: 2 * half + 1))
    @example(eps_max=np.finfo(float).max / 2, count=5)
    @example(eps_max=np.nextafter(np.finfo(float).max / 2, math.inf), count=5)
    def test_symmetric_grid_is_finite_or_refused(self, eps_max, count):
        # linspace spans 2 eps_max: past max / 2 it built [nan, inf, inf, inf, 1e308]
        half = np.finfo(float).max / 2
        if count > 1 and not 0.0 < eps_max <= half:
            with pytest.raises(ValueError, match="^eps_max "):
                solver.symmetric_grid(eps_max, count)
        else:
            assert np.isfinite(solver.symmetric_grid(eps_max, count)).all()

    def test_samples_rho_once_per_sweep(self, sample_calls):
        cfg = solver.SolverConfig(basis_size=16)
        counts = []
        for size in (5, 21):
            sample_calls.clear()
            solver.sweep(FourierSeries.cosine(3), solver.symmetric_grid(0.02, size), cfg, n_branches=4)
            counts.append(len(sample_calls))
        assert counts[0] == counts[1] > 0

    def test_non_star_shaped_names_first_failing_eps(self):
        # 1 + eps*rho first reaches 0 on the eps > 0 side, at eps = 2/3, so the
        # points of the grid below 0.9 solve and 0.9 and 1.2 both fail
        rho = FourierSeries(b=[-0.5, 0.0, 0.0, -1.0])
        grid = solver.symmetric_grid(1.2, 9)
        with pytest.raises(NonStarShaped) as got:
            solver.sweep(rho, grid, solver.SolverConfig(basis_size=6), n_branches=1)
        with pytest.raises(NonStarShaped) as want:
            geometry.check_star_shaped(rho, grid[7])
        assert str(got.value) == str(want.value)
        assert "eps=0.9" in str(got.value)

    def test_ill_conditioned_names_eps_and_condition(self, monkeypatch):
        monkeypatch.setattr(solver, "CONDITION_LIMIT", 1.5)  # the disk's B already has cond 2
        rho = FourierSeries.cosine(3)
        cfg = solver.SolverConfig(basis_size=16)
        grid = solver.symmetric_grid(0.02, 5)
        with pytest.raises(IllConditioned) as info:
            solver.sweep(rho, grid, cfg, n_branches=4)
        message = str(info.value)
        assert message.startswith(f"eps={grid[0]:g}: ")
        measured = float(re.search(r"condition number (\S+)", message).group(1))
        # the classes keep the gate of the one-block B on the default 513 points
        [(_, bmat, _)] = one_block_pairs(rho, grid[0], cfg, 513)
        assert measured == pytest.approx(np.linalg.cond(0.5 * (bmat + bmat.T)), rel=1e-3)

    def test_verify_basis_for_pair_16(self):
        # verify's K rule gives K = 84 (672 points) for special_rho(16): far
        # beyond the old fixed cap of 48, while cond(B) stays near 10
        n = 16
        rho = expansion.special_rho(n)
        cfg = cli._solver_config(None, None, max(2 * n, n + rho.max_mode))
        assert (cfg.basis_size, default_grid_points(rho, cfg)) == (84, 672)
        grid = cli._parse_grid(-0.008, 0.008, 9, 5)
        mass = [mass_eigenvalues(solver.assemble(rho, eps, cfg)) for eps in grid]
        assert max(mu[-1] / mu[0] for mu in mass) <= 100.0
        curves = solver.sweep(rho, grid, cfg, n_branches=2 * n)
        fits = solver.fit_derivatives(curves)[2 * n - 2 : 2 * n]
        report = expansion.expand(rho, n)
        assert all(f.lambda2 > 0 for f in fits)
        for row in cli._pair_rows(n, report.lambda1, report.lambda2, fits):
            assert row["lambda1_rel_error"] <= 1e-3

    def test_nontrivial_lowest_eigenvalue_names_eps_and_value(self, monkeypatch):
        # the solve at the fourth point (eps = 0.01) reports a lowest value of
        # 0.5, which is not the trivial zero; the sweep and the CLI both name it
        real_solve = solver.solve
        calls = []

        def shifted(pairs, *layout):
            spectrum = real_solve(pairs, *layout)
            calls.append(spectrum)
            if len(calls) == 4:  # the trivial zero, level 0 of class 0, raised to 0.5
                spectrum.table[0, 0] = 0.5
            return spectrum

        monkeypatch.setattr(solver, "solve", shifted)
        message = "lowest eigenvalue 5.000e-01 at eps=0.01 is not the trivial zero"
        with pytest.raises(IllConditioned, match=message):
            solver.sweep(FourierSeries.cosine(3), solver.symmetric_grid(0.02, 5), solver.SolverConfig(basis_size=16))
        calls.clear()
        args = ["sweep", "--rho", '{"b":{"3":1}}', "--eps-min", "-0.02", "--eps-max", "0.02", "--eps-count", "5"]
        result = CliRunner().invoke(cli.cli, args)
        assert result.exit_code == 1
        assert result.output == f"Error: solver: {message}; discretization is unreliable\n"

    def test_negative_value_of_a_padded_class_is_not_the_trivial_zero(self, monkeypatch):
        # a class padded to the stack's size has the value -0.5: the real solve
        # keeps it, so the sweep stops at its first point
        monkeypatch.setattr(solver, "assemble", lambda *args, **kwargs: padded_pairs(-0.5))
        with pytest.raises(IllConditioned, match="lowest eigenvalue -5.000e-01 at eps=-0.02 is not the trivial zero"):
            solver.sweep(FourierSeries.cosine(3), solver.symmetric_grid(0.02, 5), solver.SolverConfig(basis_size=16))

    def test_three_point_grid_tracks_lines_through_the_crossing(self):
        # the split pair of cos 2 theta must cross at eps = 0 as two straight
        # branches, the middle columns of the 5-point sweep of twice the width:
        # cos 2 theta has a mirror axis, so they are the levels of its even
        # and its odd class
        cfg = solver.SolverConfig(basis_size=16)
        three = solver.sweep(FourierSeries.cosine(2), solver.symmetric_grid(0.01, 3), cfg, n_branches=2)
        five = solver.sweep(FourierSeries.cosine(2), solver.symmetric_grid(0.02, 5), cfg, n_branches=2)
        steps = np.diff(three.branches, axis=1)
        assert steps[0, 0] < 0.0 < steps[1, 0]
        np.testing.assert_allclose(steps[:, 1], steps[:, 0], rtol=0.02)
        np.testing.assert_allclose(three.branches, five.branches[:, 1:4], rtol=0.0, atol=1e-12)

    def test_grid_is_logged_at_info(self, caplog):
        # the mirror axis of cos 12 (theta - 0.7) is 0.7 - 2 pi / 12 = 0.176401 (mod pi / 12)
        with caplog.at_level(logging.INFO, logger="steklov_pert.solver"):
            solver.sample_boundary(rotated_cosine(12, 0.7), solver.SolverConfig(basis_size=40))
            solver.sample_boundary(CHIRAL, solver.SolverConfig(basis_size=20))
        assert caplog.messages == ["grid N=516 g=12 axis=0.176401 sector points=43 K=40 classes=9",
                                   "grid N=513 g=3 axis=none sector points=171 K=20 classes=2"]

    def test_cond_and_trivial_eigenvalue_are_logged_at_debug(self, caplog):
        # each solve logs the cond(B) its gate computed, and each sweep point
        # its trivial eigenvalue, which used to show only in a stopping error,
        # and each branch as value@class:level, the label it was read by: pair
        # 1 of cos 3 theta is level 0 of the complex class r = 1 and of its
        # conjugate class
        rho, cfg, grid = FourierSeries.cosine(3), solver.SolverConfig(basis_size=16), solver.symmetric_grid(0.02, 3)
        with caplog.at_level(logging.DEBUG, logger="steklov_pert.solver"):
            curves = solver.sweep(rho, grid, cfg, n_branches=2)
        conds = [float(m.removeprefix("solve cond(B)=")) for m in caplog.messages if m.startswith("solve ")]
        branch = r"(\S+)@(\d+):(\d+)"
        points = [re.fullmatch(rf"sweep eps=(\S+) trivial eigenvalue (\S+) branches {branch} {branch}", m)
                  for m in caplog.messages if m.startswith("sweep ")]
        assert len(conds) == len(points) == 3 and all(points)
        for eps, cond, point, column in zip(grid, conds, points, curves.branches.T):
            spectrum = solver.solve(solver.assemble(rho, eps, cfg))
            mu = mass_eigenvalues(solver.assemble(rho, eps, cfg))
            assert cond == pytest.approx(mu[-1] / mu[0], rel=1e-3)
            assert float(point.group(1)) == pytest.approx(eps)
            assert abs(float(point.group(2))) <= 1e-10
            labels = [(int(point.group(i + 1)), int(point.group(i + 2))) for i in (3, 6)]
            assert labels[0][0] != labels[1][0] and labels[0][1] == labels[1][1] == 0
            for value, want, label in zip((point.group(3), point.group(6)), column, labels):
                assert float(value) == pytest.approx(want, rel=1e-9)
                [read] = spectrum.values[(spectrum.classes == label[0]) & (spectrum.levels == label[1])]
                assert read == want

    @pytest.mark.parametrize(
        "rho",
        [FourierSeries(b=[0.0, 0.3, 0.1, 0.2], a=[0.0, 0.0, 0.25]), rotated_cosine(3, 0.7), CHIRAL],
        ids=["g1", "turned-cos3", "chiral"],
    )
    def test_branches_are_the_per_point_solves(self, rho):
        # the padding rows sweep reads once, at its first point, give the same
        # bits as a solve that reads them from each point's B: g = 1 (no
        # padding), the mirrored real stacks and the complex stack
        cfg = solver.SolverConfig(basis_size=20)
        grid = solver.symmetric_grid(0.05, 5)
        samples = solver.sample_boundary(rho, cfg)
        spectra = [solver.solve(solver.assemble(rho, eps, cfg, samples=samples)) for eps in grid]
        want, _ = solver._match_branches(spectra, 6, lambda n: (expansion._split_order(rho, n) or 0) % 2 == 1)
        np.testing.assert_array_equal(solver.sweep(rho, grid, cfg, n_branches=6).branches, want)

    def test_at_least_one_branch(self):
        with pytest.raises(ValueError, match="^n_branches must be >= 1$"):
            solver.sweep(FourierSeries.zero(), [0.0], solver.SolverConfig(basis_size=16), n_branches=0)

    def test_basis_must_cover_branches(self):
        with pytest.raises(ValueError):
            solver.sweep(
                FourierSeries.zero(), [0.0], solver.SolverConfig(basis_size=8), n_branches=4
            )


def labelled(grid, classes):
    """The Spectrum of each grid point for classes given as lists of curves over grid.

    Each class's values are sorted into its levels, as solve() gives them,
    and a trivial zero leads class 0.
    """
    spectra = []
    for j in range(grid.size):
        columns = [np.sort([curve[j] for curve in curves] + [0.0] * (i == 0)) for i, curves in enumerate(classes)]
        table = np.full((len(columns), max(c.size for c in columns)), np.inf)
        for row, column in zip(table, columns):
            row[: column.size] = column
        spectra.append(solver.Spectrum(table))
    return spectra


class TestMatchBranches:
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_straight_lines_through_a_crossing(self, side):
        # a pair 1 -+ 2 eps degenerate at eps = 0 (it splits at first order),
        # and 1.15 - side*eps in another class, which crosses one of them at
        # eps = side*0.05; a far level 5.0 shares the pair's first class.
        # With the pair in one class its levels swap for eps < 0; in two, as
        # on a profile with a mirror axis, nothing swaps
        grid = solver.symmetric_grid(0.1, 11)
        lines = np.array([1.0 - 2.0 * grid, 1.0 + 2.0 * grid, 1.15 - side * grid])
        far = np.full(grid.size, 5.0)
        one_class = [[lines[0], lines[1], far], [lines[2]]]
        for classes in (one_class, [[lines[0], far], [lines[1]], [lines[2]]]):
            branches, labels = solver._match_branches(labelled(grid, classes), 3, lambda n: n == 1)
            np.testing.assert_array_equal(branches, lines)
            assert len(labels) == grid.size and all(label.shape == (2, 3) for label in labels)
        # read without the swap, the pair's rows fold into a V and a wedge
        branches, _ = solver._match_branches(labelled(grid, one_class), 3, lambda n: False)
        np.testing.assert_array_equal(branches[:2], np.sort(lines[:2], axis=0))

    @pytest.mark.parametrize("eps_max, count", [(0.008, 9), (0.1, 21)])
    def test_parabolas_through_a_double_point(self, eps_max, count):
        # 1 -+ slope*eps + (a, b)*eps^2 meet at eps = 0 and nowhere else on
        # the grid, and 1.6 - eps stays above both, below a far level 5.0;
        # row i is the branch through the i-th lowest value just right of 0.
        # A pair that does not split at first order keeps its class's sorted
        # levels; one that splits is read in two classes, and in one class
        # (swapped for eps < 0) where its branches meet only at eps = 0
        grid = solver.symmetric_grid(eps_max, count)
        above, far = 1.6 - grid, np.full(grid.size, 5.0)
        for slope, a, b, one_class in [
            (0.0, -8.0, -12.6, True),  # same sign, ratio 1.58: a linear extrapolation swaps them at 2h
            (0.0, 2.0, 5.0, True),  # same sign, ratio 2.5
            (0.0, -3.0, 4.0, True),  # opposite signs
            (0.0, 7.0, -1.0, True),
            (0.3, -8.0, -12.0, True),  # split at first order, crossing again only at eps = 0.15
            (0.3, 2.0, 5.0, True),
            (-0.3, -3.0, 4.0, False),  # crosses again at eps = 0.086, which one class forbids
        ]:
            curves = np.array([1.0 - slope * grid + a * grid**2, 1.0 + slope * grid + b * grid**2])
            curves = curves[np.argsort(curves[:, count // 2 + 1])]
            layouts = [[[*curves, above, far]]] * one_class + [[[curves[0], above, far], [curves[1]]]] * bool(slope)
            for classes in layouts:
                branches, _ = solver._match_branches(labelled(grid, classes), 3, lambda n: n == 1 and bool(slope))
                np.testing.assert_array_equal(branches, np.vstack((curves, above)))


def seed_2026_profile(index):
    """Profile index (0-based) of the seed-2026 corpus of 80 random profiles.

    For each: count = rng.integers(2, 7) modes drawn without replacement
    from 1, 2, 3, 5, 6, 7, 8, then b for each mode in order, then a.
    """
    rng = np.random.default_rng(2026)
    for _ in range(index + 1):
        modes = rng.choice([1, 2, 3, 5, 6, 7, 8], size=rng.integers(2, 7), replace=False)
        b, a = np.zeros(9), np.zeros(9)
        b[modes] = rng.uniform(-1.0, 1.0, modes.size)
        a[modes] = rng.uniform(-1.0, 1.0, modes.size)
    return FourierSeries(b=b, a=a)


ODD_ORDERS = FourierSeries.from_json('{"b":{"3":0.5,"4":0.3},"a":{"3":0.2,"4":-0.4}}')


def test_split_order_parities_read_from_continuous_rows():
    # modes 3 and 4, no mirror axis, g = 1: pair n first splits at order
    # p = 3, 1, 2, 2, 3, 3, 4 for n = 1..7 (2 = 3 + 3 - 4, 4, 3 + 3, 4 + 4,
    # 3 + 3 + 4, 4 + 4 + 4, 4 + 4 + 3 + 3).  Read through eps = 0 as one
    # analytic branch each, the pair's split d = upper - lower goes like
    # c eps^p, so d(-h) / d(h) is (-1)^p and d(2h) / d(h) is 2^p; rows that
    # do not swap an odd pair's levels for eps < 0 read d(-h) / d(h) = +1
    orders = [3, 1, 2, 2, 3, 3, 4]
    assert [expansion._split_order(ODD_ORDERS, n) for n in range(1, 8)] == orders
    assert [expansion._split_order(ODD_ORDERS, n) == 1 for n in range(1, 8)] == [
        expansion._splits_at_first_order(ODD_ORDERS, n) for n in range(1, 8)]
    curves = solver.sweep(ODD_ORDERS, solver.symmetric_grid(0.02, 5), solver.SolverConfig(basis_size=32), n_branches=14)
    split = curves.branches[1::2] - curves.branches[0::2]
    np.testing.assert_allclose(split[:, 1] / split[:, 3], [(-1.0) ** p for p in orders], rtol=0.0, atol=0.01)
    np.testing.assert_allclose(np.log2(split[:, 4] / split[:, 3]), orders, rtol=0.0, atol=0.05)


def test_split_order_stops_at_its_cap(monkeypatch):
    # modes 3 and 4 reach 2n = 14 with 4 modes and no fewer
    assert expansion._split_order(FourierSeries.zero(), 1) is None
    monkeypatch.setattr(expansion, "SPLIT_ORDER_CAP", 4)
    assert expansion._split_order(ODD_ORDERS, 7) == 4
    monkeypatch.setattr(expansion, "SPLIT_ORDER_CAP", 3)
    assert expansion._split_order(ODD_ORDERS, 7) is None


@pytest.mark.parametrize(
    "rho, n",
    [('{"b":{"3":1.0,"4":0.6},"a":{"3":0.4,"4":-0.8}}', 5), (json.dumps(seed_2026_profile(64).to_dict()), 2)],
    ids=["modes-3-4-n5", "seed-2026-64-n2"],
)
def test_verify_reads_a_third_order_crossing(rho, n):
    # both pairs split at order 3 with their branches in one class (no mirror
    # axis), so the branches cross at eps = 0.  Read without the swap, the
    # rows kink like |eps|^3 there and the cubic fits miss lambda2 by
    # 2.03e-2 and 2.25e-2 (first case), 1.75e-2 and 2.23e-2 (second): verify exited 3.
    # Read through the crossing they miss by 1.1e-3 and 2.4e-3
    assert expansion._split_order(FourierSeries.from_json(rho), n) == 3
    result = CliRunner().invoke(cli.cli, ["verify", "--rho", rho, "--n", str(n)])
    assert result.exit_code == 0, result.output
    for row in json.loads(result.output)["branches"]:
        assert row["lambda2_rel_error"] <= 5e-3


@pytest.mark.parametrize("index, bound", [(12, 1e-4), (22, 1e-3), (35, 1e-4), (69, 1e-4)])
def test_labels_keep_pair_2_of_seed_2026_profiles_whole(index, bound):
    # at verify's window and K rule, the extrapolating tracker that came
    # before the labels swapped the two halves of pair 2 (lambda1 = 0) at
    # some points: lambda1 errors 6.4e-4, 7.0e-3 (verify exited 3), 2.1e-4
    # and 6.1e-4; read by label they are 8.7e-8, 6.4e-4, 4.6e-6 and 7.0e-6
    rho, n = seed_2026_profile(index), 2
    report = expansion.expand(rho, n)
    cfg = cli._solver_config(None, None, max(2 * n, n + rho.max_mode))
    curves = solver.sweep(rho, cli._parse_grid(-0.008, 0.008, 9), cfg, n_branches=2 * n)
    for row in cli._pair_rows(n, report.lambda1, report.lambda2, solver.fit_derivatives(curves)[2 : 4]):
        assert row["lambda1_rel_error"] <= bound


def test_pair_8_of_cos_12_reads_its_class_at_k_160():
    # pair 8 of cos 12 theta is the second level of class r = 4 (modes 4, 8,
    # 16, 20, ...) and of its conjugate class 8: 14.80205 at eps = +-0.1 and
    # K = 160.  The merged spectrum's rows 14 and 15 there read 14.650, a
    # level of another class, and 14.802
    curves = solver.sweep(FourierSeries.cosine(12), solver.symmetric_grid(0.1, 3),
                          solver.SolverConfig(basis_size=160), n_branches=16)
    pair = curves.branches[14:16]
    np.testing.assert_array_equal(pair[0], pair[1])
    np.testing.assert_allclose(pair[:, [0, 2]], 14.80205, rtol=0.0, atol=1e-4)
    np.testing.assert_allclose(pair[:, 1], 8 * RT, rtol=1e-12)


def _non_split_profile(rng, n):
    """2 to 5 random modes among 1..6 other than 2n, sine and cosine parts up to 0.3."""
    modes = rng.choice([j for j in range(1, 7) if j != 2 * n], size=rng.integers(2, 6), replace=False)
    b, a = np.zeros(7), np.zeros(7)
    b[modes] = rng.uniform(-0.3, 0.3, modes.size)
    a[modes] = rng.uniform(-0.3, 0.3, modes.size)
    return FourierSeries(b=b, a=a)


def test_fitted_lambda2_of_random_non_split_pairs():
    # verify's window, K rule and tolerances on 60 random pairs with
    # lambda1 = 0: each fitted branch must stay one analytic branch through
    # eps = 0 for its lambda2 to match the engine
    rng = np.random.default_rng(2026)
    grid = cli._parse_grid(-0.008, 0.008, 9)
    for i in range(60):
        n = 1 + i % 3
        rho = _non_split_profile(rng, n)
        report = expansion.expand(rho, n)
        assert report.lambda2 is not None
        cfg = cli._solver_config(None, None, max(2 * n, n + rho.max_mode))
        curves = solver.sweep(rho, grid, cfg, n_branches=2 * n)
        fits = solver.fit_derivatives(curves)[2 * n - 2 : 2 * n]
        for row in cli._pair_rows(n, report.lambda1, report.lambda2, fits):
            assert row["lambda1_rel_error"] <= 1e-3, (i, rho.to_dict(), row)
            assert row["lambda2_rel_error"] <= 2e-2, (i, rho.to_dict(), row)


class TestFits:
    def test_constant_curves(self):
        curves = solver.sweep(
            FourierSeries.zero(),
            solver.symmetric_grid(0.02, 5),
            solver.SolverConfig(basis_size=16),
            n_branches=2,
        )
        fits = solver.fit_derivatives(curves)
        for fit in fits:
            assert fit.lambda1 == pytest.approx(0.0, abs=1e-9)
            assert fit.lambda2 == pytest.approx(0.0, abs=1e-6)

    def test_exact_cubic_branches_are_recovered(self):
        grid = solver.symmetric_grid(0.008, 9)
        coef = np.array([[RT, 2.0, -30.0, 400.0], [RT, -2.0, 55.0, 0.0], [3 * RT, 0.5, 1e3, -5e4]])
        branches = coef @ np.vander(grid, 4, increasing=True).T
        fits = solver.fit_derivatives(solver.EigencurveSet(eps_grid=grid, branches=branches))
        for i, (fit, want) in enumerate(zip(fits, coef)):
            got = (fit.lambda0, fit.lambda1, fit.lambda2)
            assert fit.branch == i
            np.testing.assert_allclose(got, want[:3], rtol=1e-12, atol=0.0)
            assert fit.residual <= 1e-12 * abs(fit.lambda0)

    def test_truncation_is_the_cubic_against_a_degree_6_fit(self):
        # an eps^4 term moves the cubic's lambda2 and not the degree-6 fit's,
        # so the estimate is the cubic's own error there; a cubic branch
        # reads about 0, and on 5 points there is no degree-6 fit
        grid = solver.symmetric_grid(0.008, 9)
        coef = np.array([[RT, 2.0, -30.0, 400.0, 0.0], [RT, -2.0, 55.0, 0.0, 3e5]])
        branches = coef @ np.vander(grid, 5, increasing=True).T
        cubic, quartic = solver.fit_derivatives(solver.EigencurveSet(eps_grid=grid, branches=branches))
        assert max(cubic.lambda1_truncation, cubic.lambda2_truncation) <= 1e-6
        assert abs(quartic.lambda2 - 55.0) > 1.0
        assert quartic.lambda2_truncation == pytest.approx(abs(quartic.lambda2 - 55.0), rel=1e-6)
        assert quartic.lambda1_truncation <= 1e-6
        five = solver.symmetric_grid(0.008, 5)
        [fit] = solver.fit_derivatives(solver.EigencurveSet(eps_grid=five, branches=np.vstack([RT + five])))
        assert fit.lambda1_truncation is None and fit.lambda2_truncation is None

    def test_insufficient_grid(self):
        curves = solver.EigencurveSet(
            eps_grid=np.array([-0.01, 0.0, 0.01]), branches=np.zeros((1, 3))
        )
        with pytest.raises(InsufficientGrid):
            solver.fit_derivatives(curves)

    def test_grid_symmetric_to_1e12_absolute(self):
        # numpy's default rtol of 1e-5 let a right end 5e-7 off pass as symmetric
        grid = np.array([-0.1, -0.05, 0.0, 0.05, 0.1000005])
        with pytest.raises(InsufficientGrid, match="symmetric"):
            solver.fit_derivatives(solver.EigencurveSet(eps_grid=grid, branches=np.vstack([RT + grid])))
        grid = solver.symmetric_grid(0.1, 21)  # symmetric to 2.8e-17
        [fit] = solver.fit_derivatives(solver.EigencurveSet(eps_grid=grid, branches=np.vstack([RT + grid])))
        assert fit.lambda1 == pytest.approx(1.0, rel=1e-12)

    def test_split_pair_first_order(self):
        # pair 1 under a mode-2 profile splits at +-1.5*sqrt(pi)
        curves = solver.sweep(
            FourierSeries.cosine(2),
            solver.symmetric_grid(0.02, 9),
            solver.SolverConfig(basis_size=18),
            n_branches=4,
        )
        fits = solver.fit_derivatives(curves)
        fitted = sorted(f.lambda1 for f in fits[:2])
        predicted = expansion.lambda1(FourierSeries.cosine(2), 1)
        for got, want in zip(fitted, predicted):
            assert got == pytest.approx(want, rel=2e-3)

    def test_degenerate_pair_second_order(self):
        # pair 1 under a mode-4 profile: lambda1 = 0, distinct lambda2 branches
        rho = FourierSeries.cosine(4)
        predicted = expansion.lambda2(rho, 1)
        curves = solver.sweep(
            rho, solver.symmetric_grid(0.008, 9), solver.SolverConfig(basis_size=20), n_branches=2
        )
        fits = solver.fit_derivatives(curves)
        assert max(abs(f.lambda1) for f in fits) <= 1e-4 * RT
        fitted = sorted(f.lambda2 for f in fits)
        for got, want in zip(fitted, sorted(predicted)):
            assert got == pytest.approx(want, rel=2e-2)
