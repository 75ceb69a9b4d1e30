import collections
import math

import numpy as np
import pytest

from steklov_pert import expansion, integrals, series
from steklov_pert.errors import FirstOrderSplit, InvalidMode
from steklov_pert.series import FourierSeries

from conftest import random_series

RT = math.sqrt(math.pi)


class TestLambda0:
    def test_values(self):
        assert expansion.lambda0(1) == pytest.approx(RT)
        assert expansion.lambda0(8) == pytest.approx(8 * RT)

    def test_invalid(self):
        with pytest.raises(InvalidMode):
            expansion.lambda0(0)


class TestFirstOrderMatrix:
    def test_single_cosine(self):
        m = expansion.matrix_first_order(FourierSeries.cosine(2), 1)
        c = 1.5 * RT
        assert (m.m11, m.m12, m.m21, m.m22) == pytest.approx((-c, 0.0, 0.0, c))

    def test_no_resonant_mode_gives_zero(self):
        rho = FourierSeries(b=[0.4, 0, 0, 1.0], a=[0, 0.3])
        m = expansion.matrix_first_order(rho, 1)
        assert m.max_entry() == 0.0

    def test_single_sine(self):
        # prefactor -(n^2 + n/2)sqrt(pi) = -5 sqrt(pi) at n = 2; value confirmed
        # against the quadrature route below
        rho = FourierSeries(a=[0, 0, 0, 0, 2.0])
        m = expansion.matrix_first_order(rho, 2)
        c = -5.0 * RT
        assert (m.m11, m.m12, m.m21, m.m22) == pytest.approx((0.0, 2 * c, 2 * c, 0.0))
        quad = expansion.matrix_first_order_quadrature(rho, 2)
        assert quad.m12 == pytest.approx(2 * c, abs=1e-10)

    def test_matches_quadrature_route(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            rho = random_series(rng, max_mode=8)
            for n in (1, 2, 3):
                closed = expansion.matrix_first_order(rho, n).as_array()
                quad = expansion.matrix_first_order_quadrature(rho, n).as_array()
                np.testing.assert_allclose(closed, quad, atol=1e-10)

    def test_symmetric_trace_free(self):
        rng = np.random.default_rng(5)
        rho = random_series(rng, max_mode=8)
        m = expansion.matrix_first_order(rho, 2)
        assert m.m12 == m.m21
        assert m.m11 + m.m22 == pytest.approx(0.0, abs=1e-15)


class TestLambda1:
    def test_single_cosine(self):
        pair = expansion.lambda1(FourierSeries.cosine(2), 1)
        assert pair == pytest.approx((-1.5 * RT, 1.5 * RT))

    def test_no_resonance(self):
        assert expansion.lambda1(FourierSeries.cosine(3), 2) == (0.0, 0.0)

    def test_three_four_five(self):
        rho = FourierSeries(b=[0, 0, 0, 0, 4.0], a=[0, 0, 0, 0, 3.0])
        assert expansion.lambda1(rho, 2) == pytest.approx((-25 * RT, 25 * RT))

    def test_equals_matrix_eigenvalues(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            rho = random_series(rng, max_mode=8)
            n = int(rng.integers(1, 5))
            pair = expansion.lambda1(rho, n)
            lo, hi = expansion.matrix_first_order(rho, n).eigenvalues()
            assert pair == pytest.approx((lo, hi), abs=1e-12)
            det = -np.linalg.det(expansion.matrix_first_order(rho, n).as_array())
            assert hi == pytest.approx(math.sqrt(max(det, 0.0)), abs=1e-10)

    def test_scaling_linear(self):
        rng = np.random.default_rng(9)
        rho = random_series(rng, max_mode=6)
        base = expansion.lambda1(rho, 2)[1]
        scaled = FourierSeries(b=0.3 * rho.b, a=0.3 * rho.a)
        assert expansion.lambda1(scaled, 2)[1] == pytest.approx(0.3 * base, rel=1e-12)


class TestFirstOrderCoefficients:
    def test_zero_profile(self):
        for m in (0, 2, 5):
            assert expansion.first_order_coefficients(
                FourierSeries.zero(), 1, (1.0, 0.0), m
            ) == (0.0, 0.0)

    def test_frozen_example(self):
        beta, mu = expansion.first_order_coefficients(FourierSeries.cosine(2), 1, (1.0, 0.0), 3)
        assert beta == pytest.approx(-math.pi / 4, rel=1e-13)
        assert mu == pytest.approx(0.0, abs=1e-15)

    def test_out_of_range_frequency(self):
        rho = FourierSeries.cosine(2)  # couplings reach only |m - 1| <= 2 for n = 1
        assert expansion.first_order_coefficients(rho, 1, (1.0, 0.5), 7) == (0.0, 0.0)

    def test_m_equal_n_rejected(self):
        with pytest.raises(InvalidMode):
            expansion.first_order_coefficients(FourierSeries.cosine(2), 1, (1.0, 0.0), 1)

    def test_negative_frequency_rejected(self):
        with pytest.raises(InvalidMode, match="^frequency m must be >= 0, got -1$"):
            expansion.first_order_coefficients(FourierSeries.cosine(2), 1, (1.0, 0.0), -1)

    def test_zero_eigvec_rejected(self):
        with pytest.raises(ValueError):
            expansion.first_order_coefficients(FourierSeries.cosine(2), 1, (0.0, 0.0), 2)

    def test_boundary_equation_residual(self):
        """The order-eps boundary identity, reconstructed on a theta grid.

        lambda1/sqrt(pi)^n * (a cos + g sin)
          = n/sqrt(pi)^(n-1) * [-(rho - b0)(a cos + g sin) + rho'(a sin - g cos)]
            + sum_k (k - n)/sqrt(pi)^(k-1) * (beta_k cos + mu_k sin).

        The k = 0 reconstruction uses beta_0/2: the constant mode carries a
        2*pi normalization where every other mode carries pi.
        """
        rng = np.random.default_rng(11)
        theta = np.linspace(0, 2 * np.pi, 512, endpoint=False)
        for _ in range(8):
            rho = random_series(rng, max_mode=6)
            n = int(rng.integers(1, 4))
            m1 = expansion.matrix_first_order(rho, n)
            eigenvalues, vectors = np.linalg.eigh(m1.as_array())
            for lam1, vec in zip(eigenvalues, vectors.T):
                alpha, gamma = vec
                lhs = (
                    lam1
                    / RT**n
                    * (alpha * np.cos(n * theta) + gamma * np.sin(n * theta))
                )
                rv = rho.evaluate(theta)
                rp = rho.derivative().evaluate(theta)
                b0 = rho.coeff(0)[1]
                rhs = (
                    n
                    / RT ** (n - 1)
                    * (
                        -(rv - b0) * (alpha * np.cos(n * theta) + gamma * np.sin(n * theta))
                        + rp * (alpha * np.sin(n * theta) - gamma * np.cos(n * theta))
                    )
                )
                for m in range(0, n + rho.max_mode + 1):
                    if m == n:
                        continue
                    beta, mu = expansion.first_order_coefficients(rho, n, (alpha, gamma), m)
                    if m == 0:
                        beta = 0.5 * beta
                    rhs += (
                        (m - n)
                        / RT ** (m - 1)
                        * (beta * np.cos(m * theta) + mu * np.sin(m * theta))
                    )
                assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


class TestSecondOrderMatrix:
    def test_special_profile_diagonal(self):
        m = expansion.matrix_second_order(FourierSeries.cosine(3), 2)
        assert m.m11 == pytest.approx(20 * RT / 3, rel=1e-12)
        assert m.m22 == pytest.approx(20 * RT / 3, rel=1e-12)
        assert m.m12 == pytest.approx(0.0, abs=1e-14)
        assert m.m21 == pytest.approx(0.0, abs=1e-14)

    def test_split_pair_refused(self):
        with pytest.raises(FirstOrderSplit):
            expansion.matrix_second_order(FourierSeries.cosine(2), 1)

    @pytest.mark.parametrize("c", [1.0, 1e-13, 1e-15, 1e-20])
    def test_split_decision_does_not_depend_on_scale(self, c):
        rho = FourierSeries.cosine(2, c)
        assert expansion.expand(rho, 1).lambda2 is None
        with pytest.raises(FirstOrderSplit):
            expansion.matrix_second_order(rho, 1)

    @pytest.mark.parametrize("c", [1e-20, 1.0, 1e6])
    def test_rounding_level_mode_2n_does_not_split_at_any_scale(self, c):
        # b_2n or a_2n at 1e-16 of the profile is rounding of zero, whatever
        # the scale: the pair has a second order and M1 rotates no eigenvector
        base = expansion.lambda2(FourierSeries.cosine(4), 1)
        for rho in (
            FourierSeries(b=[0.0, 0.0, 1e-16 * c, 0.0, c]),
            FourierSeries(b=[0.0, 0.0, 0.0, 0.0, c], a=[0.0, 0.0, 1e-16 * c]),
        ):
            report = expansion.expand(rho, 1)
            assert report.lambda2 == pytest.approx(
                (base[0] * c * c, base[1] * c * c), rel=1e-12
            )
            assert report.eigvec1 == [(1.0, 0.0), (0.0, 1.0)]

    def test_quadrature_route_samples_rho_once(self, sample_calls):
        counts = []
        for rho in (FourierSeries.cosine(3), FourierSeries(b=[0, 0, 0, 1.0] + [0.0] * 36 + [0.1])):
            sample_calls.clear()
            expansion.matrix_second_order_quadrature(rho, 2)
            counts.append(len(sample_calls))
        assert counts[0] == counts[1] == 2

    def test_mode_four_profile_valid_for_pair_one(self):
        m = expansion.matrix_second_order(FourierSeries.cosine(4), 1)
        assert m.m12 == pytest.approx(m.m21, abs=1e-12)

    def test_symmetry_random(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            rho = random_series(rng, max_mode=10, zero_modes=(2 * n,))
            m = expansion.matrix_second_order(rho, n)
            assert abs(m.m12 - m.m21) <= 1e-10 * max(m.max_entry(), 1e-30)

    def test_matches_quadrature_route(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            n = int(rng.integers(1, 5))
            rho = random_series(rng, max_mode=8, zero_modes=(2 * n,))
            closed = expansion.matrix_second_order(rho, n).as_array()
            quad = expansion.matrix_second_order_quadrature(rho, n).as_array()
            np.testing.assert_allclose(closed, quad, atol=1e-9)

    def test_reflection_symmetric_profile_is_diagonal(self):
        rng = np.random.default_rng(19)
        for n in (1, 2, 3):
            b = rng.uniform(-1, 1, 9)
            b[2 * n] = 0.0
            rho = FourierSeries(b=b)
            m1 = expansion.matrix_first_order(rho, n)
            m2 = expansion.matrix_second_order(rho, n)
            assert m1.m12 == 0.0 and m1.m21 == 0.0
            assert m2.m12 == pytest.approx(0.0, abs=1e-12 * max(m2.max_entry(), 1.0))
            assert m2.m21 == pytest.approx(0.0, abs=1e-12 * max(m2.max_entry(), 1.0))

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(23)
        rho = random_series(rng, max_mode=7, zero_modes=(4,))
        base = expansion.matrix_second_order(rho, 2).as_array()
        half = FourierSeries(b=0.5 * rho.b, a=0.5 * rho.a)
        scaled = expansion.matrix_second_order(half, 2).as_array()
        np.testing.assert_allclose(scaled, 0.25 * base, atol=1e-12)

    def test_constant_profile_is_inert(self):
        # adding a constant is undone by the area normalization: the domain
        # stays a disk, so all second-order entries vanish
        m = expansion.matrix_second_order(FourierSeries.constant(0.7), 3)
        assert m.max_entry() == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n", [4 * 10**9, 10**12])
    def test_coupled_prefactor_does_not_wrap_past_int64(self, n):
        # n k passes int64 for n >= 3.04e9, and a wrapped prefactor put M2 off
        # by a factor of 1e9; the high-mode law gives -2 n sqrt(pi) for cos 3 theta.
        # What is left is the cancellation of terms of size n^2: 1.7e-7 relative
        # at n = 4e9 and 9.0e-5 at 1e12 (measured)
        m = expansion.matrix_second_order(FourierSeries.cosine(3), n)
        law = -2.0 * n * math.sqrt(math.pi)
        np.testing.assert_allclose(m.as_array(), law * np.eye(2), rtol=0, atol=1e-3 * abs(law))

    @pytest.mark.parametrize("n, bound", [(10**3, 1e-13), (10**6, 1.5e-10)])
    @pytest.mark.parametrize("rho", [
        FourierSeries.from_dict({"b": {"0": 0.3, "2": 0.5, "3": -0.4}, "a": {"3": 0.2, "1": 0.7}}),
        FourierSeries.cosine(3),
    ])
    def test_large_n_rounding_stays_within_its_bound(self, rho, n, bound):
        # past the top mode, expand's M2 is the high-mode law times I (README, "The high-mode
        # law"), but it cancels terms of size n^2 down to size n, so its relative error grows
        # like n times the machine epsilon.  Measured: 4.8e-14 (this mixed profile) and 3.9e-14
        # (cos 3 theta) at n = 10^3, 7.5e-11 and 6.1e-11 at n = 10^6, m12 = m21 = 0 exactly
        modes = np.arange(1, rho.max_mode + 1)
        law = -0.25 * n * RT * np.sum((modes * modes - 1.0) * (rho.a[1:] ** 2 + rho.b[1:] ** 2))
        report = expansion.expand(rho, n)
        np.testing.assert_allclose(report.m2.as_array(), law * np.eye(2), rtol=0, atol=bound * abs(law))
        np.testing.assert_allclose(report.lambda2, (law, law), rtol=bound)


class TestLambda2:
    def test_special_pair_two(self):
        pair = expansion.lambda2(FourierSeries.cosine(3), 2)
        assert pair == pytest.approx((20 * RT / 3, 20 * RT / 3), rel=1e-12)

    def test_special_pair_three(self):
        pair = expansion.lambda2(FourierSeries.cosine(5), 3)
        expected = 14976.0 / 320.0 * RT
        assert pair == pytest.approx((expected, expected), rel=1e-12)

    def test_zero_profile(self):
        assert expansion.lambda2(FourierSeries.zero(), 4) == (0.0, 0.0)

    def test_split_refused(self):
        with pytest.raises(FirstOrderSplit):
            expansion.lambda2(FourierSeries.cosine(2), 1)


class TestSpecialProfile:
    def test_mode_choice(self):
        assert expansion.special_rho(2).to_dict() == FourierSeries.cosine(3).to_dict()
        assert expansion.special_rho(3).to_dict() == FourierSeries.cosine(5).to_dict()
        assert expansion.special_rho(8).to_dict() == FourierSeries.cosine(12).to_dict()

    def test_invalid(self):
        with pytest.raises(InvalidMode):
            expansion.special_rho(1)
        with pytest.raises(InvalidMode, match="^the closed form is defined for n >= 2, got 1$"):
            expansion.closed_form_lambda2_special(1)

    def test_closed_form_values(self):
        assert expansion.closed_form_lambda2_special(2) == pytest.approx(20 * RT / 3)
        assert expansion.closed_form_lambda2_special(3) == pytest.approx(14976.0 / 320.0 * RT)

    def test_closed_form_matches_engine(self):
        for n in range(2, 51):
            cf = expansion.closed_form_lambda2_special(n)
            lo, hi = expansion.lambda2(expansion.special_rho(n), n)
            assert lo == pytest.approx(cf, rel=1e-9)
            assert hi == pytest.approx(cf, rel=1e-9)

    def test_positive_for_all_modes(self):
        values = [expansion.closed_form_lambda2_special(n) for n in range(2, 1001)]
        assert min(values) > 0.0


@pytest.mark.parametrize("n", range(1, 17))
def test_the_disk_optimizes_no_eigenvalue_past_the_first(n):
    # the paper's claim index by index: the disk's double eigenvalue
    # n sqrt(pi) is sigma_{2n-1} (the lower branch) and sigma_{2n} (the
    # upper one), and for sigma_2 ... sigma_32 one profile moves each up and
    # another moves it down, while no cos m theta lifts sigma_1
    c = (n * n + 0.5 * n) * RT
    # sigma_{2n-1} down and sigma_{2n} up: cos 2n theta splits the pair at first order
    assert expansion.lambda1(FourierSeries.cosine(2 * n), n) == (-c, c)
    if n >= 2:  # sigma_{2n-1} up (worst error 1.1e-15)
        values = expansion.lambda2(expansion.special_rho(n), n)
        want = expansion.closed_form_lambda2_special(n)
        assert min(values) > 0 and values == pytest.approx((want, want), rel=1e-9)
    if n <= 2:  # sigma_{2n} down: -12.998 and -97.839
        assert max(expansion.lambda2(FourierSeries.cosine(2 * n + 1), n)) < 0
    else:  # the high-mode law for cos 2 theta, J = 2 < n (worst error 4.1e-15)
        assert expansion.lambda2(FourierSeries.cosine(2), n) == pytest.approx((-0.75 * n * RT,) * 2, rel=1e-13)
    if n == 1:  # sigma_1 does not rise
        assert all(max(expansion.lambda2(FourierSeries.cosine(m), 1)) < 0 for m in range(3, 10))


class TestExpand:
    def test_split_pair_report(self):
        report = expansion.expand(FourierSeries.cosine(2), 1)
        assert report.lambda1 == pytest.approx((-1.5 * RT, 1.5 * RT))
        assert report.lambda2 is None and report.m2 is None
        # eigenvectors of the first-order matrix, ascending eigenvalue order
        assert report.eigvec1[0] == pytest.approx((1.0, 0.0))
        assert report.eigvec1[1] == pytest.approx((0.0, 1.0))

    def test_split_pair_vectors_are_those_of_eigh(self):
        # the closed-form vectors against LAPACK's, with the sign rule (first
        # component above 1e-12 in magnitude positive) applied here; a and b
        # of either sign, one of them near zero or exactly zero
        rng = np.random.default_rng(18)
        scales = [1.0, 1e-6, 1e-12, 0.0]
        split = 0
        for trial in range(400):
            n = 1 + trial % 3
            a, b = rng.uniform(-1.0, 1.0, 2) * rng.choice(scales, 2)
            rho = FourierSeries.from_dict({"a": {str(2 * n): a}, "b": {str(2 * n): b, "1": 0.3}})
            report = expansion.expand(rho, n)
            if report.lambda2 is not None:  # not split: the canonical basis
                continue
            split += 1
            _, vecs = np.linalg.eigh(expansion.matrix_first_order(rho, n).as_array())
            for got, col in zip(report.eigvec1, vecs.T):
                if (col[0] if abs(col[0]) > 1e-12 else col[1]) < 0.0:
                    col = -col
                np.testing.assert_allclose(got, col, rtol=0.0, atol=1e-15, err_msg=str((n, a, b)))
            assert all(math.copysign(1.0, x) == 1.0 for vec in report.eigvec1 for x in vec if x == 0.0)
        assert split >= 350

    def test_report_holds_the_profile(self):
        rho = FourierSeries(b=[0.0, 0.0, 1.0], a=[0.0, 0.5])
        report = expansion.expand(rho, 1)
        assert report.rho is rho
        assert report.to_dict()["rho"] == {"a": {"1": 0.5}, "b": {"2": 1.0}}

    def test_degenerate_pair_report(self):
        report = expansion.expand(expansion.special_rho(2), 2)
        assert report.lambda1 == (0.0, 0.0)
        assert report.lambda2 == pytest.approx((20 * RT / 3, 20 * RT / 3), rel=1e-12)
        assert report.eigvec1 == [(1.0, 0.0), (0.0, 1.0)]
        # couplings of pair 2 under a mode-3 profile live at m = 1 and m = 5
        assert sorted(report.beta_mu[0]) == [1, 5]

    def test_zero_profile_report(self):
        report = expansion.expand(FourierSeries.zero(), 4)
        assert report.lambda0 == pytest.approx(4 * RT)
        assert report.lambda1 == (0.0, 0.0)
        assert report.lambda2 == (0.0, 0.0)
        assert report.beta_mu == [{}, {}]

    def test_one_constant_table_per_expand(self, monkeypatch):
        # expand evaluates the coupled constants in one array pass of the
        # rule that covers each k in 0..n+J without n exactly once, and never per k
        calls = collections.Counter()
        passes = []
        coupled, rule = integrals.coupled_constants, integrals._coupled

        def counted(rho, n, k):
            calls[k] += 1
            return coupled(rho, n, k)

        def recorded(n, k, lower, upper):
            passes.append(np.atleast_1d(k).tolist())
            return rule(n, k, lower, upper)

        monkeypatch.setattr(integrals, "coupled_constants", counted)
        monkeypatch.setattr(expansion, "coupled_constants", counted)
        monkeypatch.setattr(integrals, "_coupled", recorded)
        rng = np.random.default_rng(29)
        for n in (1, 2, 3):
            rho = random_series(rng, max_mode=9, zero_modes=(4,))
            passes.clear()
            report = expansion.expand(rho, n)
            assert (report.lambda2 is None) == (n != 2)
            assert passes == [[k for k in range(n + 10) if k != n]]
            assert not calls

    def test_table_does_not_grow_with_n(self, monkeypatch):
        # the coupled constants at (n, k) can be nonzero only for |k - n| <= J,
        # so expand's table covers max(0, n - J)..n + J without n, whatever n
        tables = []
        build = integrals.constant_table

        def recorded(rho, n, ks=None):
            tables.append(ks.tolist())
            return build(rho, n, ks)

        monkeypatch.setattr(expansion, "constant_table", recorded)
        n = 10**9
        report = expansion.expand(FourierSeries.cosine(3), n)
        assert report.lambda0 == n * RT
        assert tables == [[n - 3, n - 2, n - 1, n + 1, n + 2, n + 3]]
        assert sorted(report.beta_mu[0]) == [n - 3, n + 3]

    @pytest.mark.parametrize("max_mode, n", [(3, 4), (6, 9), (10, 16)])
    def test_m2_past_the_top_mode_is_the_full_range_tables(self, max_mode, n):
        # past n = J the table leaves out k < n - J, where every coupled
        # constant is 0: M2 moves by rounding at most, on both routes
        rho = random_series(np.random.default_rng(max_mode), max_mode=max_mode)
        for route, table in [(expansion.matrix_second_order, integrals.constant_table),
                             (expansion.matrix_second_order_quadrature, integrals.quadrature_constant_table)]:
            full = expansion._assemble_m2(rho, n, table(rho, n)).as_array()
            np.testing.assert_allclose(route(rho, n).as_array(), full, rtol=0.0, atol=1e-14 * np.max(np.abs(full)))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_beta_mu_match_the_per_k_path(self, seed):
        # the array pass over k gives every first_order_coefficients value,
        # on split and non-split pairs of 40-mode profiles
        rng = np.random.default_rng(seed)
        decay = 1.0 / (1.0 + np.arange(41))
        b, a = rng.uniform(-1.0, 1.0, (2, 41)) * decay
        a[0] = 0.0
        for n in (2, 4, 6, 8):
            a[2 * n] = b[2 * n] = 0.0
        rho = FourierSeries(b=b, a=a)
        for n in range(1, 9):
            report = expansion.expand(rho, n)
            assert (report.lambda2 is None) == (n % 2 == 1)
            for vec, branch in zip(report.eigvec1, report.beta_mu):
                for m in range(n + 41):
                    if m == n:
                        continue
                    # a key absent from the report stands for (0, 0), exactly
                    alone = expansion.first_order_coefficients(rho, n, vec, m)
                    assert branch.get(m, (0.0, 0.0)) == pytest.approx(alone, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_a_shared_series_gives_the_numbers_of_fresh_ones(self, seed):
        # each series keeps its spectra, coefficient norm and sum of squares:
        # one series asked for n = 1..16, 10^3, 10^6 and 10^9 in turn gives
        # exactly what a fresh series with its coefficients gives at each n,
        # on 40-mode profiles (pairs 2, 4, .., 16 not split, the odd ones
        # split), a constant profile (J = 0) and the zero series
        rng = np.random.default_rng(seed)
        decay = 1.0 / (1.0 + np.arange(41))
        b, a = rng.uniform(-1.0, 1.0, (2, 41)) * decay
        a[0] = 0.0
        for n in range(2, 17, 2):
            a[2 * n] = b[2 * n] = 0.0
        profiles = [FourierSeries(b=b, a=a), random_series(rng, max_mode=40), FourierSeries.constant(0.3),
                    FourierSeries.zero()]
        for shared in profiles:
            for n in [*range(1, 17), 10**3, 10**6, 10**9]:
                fresh = lambda: FourierSeries(b=shared.b, a=shared.a)  # noqa: E731
                assert expansion.expand(shared, n).to_dict() == expansion.expand(fresh(), n).to_dict()
                ks = np.arange(max(0, n - shared.max_mode), n + shared.max_mode + 1)
                ks = ks[ks != n]
                kept, built = integrals.constant_table(shared, n, ks), integrals.constant_table(fresh(), n, ks)
                assert kept.single == built.single and np.array_equal(kept.ks, built.ks)
                assert all(np.array_equal(kept.coupled[kind], built.coupled[kind]) for kind in integrals.COUPLED_KINDS)
                assert integrals.single_constants(shared, n) == integrals.single_constants(fresh(), n)
                if expansion._splits_at_first_order(shared, n):
                    for rho in (shared, fresh()):
                        with pytest.raises(FirstOrderSplit):
                            expansion.matrix_second_order(rho, n)
                else:
                    assert (expansion.matrix_second_order(shared, n).as_array().tolist()
                            == expansion.matrix_second_order(fresh(), n).as_array().tolist())

    def test_each_spectrum_is_built_once_per_series(self, monkeypatch):
        # 16 expand calls and a constant table on one fresh series build the
        # two-sided spectra of rho and of rho' once each, not once per call
        builds = []
        build = series._build_spectrum

        def counted(b, a):
            builds.append(b)
            return build(b, a)

        monkeypatch.setattr(series, "_build_spectrum", counted)
        rho = random_series(np.random.default_rng(41), max_mode=40)
        for n in range(1, 17):
            expansion.expand(rho, n)
        integrals.constant_table(rho, 8)
        assert len(builds) == 2
        assert builds[0] is rho.b and builds[1] is rho.derivative().b

    def test_report_serializes(self):
        import json

        report = expansion.expand(FourierSeries.cosine(4), 1)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n"] == 1
        assert payload["lambda2"] is not None
        assert payload["M1"] == [[0.0, 0.0], [0.0, 0.0]]
