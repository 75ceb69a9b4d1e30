import math

import numpy as np
import pytest

from steklov_pert import geometry
from steklov_pert.errors import NonStarShaped
from steklov_pert.series import FourierSeries

from conftest import random_series, star_shaped_eps


def _unnormalized_area(rho, eps, n=512):
    theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
    r = 1.0 + eps * rho.evaluate(theta)
    return 0.5 * np.sum(r * r) * (2 * np.pi / n)


class TestAreaFactor:
    def test_disk(self):
        for eps in (-0.5, 0.0, 0.3):
            assert geometry.area_value(FourierSeries.zero(), eps) == math.pi

    def test_single_cosine(self):
        for eps in (-0.2, 0.1, 0.7):
            got = geometry.area_value(FourierSeries.cosine(1), eps)
            assert got == pytest.approx(math.pi + 0.5 * math.pi * eps * eps, rel=1e-15)

    def test_constant_plus_sine_against_quadrature_fit(self):
        rho = FourierSeries(b=[1.0], a=[0, 0, 0, 2.0])
        eps = np.array([-0.02, -0.01, 0.0, 0.01, 0.02])
        want = (math.pi, 2 * math.pi, 3 * math.pi)
        # v(eps) = pi + 2 pi eps + 3 pi eps^2, and a quadratic fit of the
        # sampled area recovers the same coefficients
        for e in eps:
            assert geometry.area_value(rho, e) == pytest.approx(want[0] + want[1] * e + want[2] * e * e)
        areas = [_unnormalized_area(rho, e) for e in eps]
        c2, c1, c0 = np.polyfit(eps, areas, 2)
        assert (c0, c1, c2) == pytest.approx(want, abs=1e-10)

    def test_expansion_is_exact_not_truncated(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            rho = random_series(rng, max_mode=7)
            eps = star_shaped_eps(rho, rng)
            assert geometry.area_value(rho, eps) == pytest.approx(
                _unnormalized_area(rho, eps), abs=1e-12
            )


class TestAreaQuadrature:
    def test_disk(self):
        assert geometry.area_quadrature(FourierSeries.zero(), 0.5) == pytest.approx(1.0)

    def test_single_cosine(self):
        got = geometry.area_quadrature(FourierSeries.cosine(3), 0.2)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_two_mode(self):
        rho = FourierSeries(b=[0, 0, 0, 0, 0, 0.3], a=[0, 0, 0.5])
        assert geometry.area_quadrature(rho, 0.1) == pytest.approx(1.0, abs=1e-12)

    def test_random_profiles(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rho = random_series(rng, max_mode=8)
            eps = star_shaped_eps(rho, rng)
            assert geometry.area_quadrature(rho, eps) == pytest.approx(1.0, abs=1e-11)

    def test_samples_on_the_fewest_exact_points(self, sample_calls):
        # R^2 has no mode above 2J, so the trapezoid rule is exact on 2J + 1
        # points; the star check samples rho on its own grid first
        rng = np.random.default_rng(17)
        for rho in (FourierSeries.zero(), FourierSeries.cosine(3), random_series(rng, max_mode=8)):
            sample_calls.clear()
            area = geometry.area_quadrature(rho, 0.05)
            assert sample_calls == [geometry.STAR_CHECK_POINTS, 2 * rho.max_mode + 1]
            assert area == pytest.approx(1.0, abs=1e-14)

    def test_non_star_shaped(self):
        with pytest.raises(NonStarShaped):
            geometry.area_quadrature(FourierSeries.cosine(3), 2.0)
