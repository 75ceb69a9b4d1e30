import numpy as np
import pytest

from steklov_pert import kernels

from conftest import random_series


def _sample_boundary(seed=1, n=256, k=18):
    rng = np.random.default_rng(seed)
    rho = random_series(rng, max_mode=6)
    theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
    radius = 1.0 + 0.05 * rho.evaluate(theta)
    radius_prime = 0.05 * rho.derivative().evaluate(theta)
    scales = radius.max() ** -np.arange(k + 1, dtype=float)
    return theta, radius, radius_prime, k, scales


@pytest.mark.parametrize("num_modes", [18, 84])  # 84: verify's K for special_rho(16)
def test_numpy_kernel_matches_direct_evaluation(num_modes):
    # the powers are built by doubling; the flux rows grow like j, and so
    # does their tolerance
    theta, radius, radius_prime, k, scales = _sample_boundary(k=num_modes)
    values, traces = kernels.boundary_traces(theta, radius, radius_prime, k, scales)
    assert values.shape == traces.shape == (2 * k + 1, theta.size)
    assert np.all(values[0] == scales[0])
    assert np.all(traces[0] == 0.0)
    for j in range(1, k + 1):
        cos_j, sin_j = np.cos(j * theta), np.sin(j * theta)
        np.testing.assert_allclose(values[2 * j - 1], scales[j] * radius**j * cos_j, atol=1e-13)
        np.testing.assert_allclose(values[2 * j], scales[j] * radius**j * sin_j, atol=1e-13)
        # closed-form flux: j R^(j-1) (R cos + R' sin) and j R^(j-1) (R sin - R' cos)
        flux = scales[j] * j * radius ** (j - 1)
        np.testing.assert_allclose(
            traces[2 * j - 1], flux * (radius * cos_j + radius_prime * sin_j), atol=1e-13 * j
        )
        np.testing.assert_allclose(
            traces[2 * j], flux * (radius * sin_j - radius_prime * cos_j), atol=1e-13 * j
        )


def test_mode_major_rows_share_one_allocation():
    # one contiguous row per basis function, V and T the two halves of one array
    values, traces = kernels.boundary_traces(*_sample_boundary(n=97, k=5))
    assert values.flags.c_contiguous and traces.flags.c_contiguous
    assert values.base is not None and values.base is traces.base
    assert values.base.shape == (2, 11, 97)
