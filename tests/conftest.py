import numpy as np
import pytest

from steklov_pert.series import FourierSeries


@pytest.fixture()
def sample_calls(monkeypatch):
    """A list that gains one entry (the num_points argument) per FourierSeries.sample call."""
    calls = []
    sample = FourierSeries.sample

    def counting(series, num_points):
        calls.append(num_points)
        return sample(series, num_points)

    monkeypatch.setattr(FourierSeries, "sample", counting)
    return calls


def random_series(rng, max_mode=8, scale=1.0, zero_modes=()):
    """Random band-limited profile; selected mode indices can be forced to zero."""
    b = rng.uniform(-1.0, 1.0, max_mode + 1) * scale
    a = rng.uniform(-1.0, 1.0, max_mode + 1) * scale
    a[0] = 0.0
    for j in zero_modes:
        if j <= max_mode:
            a[j] = 0.0
            b[j] = 0.0
    return FourierSeries(b=b, a=a)


def star_shaped_eps(rho, rng, margin=0.5):
    """An eps for which 1 + eps*rho stays well above zero."""
    theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    peak = np.max(np.abs(rho.evaluate(theta)))
    cap = margin / max(peak, 1e-12)
    return float(rng.uniform(-cap, cap))
