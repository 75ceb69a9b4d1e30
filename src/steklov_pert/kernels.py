"""Hot kernel of the direct solver: boundary values and flux traces of the basis.

The solver spends its time building two N x (2K+1) trace matrices per
(rho, eps): harmonic basis values on the boundary and the matching flux
traces.  Both come from one vectorized numpy evaluation.
"""

import numpy as np


def active_backend():
    # perfbench/run.py records this in each run's environment
    return "numpy"


def boundary_traces(theta, radius, radius_prime, num_modes, scales):
    """Basis values V and flux traces T on the boundary grid.

    Columns: 0 -> constant; 2j-1 -> r^j cos(j theta); 2j -> r^j sin(j theta),
    each scaled by scales[j].  T holds grad(phi) . (R r_hat - R' theta_hat),
    i.e. the normal derivative times the arc-length factor.

    The values come from the powers (R e^{i theta})^j = R^j e^{i j theta},
    one complex multiplication per mode.  With c_j = s_j R^j cos(j theta)
    and s~_j = s_j R^j sin(j theta) the flux traces are
    j (c_j + (R'/R) s~_j) and j (s~_j - (R'/R) c_j).
    """
    n = theta.size
    cols = 2 * num_modes + 1
    values = np.empty((n, cols))
    traces = np.zeros((n, cols))
    values[:, 0] = scales[0]
    modes = np.arange(1, num_modes + 1)
    point = radius * np.exp(1j * theta)
    powers = np.cumprod(np.broadcast_to(point[:, None], (n, num_modes)), axis=1)
    cos_part = scales[1:] * powers.real
    sin_part = scales[1:] * powers.imag
    slope = (radius_prime / radius)[:, None]  # R'/R
    values[:, 1::2] = cos_part
    values[:, 2::2] = sin_part
    traces[:, 1::2] = modes * (cos_part + slope * sin_part)
    traces[:, 2::2] = modes * (sin_part - slope * cos_part)
    return values, traces
