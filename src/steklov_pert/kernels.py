"""Hot kernel of the direct solver: boundary values and flux traces of the basis.

The solver spends its time building two N x (2K+1) trace matrices per
(rho, eps): harmonic basis values on the boundary and the matching flux
traces.  Both are written in place: a call allocates no other N x K array.
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

    Columns 2j-1, 2j of V, viewed as one complex column, hold the powers
    s_j (R e^{i theta})^j, one complex multiplication per mode.  The same
    view of T holds j s_j (R e^{i theta})^j (1 - i R'/R), that is
    j (c_j + (R'/R) s~_j) + i j (s~_j - (R'/R) c_j) with
    c_j = s_j R^j cos(j theta) and s~_j = s_j R^j sin(j theta).
    """
    n = theta.size
    cols = 2 * num_modes + 1
    values = np.empty((n, cols))
    traces = np.empty((n, cols))
    values[:, 0] = 1.0
    traces[:, 0] = 0.0
    powers = values[:, 1:].view(complex)
    flux = traces[:, 1:].view(complex)
    point = radius * np.exp(1j * theta)
    np.cumprod(np.broadcast_to(point[:, None], (n, num_modes)), axis=1, out=powers)
    # scaled through the whole arrays: one contiguous loop, not one per row
    values *= np.repeat(scales, 2)[1:]
    np.multiply(powers, (1.0 - 1j * (radius_prime / radius))[:, None], out=flux)
    traces *= np.repeat(np.arange(num_modes + 1.0), 2)[1:]
    return values, traces
