"""Hot kernel of the direct solver: boundary values and flux traces of the basis.

Per (rho, eps) it returns one np.empty((2, 2K+1, M)) whose halves are the
mode-major V and T, and allocates no other M x K array: separate V, T,
power and weighted arrays let glibc trim and refault its heap at each eps
(8,316 minor page faults per job of the two criterion-7 sweeps, against 0).
The solver calls it on the M = N / gcd(N, g) points of one 2 pi / g sector
of its N-point grid, g the rotation order of rho (solver.sample_boundary):
43 points for cos 12 theta, all N when rho has no rotational symmetry.
On so few points each numpy call costs more than its arithmetic, so the
powers of R e^{i theta} are built by doubling: ceil(log2 K) vector
products instead of K - 1, 6 instead of 39 at K = 40.
"""

import numpy as np


def active_backend():
    # perfbench/run.py records this in each run's environment
    return "numpy"


def boundary_traces(theta, radius, radius_prime, num_modes, scales):
    """One (2, 2K+1, M) array of the basis values V = [0] and flux traces T = [1] at the given boundary angles.

    perfbench's tracer and kernel-size sweep call it with exactly these five
    positional arguments.  Rows: 0 -> constant; 2j-1 -> r^j cos(j theta);
    2j -> r^j sin(j theta), each scaled by scales[j].  T holds
    grad(phi) . (R r_hat - R' theta_hat): the normal derivative times the
    arc-length factor.  The powers (R e^{i theta})^j are built in T's
    memory (rows 2j-1, 2j as one complex row) by doubling: each product
    multiplies every power built so far by the highest, so K modes take
    ceil(log2 K) vector products.  Their scaled parts c_j, s~_j go to V,
    and T is then overwritten with j (c_j + q s~_j) and j (s~_j - q c_j),
    q = R'/R.
    """
    values, traces = both = np.empty((2, 2 * num_modes + 1, theta.size))
    powers = traces[1:].reshape(num_modes, -1).view(complex)
    np.multiply(np.exp(1j * theta), radius, out=powers[0])
    done = 1  # powers[:done] hold z^1 .. z^done (z = R e^{i theta}); z^(done + i) = z^i z^done
    while done < num_modes:
        step = min(done, num_modes - done)
        np.multiply(powers[:step], powers[done - 1], out=powers[done : done + step])
        done += step
    cos, sin, flux_cos, flux_sin = values[1::2], values[2::2], traces[1::2], traces[2::2]
    np.multiply(powers.real, scales[1:, None], out=cos)
    np.multiply(powers.imag, scales[1:, None], out=sin)
    values[0], traces[0] = scales[0], 0.0
    q = radius_prime / radius
    np.multiply(sin, q, out=flux_cos)
    flux_cos += cos
    np.multiply(cos, -q, out=flux_sin)
    flux_sin += sin
    traces *= np.repeat(np.arange(num_modes + 1.0), 2)[1:, None]
    return both
