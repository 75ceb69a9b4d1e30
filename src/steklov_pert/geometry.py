"""Geometry of the perturbed, area-normalized domain.

The unnormalized domain has boundary radius ``1 + eps*rho(theta)``; dividing
by the square root of its area ``v(eps)`` rescales it to unit area.  This
module provides ``v`` (an exact quadratic in eps), the star-shape check
and its grid, and a quadrature check of the unit-area property.
"""

import math

import numpy as np

from .errors import NonStarShaped

STAR_CHECK_POINTS = 1024


def require_star_shaped(rho_range, eps):
    """Raise NonStarShaped unless 1 + eps*rho > 0 at every sample of rho on the star-check grid.

    rho_range is (min, max) of those samples, from star_range(rho): fl(1 + eps*x)
    is monotone in x, so its least value over the samples is at one of the two.
    """
    low, high = rho_range
    lowest = min(1.0 + eps * low, 1.0 + eps * high)
    if lowest <= 0.0:
        raise NonStarShaped(f"1 + eps*rho reaches {lowest:.3g} <= 0 at eps={eps:g}")


def star_range(rho):
    """(min, max) of rho on the star-check grid: STAR_CHECK_POINTS angles, or 2J + 1 if more.

    J is rho.max_mode, so the grid resolves rho.
    """
    samples = rho.sample(max(STAR_CHECK_POINTS, 2 * rho.max_mode + 1))
    return float(np.min(samples)), float(np.max(samples))


def check_star_shaped(rho, eps):
    """Raise NonStarShaped unless 1 + eps*rho > 0 on the star-check grid.

    star_range(rho) does not depend on eps: a sweep takes it once and calls
    require_star_shaped per eps.
    """
    require_star_shaped(star_range(rho), eps)


def area_coefficients(rho):
    """(v0, v1, v2) of the area v(eps) = v0 + v1*eps + v2*eps^2 of the unnormalized domain.

    v0 = pi, v1 = 2*pi*b0, v2 = (pi/2)*(2*b0^2 + sum_{j>=1}(a_j^2+b_j^2)).
    """
    b0 = rho.coeff(0)[1]
    return math.pi, 2.0 * math.pi * b0, 0.5 * math.pi * (2.0 * b0 * b0 + rho.sum_of_squares())


def area_value(rho, eps):
    """Area v(eps) of the unnormalized domain, an exact quadratic in eps (area_coefficients)."""
    v0, v1, v2 = area_coefficients(rho)
    return v0 + v1 * eps + v2 * (eps * eps)


def area_quadrature(rho, eps):
    """Trapezoid value of the normalized area (1/2) * int R(theta)^2 dtheta.

    R^2 has no mode above 2J (J = rho.max_mode), so the rule is exact on the
    2J + 1 points of rho.sample, and the value is 1 up to rounding.
    """
    num_points = 2 * rho.max_mode + 1
    check_star_shaped(rho, eps)
    radius = (1.0 + eps * rho.sample(num_points)) / math.sqrt(area_value(rho, eps))
    return float(0.5 * np.sum(radius * radius) * (2.0 * np.pi / num_points))
