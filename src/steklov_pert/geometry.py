"""Geometry of the perturbed, area-normalized domain.

The unnormalized domain has boundary radius ``1 + eps*rho(theta)``; dividing
by the square root of its area ``v(eps)`` rescales it to unit area.  This
module provides ``v`` (an exact quadratic in eps), the normalized boundary
radius and second-order expansions of its powers, the second-order expansion
of the outward unit normal, and quadrature checks of the unit-area property.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonStarShaped
from .series import FourierSeries

STAR_CHECK_POINTS = 1024


@dataclass(frozen=True)
class EpsSeries2:
    """Truncated expansion f(eps) = c0 + c1*eps + c2*eps^2 + O(eps^3).

    Coefficients are either floats or FourierSeries, depending on whether the
    expanded quantity is scalar or theta-dependent.
    """

    c0: object
    c1: object
    c2: object

    def evaluate_at(self, eps):
        """Truncated value at eps (same type as the coefficients)."""
        return self.c0 + self.c1 * eps + self.c2 * (eps * eps)

    def sample(self, eps, theta):
        """Evaluate at (eps, theta) when the coefficients are FourierSeries."""
        return self.evaluate_at(eps).evaluate(theta)


@dataclass(frozen=True)
class NormalExpansion:
    """Outward unit normal through second order, split into polar components.

    nu(eps) = (order0_r + order1_r*eps + order2_r*eps^2) r_hat
            + (order0_t + order1_t*eps + order2_t*eps^2) theta_hat + O(eps^3)
    """

    order0_r: FourierSeries
    order0_t: FourierSeries
    order1_r: FourierSeries
    order1_t: FourierSeries
    order2_r: FourierSeries
    order2_t: FourierSeries

    def components_at(self, eps, theta):
        """(radial, tangential) truncated components on a theta grid."""
        e2 = eps * eps
        nr = (self.order0_r + eps * self.order1_r + e2 * self.order2_r).evaluate(theta)
        nt = (self.order0_t + eps * self.order1_t + e2 * self.order2_t).evaluate(theta)
        return nr, nt


def star_samples(rho, num_points=STAR_CHECK_POINTS):
    """rho on the star-check grid: num_points equispaced angles in [0, 2 pi)."""
    return rho.evaluate(np.linspace(0.0, 2.0 * np.pi, num_points, endpoint=False))


def require_star_shaped(rho_samples, eps):
    """Raise NonStarShaped unless 1 + eps*rho > 0 at every given sample of rho."""
    lowest = np.min(1.0 + eps * rho_samples)
    if lowest <= 0.0:
        raise NonStarShaped(f"1 + eps*rho reaches {lowest:.3g} <= 0 at eps={eps:g}")


def check_star_shaped(rho, eps, num_points=STAR_CHECK_POINTS):
    """Raise NonStarShaped unless 1 + eps*rho > 0 on a dense theta grid.

    The samples of rho do not depend on eps: a caller that checks many eps
    takes star_samples(rho) once and calls require_star_shaped for each.
    """
    require_star_shaped(star_samples(rho, num_points), eps)


def area_factor(rho):
    """Area of the unnormalized domain as an exact quadratic in eps.

    v(eps) = pi + 2*pi*b0*eps + (pi/2)*(2*b0^2 + sum_{j>=1}(a_j^2+b_j^2))*eps^2.
    """
    b0 = rho.coeff(0)[1]
    return EpsSeries2(
        c0=math.pi,
        c1=2.0 * math.pi * b0,
        c2=0.5 * math.pi * (2.0 * b0 * b0 + rho.sum_of_squares()),
    )


def area_value(rho, eps):
    """v(eps), evaluated exactly (the quadratic expansion is not truncated)."""
    return area_factor(rho).evaluate_at(eps)


def boundary_radius(rho, eps, theta):
    """Normalized boundary radius (1 + eps*rho(theta)) / sqrt(v(eps)).

    Raises NonStarShaped when 1 + eps*rho is not positive everywhere.
    """
    check_star_shaped(rho, eps)
    scale = 1.0 / math.sqrt(area_value(rho, eps))
    return (1.0 + eps * rho.evaluate(theta)) * scale


def radius_power(rho, k):
    """Second-order expansion of the k-th power of the normalized radius.

    R^k = pi^{-k/2} [ 1 + k*(rho - b0)*eps
          + (k/2)*((k-1)*rho^2 + (k+1)*b0^2 - (1/2)*sum(a_j^2+b_j^2)
                   - 2*k*b0*rho)*eps^2 ] + O(eps^3)

    Returns an EpsSeries2 with FourierSeries coefficients.
    """
    if k < 0:
        raise ValueError("radius_power expects k >= 0")
    pref = math.pi ** (-0.5 * k)
    if k == 0:
        one = FourierSeries.constant(1.0)
        zero = FourierSeries.zero()
        return EpsSeries2(c0=one, c1=zero, c2=zero)
    b0 = rho.coeff(0)[1]
    c0 = FourierSeries.constant(pref)
    c1 = pref * k * (rho - b0)
    quad = (
        (k - 1.0) * rho.square()
        + FourierSeries.constant((k + 1.0) * b0 * b0 - 0.5 * rho.sum_of_squares())
        - (2.0 * k * b0) * rho
    )
    c2 = (0.5 * pref * k) * quad
    return EpsSeries2(c0=c0, c1=c1, c2=c2)


def normal_expansion(rho):
    """Second-order expansion of the outward unit normal along the boundary.

    nu = r_hat - rho'*theta_hat*eps + (-rho'^2 r_hat + 2 rho rho' theta_hat)*eps^2/2.
    """
    rho_p = rho.derivative()
    return NormalExpansion(
        order0_r=FourierSeries.constant(1.0),
        order0_t=FourierSeries.zero(),
        order1_r=FourierSeries.zero(),
        order1_t=-rho_p,
        order2_r=-0.5 * rho_p.square(),
        order2_t=rho.product(rho_p),
    )


def exact_normal(rho, eps, theta):
    """(radial, tangential) components of the exact outward unit normal."""
    rv = rho.evaluate(theta)
    rp = rho.derivative().evaluate(theta)
    nr = 1.0 + eps * rv
    nt = -eps * rp
    norm = np.sqrt(nr * nr + nt * nt)
    return nr / norm, nt / norm


def area_quadrature(rho, eps, num_points=256):
    """Trapezoid value of the normalized area (1/2) * int R(theta)^2 dtheta.

    Spectrally accurate for band-limited rho; equals 1 up to rounding.
    """
    if num_points < 16:
        raise ValueError("area_quadrature expects num_points >= 16")
    theta = np.linspace(0.0, 2.0 * np.pi, num_points, endpoint=False)
    radius = boundary_radius(rho, eps, theta)
    return float(0.5 * np.sum(radius * radius) * (2.0 * np.pi / num_points))
