"""Properties of the expansion engine on random profiles (hypothesis, derandomized).

These checks hold for every profile, so they live here rather than inside
the library calls: lambda1 is the eigenvalue pair of M1 and, once a_2n and
b_2n are zeroed, M2 is symmetric and M2 from the closed-form constants
equals M2 from the quadrature oracle.  The trace of M2 is one sum over the
modes of rho, and past rho's top mode J, M2 is known exactly: the
high-mode law below.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steklov_pert import expansion
from steklov_pert.series import FourierSeries

MAX_MODE = 12

# coefficients on a 1e-3 lattice in [-1, 1]: zeros are common, so sparse
# profiles are drawn as often as dense ones
coefficient = st.integers(-1000, 1000).map(lambda i: i / 1000.0)
coefficients = st.lists(coefficient, min_size=MAX_MODE + 1, max_size=MAX_MODE + 1)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(n=st.integers(1, 6), max_mode=st.integers(0, MAX_MODE), b=coefficients, a=coefficients)
def test_engine_properties_on_non_split_profiles(n, max_mode, b, a):
    b = np.array(b[: max_mode + 1])
    a = np.array(a[: max_mode + 1])
    a[0] = 0.0
    # lambda1 on the profile as drawn, where mode 2n may split the pair
    drawn = FourierSeries(b=b, a=a)
    pair = expansion.lambda1(drawn, n)
    eigenvalues = expansion.matrix_first_order(drawn, n).eigenvalues()
    scale = max(1.0, abs(pair[1]))
    assert pair == pytest.approx(eigenvalues, rel=0, abs=1e-12 * scale)

    if 2 * n <= max_mode:
        a[2 * n] = b[2 * n] = 0.0
    rho = FourierSeries(b=b, a=a)
    assert expansion.lambda1(rho, n) == (0.0, 0.0)
    m2 = expansion.matrix_second_order(rho, n)
    assert abs(m2.m12 - m2.m21) <= 1e-10 * m2.max_entry()
    quad = expansion.matrix_second_order_quadrature(rho, n)
    np.testing.assert_allclose(m2.as_array(), quad.as_array(), rtol=0, atol=1e-9)


# 1 to 7 distinct modes below J = 1..40, J among them, each with a nonzero sine or cosine part
modes = st.integers(1, 40).flatmap(
    lambda top: st.sets(st.integers(1, top), max_size=6).map(lambda rest: [top, *sorted(rest - {top})]))
mode_part = st.tuples(coefficient, coefficient).filter(lambda pair: pair != (0.0, 0.0))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), b0=coefficient, drawn=modes, n_rule=st.sampled_from([(1, 1), (1, 2), (2, 3), (10, 7)]))
def test_high_mode_law_is_exact_past_the_top_mode(data, b0, drawn, n_rule):
    # for n > J, M2 = lambda I with lambda = -(n sqrt(pi) / 4) sum_m (m^2 - 1)(a_m^2 + b_m^2):
    # F_2n and every F_{k+n} vanish, and only k = n -+ m couple; b0 and mode 1 add nothing.
    # Bounds relative to n sqrt(pi) sum_m (m^2 + 1)(a_m^2 + b_m^2); the worst of these 60
    # draws measured 1.9e-15 (closed form) and 5.5e-13 (quadrature)
    parts = data.draw(st.lists(mode_part, min_size=len(drawn), max_size=len(drawn)))
    top = drawn[0]
    b, a = np.zeros(top + 1), np.zeros(top + 1)
    b[0] = b0
    for m, (b_m, a_m) in zip(drawn, parts):
        b[m], a[m] = b_m, a_m
    rho = FourierSeries(b=b, a=a)
    n = n_rule[0] * top + n_rule[1]
    m = np.arange(1, top + 1)
    power = a[1:] ** 2 + b[1:] ** 2
    law = -0.25 * n * math.sqrt(math.pi) * np.sum((m * m - 1.0) * power)
    scale = n * math.sqrt(math.pi) * np.sum((m * m + 1.0) * power)
    for build, bound in ((expansion.matrix_second_order, 1e-14), (expansion.matrix_second_order_quadrature, 1e-12)):
        np.testing.assert_allclose(build(rho, n).as_array(), law * np.eye(2), rtol=0, atol=bound * scale)


def trace_symbol(n, m):
    """t_n(m), the weight of a_m^2 + b_m^2 in tr M2 / (n sqrt(pi)) for m >= 1, m != 2n, and its weight in the bound."""
    symbol, bound = -(m * m - 1.0) / 2.0, m * m + 1.0
    if m > n:
        symbol -= n * (m - n) * (m + 1.0) ** 2 / (m * (m - 2.0 * n))
        bound *= 1.0 + n * (m + 1.0) ** 2 / m
    return symbol, bound


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), b0=coefficient, drawn=modes)
def test_trace_of_m2_is_one_sum_over_the_modes(data, b0, drawn):
    # rotating rho turns the pair (cos n theta, sin n theta), so tr M2 is a rotation-invariant
    # quadratic form in rho: tr M2 = n sqrt(pi) sum_m t_n(m)(a_m^2 + b_m^2) over m >= 1 on every
    # non-split pair (mode 2n zero).  Bounds relative to n sqrt(pi) sum_m (m^2 + 1)(a_m^2 + b_m^2)
    # (1 + n(m + 1)^2 / m for m > n) with m = 0 in the sum: b0 adds nothing to the trace, but its
    # terms cancel only to rounding.  The worst of these 400 (profile, route) cases and of 2,000
    # more drawn from this domain measured 6.0e-15 (closed form) and 4.5e-14 (quadrature)
    n = data.draw(st.integers(1, 24).filter(lambda n: drawn != [2 * n]))
    parts = data.draw(st.lists(mode_part, min_size=len(drawn), max_size=len(drawn)))
    top = drawn[0]
    b, a = np.zeros(top + 1), np.zeros(top + 1)
    b[0] = b0
    for m, (b_m, a_m) in zip(drawn, parts):
        if m != 2 * n:
            b[m], a[m] = b_m, a_m
    rho = FourierSeries(b=b, a=a)
    power = a**2 + b**2
    weights = {m: trace_symbol(n, m) for m in range(1, top + 1) if m != 2 * n}
    trace = n * math.sqrt(math.pi) * sum(symbol * power[m] for m, (symbol, _) in weights.items())
    scale = n * math.sqrt(math.pi) * (power[0] + sum(bound * power[m] for m, (_, bound) in weights.items()))
    for build in (expansion.matrix_second_order, expansion.matrix_second_order_quadrature):
        m2 = build(rho, n)
        assert abs(m2.m11 + m2.m22 - trace) <= 1e-12 * scale
