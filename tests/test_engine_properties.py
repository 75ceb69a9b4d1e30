"""Properties of the expansion engine on random profiles (hypothesis, derandomized).

These checks hold for every profile, so they live here rather than inside
the library calls: lambda1 is the eigenvalue pair of M1 and, once a_2n and
b_2n are zeroed, M2 is symmetric and M2 from the closed-form constants
equals M2 from the quadrature oracle.
"""

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
