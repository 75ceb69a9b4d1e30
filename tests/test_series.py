import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steklov_pert.expansion import special_rho
from steklov_pert.series import MODE_CAP, FourierSeries

from conftest import random_series


def test_evaluate_constant():
    s = FourierSeries(b=[1.0])
    assert s.evaluate(1.234) == pytest.approx(1.0, abs=1e-15)


def test_evaluate_single_cosine():
    s = FourierSeries.cosine(3, 500.0)
    assert s.evaluate(0.0) == pytest.approx(500.0, abs=1e-12)


def test_evaluate_mixed_modes():
    s = FourierSeries(b=[0, 0, 0, 0, 0, -2.0], a=[0, 0, 1.0])
    expected = math.sin(1.4) - 2.0 * math.cos(3.5)
    assert s.evaluate(0.7) == pytest.approx(expected, rel=1e-13)


def test_evaluate_periodic_and_vectorized():
    rng = np.random.default_rng(7)
    s = random_series(rng, max_mode=6)
    theta = rng.uniform(0, 2 * np.pi, 50)
    np.testing.assert_allclose(s.evaluate(theta + 2 * np.pi), s.evaluate(theta), atol=1e-12)
    # direct summation cross-check
    direct = sum(
        s.coeff(j)[0] * np.sin(j * theta) + s.coeff(j)[1] * np.cos(j * theta)
        for j in range(s.max_mode + 1)
    )
    np.testing.assert_allclose(s.evaluate(theta), direct, rtol=1e-13, atol=1e-13)


def _direct_sum(s, theta):
    """Long-double reference: sum_j a_j sin(j theta) + b_j cos(j theta)."""
    t = np.asarray(theta, dtype=np.longdouble)
    return sum(
        np.longdouble(s.b[j]) * np.cos(j * t) + np.longdouble(s.a[j]) * np.sin(j * t)
        for j in range(s.max_mode + 1)
    )


def test_evaluate_matches_long_double_sum_up_to_mode_cap():
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("np.longdouble is no wider than float64 here: no reference")
    rng = np.random.default_rng(41)
    worst = 0.0
    for max_mode in range(MODE_CAP + 1):
        s = random_series(rng, max_mode=max_mode)
        theta = rng.uniform(-2 * np.pi, 2 * np.pi, 101)
        size = np.sum(np.abs(s.a)) + np.sum(np.abs(s.b))
        err = np.max(np.abs(s.evaluate(theta) - _direct_sum(s, theta)))
        worst = max(worst, float(err / size))
    assert worst <= 1e-15


def test_sample_matches_long_double_sum_at_exact_grid_angles():
    # sample is one inverse FFT at the exact angles 2 pi i / N, from the
    # coarsest grid it accepts (2J + 1 points) up
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("np.longdouble is no wider than float64 here: no reference")
    rng = np.random.default_rng(59)
    pi = np.arccos(np.longdouble(-1.0))
    worst = 0.0
    for max_mode in range(MODE_CAP + 1):
        s = random_series(rng, max_mode=max_mode)
        size = np.sum(np.abs(s.a)) + np.sum(np.abs(s.b))
        for num_points in (2 * max_mode + 1, 2 * max_mode + 2, 2 * max_mode + 7, 512):
            exact = _direct_sum(s, 2 * pi * np.arange(num_points) / num_points)
            values = s.sample(num_points)
            assert values.shape == (num_points,) and values.dtype == np.float64
            worst = max(worst, float(np.max(np.abs(values - exact)) / size))
    assert worst <= 5e-15


def test_sample_zero_series_and_single_point():
    zero = FourierSeries.zero()
    for num_points in (1, 2, 7):
        assert np.array_equal(zero.sample(num_points), np.zeros(num_points))
    assert FourierSeries.constant(2.5).sample(1).tolist() == [2.5]
    # one point resolves only a constant
    s = FourierSeries(b=[0.5, 0.0, 1.0], a=[0.0, 3.0])
    with pytest.raises(ValueError, match="^1 points cannot resolve mode 2: sample needs more than 4$"):
        s.sample(1)
    assert s.sample(5)[0] == pytest.approx(1.5, abs=1e-15)


@pytest.mark.parametrize("num_points", [2 * 9 + 5, 2 * 9 + 1], ids=["fft", "fewest"])
def test_sample_keeps_its_last_grid_read_only(num_points):
    # the array of the last grid is kept and returned again, read-only, with
    # the same bytes a fresh series computes; another grid replaces it
    rng = np.random.default_rng(67)
    s = random_series(rng, max_mode=9)
    values = s.sample(num_points)
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0] = 1.0
    assert s.sample(num_points) is values
    fresh = FourierSeries(b=s.b, a=s.a).sample(num_points)
    assert values.tobytes() == fresh.tobytes()
    other = s.sample(num_points + 1)
    assert other.size == num_points + 1 and not other.flags.writeable
    again = s.sample(num_points)
    assert again is not values and again.tobytes() == values.tobytes()


@pytest.mark.parametrize("num_points", [2 * 9, 7, 1], ids=["2J", "coarse", "one"])
def test_sample_refuses_a_grid_that_aliases(num_points):
    # N <= 2J points would fold mode J onto a lower one: a ValueError naming
    # N and the mode, and the grid kept before stays kept
    rng = np.random.default_rng(67)
    s = random_series(rng, max_mode=9)
    kept = s.sample(64)
    with pytest.raises(ValueError, match=f"^{num_points} points cannot resolve mode 9: sample needs more than 18$"):
        s.sample(num_points)
    assert s.sample(64) is kept


def test_derivative_is_built_once():
    s = FourierSeries(b=[0.5, 0.0, 2.0], a=[0.0, 1.0])
    d = s.derivative()
    assert s.derivative() is d and s.derivative() is d
    assert d.sample(11) is s.derivative().sample(11)


@pytest.mark.parametrize("max_mode", [9, 0])
def test_spectrum_is_kept_read_only(max_mode):
    # the two-sided spectrum F_m (m = -J..J) is built once and returned
    # read-only, with the bytes of a fresh series'; the derivative's kept
    # spectrum is i m F_m; the coefficient norm and the sum of squares are
    # kept alike
    s = random_series(np.random.default_rng(73), max_mode=max_mode)
    spectrum = s._spectrum()
    assert s._spectrum() is spectrum
    assert not spectrum.flags.writeable
    with pytest.raises(ValueError):
        spectrum[0] = 1.0
    fresh = FourierSeries(b=s.b, a=s.a)
    assert spectrum.tobytes() == fresh._spectrum().tobytes()
    half = np.concatenate([[s.b[0]], 0.5 * (s.b[1:] - 1j * s.a[1:])])
    assert np.array_equal(spectrum, np.concatenate([np.conj(half[:0:-1]), half]))
    assert np.array_equal(s.derivative()._spectrum(), 1j * np.arange(-max_mode, max_mode + 1) * spectrum)
    assert s._norm() == fresh._norm() == math.hypot(*s.a, *s.b)
    assert s.sum_of_squares() == fresh.sum_of_squares()


# finite coefficients up to 1e300 in magnitude, zeros common; none below 1e-300, where halving
# rounds, so N F_j and (N/2)(b_j - i a_j) could differ in the last bit
big_coefficient = st.one_of(st.just(0.0), st.floats(-1e300, 1e300).filter(lambda x: x == 0.0 or abs(x) >= 1e-300))
big_coefficients = st.lists(big_coefficient, min_size=1, max_size=12)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(b=big_coefficients, a=big_coefficients, b_zeros=st.integers(0, 3), a_zeros=st.integers(0, 3),
       a0=big_coefficient.filter(bool), grid=st.integers(0, 10**6))
def test_kept_values_match_their_formulas(b, a, b_zeros, a_zeros, a0, grid):
    # b and a of unequal lengths, with trailing zero modes and a nonzero a_0:
    # max_mode is tight, the spectrum, norm and sum of squares built with the
    # series are their direct formulas (the sum of squares may overflow to
    # inf), sample(N) has the bytes of one inverse FFT of X_0 = N b_0,
    # X_j = (N/2)(b_j - i a_j), and construction warns of nothing but a_0
    b = np.array(b + [0.0] * b_zeros)
    a = np.array([a0] + a + [0.0] * a_zeros)
    assume(b.size != a.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = FourierSeries(b=b, a=np.concatenate([[0.0], a[1:]]))
    with pytest.warns(UserWarning, match="^sine coefficient at mode 0 is meaningless; discarding it$") as caught:
        dropped = FourierSeries(b=b, a=a)
    assert len(caught) == 1
    assert dropped.b.tobytes() == s.b.tobytes() and dropped.a.tobytes() == s.a.tobytes()

    padded = np.zeros((2, max(b.size, a.size)))
    padded[0, : b.size], padded[1, 1 : a.size] = b, a[1:]
    assert s.max_mode == max(np.flatnonzero(padded[:, 1:].any(axis=0)) + 1, default=0)
    top = s.max_mode
    cos, sin = padded[0, : top + 1].tolist(), padded[1, : top + 1].tolist()
    half = [cos[0]] + [complex(cos[j], -sin[j]) / 2 for j in range(1, top + 1)]
    assert s._spectrum().tolist() == [z.conjugate() for z in half[:0:-1]] + half
    assert s._norm() == pytest.approx(math.hypot(*cos, *sin), rel=1e-15)
    assert s.sum_of_squares() == pytest.approx(sum(x * x for x in cos[1:] + sin[1:]), rel=1e-13)

    num_points = 2 * top + 1 + grid % (2 * top + 300)
    spectrum = np.zeros(num_points // 2 + 1, dtype=complex)
    spectrum[: top + 1] = (0.5 * num_points) * (s.b - 1j * s.a)
    spectrum[0] = num_points * s.b[0]
    assert s.sample(num_points).tobytes() == np.fft.irfft(spectrum, num_points).tobytes()


def test_derivative_above_the_mode_cap():
    # special_rho(50) is cos 75 theta, above the default cap of 64, and the
    # 75-mode series has zeros and signed zeros: each derivative comes out
    # of the constructor with the bytes of b'_j = j a_j, a'_j = -j b_j
    # (a'_0 = +0.0), read-only, built once
    rng = np.random.default_rng(71)
    b, a = rng.uniform(-1.0, 1.0, (2, 76))
    b[[0, 3, 40]] = a[[0, 5, 40]] = 0.0
    for rho in (special_rho(50), FourierSeries(b=b, a=a, cap=75)):
        d = rho.derivative()
        modes = np.arange(76, dtype=float)
        want_a = -modes * rho.b
        want_a[0] = 0.0
        assert d.max_mode == 75
        assert d.b.tobytes() == (modes * rho.a).tobytes() and d.a.tobytes() == want_a.tobytes()
        assert not d.b.flags.writeable and not d.a.flags.writeable
        assert rho.derivative() is d


def test_derivative_overflow_is_refused_on_every_call():
    # a refused derivative is not kept: each call raises again
    s = FourierSeries.from_dict({"b": {"64": 1e307}})
    for _ in range(3):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^rho: mode 64 is too large"):
            s.derivative()


def test_sample_keeps_one_grid():
    # sampling many large grids keeps about one grid's array, not one per
    # grid (a constant oracle call with a large k samples on J + n + k + 1
    # points, one grid per k)
    s = FourierSeries(b=[0.5, 1.0], a=[0.0, 0.25])
    sizes = [100_000 + i for i in range(50)]
    tracemalloc.start()
    try:
        for num_points in sizes:
            s.sample(num_points)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    grid = 8 * sizes[-1]
    assert grid <= kept < 1.25 * grid


def test_evaluate_shapes_and_zero_series():
    rng = np.random.default_rng(43)
    s = random_series(rng, max_mode=9)
    scalar = s.evaluate(0.3)
    assert type(scalar) is float
    assert type(s.evaluate(np.float64(0.3))) is float
    assert type(s.evaluate(np.array(0.3))) is float
    assert s.evaluate(np.array(0.3)) == scalar
    grid = rng.uniform(0, 2 * np.pi, (4, 7))
    values = s.evaluate(grid)
    assert values.shape == (4, 7) and values.dtype == np.float64
    np.testing.assert_allclose(values, _direct_sum(s, grid).astype(float), rtol=0, atol=1e-14)
    assert s.evaluate(np.array([])).shape == (0,)
    zero = FourierSeries.zero()
    assert zero.evaluate(1.0) == 0.0
    assert np.array_equal(zero.evaluate(grid), np.zeros((4, 7)))


def test_derivative_constant_is_zero():
    assert FourierSeries(b=[4.2]).derivative().to_dict() == {"a": {}, "b": {}}


def test_derivative_single_cosine():
    d = FourierSeries.cosine(3).derivative()
    assert d.coeff(3) == pytest.approx((-3.0, 0.0))
    assert d.sum_of_squares() == pytest.approx(9.0)


def test_derivative_mixed():
    s = FourierSeries(b=[0, 0, 0, 0, 0, 4.0], a=[0, 0, 1.0])
    d = s.derivative()
    assert d.coeff(2) == pytest.approx((0.0, 2.0))
    assert d.coeff(5) == pytest.approx((-20.0, 0.0))


def test_sine_mode_zero_discarded_with_warning():
    with pytest.warns(UserWarning):
        s = FourierSeries(b=[1.0], a=[0.5])
    assert s.coeff(0) == (0.0, 1.0)


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        FourierSeries(b=[np.nan])
    with pytest.raises(ValueError):
        FourierSeries(a=[0.0, np.inf])


def test_coefficients_must_be_one_dimensional():
    with pytest.raises(ValueError, match="^b: expected a 1-d coefficient array$"):
        FourierSeries(b=[[1.0, 2.0]])


def test_coeff_refuses_a_negative_mode():
    with pytest.raises(ValueError, match="^coeff expects j >= 0, got -1$"):
        FourierSeries.cosine(2).coeff(-1)


def test_mode_cap():
    with pytest.raises(ValueError):
        FourierSeries.cosine(65)
    big = FourierSeries(b=np.zeros(81), a=None, cap=128)
    assert big.max_mode == 0


def test_from_dict_map_and_dense_forms():
    s = FourierSeries.from_dict({"a": {"2": 1.0}, "b": {"0": 0.5, "3": 500.0}})
    assert s.coeff(2) == pytest.approx((1.0, 0.0))
    assert s.coeff(0)[1] == pytest.approx(0.5)
    assert s.coeff(3)[1] == pytest.approx(500.0)
    dense = FourierSeries.from_dict({"a": [0, 1.0], "b": [0.5, 0, 0, 500.0]})
    assert dense.coeff(1)[0] == pytest.approx(1.0)
    with pytest.warns(UserWarning):
        FourierSeries.from_dict({"a": [3.0]})
    with pytest.raises(ValueError):
        FourierSeries.from_dict({"c": {}})
    with pytest.raises(ValueError):
        FourierSeries.from_dict({"a": {"-1": 2.0}})


@pytest.mark.parametrize(
    "data, want",
    [({"b": {"1000000": 1}}, "rho: mode 1000000 exceeds the cap 64"), ({"b": {"3": 1, "1000000": 0}}, None)],
    ids=["refused", "zero-at-a-huge-mode"],
)
def test_from_dict_sizes_nothing_by_a_huge_mode(data, want):
    # no array may be sized by the largest key of a sparse map: that is
    # 24 MB for mode 1,000,000, and a mode near 1e9 would ask for 24 GB
    tracemalloc.start()
    try:
        if want is None:
            got = FourierSeries.from_dict(data)
        else:
            with pytest.raises(ValueError, match=f"^{want}$"):
                FourierSeries.from_dict(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    if want is None:
        assert got.b.tolist() == [0.0, 0.0, 0.0, 1.0] and got.a.tolist() == [0.0] * 4


def test_from_dict_names_the_top_nonzero_mode_of_both_parts():
    # the message names the highest nonzero mode of a and b together, and a
    # non-finite value is reported before any mode
    for data in ({"a": {"65": 1}, "b": {"70": 1, "900": 0}}, {"a": [0.0] * 70 + [2.0], "b": {"65": 1}}):
        with pytest.raises(ValueError, match=f"^rho: mode 70 exceeds the cap {MODE_CAP}$"):
            FourierSeries.from_dict(data)
    with pytest.raises(ValueError, match=r"^rho\.b: coefficients must be finite$"):
        FourierSeries.from_dict({"b": {"1000000": math.nan}})


@pytest.mark.parametrize("text", ["[" * 100000, '{"b":' * 100000], ids=["lists", "objects"])
def test_from_json_refuses_nesting_too_deep_to_parse(text):
    # json.loads ends such text in a RecursionError, not a JSONDecodeError
    with pytest.raises(ValueError, match=r"^rho: invalid JSON \(.*recursion"):
        FourierSeries.from_json(text)


@pytest.mark.parametrize(
    "data, want",
    [
        ({"b": {"1": None}}, "rho.b.1: expected a number, got null"),
        ({"b": [1, None]}, "rho.b.1: expected a number, got null"),
        ({"b": {"1": [1]}}, "rho.b.1: expected a number, got [1]"),
        ({"a": {"2": "x"}}, 'rho.a.2: expected a number, got "x"'),
        ({"b": {"3": 10**400}}, f"rho.b.3: expected a number, got {10**400}"),
        ({"b": 3}, "rho.b: expected a map or a list"),
        ({"b": {"x": 1}}, "rho.b: bad mode index 'x'"),
    ],
    ids=["null", "null-in-a-list", "list", "string", "int-beyond-float", "scalar-part", "bad-mode-index"],
)
def test_from_dict_names_a_malformed_coefficient(data, want):
    with pytest.raises(ValueError) as info:
        FourierSeries.from_dict(data)
    assert str(info.value) == want


def test_from_dict_keeps_every_coefficient_json_reads_as_a_number():
    # numeric strings and booleans are read as float() reads them, and a
    # later key for the same mode overrides an earlier one
    got = FourierSeries.from_dict({"b": {"1": "0.5", "2": True, "3": 1, "03": 0}, "a": [0, "-2"]})
    assert got.b.tolist() == [0.0, 0.5, 1.0] and got.a.tolist() == [0.0, -2.0, 0.0]


def test_round_trip_dict():
    rng = np.random.default_rng(3)
    s = random_series(rng, max_mode=5)
    again = FourierSeries.from_dict(s.to_dict())
    assert again.to_dict() == s.to_dict()
    assert np.array_equal(again.a, s.a) and np.array_equal(again.b, s.b)


def test_to_dict_returns_new_dicts():
    s = FourierSeries(b=[0.5, 0.0, 2.0], a=[0.0, 1.0])
    want = {"a": {"1": 1.0}, "b": {"0": 0.5, "2": 2.0}}
    first = s.to_dict()
    assert first == want
    first["a"]["1"] = 9.0
    first["b"].clear()
    first["c"] = {}
    assert s.to_dict() == want


def test_parseval_against_trapezoid():
    rng = np.random.default_rng(23)
    theta = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    for _ in range(20):
        s = random_series(rng, max_mode=10)
        quad = np.sum(s.evaluate(theta) ** 2) * (2 * np.pi / 512) / np.pi
        b0 = s.coeff(0)[1]
        closed = 2 * b0 * b0 + s.sum_of_squares()
        assert quad == pytest.approx(closed, abs=1e-11)
