import math
import operator

import numpy as np
import pytest

from steklov_pert import integrals
from steklov_pert.errors import InvalidMode
from steklov_pert.series import FourierSeries

from conftest import random_series

RT = math.sqrt(math.pi)


def by_k(table):
    """{k: {kind: value}} of a ConstantTable's coupled[kind] arrays over ks, the way `steklov constants` lists them."""
    return {k: {kind: column[i] for kind, column in table.coupled.items()} for i, k in enumerate(table.ks.tolist())}


class TestSingleClosedForms:
    def test_e_from_cosine(self):
        table = integrals.single_constants(FourierSeries.cosine(2), 1)
        assert table["E"] == pytest.approx(-RT)

    def test_a_from_first_cosine(self):
        # (1/sqrt(pi)) int cos^2 cos^2 = (3/4) sqrt(pi)
        table = integrals.single_constants(FourierSeries.cosine(1), 1)
        assert table["A"] == pytest.approx(0.75 * RT)
        quad = integrals.quadrature_single_table(FourierSeries.cosine(1), 1)["A"]
        assert quad == pytest.approx(0.75 * RT, abs=1e-12)

    def test_zero_profile(self):
        table = integrals.single_constants(FourierSeries.zero(), 3)
        assert all(v == 0.0 for v in table.values())

    def test_invalid_mode(self):
        with pytest.raises(InvalidMode):
            integrals.single_constants(FourierSeries.zero(), 0)


class TestCoupledClosedForms:
    def test_l_and_v(self):
        rho = FourierSeries.cosine(2)
        table = integrals.coupled_constants(rho, 1, 3)
        assert table["L"] == pytest.approx(0.5 * RT)
        assert table["V"] == pytest.approx(RT)

    def test_signed_convention(self):
        rho = FourierSeries(a=[0, 0, 0, 1.0])
        table = integrals.coupled_constants(rho, 5, 2)
        assert table["N"] == pytest.approx(-0.5 * RT)

    def test_k_equal_n_refused(self):
        with pytest.raises(InvalidMode):
            integrals.coupled_constants(FourierSeries.zero(), 2, 2)
        with pytest.raises(InvalidMode):
            integrals.quadrature_coupled_table(FourierSeries.zero(), 2, 2)
        with pytest.raises(InvalidMode):
            integrals.quadrature_constant_table(FourierSeries.zero(), 2, [1, 2])

    def test_negative_k_refused(self):
        with pytest.raises(InvalidMode):
            integrals.coupled_constants(FourierSeries.zero(), 2, -1)
        with pytest.raises(InvalidMode):
            integrals.quadrature_coupled_table(FourierSeries.zero(), 2, -1)


class TestQuadratureOracle:
    def test_b_constant_profile(self):
        got = integrals.quadrature_single_table(FourierSeries.constant(1.0), 3)["B"]
        assert got == pytest.approx(RT, abs=1e-12)

    def test_c_first_cosine(self):
        got = integrals.quadrature_single_table(FourierSeries.cosine(1), 2)["C"]
        assert got == pytest.approx(0.5 * RT, abs=1e-12)

    def test_w_zero_profile(self):
        assert integrals.quadrature_coupled_table(FourierSeries.zero(), 1, 4)["W"] == 0.0

    def test_table_on_one_grid_matches_per_k_grids(self):
        # the table samples rho once, on the grid of its largest k; the
        # per-k tables each use their own default grid
        rng = np.random.default_rng(47)
        for n in (1, 3, 8):
            rho = random_series(rng, max_mode=12)
            table = integrals.quadrature_constant_table(rho, n)
            assert table.ks.tolist() == [k for k in range(n + 13) if k != n]
            single = integrals.quadrature_single_table(rho, n)
            assert max(abs(table.single[kind] - single[kind]) for kind in single) <= 1e-13
            for k, values in by_k(table).items():
                alone = integrals.quadrature_coupled_table(rho, n, k)
                assert max(abs(values[kind] - alone[kind]) for kind in alone) <= 1e-13
            # k = n + 1 sets no grid finer than the single-index kinds' 2J + 2n + 1
            # points, so there the routes are the same arithmetic
            fixed = integrals.quadrature_constant_table(rho, n, [0, n + 1])
            assert fixed.single == integrals.quadrature_single_table(rho, n)
            assert by_k(fixed)[n + 1] == integrals.quadrature_coupled_table(rho, n, n + 1)


def test_quadrature_grid_must_exceed_highest_frequency(sample_calls):
    # the table samples rho and rho' on max(2J + 2n, J + n + max k) + 1
    # points, the fewest above the highest integrand frequency, where the
    # trapezoid rule is exact
    rng = np.random.default_rng(53)
    for n, ks, max_k in ((1, None, 6), (3, [0, 1, 9], 9), (2, [], 0)):
        rho = random_series(rng, max_mode=5)
        sample_calls.clear()
        quad = integrals.quadrature_constant_table(rho, n, ks)
        assert sample_calls == [max(2 * 5 + 2 * n, 5 + n + max_k) + 1] * 2
        closed = integrals.constant_table(rho, n, ks)
        assert max(abs(closed.single[kind] - quad.single[kind]) for kind in closed.single) <= 1e-12
        assert closed.ks.tolist() == quad.ks.tolist()
        for kind, values in closed.coupled.items():
            assert np.max(np.abs(values - quad.coupled[kind]), initial=0.0) <= 1e-12


@pytest.mark.parametrize("max_mode, n", [(5, 1), (12, 3), (40, 8)])
def test_default_grid_is_the_fewest_exact_points(max_mode, n, sample_calls):
    # each route samples rho and rho' once each, on highest + 1 points, the
    # fewest on which the trapezoid rule is exact; at k = n + J the coupled
    # integrands reach the single-index bound 2J + 2n, and a larger k sets
    # the grid alone
    rng = np.random.default_rng(59 + n)
    rho = random_series(rng, max_mode=max_mode)
    j = max_mode
    ks = [k for k in range(n + j + 1) if k != n]
    routes = [
        (lambda: integrals.quadrature_single_table(rho, n), 2 * j + 2 * n),
        (lambda: integrals.quadrature_constant_table(rho, n), 2 * j + 2 * n),
        (lambda: integrals.quadrature_constant_table(rho, n, ks[:2]), 2 * j + 2 * n),
    ]
    for k in (0, n + j, 2 * n + 2 * j + 3):
        routes.append(
            (lambda k=k: integrals.quadrature_coupled_table(rho, n, k), max(2 * j + 2 * n, j + n + k))
        )
    for route, highest in routes:
        sample_calls.clear()
        route()
        assert sample_calls == [highest + 1] * 2


def test_oracle_transforms_each_profile_once_per_grid(monkeypatch):
    # the constant oracle's check at n = 8 on a 40-mode profile: the single
    # table and the coupled table of every k all sum on the same 97 points,
    # so rho and rho' are transformed once each for all 49 calls, not twice
    # per call (98)
    transforms = []
    irfft = np.fft.irfft

    def counting(spectrum, num_points):
        transforms.append(num_points)
        return irfft(spectrum, num_points)

    monkeypatch.setattr(np.fft, "irfft", counting)
    rho = random_series(np.random.default_rng(61), max_mode=40)
    n = 8
    integrals.quadrature_single_table(rho, n)
    ks = integrals.constant_table(rho, n).ks.tolist()
    for k in ks:
        integrals.quadrature_coupled_table(rho, n, k)
    assert len(ks) == 48
    assert transforms == [97, 97]


def test_closed_forms_match_quadrature():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(30):
        rho = random_series(rng, max_mode=8)
        for n in range(1, 6):
            single = integrals.single_constants(rho, n)
            quad = integrals.quadrature_single_table(rho, n)
            worst = max(worst, max(abs(single[k] - quad[k]) for k in integrals.SINGLE_KINDS))
            for k in (0, 1, 4, 9, 12):
                if k == n:
                    continue
                coupled = integrals.coupled_constants(rho, n, k)
                cquad = integrals.quadrature_coupled_table(rho, n, k)
                worst = max(
                    worst, max(abs(coupled[j] - cquad[j]) for j in integrals.COUPLED_KINDS)
                )
    assert worst <= 1e-10

    # engine scale: 40-mode profiles with 1/(1+j) decay, every pair up to n = 16
    worst = 0.0
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        decay = 1.0 / (1.0 + np.arange(41))
        b, a = rng.uniform(-1.0, 1.0, (2, 41)) * decay
        a[0] = 0.0
        rho = FourierSeries(b=b, a=a)
        for n in range(1, 17):
            closed = integrals.constant_table(rho, n)
            quad = integrals.quadrature_constant_table(rho, n)
            assert closed.ks.tolist() == quad.ks.tolist()
            worst = max(worst, max(abs(closed.single[j] - quad.single[j]) for j in integrals.SINGLE_KINDS))
            for j in integrals.COUPLED_KINDS:
                worst = max(worst, np.max(np.abs(closed.coupled[j] - quad.coupled[j])))
    assert worst <= 1e-12


def test_antisymmetric_pairs_exact():
    rng = np.random.default_rng(37)
    for _ in range(10):
        rho = random_series(rng, max_mode=6)
        for n in (1, 2, 3):
            table = integrals.single_constants(rho, n)
            assert table["I"] == -table["O"]
            assert table["J"] == -table["P"]


def test_degenerate_profile_values():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3):
        rho = random_series(rng, max_mode=8, zero_modes=(2 * n,))
        table = integrals.single_constants(rho, n)
        b0 = rho.coeff(0)[1]
        for kind in ("E", "G", "J", "P"):
            assert table[kind] == 0.0
        assert table["B"] == pytest.approx(RT * b0)
        assert table["R"] == pytest.approx(RT * b0)


def test_table_is_the_closed_forms_of_each_k():
    # constant_table and coupled_constants run the same closed forms, on an
    # array of k and on one k: the values agree exactly, zeros past n + J too
    rng = np.random.default_rng(61)
    for max_mode, n in ((6, 1), (9, 3), (4, 7)):
        rho = random_series(rng, max_mode=max_mode)
        beyond = [n + max_mode + 1, n + max_mode + 5, 3 * (n + max_mode)]
        for ks in (None, sorted({0, n - 1, n + 1, *beyond})):
            table = integrals.constant_table(rho, n, ks)
            assert tuple(table.coupled) == integrals.COUPLED_KINDS
            assert all(column.shape == table.ks.shape for column in table.coupled.values())
            for k, values in by_k(table).items():
                assert values == integrals.coupled_constants(rho, n, k)
        for k in beyond:
            assert set(by_k(table)[k].values()) == {0.0}


def paper_coupled_forms(rho, n, k):
    """The paper's hand-expanded coupled forms at (n, k), k != n, with a_{-j} = -a_j and b_{-j} = b_j."""

    def signed(j):
        a, b = rho.coeff(abs(j))
        return (-a if j < 0 else a), b

    (am, bm), (ap, bp) = signed(k - n), signed(k + n)
    km, kp, half = k - n, k + n, 0.5 * RT
    return {
        "K": half * (-km * bm - kp * bp),
        "L": half * (bm + bp),
        "M": half * (km * am + kp * ap),
        "N": half * (am + ap),
        "T": half * (km * am - kp * ap),
        "U": half * (-am + ap),
        "V": half * (km * bm - kp * bp),
        "W": half * (bm - bp),
    }


@pytest.mark.parametrize("max_mode", [1, 7, 23, 40])
def test_rule_matches_the_papers_coupled_forms(max_mode):
    # the product-to-sum rule on rho's spectrum, as a table and per k, against
    # the hand-expanded forms on profiles with sine and cosine modes, at
    # every k up to n + J + 3 but n (the last three are zero)
    rho = random_series(np.random.default_rng(71 + max_mode), max_mode=max_mode)
    for n in range(1, 17):
        ks = [k for k in range(n + max_mode + 4) if k != n]
        table = integrals.constant_table(rho, n, ks)
        for k, row in zip(ks, np.transpose([table.coupled[kind] for kind in integrals.COUPLED_KINDS])):
            forms = paper_coupled_forms(rho, n, k)
            expected = np.array([forms[kind] for kind in integrals.COUPLED_KINDS])
            bound = 1e-15 * np.max(np.abs(expected))
            assert np.max(np.abs(row - expected)) <= bound, (n, k)
            alone = integrals.coupled_constants(rho, n, k)
            assert max(abs(alone[kind] - forms[kind]) for kind in forms) <= bound, (n, k)


@pytest.mark.parametrize("definitions, signs, bases", [
    (integrals._SINGLE_DEF, integrals._SINGLE_SIGNS, integrals._BASES),
    (integrals._COUPLED_DEF, integrals._COUPLED_SIGNS, integrals._BASES[:2]),
])
def test_sign_matrices_give_the_written_out_rule(definitions, signs, bases):
    # sqrt(pi) lo (P(F_{k-n}) +- P(F_{k+n})), kind by kind as the module docstring writes the
    # rule, on complex F of many magnitudes: the sign matrix gives the same floats, bit for bit
    # up to the sign of a zero, on an array over k and on one k at a time
    rule = {
        ("cos", "cos"): ("real", 1.0, operator.add),
        ("sin", "sin"): ("real", 1.0, operator.sub),
        ("sin", "cos"): ("imag", -1.0, operator.add),
        ("cos", "sin"): ("imag", 1.0, operator.sub),
    }
    rng = np.random.default_rng(17)
    lower, upper = (
        (rng.standard_normal((len(bases), 60)) + 1j * rng.standard_normal((len(bases), 60)))
        * 10.0 ** rng.integers(-12, 12, (len(bases), 60))
        for _ in range(2)
    )
    expected = []
    for base, trig_k, trig_n in definitions.values():
        part, lo, combine = rule[trig_k, trig_n]
        row = bases.index(base)
        expected.append([RT * lo * combine(getattr(complex(x), part), getattr(complex(y), part))
                         for x, y in zip(lower[row], upper[row])])
    assert integrals._by_signs(signs, [*lower, *upper]).tolist() == expected
    for k in range(60):
        at_k = integrals._by_signs(signs, [complex(f[k]) for f in (*lower, *upper)])
        assert at_k.tolist() == [row[k] for row in expected]
    assert integrals._by_signs(signs, [f[:0] for f in (*lower, *upper)]).shape == (len(definitions), 0)


def test_constant_table_builder():
    rho = FourierSeries.cosine(3)
    table = integrals.constant_table(rho, 2)
    assert set(table.single) == set(integrals.SINGLE_KINDS)
    assert table.ks.tolist() == [0, 1, 3, 4, 5]
    assert tuple(table.coupled) == integrals.COUPLED_KINDS
    assert all(column.shape == (5,) for column in table.coupled.values())


def test_b_plus_r_identity():
    rng = np.random.default_rng(43)
    for _ in range(10):
        rho = random_series(rng, max_mode=7)
        b0 = rho.coeff(0)[1]
        for n in (1, 2, 4):
            table = integrals.single_constants(rho, n)
            assert table["B"] + table["R"] == pytest.approx(2 * RT * b0, abs=1e-14)
