import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import steklov_pert
from steklov_pert import cli as cli_module
from steklov_pert import solver
from steklov_pert.cli import cli
from steklov_pert.solver import FitResult

RT = math.sqrt(math.pi)


@pytest.fixture()
def runner():
    return CliRunner()


class TestExpandCommand:
    def test_split_pair(self, runner):
        result = runner.invoke(cli, ["expand", "--rho", '{"b":{"2":1}}', "--n", "1"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["lambda1"] == pytest.approx([-1.5 * RT, 1.5 * RT])
        assert payload["lambda2"] is None

    def test_degenerate_pair(self, runner):
        result = runner.invoke(cli, ["expand", "--rho", '{"b":{"3":1}}', "--n", "2"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["lambda2"] == pytest.approx([20 * RT / 3, 20 * RT / 3])

    def test_zero_profile(self, runner):
        result = runner.invoke(cli, ["expand", "--rho", "{}", "--n", "3"])
        payload = json.loads(result.output)
        assert payload["lambda0"] == pytest.approx(3 * RT)
        assert payload["lambda1"] == [0.0, 0.0]
        assert payload["lambda2"] == [0.0, 0.0]

    def test_pair_index_is_not_an_array_size(self, runner):
        # the constant table covers max(0, n - J)..n + J, so a huge n answers
        # at once; a table over 0..n + J ended in a numpy ArrayMemoryError
        result = runner.invoke(cli, ["expand", "--rho", '{"b":{"3":1}}', "--n", "1000000000"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["lambda0"] == 1000000000 * RT
        assert sorted(payload["beta_mu"][0], key=int) == ["999999997", "1000000003"]

    def test_require_lambda2_exit_code(self, runner):
        result = runner.invoke(
            cli, ["expand", "--rho", '{"b":{"2":1}}', "--n", "1", "--require-lambda2"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("mode", ["65", "1000000"])
    def test_mode_above_the_cap(self, runner, mode):
        result = runner.invoke(cli, ["expand", "--rho", f'{{"b":{{"{mode}":1}}}}', "--n", "1"])
        assert result.exit_code == 1
        assert f"mode {mode} exceeds the cap" in result.output

    def test_malformed_coefficient_names_its_field(self, runner):
        # it used to end in a TypeError traceback
        result = runner.invoke(cli, ["expand", "--rho", '{"b":{"1":null}}', "--n", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "rho.b.1: expected a number, got null" in result.output

    def test_missing_rho(self, runner):
        result = runner.invoke(cli, ["expand", "--n", "1"])
        assert result.exit_code == 1
        assert "rho" in result.output

    def test_conflicting_rho_sources(self, runner, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text('{"b":{"2":1}}')
        result = runner.invoke(
            cli, ["expand", "--rho", "{}", "--rho-file", str(path), "--n", "1"]
        )
        assert result.exit_code == 1
        assert "rho" in result.output

    def test_rho_file(self, runner, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text('{"b":{"2":1}}')
        result = runner.invoke(cli, ["expand", "--rho-file", str(path), "--n", "1"])
        assert result.exit_code == 0

    def test_bad_json_names_field(self, runner):
        result = runner.invoke(cli, ["expand", "--rho", "{nope", "--n", "1"])
        assert result.exit_code == 1
        assert "rho" in result.output

    def test_missing_n(self, runner):
        result = runner.invoke(cli, ["expand", "--rho", "{}"])
        assert result.exit_code == 1
        assert "n" in result.output

    def test_deterministic_output(self, runner):
        args = ["expand", "--rho", '{"b":{"3":1},"a":{"2":0.5}}', "--n", "2"]
        first = runner.invoke(cli, args)
        second = runner.invoke(cli, args)
        assert first.output == second.output


class TestConstantsCommand:
    def test_csv_table(self, runner):
        result = runner.invoke(cli, ["constants", "--rho", '{"b":{"2":1}}', "--n", "1"])
        assert result.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert rows, "table must not be empty"
        by_name = {(r["name"], r["k"]): r for r in rows}
        e_row = by_name[("E", "")]
        assert float(e_row["closed_form"]) == pytest.approx(-RT)
        assert float(e_row["quadrature"]) == pytest.approx(-RT, abs=1e-10)
        assert max(float(r["abs_diff"]) for r in rows) <= 1e-10

    def test_zero_profile_all_zero(self, runner):
        result = runner.invoke(cli, ["constants", "--rho", "{}", "--n", "2", "--k", "0,1,3"])
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert all(float(r["closed_form"]) == 0.0 for r in rows)

    def test_json_format(self, runner):
        result = runner.invoke(
            cli, ["constants", "--rho", '{"b":{"2":1}}', "--n", "1", "--format", "json"]
        )
        payload = json.loads(result.output)
        assert payload["single"]["E"] == pytest.approx(-RT)
        assert payload["max_abs_diff"] <= 1e-10

    def test_json_matches_csv(self, runner):
        args = ["constants", "--rho", '{"b":{"2":1,"3":0.5},"a":{"1":0.3}}', "--n", "2"]
        table = runner.invoke(cli, args)
        report = runner.invoke(cli, args + ["--format", "json"])
        assert table.exit_code == 0 and report.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(table.output)))
        payload = json.loads(report.output)
        coupled_rows = [r for r in rows if r["k"] != ""]
        assert {r["k"] for r in coupled_rows} == set(payload["coupled"]) == set(payload["coupled_quadrature"])
        for row in coupled_rows:
            assert payload["coupled"][row["k"]][row["name"]] == float(row["closed_form"])
            assert payload["coupled_quadrature"][row["k"]][row["name"]] == float(row["quadrature"])
        assert len(coupled_rows) == sum(len(table) for table in payload["coupled"].values())
        assert payload["max_abs_diff"] == max(float(r["abs_diff"]) for r in rows)

    def test_samples_rho_once_whatever_the_number_of_k(self, runner, sample_calls):
        rho = '{"b":{"3":1,"30":0.1},"a":{"1":0.3}}'
        counts = []
        for extra in (["--k", "1"], ["--k", "0,1,4,9,20,33"], []):
            for fmt in ("csv", "json"):
                sample_calls.clear()
                args = ["constants", "--rho", rho, "--n", "2", "--format", fmt] + extra
                assert runner.invoke(cli, args).exit_code == 0
                counts.append(len(sample_calls))
        assert counts == [2] * 6

    def test_smallest_quad_points_is_exact(self, runner, sample_calls):
        # for b_2 at n = 1 the integrands reach frequency 6 (2J + 2n, and
        # J + n + k at k = 3), so the oracle samples on 7 points, where the
        # trapezoid rule is already exact
        args = ["constants", "--rho", '{"b":{"2":1}}', "--n", "1", "--format", "json"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0
        assert sample_calls == [7, 7]
        assert json.loads(result.output)["max_abs_diff"] <= 1e-10

    def test_k_equal_n_rejected(self, runner):
        # the engine's own mode checks, reported against the k option
        for k_list, reason in (("2", "k = n"), ("0,-1", ">= 0")):
            result = runner.invoke(cli, ["constants", "--rho", "{}", "--n", "2", "--k", k_list])
            assert result.exit_code == 1
            assert result.output.startswith("Error: k: ") and reason in result.output


class TestSweepCommand:
    def test_disk_spectrum_column(self, runner):
        result = runner.invoke(
            cli,
            [
                "sweep",
                "--rho",
                '{"b":{"3":1}}',
                "--eps-min",
                "-0.02",
                "--eps-max",
                "0.02",
                "--eps-count",
                "5",
                "--branches",
                "4",
            ],
        )
        assert result.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(result.output)))
        at_zero = sorted(float(r["eigenvalue"]) for r in rows if float(r["eps"]) == 0.0)
        assert at_zero == pytest.approx([RT, RT, 2 * RT, 2 * RT], abs=1e-8)

    def test_quadrature_grid_coarser_than_rho_still_solves(self, runner):
        # 72 points (the least K = 16 allows) and 88 points are fewer than
        # mode 40 needs, but rho has g = 40, so they fold onto lcm(N, 40) =
        # 360 and 440 FFT points, which resolve it; each solve agrees with the
        # default 520-point grid
        args = ["sweep", "--rho", '{"b":{"40":0.5}}', "--eps-min", "-0.01", "--eps-max", "0.01",
                "--eps-count", "5", "--basis-size", "16"]
        default = runner.invoke(cli, args)
        assert default.exit_code == 0
        want = [float(r["eigenvalue"]) for r in csv.DictReader(io.StringIO(default.output))]
        assert want
        for points in ("72", "88"):
            coarse = runner.invoke(cli, args + ["--quad-points", points])
            assert coarse.exit_code == 0
            got = [float(r["eigenvalue"]) for r in csv.DictReader(io.StringIO(coarse.output))]
            assert len(got) == len(want)
            assert max(abs(c - d) / abs(d) for c, d in zip(got, want)) <= 1e-9

    def test_empty_grid_is_config_error(self, runner):
        result = runner.invoke(
            cli,
            ["sweep", "--rho", "{}", "--eps-min", "0", "--eps-max", "0", "--eps-count", "0"],
        )
        assert result.exit_code == 1

    def test_asymmetric_grid_rejected(self, runner):
        result = runner.invoke(
            cli,
            ["sweep", "--rho", "{}", "--eps-min", "-0.01", "--eps-max", "0.03", "--eps-count", "5"],
        )
        assert result.exit_code == 1

    def test_infinite_window_rejected(self, runner):
        # linspace(-inf, inf) used to warn twice and fail on the missing 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(
                cli,
                ["sweep", "--rho", '{"b":{"3":1}}', "--eps-min", "-inf", "--eps-max", "inf", "--eps-count", "5"],
            )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "eps_grid: eps_max" in result.output

    def test_nan_eps_min_rejected(self, runner):
        result = runner.invoke(
            cli,
            ["sweep", "--rho", '{"b":{"3":1}}', "--eps-min", "nan", "--eps-max", "0.01", "--eps-count", "5"],
        )
        assert result.exit_code == 1
        assert "eps-min = -eps-max" in result.output

    def test_zero_width_window_rejected(self, runner):
        # the same eps five times is not a window; it used to fit
        # lambda1 = lambda2 = 0 and exit 0
        for command in (["sweep"], ["verify", "--n", "1"]):
            result = runner.invoke(
                cli,
                command + ["--rho", '{"b":{"2":1}}', "--eps-min", "0", "--eps-max", "0", "--eps-count", "5"],
            )
            assert result.exit_code == 1
            assert "eps_max" in result.output

    def test_fit_out_needs_five_points(self, runner, tmp_path):
        out, fit_path = tmp_path / "curves.csv", tmp_path / "fits.json"
        result = runner.invoke(
            cli,
            [
                "sweep",
                "--rho",
                '{"b":{"2":1}}',
                "--eps-min",
                "-0.02",
                "--eps-max",
                "0.02",
                "--eps-count",
                "3",
                "--out",
                str(out),
                "--fit-out",
                str(fit_path),
            ],
        )
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "eps_grid.count" in result.output
        assert not out.exists() and not fit_path.exists()

    def test_fit_summary(self, runner, tmp_path):
        fit_path = tmp_path / "fits.json"
        result = runner.invoke(
            cli,
            [
                "sweep",
                "--rho",
                '{"b":{"2":1}}',
                "--eps-min",
                "-0.02",
                "--eps-max",
                "0.02",
                "--eps-count",
                "9",
                "--branches",
                "2",
                "--fit-out",
                str(fit_path),
            ],
        )
        assert result.exit_code == 0
        fits = json.loads(fit_path.read_text())
        assert {f["branch"] for f in fits} == {0, 1}
        fitted = sorted(f["lambda1"] for f in fits)
        assert fitted == pytest.approx([-1.5 * RT, 1.5 * RT], rel=2e-3)

    def test_fit_summary_truncation_needs_seven_points(self, runner, tmp_path):
        # the degree-6 fit behind the truncation estimates needs 7 points;
        # on 5 the fields are null and the cubic fit is written as before
        for count, numeric in (("5", False), ("7", True)):
            fit_path = tmp_path / f"fits{count}.json"
            args = ["sweep", "--rho", '{"b":{"2":1}}', "--eps-min", "-0.02", "--eps-max", "0.02",
                    "--eps-count", count, "--branches", "2", "--fit-out", str(fit_path)]
            assert runner.invoke(cli, args).exit_code == 0
            for fit in json.loads(fit_path.read_text()):
                truncation = (fit["lambda1_truncation"], fit["lambda2_truncation"])
                if numeric:
                    assert all(isinstance(t, float) and t >= 0.0 for t in truncation)
                else:
                    assert truncation == (None, None)


class TestVerifyCommand:
    def test_first_order_pair(self, runner):
        result = runner.invoke(cli, ["verify", "--rho", '{"b":{"2":1}}', "--n", "1"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["passed"] is True
        assert all(r["lambda1_rel_error"] <= 1e-3 for r in payload["branches"])

    def test_second_order_pair(self, runner):
        result = runner.invoke(cli, ["verify", "--rho", '{"b":{"3":1}}', "--n", "2"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        for row in payload["branches"]:
            assert row["lambda2_predicted"] == pytest.approx(20 * RT / 3)
            assert row["lambda2_rel_error"] <= 1e-2
            assert row["lambda2_fitted"] > 0
            assert abs(row["lambda1_fitted"]) <= 1e-4 * RT

    def test_zero_profile(self, runner):
        result = runner.invoke(cli, ["verify", "--rho", "{}", "--n", "1"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        for row in payload["branches"]:
            assert row["lambda1_predicted"] == 0.0
            assert abs(row["lambda1_fitted"]) <= 1e-6

    def test_tolerance_failure_exit_code(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            cli,
            [
                "verify",
                "--rho",
                '{"b":{"3":1}}',
                "--n",
                "2",
                "--tol-lambda2",
                "1e-9",
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 3
        payload = json.loads(out.read_text())  # report still written
        assert payload["passed"] is False

    @pytest.mark.parametrize("option", ["--tol-lambda1", "--tol-lambda2"])
    @pytest.mark.parametrize("value", ["nan", "-1e-3"])
    def test_tolerance_must_be_a_nonnegative_number(self, runner, option, value):
        # every "error > nan" is False, so a NaN tolerance used to pass any fit
        args = ["verify", "--rho", '{"b":{"3":1}}', "--n", "2", "--eps-min", "-0.05", "--eps-max", "0.05"]
        result = runner.invoke(cli, args + [option, value])
        assert result.exit_code == 1
        assert f"{option[2:]}: must be >= 0" in result.output

    def test_infinite_tolerance_accepted(self, runner):
        result = runner.invoke(cli, ["verify", "--rho", '{"b":{"3":1}}', "--n", "2", "--tol-lambda2", "inf"])
        assert result.exit_code == 0
        assert json.loads(result.output)["tolerances"]["lambda2"] == math.inf

    def test_runs_past_the_old_basis_cap(self, runner, tmp_path):
        # n = 10 takes K = 54 by verify's rule; the report is written whether
        # or not the fit meets the lambda2 tolerance
        out = tmp_path / "report.json"
        rho = json.dumps(steklov_pert.special_rho(10).to_dict())
        result = runner.invoke(cli, ["verify", "--rho", rho, "--n", "10", "--out", str(out)])
        assert result.exit_code in (0, 3), result.output
        payload = json.loads(out.read_text())
        assert payload["n"] == 10
        assert all(r["lambda1_rel_error"] <= 1e-3 for r in payload["branches"])
        assert all(r["lambda2_fitted"] > 0 for r in payload["branches"])

    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_lambda2_truncation_estimates_the_cubic_error(self, runner, tmp_path, n):
        # verify's cubic lambda2 misses the closed form of special_rho(n) by
        # 9.3e-4, 1.5e-2 and 5.9e-2 relative, mostly the fit's truncation:
        # |cubic - degree-6| on the same 9 points gives each to within 10%
        out = tmp_path / "report.json"
        rho = json.dumps(steklov_pert.special_rho(n).to_dict())
        result = runner.invoke(cli, ["verify", "--rho", rho, "--n", str(n), "--out", str(out)])
        assert result.exit_code in (0, 3), result.output
        for row in json.loads(out.read_text())["branches"]:
            scale = max(abs(row["lambda2_predicted"]), n * RT)
            assert row["lambda2_truncation"] / scale == pytest.approx(row["lambda2_rel_error"], rel=0.1)
            assert row["lambda1_truncation"] <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_profile_without_reflection_symmetry(self, runner, n):
        # sine and cosine modes together make F, G, H, I, J, O and P nonzero
        # and M2 non-diagonal, so every term of the second-order matrix is
        # compared with the solver; default window and K rule
        rho_dict = {"b": {"1": 0.4, "3": 0.5}, "a": {"3": 0.7, "5": 0.2}}
        m2 = steklov_pert.expand(steklov_pert.FourierSeries.from_dict(rho_dict), n).m2
        assert abs(m2.m12) > 1.0
        result = runner.invoke(cli, ["verify", "--rho", json.dumps(rho_dict), "--n", str(n)])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["passed"] is True
        assert all(r["lambda2_predicted"] is not None for r in payload["branches"])

    def test_too_few_points(self, runner):
        result = runner.invoke(
            cli, ["verify", "--rho", "{}", "--n", "1", "--eps-count", "3"]
        )
        assert result.exit_code == 1

    def test_each_row_carries_one_fit(self, runner):
        # pair 1 splits; its two fits differ in lambda1 (-+2.66), lambda2
        # (-5.7015, -5.7025) and residual (1.8e-8, 1.1e-8), so a row that
        # mixed two fits would show
        rho_text = '{"b":{"2":1,"3":0.7}}'
        result = runner.invoke(cli, ["verify", "--rho", rho_text, "--n", "1"])
        assert result.exit_code == 0, result.output
        rows = [
            (r["lambda1_fitted"], r["lambda2_fitted"], r["fit_residual"])
            for r in json.loads(result.output)["branches"]
        ]
        rho = steklov_pert.FourierSeries.from_json(rho_text)
        cfg = cli_module._solver_config(None, None, max(2, 1 + rho.max_mode))
        curves = solver.sweep(rho, cli_module._parse_grid(-0.008, 0.008, 9), cfg, n_branches=2)
        fits = solver.fit_derivatives(curves)
        assert sorted(rows) == sorted((f.lambda1, f.lambda2, f.residual) for f in fits)
        assert rows[0][0] < 0.0 < rows[1][0]


@pytest.mark.parametrize("split", [True, False])
def test_pair_rows_sort_the_fits_once(split):
    # hand-made fits, given in the reverse of the order they must come out
    # in: ascending lambda1 on a split pair, ascending lambda2 otherwise.
    # The two orders differ, so each row must take all three values from
    # one fit
    a = FitResult(branch=0, lambda0=RT, lambda1=-2.0, lambda2=5.0, residual=1e-9)
    b = FitResult(branch=1, lambda0=RT, lambda1=2.0, lambda2=-1.0, residual=3e-9)
    if split:
        predicted1, predicted2, expected = (-2.0, 2.0), None, [a, b]
    else:
        predicted1, predicted2, expected = (0.0, 0.0), (-1.0, 5.0), [b, a]
    rows = cli_module._pair_rows(1, predicted1, predicted2, expected[::-1])
    assert [(r["lambda1_fitted"], r["lambda2_fitted"], r["fit_residual"]) for r in rows] == [
        (f.lambda1, f.lambda2, f.residual) for f in expected
    ]
    assert [r["lambda1_predicted"] for r in rows] == list(predicted1)
    paired_by = "lambda1_rel_error" if split else "lambda2_rel_error"
    assert [r[paired_by] for r in rows] == [0.0, 0.0]


@pytest.mark.parametrize(
    "args, reason",
    [
        (["expand", "--rho", '{"b":{"2":1e200}}', "--n", "1"], "overflow float64"),
        (["expand", "--rho", '{"b":{"64":1e307}}', "--n", "1"], "overflow float64"),
        (["constants", "--rho", '{"b":{"2":1e200}}', "--n", "1"], "overflow float64"),
        (["constants", "--rho", '{"b":{"2":1e200}}', "--n", "1", "--format", "json"], "overflow float64"),
        (["constants", "--rho", '{"b":{"64":1e307}}', "--n", "1"], "mode 64 is too large"),
        (
            ["sweep", "--rho", '{"b":{"64":1e307}}', "--eps-min", "-0.01", "--eps-max", "0.01",
             "--eps-count", "3"],
            "mode 64 is too large",
        ),
    ],
)
def test_rho_too_large_for_float64_is_refused(runner, tmp_path, args, reason):
    # these used to write -Infinity, NaN or inf with exit 0, or end in a
    # traceback naming the derivative's sine part "a"
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(cli, [*args, "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: rho: ") and reason in result.output
    assert not out.exists()


BIG = "99999999999999999999"  # past int64
SWEEP_5 = ["sweep", "--rho", '{"b":{"3":1}}', "--eps-min", "-0.01", "--eps-max", "0.01", "--eps-count", "5"]


@pytest.mark.parametrize(
    "args, prefix",
    [
        (["expand", "--rho-file", "{missing}", "--n", "1"], "rho-file: [Errno 2] "),
        (["expand", "--rho", "{}", "--n", "0"], "n: must be >= 1, got 0"),
        (["constants", "--rho", "{}", "--n", "1", "--k", "1,x"], "k: expected comma-separated integers"),
        (
            ["sweep", "--rho", '{"b":{"3":1}}', "--eps-min", "-0.01", "--eps-max", "0.01",
             "--eps-count", "3", "--quad-points", "8"],
            "solver: quad_points must be >= 4*basis_size + 8",
        ),
        # not star-shaped at eps = -2: verify's sweep fails
        (["verify", "--rho", '{"b":{"3":1}}', "--n", "2", "--eps-min", "-2", "--eps-max", "2"],
         "eps_grid: 1 + eps*rho reaches -1 <= 0 at eps=-2"),
        # 80 points fold onto lcm(80, 40) = 80, which aliases mode 40
        (["sweep", "--rho", '{"b":{"40":0.5}}', "--eps-min", "-0.01", "--eps-max", "0.01",
          "--eps-count", "5", "--basis-size", "16", "--quad-points", "80"],
         "quad_points: 80 points fold onto lcm(N, g) = 80, too few to resolve rho's mode 40"),
        (["sweep", "--rho", '{"b":{"3":1}}', "--eps-min", "-0.01", "--eps-max", "0.01",
          "--eps-count", "5", "--branches", "0"],
         "branches: must be >= 1, got 0\n"),
        (["sweep", "--rho", '{"b":{"3":1}}', "--eps-min", "-0.01", "--eps-max", "0.01",
          "--eps-count", "5", "--basis-size", "5", "--branches", "4"],
         "solver: basis_size 5 too small for 4 branches (needs >= 12)\n"),
        # verify tracks the 2n = 4 branches of pairs 1 and 2
        (["verify", "--rho", '{"b":{"3":1}}', "--n", "2", "--basis-size", "5"],
         "solver: basis_size 5 too small for 4 branches (needs >= 12)\n"),
        (["expand", "--rho", "[1]", "--n", "1"], "rho: expected a JSON object with 'a'/'b' entries\n"),
        (["sweep", "--rho", '{"b":{"3":1}}'], "eps_grid: --eps-min, --eps-max and --eps-count are all required\n"),
        # integer options past int64 are refused where they are parsed, not by numpy
        *[(args, f"{field} must be at most 2**53 in magnitude, got 99999999999999999999\n") for args, field in [
            (["constants", "--rho", '{"b":{"3":1}}', "--n", "2", "--k", f"0,{BIG}"], "k:"),
            (["expand", "--rho", '{"b":{"3":1}}', "--n", BIG], "n:"),
            (["verify", "--rho", '{"b":{"3":1}}', "--n", BIG], "n:"),
            ([*SWEEP_5, "--basis-size", BIG], "solver: basis_size"),
            ([*SWEEP_5, "--branches", BIG], "branches:"),
            ([*SWEEP_5, "--quad-points", BIG], "solver: quad_points"),
            ([*SWEEP_5[:-1], BIG], "eps_grid.count:"),
        ]],
        # the window 2 eps_max overflows float64: linspace built [nan, inf, inf, inf, 1e308]
        (["sweep", "--rho", '{"b":{"3":1}}', "--eps-min", "-1e308", "--eps-max", "1e308", "--eps-count", "5"],
         "eps_grid: eps_max must be > 0 and 2*eps_max finite for 5 distinct points, got 1e+308\n"),
    ],
)
def test_configuration_errors_exit_1(runner, tmp_path, args, prefix):
    args = [arg.replace("{missing}", str(tmp_path / "missing.json")) for arg in args]
    out = tmp_path / "out"
    result = runner.invoke(cli, [*args, "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a ConfigError, not an exception click did not handle
    assert result.output.startswith(f"Error: {prefix}")
    assert result.output.count("Error: ") == 1 and "Traceback" not in result.output
    assert not out.exists()


# the property test below draws each command's options from their valid
# values (None leaves one out) and at most two of them, rho included, from
# the edge values; every size is at most 64 or at least 2**62, so no draw
# allocates, and no rho holds a JSON boolean
EDGES = ["0", "1", "-1", str(2**62), str(10**20), "1e308", "-1e308", "inf", "nan", ""]
MALFORMED_RHOS = ['{"b":{"3":1', "[1]", "[" * 100000, '{"b":{"3":1e999}}', '{"b":{"65":1}}', f'{{"b":{{"{10**20}":1}}}}']
COMMANDS = {  # options and their valid values, then the flag sets
    "expand": ({"--n": ["1", "2"]}, [[], ["--require-lambda2"]]),
    "constants": ({"--n": ["1", "2"], "--k": [None, "0,1", "64", "-3", "1,x", f"0,{2**62}"]}, [[], ["--format", "json"]]),
    "sweep": (
        {"--eps-min": ["-0.01"], "--eps-max": ["0.01"], "--eps-count": ["1", "3", "5"], "--branches": [None, "1", "4"],
         "--basis-size": [None, "5", "14"], "--quad-points": [None, "40", "64"]},
        [[], ["--fit-out", os.devnull]],
    ),
    "verify": (
        {"--n": ["1", "2"], "--eps-min": [None], "--eps-max": [None], "--eps-count": [None, "5"],
         "--basis-size": [None, "5", "16"], "--quad-points": [None, "64"], "--tol-lambda1": [None, "1e-3"],
         "--tol-lambda2": [None, "2e-2"]},
        [[]],
    ),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options, flag_sets = COMMANDS[command]
    edges = draw(st.lists(st.sampled_from(["--rho", *options]), max_size=2, unique=True))
    values = {name: draw(st.sampled_from(EDGES if name in edges else valid)) for name, valid in options.items()}
    if "--eps-max" in edges and draw(st.booleans()):  # eps-min = -eps-max, so the window reaches symmetric_grid
        eps_max = values["--eps-max"]
        values["--eps-min"] = eps_max[1:] if eps_max.startswith("-") else f"-{eps_max}"
    rho = draw(st.sampled_from(MALFORMED_RHOS if "--rho" in edges else ['{"b":{"3":1}}', '{"b":{"2":1,"6":0.3}}']))
    flags = draw(st.sampled_from(flag_sets))
    return [command, "--rho", rho, *flags, *(arg for name, value in values.items() if value is not None
                                            for arg in (name, value))]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(args=command_lines())
@example(args=["sweep", "--rho", '{"b":{"3":1}}', "--eps-min", "-1e308", "--eps-max", "1e308", "--eps-count", "5"])
@example(args=["verify", "--rho", '{"b":{"3":1}}', "--n", "2", "--eps-min", "-1e308", "--eps-max", "1e308"])
@example(args=["expand", "--rho", "[" * 100000, "--n", "1"])
@example(args=["expand", "--rho", '{"b":{"65":1}}', "--n", "1"])
def test_no_option_value_reaches_a_traceback(args):
    result = CliRunner().invoke(cli, args)
    assert result.exit_code in (0, 1, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in result.output
    if result.exit_code == 1:
        assert result.output.count("\n") == 1 and re.match(r"Error: [a-z][\w.-]*: ", result.output), result.output


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds allocations on Linux")
@pytest.mark.parametrize(
    "args, prefix",
    [
        (["constants", "--rho", '{"b":{"3":1}}', "--n", "300000000"], "n: "),
        (["constants", "--rho", '{"b":{"3":1}}', "--n", "2", "--k", "0,1,2000000000"], "k: "),
        (["sweep", "--rho", '{"b":{"3":1}}', "--eps-min", "-0.01", "--eps-max", "0.01", "--eps-count", "5",
          "--branches", "100000000"], "solver: basis_size 200000004 "),
        (["sweep", "--rho", '{"b":{"3":1}}', "--eps-min", "-0.01", "--eps-max", "0.01", "--eps-count", "5",
          "--basis-size", "100000000"], "solver: basis_size 100000000 "),
        (["verify", "--rho", '{"b":{"3":1}}', "--n", "100000000"], "solver: basis_size 400000004 "),
        (["sweep", "--rho", '{"b":{"3":1}}', "--eps-min", "-0.01", "--eps-max", "0.01", "--eps-count", "1000000001"],
         "eps_grid.count: a grid of 1000000001 points "),
        # its 7.3 TiB boundary grid fails inside the sweep, so the message names every size
        (["sweep", "--rho", '{"b":{"3":1}}', "--eps-min", "-0.01", "--eps-max", "0.01", "--eps-count", "5",
          "--quad-points", "1000000000000"], "solver: basis_size 16 with 4 branches, quad_points 1000000000000 "),
    ],
)
def test_request_too_large_for_memory_is_refused(args, prefix):
    # each asks numpy for 2 to 15 GiB; a fresh interpreter whose address
    # space alone is capped at 3 GB, so the allocation fails at once
    import resource

    def cap_address_space():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        limit = 3_000_000_000 if hard == resource.RLIM_INFINITY else min(hard, 3_000_000_000)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    src = os.path.dirname(os.path.dirname(steklov_pert.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")  # each BLAS thread reserves address space
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "steklov_pert.cli", *args],
        env=env, capture_output=True, text=True, preexec_fn=cap_address_space, timeout=120,
    )
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith(f"Error: {prefix}") and "does not fit in memory" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1


def test_cli_import_pulls_in_no_scipy_or_numba():
    # a fresh interpreter, so modules loaded by other tests do not count
    src = os.path.dirname(os.path.dirname(steklov_pert.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, steklov_pert.cli; print(sorted({'scipy', 'numba'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


COLD_PATH_PROBE = """
import os, sys
import steklov_pert.cli
before = set(sys.modules)
tmp, rho = sys.argv[1], '{"b":{"3":1}}'
for name, args in [
    ("verify", ["--rho", rho, "--n", "2"]),
    ("sweep", ["--rho", rho, "--eps-min", "-0.01", "--eps-max", "0.01", "--eps-count", "5",
               "--fit-out", os.path.join(tmp, "fit.json")]),
    ("expand", ["--rho", rho, "--n", "2"]),
    ("constants", ["--rho", rho, "--n", "2"]),
]:
    args += ["--out", os.path.join(tmp, name + ".out")]
    steklov_pert.cli.cli([name, *args], standalone_mode=False)
print(sorted(set(sys.modules) - before))
"""


def test_commands_import_nothing_after_the_cli(tmp_path):
    # a module a command pulls in lazily (numpy.ma behind np.unique, say)
    # costs every cold CLI run its import time; a fresh interpreter, so
    # modules loaded by other tests do not count
    src = os.path.dirname(os.path.dirname(steklov_pert.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", COLD_PATH_PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"
    assert json.loads((tmp_path / "fit.json").read_text())  # every command ran
    assert json.loads((tmp_path / "verify.out").read_text())["passed"] is True


def test_json_outputs_write_no_negative_zero(runner, tmp_path, monkeypatch):
    # every JSON output writes its floats as the CSV does (x + 0.0), so an exact zero of
    # the engine never prints as -0.0, and the values read back are the same numbers
    rho = '{"b":{"3":1}}'
    fits = tmp_path / "fits.json"
    commands = [
        (["expand", "--rho", rho, "--n", "2"], None),
        (["constants", "--rho", rho, "--n", "2", "--format", "json"], None),
        (["verify", "--rho", rho, "--n", "2"], None),
        (["sweep", "--rho", rho, "--eps-min", "-0.02", "--eps-max", "0.02", "--eps-count", "5",
          "--out", str(tmp_path / "curves.csv"), "--fit-out", str(fits)], fits),
    ]

    def outputs():
        texts = []
        for args, path in commands:
            result = runner.invoke(cli, args)
            assert result.exit_code == 0, result.output
            texts.append(path.read_text() if path else result.output)
        return texts

    written = outputs()
    # the same payloads through plain json.dumps, which keeps the sign of a zero
    monkeypatch.setattr(cli_module, "_json_text", lambda payload: json.dumps(payload, indent=2) + "\n")
    for text, plain in zip(written, outputs()):
        assert not re.search(r"-0\.0(?![0-9eE])", text)
        assert json.loads(text) == json.loads(plain)


def test_output_file_matches_stdout(runner_factory=CliRunner):
    runner = runner_factory()
    with runner.isolated_filesystem():
        args = ["expand", "--rho", '{"b":{"3":1}}', "--n", "2"]
        direct = runner.invoke(cli, args)
        to_file = runner.invoke(cli, args + ["--out", "report.json"])
        assert to_file.exit_code == 0
        with open("report.json") as handle:
            assert handle.read() == direct.output


@pytest.mark.parametrize(
    "args, code, err",
    [
        (["expand", "--rho", '{"b":{"3":1}}', "--n", "2"], 0, ""),
        (["expand", "--rho", "{}"], 1, "n: missing"),
        (["expand", "--rho", '{"b":{"2":1}}', "--n", "1", "--require-lambda2"], 2, "splits"),
        (["verify", "--rho", '{"b":{"3":1}}', "--n", "2", "--tol-lambda2", "1e-9"], 3, "tolerance"),
    ],
)
def test_module_entry_point_exit_codes(args, code, err):
    # the console script and python -m run cli() itself, which CliRunner
    # bypasses; a fresh interpreter each
    src = os.path.dirname(os.path.dirname(steklov_pert.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "steklov_pert.cli", *args], env=env, capture_output=True, text=True
    )
    assert result.returncode == code, result.stderr
    assert err in result.stderr
    if code == 0:
        assert json.loads(result.stdout)["n"] == 2
