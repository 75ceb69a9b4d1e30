"""The benchmark's three workloads: seeded inputs, one library job, its check.

Each workload builds its inputs from a seed, runs one job through the public
library API (`run`), checks the job's output (`check`, which returns a list
of problems, empty when the output is correct) and knows the CLI commands
that redo a representative part of the job from a cold process
(`cli_commands`).  The accuracy metrics (`rel_errors`) are computed from
the output of one job per distinct input (`DISTINCT_JOBS`); they are
deterministic for a given seed.  Corrections are paired with their
predictions by `steklov verify`'s own `_pair_rows`, and verify-ladder takes
its window, K rule and tolerances from the `verify` command itself.

The solver workloads take their profiles from the seed by rotation,
rho(theta - phi): a rotated domain has the same spectrum, so the work and
the accuracy figures do not depend on the seed, while the Fourier
coefficients the program sees do.  The engine workload draws random
profiles of a fixed size and shape.
"""

import csv
import itertools
import json
import math
import statistics

import numpy as np

from steklov_pert import cli, expansion, integrals, solver
from steklov_pert.series import FourierSeries

SQRT_PI = math.sqrt(math.pi)

# Relative errors below this read as this value.  At that level they are the
# rounding of the eigensolve or of the quadrature, which wanders with the
# seed and says nothing about accuracy; every tolerance of the program is
# at least 1e-3 (verify) or 1e-10 (the constant oracle, an absolute gap).
REL_ERR_FLOOR = 1e-9

# `steklov verify`'s option defaults: fit window, grid size and tolerances.
VERIFY_DEFAULTS = {param.name: param.default for param in cli.verify.params}

# Acceptance criterion 7 slack on |eps|-monotonicity of a pair.
MONOTONE_SLACK = 1e-7
# The constant oracle's acceptance bound on |closed form - quadrature|.
ORACLE_GAP = 1e-10


def rotated_cosine(mode, phi):
    """cos(mode * (theta - phi)) as a Fourier series."""
    b = np.zeros(mode + 1)
    a = np.zeros(mode + 1)
    b[mode] = math.cos(mode * phi)
    a[mode] = math.sin(mode * phi)
    return FourierSeries(b=b, a=a, cap=max(64, mode))


def rho_json(rho):
    return json.dumps(rho.to_dict())


def pair_rel_errors(n, predicted1, predicted2, fits):
    """Worst lambda1 and lambda2 errors of one pair, from `verify`'s own rows."""
    rows = cli._pair_rows(n, predicted1, predicted2, fits)
    return max(r["lambda1_rel_error"] for r in rows), max(r["lambda2_rel_error"] for r in rows)


def disk_spectrum_problems(label, branches, grid):
    """Tracked branches at eps = 0 must be the disk pairs 1, 1, 2, 2, ... times sqrt(pi).

    This also shows that the trivial eigenvalue 0 was found and dropped.
    """
    mid = int(np.argmin(np.abs(grid)))
    expected = SQRT_PI * (np.arange(branches.shape[0]) // 2 + 1)
    err = float(np.max(np.abs(branches[:, mid] - expected)))
    return [] if err <= 1e-8 else [f"{label}: disk spectrum off by {err:.3e} at eps = 0"]


def monotone_problems(label, branches, rows):
    """Both branches of a pair nondecreasing in |eps| (acceptance criterion 7)."""
    mid = branches.shape[1] // 2
    problems = []
    for row in rows:
        right = branches[row, mid:]
        left = branches[row, : mid + 1][::-1]
        if np.any(np.diff(right) < -MONOTONE_SLACK) or np.any(np.diff(left) < -MONOTONE_SLACK):
            problems.append(f"{label}: branch {row} is not monotone in |eps|")
    return problems


def read_branches_csv(path):
    """Branch matrix from the CSV `steklov sweep` writes."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    eps = sorted({float(r["eps"]) for r in rows})
    count = 1 + max(int(r["branch_index"]) for r in rows)
    branches = np.empty((count, len(eps)))
    column = {e: j for j, e in enumerate(eps)}
    for r in rows:
        branches[int(r["branch_index"]), column[float(r["eps"])]] = float(r["eigenvalue"])
    return np.array(eps), branches


class FigureSweep:
    """Criterion-7 sweeps: cos 3θ at K=20 with 6 branches, cos 12θ at K=40 with 18."""

    name = "figure-sweep"
    DISTINCT_JOBS = 1
    # (profile mode, basis size K, branches, pair n the profile lifts)
    CASES = ((3, 20, 6, 2), (12, 40, 18, 8))
    EPS_MAX = 0.1
    EPS_COUNT = 21
    # The accuracy figures fit only the five points nearest eps = 0, the
    # smallest window `fit_derivatives` takes on this grid (spacing 0.01).
    FIT_EPS_MAX = 0.02

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.grid = solver.symmetric_grid(self.EPS_MAX, self.EPS_COUNT)
        self.cases = [
            (rotated_cosine(mode, rng.uniform(0.0, 2.0 * math.pi)), k, nb, n)
            for mode, k, nb, n in self.CASES
        ]

    def run(self):
        out = []
        for rho, k, nb, n in self.cases:
            curves = solver.sweep(rho, self.grid, solver.SolverConfig(basis_size=k), n_branches=nb)
            out.append((n, curves.branches, solver.fit_derivatives(curves)))
        return out

    def check(self, out):
        problems = []
        for n, branches, _ in out:
            label = f"pair {n}"
            problems += disk_spectrum_problems(label, branches, self.grid)
            problems += monotone_problems(label, branches, (2 * n - 2, 2 * n - 1))
        return problems

    def rel_errors(self, out):
        """lambda1 and lambda2 errors of a fit on the central points, geometric mean over the cases.

        A cubic fit over the whole of [-0.1, 0.1] is off by its own
        truncation, not by the solver's: 0.12 (n=2) and 0.72 (n=8) in
        lambda2.  Over |eps| <= FIT_EPS_MAX it is 6.2e-3 and 9.1e-2, still
        mostly the O(h^2) bias of the fit, which the solver's accuracy
        shifts but does not set.  The geometric mean lets a change at n=2
        show next to the larger n=8 error.
        """
        central = np.abs(self.grid) <= self.FIT_EPS_MAX + 1e-12
        errs = []
        for n, branches, _ in out:
            curves = solver.EigencurveSet(eps_grid=self.grid[central], branches=branches[:, central])
            fits = solver.fit_derivatives(curves)[2 * n - 2 : 2 * n]
            errs.append(pair_rel_errors(n, (0.0, 0.0), (expansion.closed_form_lambda2_special(n),) * 2, fits))
        return tuple(statistics.geometric_mean(max(e[i], REL_ERR_FLOOR) for e in errs) for i in range(2))

    def cli_commands(self):
        commands = []
        for rho, k, nb, n in self.cases:
            args = [
                "sweep", "--rho", rho_json(rho),
                "--eps-min", repr(-self.EPS_MAX), "--eps-max", repr(self.EPS_MAX),
                "--eps-count", str(self.EPS_COUNT), "--branches", str(nb),
                "--basis-size", str(k), "--out", "{out}.csv", "--fit-out", "{out}.json",
            ]
            commands.append((args, self._cli_checker(n, nb)))
        return commands

    def _cli_checker(self, n, nb):
        def check(out, returncode):
            if returncode != 0:
                return [f"sweep pair {n}: exit code {returncode}"]
            eps, branches = read_branches_csv(out + ".csv")
            with open(out + ".json", encoding="utf-8") as handle:
                fits = json.load(handle)
            problems = [] if len(fits) == nb else [f"sweep pair {n}: {len(fits)} fits, expected {nb}"]
            problems += disk_spectrum_problems(f"sweep pair {n}", branches, eps)
            return problems + monotone_problems(f"sweep pair {n}", branches, (2 * n - 2, 2 * n - 1))

        return check


class VerifyLadder:
    """`verify` for special_rho(n), n = 2..8, at the CLI's default window and K rule."""

    name = "verify-ladder"
    DISTINCT_JOBS = 1
    NS = tuple(range(2, 9))
    CLI_NS = (2, 8)

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        d = VERIFY_DEFAULTS
        self.grid = cli._parse_grid(d["eps_min"], d["eps_max"], d["eps_count"], min_count=5)
        self.profiles = {
            n: rotated_cosine(n + math.ceil(0.5 * n), rng.uniform(0.0, 2.0 * math.pi))
            for n in self.NS
        }

    def run(self):
        out = []
        for n, rho in self.profiles.items():
            report = expansion.expand(rho, n)
            cfg = cli._solver_config(None, None, max(2 * n, n + rho.max_mode))
            curves = solver.sweep(rho, self.grid, cfg, n_branches=2 * n)
            fits = solver.fit_derivatives(curves)
            out.append((n, report.lambda1, report.lambda2, fits[2 * n - 2 : 2 * n]))
        return out

    def check(self, out):
        problems = []
        for n, lam1, lam2, fits in out:
            if lam2 is None:
                problems.append(f"n={n}: engine gives no second-order pair")
                continue
            err1, err2 = pair_rel_errors(n, lam1, lam2, fits)
            if err1 > VERIFY_DEFAULTS["tol_lambda1"] or err2 > VERIFY_DEFAULTS["tol_lambda2"]:
                problems.append(f"n={n}: lambda1 error {err1:.2e}, lambda2 error {err2:.2e}")
            if min(f.lambda2 for f in fits) <= 0.0:
                problems.append(f"n={n}: a fitted lambda2 is not positive")
        return problems

    def rel_errors(self, out):
        errs = [pair_rel_errors(n, lam1, lam2, fits) for n, lam1, lam2, fits in out]
        return max(e[0] for e in errs), max(e[1] for e in errs)

    def cli_commands(self):
        return [
            (["verify", "--rho", rho_json(self.profiles[n]), "--n", str(n), "--out", "{out}.json"],
             self._cli_checker(n))
            for n in self.CLI_NS
        ]

    @staticmethod
    def _cli_checker(n):
        def check(out, returncode):
            if returncode != 0:
                return [f"verify n={n}: exit code {returncode}"]
            with open(out + ".json", encoding="utf-8") as handle:
                report = json.load(handle)
            problems = [] if report["passed"] else [f"verify n={n}: not passed"]
            if min(row["lambda2_fitted"] for row in report["branches"]) <= 0.0:
                problems.append(f"verify n={n}: a fitted lambda2 is not positive")
            return problems

        return check


class EngineTable:
    """`expand` for n = 1..16 on a seeded 40-mode profile, plus one constant table.

    Each job takes the next of DISTINCT_JOBS profiles.  Every profile has
    a_2n = b_2n = 0 for even n, so half of the pairs run the second-order
    (M2) path and the other half split at first order.
    """

    name = "engine-table"
    DISTINCT_JOBS = 4  # one per profile; the jobs cycle through them
    NS = tuple(range(1, 17))
    MODES = 40
    TABLE_N = 8

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        decay = 1.0 / (1.0 + np.arange(self.MODES + 1))
        self.profiles = []
        for _ in range(self.DISTINCT_JOBS):
            b = rng.uniform(-1.0, 1.0, self.MODES + 1) * decay
            a = rng.uniform(-1.0, 1.0, self.MODES + 1) * decay
            a[0] = 0.0
            for n in self.NS[1::2]:
                a[2 * n] = b[2 * n] = 0.0
            self.profiles.append(FourierSeries(b=b, a=a))
        self._turn = itertools.cycle(self.profiles)

    @staticmethod
    def is_closed_lambda1(rho, n, pair):
        """Whether pair is +/-(n^2 + n/2) sqrt(pi (a_2n^2 + b_2n^2)) to 1e-12 relative."""
        a2n, b2n = rho.coeff(2 * n)
        mag = (n * n + 0.5 * n) * math.sqrt(math.pi * (a2n * a2n + b2n * b2n))
        tol = 1e-12 * max(mag, 1.0)
        return abs(pair[0] + mag) <= tol and abs(pair[1] - mag) <= tol

    @staticmethod
    def constant_table_gap(rho, n):
        """Largest |closed form - quadrature| over the table `steklov constants` prints."""
        single = integrals.single_constants(rho, n)
        single_quad = integrals.quadrature_single_table(rho, n)
        gap = max(abs(single[kind] - single_quad[kind]) for kind in single)
        for k in range(n + rho.max_mode + 1):
            if k == n:
                continue
            closed = integrals.coupled_constants(rho, n, k)
            quad = integrals.quadrature_coupled_table(rho, n, k)
            gap = max(gap, max(abs(closed[kind] - quad[kind]) for kind in closed))
        return gap

    def run(self):
        rho = next(self._turn)
        reports = [expansion.expand(rho, n) for n in self.NS]
        return rho, reports, self.constant_table_gap(rho, self.TABLE_N)

    def check(self, out):
        rho, reports, gap = out
        problems = [] if gap <= ORACLE_GAP else [f"constant oracle gap {gap:.3e}"]
        for report in reports:
            n = report.n
            if not self.is_closed_lambda1(rho, n, report.lambda1):
                problems.append(f"n={n}: lambda1 {report.lambda1} is not the closed form")
            if (report.lambda2 is None) != (n % 2 == 1):
                problems.append(f"n={n}: second-order pair present = {report.lambda2 is not None}")
        return problems

    def rel_errors(self, out):
        """Engine against its quadrature oracle: M1 and M2 built from quadrature constants."""
        rho, reports, _ = out
        err1 = err2 = 0.0
        for report in reports:
            n = report.n
            scale = n * SQRT_PI
            quad1 = expansion.matrix_first_order_quadrature(rho, n).eigenvalues()
            err1 = max(err1, *(abs(q - p) / max(abs(p), scale) for q, p in zip(quad1, report.lambda1)))
            if report.lambda2 is not None:
                quad2 = expansion.matrix_second_order_quadrature(rho, n).eigenvalues()
                err2 = max(err2, *(abs(q - p) / max(abs(p), scale) for q, p in zip(quad2, report.lambda2)))
        return err1, err2

    def cli_commands(self):
        rho = self.profiles[0]
        text = rho_json(rho)
        n = str(self.TABLE_N)
        return [
            (["expand", "--rho", text, "--n", n, "--out", "{out}.json"], self._expand_checker(rho)),
            (["constants", "--rho", text, "--n", n, "--format", "json", "--out", "{out}.json"],
             self._constants_checker),
        ]

    def _expand_checker(self, rho):
        def check(out, returncode):
            if returncode != 0:
                return [f"expand: exit code {returncode}"]
            with open(out + ".json", encoding="utf-8") as handle:
                report = json.load(handle)
            problems = []
            if not self.is_closed_lambda1(rho, self.TABLE_N, report["lambda1"]):
                problems.append("expand: lambda1 is not the closed form")
            if report["lambda2"] is None:
                problems.append("expand: no second-order pair")
            return problems

        return check

    @staticmethod
    def _constants_checker(out, returncode):
        if returncode != 0:
            return [f"constants: exit code {returncode}"]
        with open(out + ".json", encoding="utf-8") as handle:
            gap = json.load(handle)["max_abs_diff"]
        return [] if gap <= ORACLE_GAP else [f"constants: oracle gap {gap:.3e}"]


WORKLOADS = {w.name: w for w in (FigureSweep, VerifyLadder, EngineTable)}
