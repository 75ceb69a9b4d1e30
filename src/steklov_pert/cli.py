"""Command-line front end.

Four subcommands: ``expand`` (asymptotic corrections for one pair),
``constants`` (closed-form vs quadrature table of the integral constants),
``sweep`` (direct-solver eigenvalue curves over an eps grid, CSV) and
``verify`` (predicted vs fitted corrections with tolerances).

Exit codes: 0 success, 1 configuration error, 2 invalid request (second
order demanded on a pair that splits at first order), 3 verification
tolerance failure.  STEKLOV_LOG=info logs each boundary grid the solver
chooses, and STEKLOV_LOG=debug also cond(B) of each solve and a sweep's
trivial eigenvalue and labelled branches at each eps.
"""

import csv
import dataclasses
import io
import json
import logging
import math
import os
import sys

import click
import numpy as np

from . import expansion, integrals, solver
from .errors import IllConditioned, InvalidMode, NonStarShaped, SteklovError
from .series import FourierSeries


class ConfigError(click.ClickException):
    """Configuration problem; message names the offending field.  Exit code 1."""

    exit_code = 1


def _integer(field, value, low=None):
    """The integer option value, refused by a ConfigError naming field below low or past 2**53: float64 holds
    every integer up to 2**53, and no array such a value sizes nears numpy's int64 limits (verify's grid at
    --n is 32 n points)."""
    if value is not None and low is not None and value < low:
        raise ConfigError(f"{field} must be >= {low}, got {value}")
    if value is not None and abs(value) > 2**53:
        raise ConfigError(f"{field} must be at most 2**53 in magnitude, got {value}")
    return value


def _fmt(x):
    """Round-trip-safe decimal formatting (17 significant digits)."""
    return format(float(x) + 0.0, ".17g")


def _parse_rho(rho_text, rho_file):
    if rho_text is not None and rho_file is not None:
        raise ConfigError("rho: give either --rho or --rho-file, not both")
    if rho_text is None and rho_file is None:
        raise ConfigError("rho: missing (use --rho or --rho-file)")
    if rho_file is not None:
        try:
            with open(rho_file, "r", encoding="utf-8") as handle:
                rho_text = handle.read()
        except OSError as exc:
            raise ConfigError(f"rho-file: {exc}") from None
    try:
        return FourierSeries.from_json(rho_text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _require_finite(payload, what):
    """Refuse to write a JSON-style payload holding inf or NaN: rho is too large for float64 in `what`."""
    try:
        json.dumps(payload, allow_nan=False)
    except ValueError:
        raise ConfigError(f"rho: too large; {what} overflow float64") from None


def _expand(rho, n):
    """expansion.expand and its report's payload, refused when rho' or that payload overflows float64."""
    try:
        report = expansion.expand(rho, n)
    except ValueError:  # rho' overflows, and the corrections with it
        raise ConfigError("rho: too large; the expansion's corrections overflow float64") from None
    payload = report.to_dict()
    _require_finite(payload, "the expansion's corrections")
    return report, payload


def _parse_n(n):
    if n is None:
        raise ConfigError("n: missing (use --n)")
    return _integer("n:", n, 1)


def _parse_grid(eps_min, eps_max, eps_count, min_count=1):
    if eps_min is None or eps_max is None or eps_count is None:
        raise ConfigError("eps_grid: --eps-min, --eps-max and --eps-count are all required")
    _integer("eps_grid.count:", eps_count, min_count)
    if not math.isclose(eps_min, -eps_max, rel_tol=0.0, abs_tol=1e-15):  # NaN is refused too
        raise ConfigError("eps_grid: grid must be symmetric (eps-min = -eps-max)")
    try:
        return solver.symmetric_grid(eps_max, eps_count)
    except ValueError as exc:
        raise ConfigError(f"eps_grid: {exc}") from None
    except MemoryError as exc:
        raise ConfigError(f"eps_grid.count: a grid of {eps_count} points does not fit in memory ({exc})") from None


def _solver_config(basis_size, quad_points, n_branches):
    _integer("solver: quad_points", quad_points)
    if _integer("solver: basis_size", basis_size) is None:
        basis_size = max(16, 2 * n_branches + 4)
    try:
        return solver.SolverConfig(basis_size=basis_size, quad_points=quad_points)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from None


def _sweep(rho, grid, cfg, n_branches):
    """solver.sweep; a failure is a ConfigError, prefixed eps_grid: (NonStarShaped) or solver: (IllConditioned).

    The basis the branches need (K >= 2 * branches + 4) is checked first,
    so that its error names its field too.
    """
    if cfg.basis_size < 2 * n_branches + 4:
        raise ConfigError(f"solver: basis_size {cfg.basis_size} too small for {n_branches} branches "
                          f"(needs >= {2 * n_branches + 4})")
    try:
        return solver.sweep(rho, grid, cfg, n_branches=n_branches)
    except (SteklovError, ValueError) as exc:
        field = {NonStarShaped: "eps_grid: ", IllConditioned: "solver: "}.get(type(exc), "")
        raise ConfigError(f"{field}{exc}") from None
    except MemoryError as exc:
        quad = "the default quad_points" if cfg.quad_points is None else f"quad_points {cfg.quad_points}"
        raise ConfigError(f"solver: basis_size {cfg.basis_size} with {n_branches} branches, {quad} and "
                          f"{len(grid)} eps points does not fit in memory ({exc})") from None


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        click.echo(text, nl=False)


def _json_text(payload):
    """payload as indented JSON, each float read back as x + 0.0 (_fmt's rule), so none is written -0.0."""
    return json.dumps(json.loads(json.dumps(payload), parse_float=lambda text: float(text) + 0.0), indent=2) + "\n"


QUAD_POINTS_HELP = (
    "Boundary quadrature points N (default max(512, 8K) rounded up to a multiple of g, the gcd of rho's "
    "modes), folded onto lcm(N, g) points and refused if that grid cannot resolve rho. The sums run "
    "over the N/gcd(N, g) points of one 2 pi/g sector, and the rotation classes are solved apart."
)


def rho_options(f):
    """The --rho and --rho-file options, in that order."""
    f = click.option(
        "--rho-file",
        type=click.Path(),
        default=None,
        help="Path to a JSON file holding the boundary profile.",
    )(f)
    return click.option("--rho", "rho_text", default=None, help="Boundary profile as inline JSON.")(f)


@click.group()
@click.pass_context
def cli(ctx):
    """Steklov eigenvalue asymptotics for nearly circular unit-area domains."""
    # an overflow of a too large rho is refused with a message naming rho,
    # not reported by numpy on the way
    ctx.with_resource(np.errstate(over="ignore", invalid="ignore"))
    level = os.environ.get("STEKLOV_LOG", "off").strip().lower()
    if level in ("info", "debug"):
        logging.basicConfig(
            level=logging.INFO if level == "info" else logging.DEBUG,
            format="%(name)s %(levelname)s %(message)s",
        )


@cli.command()
@rho_options
@click.option("--n", type=int, default=None, help="Eigenvalue pair index (>= 1).")
@click.option(
    "--require-lambda2",
    is_flag=True,
    help="Fail (exit 2) if the second-order pair is unavailable because the pair splits.",
)
@click.option("--out", type=click.Path(), default=None, help="Output path (default stdout).")
def expand(rho_text, rho_file, n, require_lambda2, out):
    """Asymptotic corrections of one eigenvalue pair, as JSON."""
    rho = _parse_rho(rho_text, rho_file)
    n = _parse_n(n)
    report, payload = _expand(rho, n)
    if require_lambda2 and report.lambda2 is None:
        click.echo(
            f"error: pair n={n} splits at first order; no second-order pair exists", err=True
        )
        sys.exit(2)
    _emit(_json_text(payload), out)


@cli.command()
@rho_options
@click.option("--n", type=int, default=None, help="Eigenvalue pair index (>= 1).")
@click.option(
    "--k",
    "k_list",
    default=None,
    help="Comma-separated coupled indices (default 0..n+max_mode without n).",
)
@click.option("--out", type=click.Path(), default=None, help="Output path (default stdout).")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default="csv",
    help="Output format.",
)
def constants(rho_text, rho_file, n, k_list, out, fmt):
    """Integral-constant table: closed form vs quadrature oracle."""
    rho = _parse_rho(rho_text, rho_file)
    n = _parse_n(n)
    ks = None
    if k_list is not None:
        try:
            ks = sorted({_integer("k:", int(part)) for part in k_list.split(",") if part.strip() != ""})
        except ValueError:
            raise ConfigError(f"k: expected comma-separated integers, got {k_list!r}") from None
    try:
        closed = integrals.constant_table(rho, n, ks)
        quad = integrals.quadrature_constant_table(rho, n, ks)
    except InvalidMode as exc:  # n is valid here, so a k is not
        raise ConfigError(f"k: {exc}") from None
    except ValueError as exc:  # rho' overflows
        raise ConfigError(str(exc)) from None
    except MemoryError as exc:  # the default ks grow with n, the oracle's grid with the largest k
        raise ConfigError(f"{'n' if ks is None else 'k'}: the table does not fit in memory ({exc})") from None
    rows = [
        (kind, n, None, value, quad.single[kind], abs(value - quad.single[kind]))
        for kind, value in closed.single.items()
    ]
    closed_rows, quad_rows = (np.transpose([*table.coupled.values()]).tolist() for table in (closed, quad))  # by k
    for k, values, quad_values in zip(closed.ks.tolist(), closed_rows, quad_rows):
        rows.extend((kind, n, k, a, b, abs(a - b)) for kind, a, b in zip(closed.coupled, values, quad_values))
    _require_finite(rows, "the constants")

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "n", "k", "closed_form", "quadrature", "abs_diff"])
        for kind, nn, k, value, quad_value, diff in rows:
            writer.writerow([kind, nn, "" if k is None else k, _fmt(value), _fmt(quad_value), _fmt(diff)])
        _emit(buf.getvalue(), out)
    else:
        payload = {
            "n": n,
            "single": closed.single,
            "single_quadrature": quad.single,
            "coupled": {str(k): dict(zip(closed.coupled, row)) for k, row in zip(closed.ks.tolist(), closed_rows)},
            "coupled_quadrature": {str(k): dict(zip(quad.coupled, row)) for k, row in zip(quad.ks.tolist(), quad_rows)},
            "max_abs_diff": max(row[5] for row in rows),
        }
        _emit(_json_text(payload), out)


@cli.command()
@rho_options
@click.option("--eps-min", type=float, default=None, help="Left end of the eps grid.")
@click.option("--eps-max", type=float, default=None, help="Right end of the eps grid.")
@click.option("--eps-count", type=int, default=None, help="Number of grid points (odd).")
@click.option("--branches", "n_branches", type=int, default=4, help="Nonzero branches to track.")
@click.option("--basis-size", type=int, default=None, help="Harmonic mode pairs K.")
@click.option("--quad-points", type=int, default=None, help=QUAD_POINTS_HELP)
@click.option("--out", type=click.Path(), default=None, help="CSV output path (default stdout).")
@click.option("--fit-out", type=click.Path(), default=None, help="Also write a fit summary JSON.")
def sweep(rho_text, rho_file, eps_min, eps_max, eps_count, n_branches, basis_size, quad_points, out, fit_out):
    """Eigenvalue branches over an eps grid, as plot-ready CSV."""
    rho = _parse_rho(rho_text, rho_file)
    grid = _parse_grid(eps_min, eps_max, eps_count, min_count=5 if fit_out else 1)
    cfg = _solver_config(basis_size, quad_points, _integer("branches:", n_branches, 1))
    curves = _sweep(rho, grid, cfg, n_branches)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["eps", "branch_index", "eigenvalue"])
    for j, eps in enumerate(curves.eps_grid):
        for i in range(curves.branches.shape[0]):
            writer.writerow([_fmt(eps), i, _fmt(curves.branches[i, j])])
    _emit(buf.getvalue(), out)
    if fit_out:
        fits = solver.fit_derivatives(curves)
        with open(fit_out, "w", encoding="utf-8") as handle:
            handle.write(_json_text([dataclasses.asdict(f) for f in fits]))


def _pair_rows(n, predicted1, predicted2, fits):
    """Rows of pair n: its fits sorted by lambda1 if it splits (predicted2 None), else by lambda2."""
    ordered = sorted(fits, key=lambda f: f.lambda1 if predicted2 is None else f.lambda2)
    scale = n * math.sqrt(math.pi)
    rows = []
    for i, fit in enumerate(ordered):
        p1 = predicted1[i]
        row = {
            "branch": i,
            "lambda1_predicted": p1,
            "lambda1_fitted": fit.lambda1,
            "lambda1_rel_error": abs(fit.lambda1 - p1) / max(abs(p1), scale),
            "lambda2_predicted": None,
            "lambda2_fitted": fit.lambda2,
            "lambda2_rel_error": None,
            "fit_residual": fit.residual,
            "lambda1_truncation": fit.lambda1_truncation,
            "lambda2_truncation": fit.lambda2_truncation,
        }
        if predicted2 is not None:
            p2 = predicted2[i]
            row["lambda2_predicted"] = p2
            row["lambda2_rel_error"] = abs(fit.lambda2 - p2) / max(abs(p2), scale)
        rows.append(row)
    return rows


@cli.command()
@rho_options
@click.option("--n", type=int, default=None, help="Eigenvalue pair index (>= 1).")
@click.option("--eps-min", type=float, default=-0.008, help="Left end of the fit window.")
@click.option("--eps-max", type=float, default=0.008, help="Right end of the fit window.")
@click.option("--eps-count", type=int, default=9, help="Number of grid points (odd, >= 5).")
@click.option("--basis-size", type=int, default=None, help="Harmonic mode pairs K.")
@click.option("--quad-points", type=int, default=None, help=QUAD_POINTS_HELP)
@click.option("--tol-lambda1", type=float, default=1e-3, help="Relative tolerance on lambda1.")
@click.option("--tol-lambda2", type=float, default=2e-2, help="Relative tolerance on lambda2.")
@click.option("--out", type=click.Path(), default=None, help="JSON report path (default stdout).")
def verify(rho_text, rho_file, n, eps_min, eps_max, eps_count, basis_size, quad_points, tol_lambda1, tol_lambda2, out):
    """Cross-check predicted corrections against direct-solver fits.

    Exits 3 when a relative error exceeds its tolerance (the report is still
    written).  Each row holds one fit, matched to the predictions by lambda1
    on a pair that splits at first order and by lambda2 otherwise.
    """
    rho = _parse_rho(rho_text, rho_file)
    n = _parse_n(n)
    grid = _parse_grid(eps_min, eps_max, eps_count, min_count=5)
    for name, tol in (("tol-lambda1", tol_lambda1), ("tol-lambda2", tol_lambda2)):
        if not tol >= 0.0:  # a NaN tolerance would pass every comparison
            raise ConfigError(f"{name}: must be >= 0, got {tol}")
    n_branches = 2 * n
    cfg = _solver_config(basis_size, quad_points, max(n_branches, n + rho.max_mode))
    report, _ = _expand(rho, n)
    curves = _sweep(rho, grid, cfg, n_branches)
    fits = solver.fit_derivatives(curves)
    pair_fits = fits[2 * n - 2 : 2 * n]
    rows = _pair_rows(n, report.lambda1, report.lambda2, pair_fits)
    failures = [r for r in rows if r["lambda1_rel_error"] > tol_lambda1]
    failures += [
        r
        for r in rows
        if r["lambda2_rel_error"] is not None and r["lambda2_rel_error"] > tol_lambda2
    ]
    payload = {
        "n": n,
        "rho": rho.to_dict(),
        "lambda0": report.lambda0,
        "branches": rows,
        "tolerances": {"lambda1": tol_lambda1, "lambda2": tol_lambda2},
        "passed": not failures,
    }
    _emit(_json_text(payload), out)
    if failures:
        click.echo(f"error: {len(failures)} correction(s) outside tolerance", err=True)
        sys.exit(3)


if __name__ == "__main__":
    cli()
