"""Benchmark of steklov-pert, end to end and per layer.

    python3 perfbench/run.py --workload figure-sweep --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  Workloads (see `workloads.py`):

  figure-sweep   acceptance criterion 7 sweeps: solver, kernels, geometry, series
  verify-ladder  `verify` for special_rho(n), n = 2..8: solver and the fit
  engine-table   `expand` for n = 1..16 plus a constant table: integrals, expansion

One caller, closed loop: each job starts when the previous one ends.  With
`--trace 0` the run measures, in ROUNDS interleaved rounds, the import
time of `steklov_pert.cli` in fresh interpreters (setup_s), the workload's
CLI commands as cold processes (cli_wall_ref, cli_peak_rss_mb) and warm
library jobs, until `--seconds` have passed and at least MIN_JOBS jobs are
done (job_p50_ref, job_p90_ref).  Times in `ref` units are divided by the
time of `reference.py` measured just before them (see README.md).  Every
job and every CLI output is checked; failures count in `failed`.  With `--trace 1` it reports the
per-layer metrics instead: import time per package from `-X importtime`,
the library functions of each layer timed by `tracer.py` around warm jobs
and in-process CLI commands, untraced jobs interleaved to give the tracing
overhead, and the trace-kernel size sweep.

Each CLI command runs on one CPU, with the reference it is divided by, and
BLAS runs one thread unless the environment sets it otherwise.  The last
line of standard output is one JSON object with the metrics named in
BENCHMARK.json; the full record (environment, every sample, every problem)
goes to perfbench/out/.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import procs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROUNDS = 12  # rounds of set-up, cold CLI and warm jobs in an end-to-end run
SETUP_PER_ROUND = 1  # fresh interpreters importing steklov_pert.cli, after one warm-up
MIN_JOBS = 100  # warm jobs, so that at least 10 samples lie beyond p90
IMPORT_PROFILES = 3  # `-X importtime` children in the traced run
TRACE_CLI_ROUNDS = 3  # in-process CLI rounds in the traced run
TRACE_MIN_PAIRS = 10  # untraced/traced job pairs in the traced run
HARD_STOP_S = 150.0  # no new job starts this long after the process started

# bench_kernels' trace-kernel size sweep: (boundary points N, modes K)
KERNEL_SIZES = ((512, 16), (512, 32), (1024, 48), (2048, 48))
KERNEL_REPEATS = 30

STARTED = time.perf_counter()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quantile(samples, q):
    """Nearest-rank q-quantile: len(samples) - ceil(q n) samples lie above it."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(f"{label}: {p}" for p in problems)


def checked(tally, label, check, *args):
    """Run an output check; an exception inside it is a failure of the output."""
    try:
        problems = check(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    tally.record(label, problems)


def run_job(workload, tally, label):
    """One library job with its check; returns (seconds or None, output)."""
    start = time.perf_counter()
    try:
        out = workload.run()
    except Exception as exc:  # the benchmark keeps going and counts the failure
        tally.record(label, [f"raised {exc!r}"])
        return None, None
    elapsed = time.perf_counter() - start
    checked(tally, label, workload.check, out)
    return elapsed, out


def job_loop(deadline, min_jobs, step):
    """Call step() until the deadline has passed and min_jobs steps are done."""
    done = 0
    while (done < min_jobs or time.perf_counter() < deadline) and time.perf_counter() - STARTED < HARD_STOP_S:
        step()
        done += 1


# -- end-to-end run ---------------------------------------------------------


@contextmanager
def one_cpu():
    """Run the block, and every child it starts, on one CPU.

    The reference tracks the speed of the CPU it runs on; a CLI child on
    another CPU of a shared host drifts apart from it.  Set-up children and
    jobs stay free: pinned, their spread grew.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def cli_argv(args, out):
    return [sys.executable, "-m", "steklov_pert.cli"] + [a.replace("{out}", out) for a in args]


def measure_end_to_end(workload, seconds, tally, scratch):
    """Set-up, cold CLI and warm jobs, interleaved in ROUNDS rounds over the run.

    Each round starts SETUP_PER_ROUND fresh interpreters, runs the CLI
    commands once each and then warm jobs until its share of `seconds` is
    used, so that every metric samples the whole run and a slow spell of
    the machine weighs on all of them alike.
    """
    import reference
    import workloads

    start = time.perf_counter()
    env = procs.child_env(str(SRC))
    procs.import_seconds(env, ROOT, scratch)  # warm-up: byte-code and file caches
    # Warm-up: one job per distinct input, which also give the accuracy figures.
    rel_errors = (0.0, 0.0)
    for i in range(workload.DISTINCT_JOBS):
        _, out = run_job(workload, tally, f"warm-up job {i}")
        errs = workload.rel_errors(out) if out is not None else (math.inf, math.inf)
        rel_errors = tuple(map(max, rel_errors, errs))
    rel1, rel2 = (max(err, workloads.REL_ERR_FLOOR) for err in rel_errors)

    commands = workload.cli_commands()
    setup, rounds, times, refs = [], [], [], []

    def step():
        ref = reference.seconds()
        elapsed, _ = run_job(workload, tally, f"job {len(times)}")
        if elapsed is not None:
            times.append(elapsed)
            refs.append(ref)

    for r in range(ROUNDS):
        setup += [procs.import_seconds(env, ROOT, scratch) for _ in range(SETUP_PER_ROUND)]
        walls, ratios, rss = [], [], []
        for i, (args, check) in enumerate(commands):
            out = os.path.join(scratch, f"cli{i}")
            with one_cpu():
                before = reference.seconds()
                code, wall, peak = procs.run_child(
                    cli_argv(args, out), env, ROOT, out + ".stdout", out + ".stderr"
                )
                ref = 0.5 * (before + reference.seconds())  # brackets the child
            checked(tally, f"cli {args[0]} #{i} round {r}", check, out, code)
            walls.append(wall)
            ratios.append(wall / ref)
            rss.append(peak)
        rounds.append({
            "mean_wall_s": statistics.fmean(walls),
            "mean_wall_ref": statistics.fmean(ratios),
            "max_rss_mb": max(rss),
            "walls": walls,
        })
        job_loop(start + seconds * (r + 1) / ROUNDS, math.ceil(MIN_JOBS / ROUNDS), step)

    relative = [t / ref for t, ref in zip(times, refs)]
    metrics = {
        "setup_s": statistics.median(setup),
        "cli_wall_ref": statistics.median(r["mean_wall_ref"] for r in rounds),
        "cli_peak_rss_mb": statistics.median(r["max_rss_mb"] for r in rounds),
        "job_p50_ref": statistics.median(relative),
        "job_p90_ref": quantile(relative, 0.9),
        "lambda1_rel_err": rel1,
        "lambda2_rel_err": rel2,
    }
    # The same in seconds, reported with the run but not gated: on a shared
    # host they follow the neighbours' load as much as the program.
    reported = {
        "cli_wall_s": {"value": statistics.median(r["mean_wall_s"] for r in rounds), "unit": "s"},
        "job_p50_s": {"value": statistics.median(times), "unit": "s"},
        "job_p90_s": {"value": quantile(times, 0.9), "unit": "s"},
        "jobs_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "reference_s": {"value": statistics.median(refs), "unit": "s"},
    }
    samples = {
        "setup_s": setup,
        "cli_rounds": rounds,
        "cli_commands": [c[0][0] for c in commands],
        "job_s": times,
        "reference_s": refs,
        "jobs": len(times),
        "jobs_beyond_p90": len(times) - math.ceil(0.9 * len(times)),
        "rel_errors_unfloored": rel_errors,
    }
    return metrics, reported, samples


# -- traced run ---------------------------------------------------------------


def run_cli_in_process(args, out):
    """The CLI command in this interpreter; returns its exit code."""
    import click

    from steklov_pert import cli

    try:
        cli.cli.main(args=[a.replace("{out}", out) for a in args], prog_name="steklov", standalone_mode=False)
    except click.ClickException as exc:
        return exc.exit_code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def kernel_size_sweep():
    """Median seconds per trace-kernel call at each (N, K), on a 3-mode profile."""
    import numpy as np

    from steklov_pert import kernels
    from steklov_pert.series import FourierSeries

    rho = FourierSeries(b=[0.0, 0.1, 0.0, 1.0], a=[0.0, 0.0, 0.2])
    out = {}
    for num_points, num_modes in KERNEL_SIZES:
        theta = np.linspace(0.0, 2.0 * np.pi, num_points, endpoint=False)
        radius = 1.0 + 0.05 * rho.evaluate(theta)
        radius_prime = 0.05 * rho.derivative().evaluate(theta)
        scales = radius.max() ** -np.arange(num_modes + 1, dtype=float)
        kernels.boundary_traces(theta, radius, radius_prime, num_modes, scales)  # warm
        times = []
        for _ in range(KERNEL_REPEATS):
            start = time.perf_counter()
            kernels.boundary_traces(theta, radius, radius_prime, num_modes, scales)
            times.append(time.perf_counter() - start)
        out[f"kernels.size.n{num_points}_k{num_modes}_s"] = statistics.median(times)
    return out


def layer_metrics(job_summaries):
    """Per-layer metrics: the median over traced jobs of each job's figure."""

    def per_job(name, field):
        return statistics.median(s[name][field] for s in job_summaries)

    def ratio(name, field, per_name, per_field):
        return statistics.median(
            s[name][field] / s[per_name][per_field] if s[per_name][per_field] else 0.0
            for s in job_summaries
        )

    return {
        "series.evaluate_s": per_job("series.evaluate", "total"),
        "series.evaluate.calls": per_job("series.evaluate", "calls"),
        "geometry.check_star_shaped_s": per_job("geometry.check_star_shaped", "total"),
        "geometry.check_star_shaped.calls": per_job("geometry.check_star_shaped", "calls"),
        "kernels.boundary_traces_s": per_job("kernels.boundary_traces", "total"),
        "kernels.boundary_traces.calls": per_job("kernels.boundary_traces", "calls"),
        "kernels.boundary_traces.bytes": ratio(
            "kernels.boundary_traces", "work", "kernels.boundary_traces", "calls"
        ),
        "solver.assemble.self_s": per_job("solver.assemble", "self"),
        "solver.solve_s": per_job("solver.solve", "total"),
        "solver.solve.calls": per_job("solver.solve", "calls"),
        "solver.solve.calls_per_point": ratio("solver.solve", "calls", "solver.sweep", "work"),
        "solver.sweep.self_s": per_job("solver.sweep", "self"),
        "solver.fit_derivatives_s": per_job("solver.fit_derivatives", "total"),
        "integrals.coupled_constants_s": per_job("integrals.coupled_constants", "total"),
        "integrals.coupled_constants.calls": per_job("integrals.coupled_constants", "calls"),
        "integrals.single_constants_s": per_job("integrals.single_constants", "total"),
        "integrals.quadrature_coupled_table_s": per_job("integrals.quadrature_coupled_table", "total"),
        "integrals.quadrature_coupled_table.calls": per_job("integrals.quadrature_coupled_table", "calls"),
        "expansion.expand.self_s": per_job("expansion.expand", "self"),
        "expansion.matrix_second_order_s": per_job("expansion.matrix_second_order", "total"),
        "expansion.first_order_coefficients.calls": per_job("expansion.first_order_coefficients", "calls"),
    }


def measure_traced(workload, seconds, tally, scratch):
    import tracer as tracing

    deadline = time.perf_counter() + seconds
    env = procs.child_env(str(SRC))
    procs.import_seconds(env, ROOT, scratch)  # warm-up: byte-code and file caches
    profiles = [procs.import_profile(env, ROOT, scratch) for _ in range(IMPORT_PROFILES)]
    metrics = {
        f"import.{pkg}_s": statistics.median(p[pkg] for p in profiles) for pkg in procs.IMPORT_PACKAGES
    }

    tracer = tracing.Tracer()
    commands = workload.cli_commands()
    cli_self = []
    for r in range(TRACE_CLI_ROUNDS):
        selves = []
        for i, (args, check) in enumerate(commands):
            out = os.path.join(scratch, f"cli{i}")
            with tracer.install(), tracer.span("cli"):
                code = run_cli_in_process(args, out)
            selves.append(tracer.take()[0].self_time)
            checked(tally, f"in-process cli {args[0]} #{i} round {r}", check, out, code)
        cli_self.append(statistics.fmean(selves))
    metrics["cli.self_s"] = statistics.median(cli_self)

    run_job(workload, tally, "warm-up job")
    untraced, traced, summaries = [], [], []

    def step():
        elapsed, _ = run_job(workload, tally, f"untraced job {len(untraced)}")
        with tracer.install():
            with tracer.span("job"):
                traced_elapsed, _ = run_job(workload, tally, f"traced job {len(traced)}")
        spans = tracer.take()
        if elapsed is None or traced_elapsed is None:
            return
        untraced.append(elapsed)
        traced.append(traced_elapsed)
        summaries.append(tracing.summarize(spans))

    job_loop(deadline, TRACE_MIN_PAIRS, step)
    metrics.update(layer_metrics(summaries))
    metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced)
    metrics.update(kernel_size_sweep())
    samples = {
        "import_profiles": profiles,
        "cli_self_s": cli_self,
        "untraced_job_s": untraced,
        "traced_job_s": traced,
        "jobs": len(traced),
    }
    return metrics, {}, samples


# -- environment ----------------------------------------------------------------


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return result.stdout.strip() or "unknown"


def blas_threads():
    """Thread count each loaded OpenBLAS reports (numpy and scipy bundle their own)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return {}
    threads = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    return threads


def environment(args):
    import importlib.metadata
    import importlib.util

    import numpy as np
    import scipy

    from steklov_pert import kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cli_cpu": min(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernels.active_backend(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "callers": 1,
        "loop": "closed",
    }


# -- entry point ----------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "steklov_pert" / "cli.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'steklov_pert'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tally = Tally()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        measure = measure_traced if args.trace else measure_end_to_end
        metrics, reported, samples = measure(workload, args.seconds, tally, scratch)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    reported["fail_frac"] = {"value": tally.failed / max(tally.attempted, 1), "unit": "1"}
    record = dict(
        result, reported=reported, environment=environment(args), samples=samples, problems=tally.problems
    )
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    for name in units:
        print(f"{name:44s} {metrics[name]:.6g} {units[name]}")
    for name, entry in reported.items():
        print(f"{name:44s} {entry['value']:.6g} {entry['unit']} (reported, not gated)")
    print(f"attempted {tally.attempted}, failed {tally.failed}; record in {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
