"""Paired end-to-end benchmark of this checkout against a parent commit.

    python3 tools/bench_pairs.py --parent HEAD~1 --claim "..." --out BENCH_<name>.json

Exports the parent commit's files with `git archive` into a temporary
directory, then, for each seed and each workload of BENCHMARK.json, runs
`perfbench/run.py --trace 0` once from each side, one process at a time,
each with an empty bytecode cache of its own (see `run_bench`): the parent
first on odd seeds, this checkout first on even seeds.  The seeds are
--first-seed (default 1) and the --pairs - 1 (default 9) after
it; a held-out pair on a seed not used while the change was written is
--first-seed 11 --pairs 1.  This checkout is measured as it stands in the
working tree.  Each run uses BENCHMARK.json's run_seconds.

The JSON written to --out has, per workload and end-to-end metric, each
side's runs in seed order with their median and quartiles
(`statistics.quantiles`, exclusive method), the number of pairs in which
this checkout is better (ties count for neither side), the relative
change of the median, the median over pairs of change / parent
(`median_pair_ratio`; pairs whose parent run is 0 are left out, and it is
null if all are) and a verdict (see `verdict`); and per workload the
operations attempted and failed on each side.  A metric whose runs jump
between two levels from run to run moves each side's median by the jump
when one seed lands on the other level; the two runs of a pair are made
one after the other on one seed, so their ratio moves far less.  The
JSON is rewritten after every seed, so an interrupted run keeps the seeds
it finished, and its header names only those.  SIGTERM interrupts a run
the way Ctrl-C does: the running perfbench/run.py child is killed, and the
temporary directory is removed, as it is at the end of a run.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10  # default pairs per workload, on seeds first_seed .. first_seed + PAIRS - 1


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def export_commit(rev, dest):
    """Extract the files of commit rev, as `git archive` writes them, into dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return Path(dest)


def run_bench(checkout, workload, seed, seconds):
    """One `perfbench/run.py --trace 0` process; returns its final JSON line.

    The process and every child it starts write and read bytecode under a
    fresh, empty PYTHONPYCACHEPREFIX, removed afterwards: neither the export
    nor the working tree reads its own __pycache__, so both start equally cold.
    """
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def side_summary(runs):
    entry = {"median": statistics.median(runs)}
    if len(runs) >= 2:
        entry["q1"], _, entry["q3"] = statistics.quantiles(runs, n=4)
    entry["runs"] = runs
    return entry


def verdict(parent, change, sign, wins, bound):
    """'gain', 'regression', 'unresolved' or 'no change' for one metric.

    parent and change are the runs in pair order, sign is +1 where lower is
    better and -1 where higher is, wins is the number of pairs the change
    is better in, and bound is the metric's allowed relative worsening.
    gain: the change is better in at least nine tenths of the pairs and its
    median is better by more than the parent's interquartile range.
    regression: its median is worse than the parent's by more than bound.
    unresolved: the parent's interquartile range is wider than bound, and
    not every change run is better than every parent run.
    """
    parent_median = statistics.median(parent)
    better_by = sign * (parent_median - statistics.median(change))
    spread = 0.0
    if len(parent) >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4)
        spread = q3 - q1
    allowed = bound * abs(parent_median)
    if 10 * wins >= 9 * len(parent) and better_by > spread:
        return "gain"
    if -better_by > allowed:
        return "regression"
    if spread > allowed and max(sign * c for c in change) >= min(sign * p for p in parent):
        return "unresolved"
    return "no change"


def summarize(results, spec):
    """Per workload: failures, attempts and each metric's paired comparison."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {}
    for workload, sides in results.items():
        if not sides["parent"]:
            continue
        entry = {
            "failed": {s: sum(r["failed"] for r in sides[s]) for s in SIDES},
            "attempted": {s: sum(r["attempted"] for r in sides[s]) for s in SIDES},
            "metrics": {},
        }
        for metric, direction in better.items():
            runs = {s: [r["metrics"][metric]["value"] for r in sides[s]] for s in SIDES}
            sign = 1.0 if direction == "lower" else -1.0
            wins = sum(sign * (c - p) < 0 for p, c in zip(runs["parent"], runs["change"]))
            parent_median = statistics.median(runs["parent"])
            change_median = statistics.median(runs["change"])
            ratios = [c / p for p, c in zip(runs["parent"], runs["change"]) if p]
            entry["metrics"][metric] = {
                "parent": side_summary(runs["parent"]),
                "change": side_summary(runs["change"]),
                "change_better_pairs": wins,
                "median_rel_change": (change_median - parent_median) / parent_median if parent_median else 0.0,
                "median_pair_ratio": statistics.median(ratios) if ratios else None,
                "verdict": verdict(runs["parent"], runs["change"], sign, wins, bounds[metric]),
            }
        out[workload] = entry
    return out


def describe(spec, parent_sha, change, seeds, claim):
    """The what/how/machine/claim header for the pairs run on seeds."""
    pairs = f"{len(seeds)} pair{'' if len(seeds) == 1 else 's'}"
    return {
        "what": f"end-to-end metrics of perfbench/run.py --trace 0 --seconds {spec['run_seconds']}, "
                f"parent commit {parent_sha[:7]} against {change}, {pairs} per workload",
        "how": f"for seed in {seeds[0]}..{seeds[-1]} and each workload: python3 perfbench/run.py --workload W "
               f"--seed S --seconds {spec['run_seconds']} --trace 0 from a `git archive` export of the "
               "parent and from this checkout, one run at a time; the parent runs first on odd seeds, "
               "the change first on even seeds (tools/bench_pairs.py)",
        "machine": f"{os.cpu_count()}-CPU {platform.system()} {platform.machine()}, Python "
                   f"{platform.python_version()}; BLAS held to one thread by run.py",
        "claim": claim,
    }


def interrupt(signum, frame):
    """Raise KeyboardInterrupt, as Ctrl-C does, so that the run stops in the same way."""
    raise KeyboardInterrupt


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD~1", help="commit to compare against")
    parser.add_argument("--claim", required=True, help="the gain claimed, and what should not move")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--first-seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--pairs", type=int, default=PAIRS, help="pairs per workload, one per seed")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parent_sha = git("rev-parse", args.parent)
    change = git("rev-parse", "--short", "HEAD")
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    if git("status", "--porcelain", "--untracked-files=no"):
        change += " plus uncommitted changes"
    results = {w: {s: [] for s in SIDES} for w in workloads}
    previous = signal.signal(signal.SIGTERM, interrupt)
    try:
        with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
            checkouts = {"parent": export_commit(parent_sha, tmp), "change": ROOT}
            for seed in seeds:
                order = SIDES if seed % 2 else SIDES[::-1]
                for workload in workloads:
                    for side in order:
                        start = time.perf_counter()
                        result = run_bench(checkouts[side], workload, seed, spec["run_seconds"])
                        results[workload][side].append(result)
                        print(f"seed {seed} {workload} {side}: failed {result['failed']}/{result['attempted']}, "
                              f"job_p50_ref {result['metrics']['job_p50_ref']['value']:.4g} "
                              f"({time.perf_counter() - start:.0f} s)", flush=True)
                finished = range(args.first_seed, seed + 1)
                header = describe(spec, parent_sha, change, finished, args.claim)
                args.out.write_text(json.dumps({**header, "workloads": summarize(results, spec)}, indent=1) + "\n")
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
