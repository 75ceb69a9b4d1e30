"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --seeds 1-10 --trace-seeds 1,2 --out perfbench/baseline.json

Runs one benchmark process at a time from the root of the checkout, every
workload of BENCHMARK.json for its run_seconds.  For each
end-to-end metric it reports the median, the quartiles of
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median next
to the metric's bound; for each per-layer metric, the median of the traced
runs; and for the figures a run reports without gating them (median and
90th percentile job time, jobs per second, median CLI wall time,
fail_frac), the same summary without a bound.  The summary, with the
environment of the first run, is written as JSON to --out.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_KEYS = ("workload", "seed", "seconds", "trace")  # per-run entries of a record's environment


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def summarize(values, bound=None):
    median = statistics.median(values)
    entry = {"median": median, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
    if bound is not None:
        entry["bound"] = bound
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace-seeds", type=seed_list, default=[])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": seconds, "seeds": args.seeds, "trace_seeds": args.trace_seeds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        end_to_end, reported, per_layer, attempted, failed = {}, {}, {}, 0, 0
        for trace, seeds, into in ((0, args.seeds, end_to_end), (1, args.trace_seeds, per_layer)):
            for seed in seeds:
                start = time.perf_counter()
                result, record = run_once(name, seed, seconds, trace)
                env = record["environment"]
                summary.setdefault("environment", {k: v for k, v in env.items() if k not in RUN_KEYS})
                attempted += result["attempted"]
                failed += result["failed"]
                for metric, entry in result["metrics"].items():
                    into.setdefault(metric, []).append(entry["value"])
                if not trace:
                    for metric, entry in record["reported"].items():
                        reported.setdefault(metric, []).append(entry["value"])
                print(f"{name} seed {seed} trace {trace}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      f"({time.perf_counter() - start:.1f} s)", flush=True)
        summary["workloads"][name] = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {m: summarize(v, bounds[m]) for m, v in end_to_end.items()},
            "reported": {m: summarize(v) for m, v in reported.items()},
            "per_layer": {m: summarize(v) for m, v in per_layer.items()},
        }
        for metric, entry in summary["workloads"][name]["end_to_end"].items():
            spread = entry.get("spread", float("nan"))
            flag = "ok" if spread < entry["bound"] / 3 else ("within bound" if spread <= entry["bound"] else "OVER BOUND")
            print(f"  {metric:20s} median {entry['median']:.6g}  spread {spread:.4f}  bound {entry['bound']}  {flag}")
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
