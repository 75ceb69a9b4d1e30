"""bench_pairs on synthetic runs: the verdicts of summarize, the seed order, the header and the stop of main."""

import json
import os
import signal
import subprocess
import threading
import time
from pathlib import Path

import pytest

import bench_pairs

SPEC = {
    "end_to_end": [
        {"name": "job_p50_ref", "better": "lower", "bound": 0.15},
        {"name": "throughput", "better": "higher", "bound": 0.05},
    ]
}
PARENT = [4.0, 4.1, 4.2, 4.0, 4.1, 4.2, 4.0, 4.1, 4.2, 4.1]


def run(metric="job_p50_ref", value=4.0, failed=0):
    """One run.py result; the metric not given reads the same on every run."""
    metrics = {"job_p50_ref": {"value": 4.0}, "throughput": {"value": 100.0}}
    metrics[metric] = {"value": value}
    return {"failed": failed, "attempted": 50, "metrics": metrics}


def verdicts(parent, change, metric="job_p50_ref"):
    results = {
        "w": {
            "parent": [run(metric, v) for v in parent],
            "change": [run(metric, v) for v in change],
        }
    }
    return bench_pairs.summarize(results, SPEC)["w"]["metrics"][metric]["verdict"]


def test_gain_needs_nine_of_ten_pairs_and_a_move_beyond_the_parent_spread():
    assert verdicts(PARENT, [0.6 * v for v in PARENT]) == "gain"
    # eight wins of ten: the same large move is no gain
    two_losses = [0.6 * v for v in PARENT[:8]] + [5.0, 5.0]
    assert verdicts(PARENT, two_losses) == "no change"
    # ten wins, but by less than the parent's interquartile range (0.2)
    assert verdicts(PARENT, [v - 0.05 for v in PARENT]) == "no change"


def test_regression_is_a_median_worse_by_more_than_the_bound():
    assert verdicts(PARENT, [1.2 * v for v in PARENT]) == "regression"
    assert verdicts(PARENT, [1.1 * v for v in PARENT]) == "no change"


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    wide = [4.0, 5.2, 4.0, 5.2, 4.0, 5.2, 4.0, 5.2, 4.0, 5.2]  # quartiles 4.0 and 5.2
    assert verdicts(wide, [4.6] * 10) == "unresolved"
    # unless every change run beats every parent run
    assert verdicts(wide, [3.9] * 10) == "no change"


def test_higher_is_better_metrics_read_the_other_way():
    parent = [100.0, 101.0, 99.0, 100.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0]
    assert verdicts(parent, [v * 1.5 for v in parent], "throughput") == "gain"
    assert verdicts(parent, [v * 0.9 for v in parent], "throughput") == "regression"


def test_identical_runs_are_no_change_and_failures_are_summed():
    assert verdicts(PARENT, PARENT) == "no change"
    results = {"w": {"parent": [run(failed=1)] * 3, "change": [run()] * 3}}
    entry = bench_pairs.summarize(results, SPEC)["w"]
    assert entry["failed"] == {"parent": 3, "change": 0}
    assert entry["attempted"] == {"parent": 150, "change": 150}


def test_median_pair_ratio_is_the_median_of_the_per_pair_ratios():
    def entry(parent, change):
        results = {"w": {"parent": [run(value=v) for v in parent], "change": [run(value=v) for v in change]}}
        return bench_pairs.summarize(results, SPEC)["w"]["metrics"]["job_p50_ref"]

    # runs that jump between two levels, 0.8 and 1.0 before the change: the
    # change is 10% faster on every level, but three of its runs (seeds 6..8)
    # land on the upper level where the parent's did not, so the medians
    # read +1.25%, while 7 of the 10 pair ratios, and their median, read 0.9
    parent = [0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 1.0, 1.0]
    change = [0.72, 0.72, 0.72, 0.72, 0.72, 0.9, 0.9, 0.9, 0.9, 0.9]
    got = entry(parent, change)
    assert got["median_pair_ratio"] == pytest.approx(0.9, rel=1e-12)
    assert got["median_rel_change"] == pytest.approx(0.81 / 0.8 - 1.0, rel=1e-12)
    # an even count takes the mean of the middle two; a pair with a zero parent run is left out
    assert entry([1.0, 2.0, 4.0, 0.0], [0.5, 2.0, 3.0, 1.0])["median_pair_ratio"] == 0.75
    assert entry([0.0, 0.0], [1.0, 2.0])["median_pair_ratio"] is None


def test_first_seed_moves_every_pair_and_keeps_the_alternation(monkeypatch, tmp_path):
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    result = {"failed": 0, "attempted": 1, "metrics": {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}}
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((seed, "parent" if checkout == "exported" else "change"))
        return result

    monkeypatch.setattr(bench_pairs, "git", lambda *args: "" if args[0] == "status" else "abc1234")
    monkeypatch.setattr(bench_pairs, "export_commit", lambda rev, dest: "exported")
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "bench.json"
    bench_pairs.main(["--parent", "abc1234", "--claim", "none", "--out", str(out), "--first-seed", "11"])
    firsts = calls[:: 2 * len(spec["workloads"])]  # the first run of each seed
    assert [seed for seed, _ in firsts] == list(range(11, 11 + bench_pairs.PAIRS))
    # the parent runs first on odd seeds, the change first on even ones
    assert [side for _, side in firsts] == ["parent", "change"] * (bench_pairs.PAIRS // 2)
    assert "for seed in 11..20 " in json.loads(out.read_text())["how"]


def test_interrupted_run_names_only_the_seeds_it_finished(monkeypatch, tmp_path):
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    result = {"failed": 0, "attempted": 1, "metrics": {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}}

    def fake_run(checkout, workload, seed, seconds):
        if seed == 12 and workload == spec["workloads"][-1]["name"]:
            raise KeyboardInterrupt
        return result

    monkeypatch.setattr(bench_pairs, "git", lambda *args: "" if args[0] == "status" else "abc1234")
    monkeypatch.setattr(bench_pairs, "export_commit", lambda rev, dest: "exported")
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "bench.json"
    with pytest.raises(KeyboardInterrupt):
        bench_pairs.main(["--parent", "abc1234", "--claim", "none", "--out", str(out), "--first-seed", "11"])
    written = json.loads(out.read_text())
    assert written["what"].endswith(", 1 pair per workload")
    assert "for seed in 11..11 " in written["how"]
    # the pairs of the unfinished seed 12 are not written either
    for entry in written["workloads"].values():
        assert len(entry["metrics"]["job_p50_ref"]["parent"]["runs"]) == 1


def test_pairs_sets_the_number_of_seeds(monkeypatch, tmp_path):
    # a held-out pair is --first-seed 11 --pairs 1, and it stops by itself
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    result = {"failed": 0, "attempted": 1, "metrics": {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}}
    seeds = []
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "" if args[0] == "status" else "abc1234")
    monkeypatch.setattr(bench_pairs, "export_commit", lambda rev, dest: "exported")
    monkeypatch.setattr(bench_pairs, "run_bench", lambda checkout, workload, seed, seconds: seeds.append(seed) or result)
    out = tmp_path / "bench.json"
    args = ["--parent", "abc1234", "--claim", "none", "--out", str(out), "--first-seed", "11", "--pairs", "1"]
    assert bench_pairs.main(args) == 0
    assert seeds == [11] * (2 * len(spec["workloads"]))
    written = json.loads(out.read_text())
    assert written["what"].endswith(", 1 pair per workload")
    assert "for seed in 11..11 " in written["how"]


def test_each_run_gets_a_fresh_empty_bytecode_cache(monkeypatch, tmp_path):
    # neither side reads its own __pycache__: each run compiles into an empty
    # PYTHONPYCACHEPREFIX of its own, removed after it; the rest of the
    # environment is passed on, so perfbench's cold children inherit the prefix
    seen = []

    def fake_run(argv, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((cache, cache.is_dir() and not any(cache.iterdir()), env))
        (cache / "written.pyc").write_bytes(b"")
        return subprocess.CompletedProcess(argv, 0, stdout='{"failed": 0}\n', stderr="")

    monkeypatch.setenv("BENCH_PAIRS_MARKER", "kept")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    for checkout in (tmp_path / "export", bench_pairs.ROOT):
        assert bench_pairs.run_bench(checkout, "figure-sweep", 1, 1) == {"failed": 0}
    (first, first_empty, env), (second, second_empty, _) = seen
    assert first_empty and second_empty and first != second
    assert not first.exists() and not second.exists()
    assert env["BENCH_PAIRS_MARKER"] == "kept"


def test_sigterm_kills_the_running_child_and_removes_the_export(monkeypatch, tmp_path):
    # SIGTERM stops the run as Ctrl-C does: the perfbench/run.py child that
    # is running is killed, the exported parent is removed, and the caller's
    # SIGTERM handler is back in place
    pid_file = tmp_path / "child.pid"
    exports = []

    def fake_export(rev, dest):
        script = Path(dest) / "perfbench" / "run.py"
        script.parent.mkdir()
        script.write_text(f"import os, time\nopen({str(pid_file)!r}, 'w').write(str(os.getpid()))\ntime.sleep(30)\n")
        exports.append(Path(dest))
        return Path(dest)

    def terminate_once_the_child_runs():
        deadline = time.monotonic() + 20.0
        while not (pid_file.exists() and pid_file.read_text()) and time.monotonic() < deadline:
            time.sleep(0.02)
        os.kill(os.getpid(), signal.SIGTERM)

    def not_handled(signum, frame):
        raise RuntimeError("SIGTERM reached the caller's handler")

    monkeypatch.setattr(bench_pairs, "git", lambda *args: "" if args[0] == "status" else "abc1234")
    monkeypatch.setattr(bench_pairs, "export_commit", fake_export)
    previous = signal.signal(signal.SIGTERM, not_handled)
    try:
        threading.Thread(target=terminate_once_the_child_runs, daemon=True).start()
        with pytest.raises(KeyboardInterrupt):
            bench_pairs.main(["--parent", "abc1234", "--claim", "none", "--out", str(tmp_path / "b.json")])
        assert signal.getsignal(signal.SIGTERM) is not_handled
    finally:
        signal.signal(signal.SIGTERM, previous)
    # killed, not waited for (subprocess leaves that to the exiting caller),
    # so the child ends within moments whether or not it was reaped yet
    pid, deadline = int(pid_file.read_text()), time.monotonic() + 5.0
    while True:
        try:
            done, status = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:  # reaped already
            break
        if done:
            assert os.WIFSIGNALED(status)
            break
        assert time.monotonic() < deadline, "the perfbench/run.py child is still running"
        time.sleep(0.02)
    assert exports and not exports[0].exists()
