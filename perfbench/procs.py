"""Cold-process measurements: interpreter import time, CLI wall time and peak RSS.

Children run one at a time.  Each is reaped with `os.wait4`, which gives that
child's own resource usage; `RUSAGE_CHILDREN` would accumulate over every
child reaped so far.
"""

import os
import subprocess
import sys
import threading
import time

CHILD_TIMEOUT_S = 60.0

# Imports steklov_pert.cli and prints how long that took, measured inside the child.
IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import steklov_pert.cli\n"
    "print(repr(time.perf_counter() - start))\n"
)

# Packages whose import time the traced run reports, by top-level module name.
IMPORT_PACKAGES = ("scipy", "numpy", "click", "steklov_pert")


class ChildFailed(RuntimeError):
    pass


def child_env(src_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src_dir
    return env


def run_child(argv, env, cwd, stdout_path, stderr_path):
    """Run argv to completion; return (exit code, wall seconds, peak RSS in MiB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        raise ChildFailed(f"{argv[:4]} ran longer than {CHILD_TIMEOUT_S:.0f} s")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0  # Linux reports KiB


def import_seconds(env, cwd, scratch):
    """Seconds a fresh interpreter takes to import steklov_pert.cli, timed in the child."""
    out, err = os.path.join(scratch, "import.out"), os.path.join(scratch, "import.err")
    code, _, _ = run_child([sys.executable, "-c", IMPORT_PROBE], env, cwd, out, err)
    if code != 0:
        with open(err, encoding="utf-8", errors="replace") as handle:
            raise ChildFailed(f"importing steklov_pert.cli failed: {handle.read()[-500:]}")
    with open(out, encoding="utf-8") as handle:
        return float(handle.read().strip())


def parse_importtime(text):
    """Seconds of self time per package from `python -X importtime` output.

    Each line is `import time: <self us> | <cumulative us> | <module>`; the
    self times of a package's modules add up to its share of start-up
    without counting the packages it imports.
    """
    seconds = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        package = fields[2].strip().split(".")[0]
        if package in seconds:
            seconds[package] += int(fields[0]) * 1e-6
    return seconds


def import_profile(env, cwd, scratch):
    """Per-package import self time of `import steklov_pert.cli` in a fresh interpreter."""
    out, err = os.path.join(scratch, "importtime.out"), os.path.join(scratch, "importtime.err")
    code, _, _ = run_child([sys.executable, "-X", "importtime", "-c", "import steklov_pert.cli"], env, cwd, out, err)
    with open(err, encoding="utf-8", errors="replace") as handle:
        text = handle.read()
    if code != 0:
        raise ChildFailed(f"importing steklov_pert.cli failed: {text[-500:]}")
    return parse_importtime(text)
