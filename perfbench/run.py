#!/usr/bin/env python3
"""Build (on first use) and run the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The perfbench binary is built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build) under the repository
root; build output goes to stderr so its JSON result stays the last line
of stdout. Exits non-zero, without a result line, when the build fails.
"""

import fcntl
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 175  # hard stop for one run, build excluded


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    exe = out / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", jobs,
                      "--target", "perfbench"])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                print(f"perfbench: build step failed: {' '.join(cmd)}",
                      file=sys.stderr)
                sys.exit(3)
    return exe


def main() -> int:
    exe = build(build_dir())
    t0 = time.monotonic()
    proc = subprocess.Popen([str(exe)] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s "
              f"({time.monotonic() - t0:.0f} s), killed", file=sys.stderr)
        return 4
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
