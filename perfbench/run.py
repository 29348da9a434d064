#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <fig7-detailed|fleet-sampled|serve-control> \\
        --seed <n> --seconds <s> --trace <0|1>

The program and the benchmark are built with CMake (Release) into the
directory named by CARGO_TARGET_DIR, or .bench_build by default; build
output goes to stderr. The last line of stdout is the benchmark's
result object. The exit code is the benchmark's: 0 only when every
output check passed. Without the program's sources next to this
directory the script fails before printing any result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig7-detailed", "fleet-sampled", "serve-control")
# A run is sized by --seconds; this only stops a hung one.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build cash_perfbench; True on success."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"program sources not found under {ROOT / 'src'}")
        return False
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "cash_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    if not build(build_dir):
        return 1

    cmd = [str(build_dir / "cash_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.relpath(build_dir / "run")]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopping it")
        proc.kill()
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
