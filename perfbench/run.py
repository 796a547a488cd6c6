#!/usr/bin/env python3
"""Build and run the ads end-to-end benchmark for one workload and seed.

Usage (from the repository root):

    python3 perfbench/run.py --workload photo|text_relay|join_churn \
        --seed N --seconds S --trace 0|1 [--ticks N]

The library under ../src and the ads_perfbench program in perfbench/cpp are
built with CMake into $CARGO_TARGET_DIR (default .bench_build) on first use;
later runs only rebuild what changed. Build output goes to stderr. The program's stdout
is passed through unchanged, so its last line is the JSON result. With
--trace 1 every span is also written to <build dir>/spans/.

Exit code: the program's (0 = correctness gate held), 2 when the repository
sources are missing or the build fails, 3 when the run times out.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

# The first run in a checkout builds (about a minute on 4 cores);
# every run must end within the benchmark's 180 s, the first within 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def configured_for(build_dir: Path, bench_dir: Path) -> bool:
    """True when build_dir holds a CMake cache for this very source tree
    (a build directory copied along with a checkout points elsewhere)."""
    cache = build_dir / "CMakeCache.txt"
    if not cache.is_file():
        return False
    return f"CMAKE_HOME_DIRECTORY:INTERNAL={bench_dir}\n" in cache.read_text()


def build(bench_dir: Path, build_dir: Path) -> Path:
    """Configure (once per source tree) and build ads_perfbench; returns its path."""
    if not configured_for(build_dir, bench_dir):
        shutil.rmtree(build_dir, ignore_errors=True)
        cmd = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "ads_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--ticks", type=int, default=None,
                        help="override the workload's timed tick count")
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {root / 'src'}", 2)

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    try:
        binary = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        fail(f"build failed: {e}", 2)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.ticks is not None:
        cmd += ["--ticks", str(args.ticks)]
    if args.trace:
        spans = target / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.csv")]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
