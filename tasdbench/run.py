#!/usr/bin/env python3
"""Build (when sources changed) and run the TASD inference benchmark.

Usage, from the repository root:

    python3 tasdbench/run.py --workload resnet34-b1 --seed 1 --seconds 10 --trace 0

The benchmark program is C++ (tasdbench/main.cpp); this script configures
and builds it with CMake into $CARGO_TARGET_DIR/tasdbench (default
.bench_build/tasdbench, relative to the repository root), then runs it
with the same arguments. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. The exit code is the
benchmark's, or 2 when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build() -> str:
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "tasdbench")
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "tasdbench")


def main() -> int:
    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"tasdbench: build failed: {e}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
