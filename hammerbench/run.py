#!/usr/bin/env python3
"""Builds and runs Hammer's benchmark from the root of a source checkout.

    python3 hammerbench/run.py --workload replay|peak|cluster --seed N \
        --seconds S --trace 0|1

The benchmark is its own CMake project (hammerbench/CMakeLists.txt) that
compiles the library sources under src/. The build tree goes under
$CARGO_TARGET_DIR (default .bench_build) in the current directory; build
output goes to stderr so the benchmark's last stdout line stays the JSON
result. A failed build exits nonzero without printing a result.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BINARY = "hammerbench"


def build(build_dir: Path) -> Path:
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", BINARY, "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / BINARY


def main() -> int:
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_root.resolve() / "hammerbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"hammerbench: build failed: {e}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([str(binary), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
