#!/usr/bin/env python3
"""Build and run the campaign benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Configures perfbench/ (its own CMake package, which compiles the repository's
src/ tree) into .bench_build/perfbench at the repository root, builds it, and
hands over to the perfbench binary with the same arguments. Build output goes
to stderr, so the last line of stdout is the binary's JSON result.
--selftest builds and runs the benchmark's own unit tests instead.
"""

import fcntl
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
JOBS = str(min(4, os.cpu_count() or 1))


def build(target: str) -> None:
    BUILD.mkdir(parents=True, exist_ok=True)
    # One build at a time per checkout: concurrent runs wait here.
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(BUILD), "--target", target,
                        "-j", JOBS], stdout=sys.stderr, check=True)


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no tracenet sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    target = "perfbench_selftest" if argv == ["--selftest"] else "perfbench"
    try:
        build(target)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    binary = str(BUILD / target)
    args = [binary] if target != "perfbench" else [
        binary, *argv, "--work-dir", str(BUILD)]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
