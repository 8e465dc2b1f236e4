#!/usr/bin/env python3
"""Builds stegbench from source, then runs one workload.

    python3 bench/stegbench/run.py --workload W --seed N --seconds S --trace 0|1
                                   [--trace-json PATH]

The build goes to .bench_build/stegbench under the repository root and is
quiet unless it fails. The stegbench binary prints its result JSON as the
last line of stdout. Exits nonzero, printing no result, if the build fails.
"""
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE.parent.parent / ".bench_build" / "stegbench"


def quiet(cmd):
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        raise subprocess.CalledProcessError(done.returncode, cmd)


def build():
    if not (BUILD / "build.ninja").exists() and not (BUILD / "Makefile").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        quiet(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator])
    quiet(["cmake", "--build", str(BUILD), "--target", "stegbench", "-j", "4"])
    return BUILD / "stegbench"


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"stegbench: build failed: {e}", file=sys.stderr)
        return 1
    return subprocess.run([str(binary), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
