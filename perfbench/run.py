#!/usr/bin/env python3
"""Build and run the nvmexp end-to-end benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S
                                --trace 0|1 [--smoke] [--wrong-reference]

Run from the repository root. The first run configures and builds
perfbench/ (the nvmexp library from src/ plus the benchmark binary,
Release) into .bench_build/; later runs only re-check the build. Build
output goes to stderr. The binary's stdout is passed through: its last
line is the result object, the line before it the machine and build
context. Stores and campaigns live in .bench_build/work/ for the run;
traced runs keep their Chrome trace-event file in .bench_build/traces/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "nvmexp_perfbench"
WORKLOADS = ("sweep-store", "sweep-model", "serve-query", "campaign")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git commit when ROOT is a checkout's top level, else a digest
    of the sources the benchmark builds."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if len(top) == 2 and Path(top[0]).resolve() == ROOT:
            return "git:" + top[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no nvmexp sources under {ROOT / 'src'}; run from a full "
             "checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "nvmexp_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk sizes (the benchmark's own test)")
    parser.add_argument("--wrong-reference", action="store_true",
                        help="corrupt the references; checks must fail")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    work = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--work-dir", str(work),
               "--commit", source_id()]
    if args.trace == "1":
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-file",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        command.append("--smoke")
    if args.wrong_reference:
        command.append("--wrong-reference")

    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.buffer.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
