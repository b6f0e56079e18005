#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR, or
.bench_build, inside the checkout; so do the run's files and TMPDIR.
The program's output is passed through, so the last stdout line is the JSON
result. Exits non-zero, without a result, when the sources are missing, the
build fails or the run exceeds its time limit.
"""
import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("STRATA sources (src/) not found next to perfbench/")
    # Configuring every time keeps a reused build directory in step with
    # the build file; on a configured tree it takes a fraction of a second.
    steps = [["cmake", "-S", bench_dir, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "-j4", "--target", "perfbench"]]
    for step in steps:
        try:
            done = subprocess.run(step, cwd=root, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            fail("build failed")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root,
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(root, build_dir)

    work_dir = os.path.join(build_dir, "runs", str(os.getpid()))
    tmp_dir = os.path.join(work_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    # STRATA_* variables (trace sampling, admin endpoint) would change what
    # the program does, so runs never inherit them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("STRATA_")}
    env["TMPDIR"] = tmp_dir
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        code = subprocess.run(command, cwd=root, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the program and waits for it before raising.
        code = None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if code is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
