#!/usr/bin/env python3
"""Builds and runs the Puddles end-to-end benchmark.

    python3 perfbench/run.py --workload <kv|ship|recover|daemon-rpc> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest [workload|all]

Run from the root of a source checkout. The first call configures and builds
perfbench/ (the library, puddled and the perfbench binary) into
.bench_build/; later calls rebuild only what changed. The binary's last line
of stdout is the JSON result; build output goes to .bench_build/build.log.
Traces of --trace 1 runs are left in .bench_run/traces/ (Chrome trace-event
JSON).
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
EXE = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; exits 1 on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(step))
                sys.exit(1)


def run(argv):
    """Runs the binary in its own process group and stops whatever is left."""
    proc = subprocess.Popen(argv, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        code = 1
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["kv", "ship", "recover", "daemon-rpc"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", nargs="?", const="all",
                        help="run the oracle self-tests instead of a workload")
    args = parser.parse_args()
    if args.selftest is None and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.selftest is not None:
        sys.exit(run([EXE, "--selftest", args.selftest]))
    scratch = os.path.join(".bench_run", str(os.getpid()))
    code = run([EXE, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--scratch", scratch, "--trace-dir", os.path.join(".bench_run", "traces")])
    shutil.rmtree(os.path.join(ROOT, scratch), ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
