#!/usr/bin/env python3
"""Builds the IQS benchmark from source and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload <appendix_c_wire|fleet_mix|fleet_churn>
                           --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The first form configures and builds `perfbench/` (which builds the
repository's libraries from `src/`) into `.bench_build/`, then runs the
`iqs_perfbench` binary with the given arguments; its standard output is
passed through, so the last line is the JSON result. With `--trace 1` the
spans are written to `.bench_build/spans/<workload>-seed<n>.jsonl`.

`--self-test` builds the benchmark's own tests and runs them
(`ctest -L perfbench`). Build output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources (CMakeLists.txt, src/) are not beside "
             "perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", CMAKE_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    command = ["cmake", "--build", CMAKE_DIR, "-j", BUILD_JOBS, "--target"]
    if subprocess.run(command + targets, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)


def run(command, timeout):
    process = subprocess.Popen(command)
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        fail("timed out after %d s: %s" % (timeout, " ".join(command)), 4)
    except BaseException:
        process.kill()
        process.wait()
        raise


def main(argv):
    # Compiler and run temporaries stay inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    if argv == ["--self-test"]:
        build(["iqs_perfbench", "perfbench_test"])
        ctest = ["ctest", "--test-dir", CMAKE_DIR, "-L", "perfbench",
                 "--output-on-failure"]
        return run(ctest, 600)

    options = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or not {"--workload", "--seed", "--seconds",
                             "--trace"} <= options.keys():
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1>  |  run.py --self-test")
    build(["iqs_perfbench"])
    command = [os.path.join(CMAKE_DIR, "iqs_perfbench")] + argv
    if options["--trace"] == "1":
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans, "%s-seed%s.jsonl" % (options["--workload"],
                                        options["--seed"]))]
    sys.stdout.flush()
    return run(command, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
