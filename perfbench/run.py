#!/usr/bin/env python3
"""Build the repository's libraries and the benchmark program, then run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to .bench_build/ (the
first run configures and compiles; later runs only check that the build
is up to date). With --trace 1 the spans of the traced pass are written to
.bench_build/trace-<workload>-seed<n>.json (chrome://tracing format).
The program's standard output passes through unchanged; its last line is
the JSON result. Exits non-zero, without a result, when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def run_quiet(cmd):
    """Run a build step; on failure show its output and exit 1."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def build(target):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    return os.path.join(BUILD, target)


def option(argv, name):
    """Value following `name` in argv, or None."""
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return None


def main(argv):
    if argv == ["--self-test"]:
        return subprocess.run([build("perfbench_stats_test")]).returncode
    args = list(argv)
    if option(args, "--trace") == "1" and option(args, "--trace-out") is None:
        name = "trace-%s-seed%s.json" % (option(args, "--workload"),
                                         option(args, "--seed"))
        args += ["--trace-out", os.path.join(BUILD, name)]
    binary = build("perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
