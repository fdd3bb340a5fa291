#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Configures and builds perfbench/ (which
compiles the nwlb libraries from src/) into the directory named by
CARGO_TARGET_DIR, default .bench_build, then runs nwlb_perfbench with the
same arguments.  Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result.  A traced run writes its Chrome trace into the
build directory.  Exits non-zero without a result when the sources are
missing or the build fails.
"""
import os
import subprocess
import sys


def main(argv):
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no nwlb sources under %s/src" % root, file=sys.stderr)
        return 2
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "nwlb_perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(step), file=sys.stderr)
            return 2

    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        name = "trace"
        for flag in ("--workload", "--seed"):
            if flag in args and args.index(flag) + 1 < len(args):
                name += "-" + args[args.index(flag) + 1]
        args += ["--trace-file", os.path.join(build, name + ".json")]
    sys.stdout.flush()
    return subprocess.run([os.path.join(build, "nwlb_perfbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
