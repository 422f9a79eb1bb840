#!/usr/bin/env python3
"""Build fluxdiv_bench from this checkout and run one benchmark workload.

    python3 benchsuite/run.py --workload box128 --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark is built (Release) in the
directory named by CARGO_TARGET_DIR, default .bench_build, on first use.
--trace 1 runs the per-layer measurement and keeps its Chrome trace in
<build dir>/traces/. Build output goes to standard error; the last line
of standard output is the result JSON of the run, whose metric names are
checked against BENCHMARK.json. --json PATH also keeps the full run
record (with its host and build context) for compare.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure (once) and build the benchmark; return its binary path."""
    # The compiler's temporary files stay in the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "fluxdiv_bench", "--parallel", jobs],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, "fluxdiv_bench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=0)
    ap.add_argument("--json", help="also write the full run record here")
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: cannot build the benchmark: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--threads", str(args.threads)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace", os.path.join(
            trace_dir, f"{args.workload}-{args.seed}.json")]
    if args.json:
        cmd += ["--json", os.path.abspath(args.json)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    differ = declared_metrics(args.trace) ^ set(result["metrics"])
    if differ:
        print(f"run.py: metrics differ from BENCHMARK.json: "
              f"{sorted(differ)}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
