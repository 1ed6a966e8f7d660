#!/usr/bin/env python3
"""Build and run the forecast-stack benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ together with the library
sources under src/ into $CARGO_TARGET_DIR (default .bench_build), copies
artifacts/ to a temporary directory so the benchmark can tell a read-only
model load from one that trains, runs one workload and passes its output
through. The last stdout line is the JSON result; build logs go to stderr.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

RUN_TIMEOUT_S = 170


def build(src_dir, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", src_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_dir = os.path.relpath(os.path.abspath(out_dir), root)
    try:
        binary = build(os.path.dirname(os.path.abspath(__file__)),
                       os.path.join(out_dir, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    artifacts = os.path.join(root, "artifacts")
    if not os.path.isdir(artifacts):
        print("run.py: no artifacts/ directory in the checkout", file=sys.stderr)
        return 1

    # Relative paths keep the serving socket path short.
    run_dir = os.path.relpath(tempfile.mkdtemp(prefix="run-", dir=out_dir), root)
    try:
        shutil.copytree(artifacts, os.path.join(run_dir, "artifacts"))
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--artifacts", os.path.join(run_dir, "artifacts"),
             "--run-dir", run_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        spans = os.path.join(run_dir, "spans.jsonl")
        if os.path.exists(spans):
            traces = os.path.join(out_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(spans, os.path.join(
                traces, f"{args.workload}-seed{args.seed}.jsonl"))
        return proc.returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
