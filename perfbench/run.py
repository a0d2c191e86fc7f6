#!/usr/bin/env python3
"""End-to-end benchmark of the NEAT repository.

Builds the library, neat_cli and the harness from the checkout's sources
(CMake, RelWithDebInfo), then runs one workload and prints its result as
the last line of standard output:

    python3 perfbench/run.py --workload cli_csv --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. Build products go to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and generated
inputs and outputs to .bench_work/<workload>. See perfbench/README.md.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["cli_csv", "ooc_stream", "ingest_window", "serve_mixed"]
HARNESS_TIMEOUT_S = 175


def build(build_dir):
    """Configures once and builds incrementally; build output goes to a log."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("error: building the benchmark failed (%s)\n" % log_path)
                return None
    harness = os.path.join(build_dir, "neat_perfbench")
    cli = os.path.join(build_dir, "neat", "examples", "neat_cli")
    return harness, cli


def run_harness(cmd):
    """Runs the harness, echoing its output; returns (exit code, last line).

    The harness runs in its own process group, so a harness that overruns is
    stopped together with any neat_cli child it started."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, universal_newlines=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("error: the harness did not finish within %d s\n" % HARNESS_TIMEOUT_S)
        return 1, ""
    sys.stdout.write(out)
    lines = out.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that every oracle rejects a corrupted output")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    built = build(os.path.join(target, "perfbench"))
    if built is None:
        return 1
    harness, cli = built

    if args.selftest:
        return run_harness([harness, "--selftest", "--cli", cli,
                            "--work-dir", os.path.join(".bench_work", "selftest")])[0]

    results = {}
    for workload in (WORKLOADS if args.workload == "all" else [args.workload]):
        code, last = run_harness([harness, "--workload", workload, "--seed", str(args.seed),
                                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                                  "--cli", cli,
                                  "--work-dir", os.path.join(".bench_work", workload)])
        if code != 0:
            sys.stderr.write("error: workload %s failed (exit %d)\n" % (workload, code))
            return 1
        results[workload] = json.loads(last)
        if args.trace == 1:
            break  # a traced run already covers every workload

    if args.workload == "all" and args.trace == 0:
        print("\nsummary (seed %d, %d s per workload)" % (args.seed, args.seconds))
        for workload, r in results.items():
            print("%-14s attempted %6d  failed %3d  correct %s" %
                  (workload, r["attempted"], r["failed"], r["correct"]))
            for name, m in r["metrics"].items():
                print("    %-16s %14.6f %s" % (name, m["value"], m["unit"]))
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, n): m
                        for w, r in results.items() for n, m in r["metrics"].items()},
        }
        print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
