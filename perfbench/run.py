#!/usr/bin/env python3
"""Build and run the nocmap benchmark from a source checkout.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (CMake, Release) under
.bench_build/perfbench; later calls only rebuild what changed. The program's
stdout is passed through, so the last line is its JSON result. The exit
status is non-zero when the build fails, when an output check fails, or
when the program does not finish in time.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table2", "scale", "serve", "congestion")
BUILD_TIMEOUT_S = 840
MAX_SECONDS = 3600  # The program's own limit on --seconds.


def run_timeout(seconds):
    """How long a run may take. Untraced passes fill `seconds` (half of it
    when traced), a traced run adds one traced pass, and a single pass may
    overrun the budget (one pass takes up to about 20 s on scale); set-up
    and the output checks take a few seconds more."""
    return 2 * seconds + 120


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the benchmark; return the binary's path."""
    bdir = build_dir()
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Compiler temporaries stay inside the checkout.
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any(os.path.exists(os.path.join(bdir, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise SystemExit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def run_program(binary, argv, timeout, echo=True):
    """Run the benchmark program; return (exit status, stdout)."""
    try:
        done = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                              stderr=sys.stderr, universal_newlines=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: no result within %d s" % timeout)
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    return done.returncode, done.stdout


def last_json(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test(binary, reports):
    """Every workload at reduced size, untraced and traced: each run must
    pass its checks and report every metric of BENCHMARK.json with its unit,
    the two runs of a workload must report the same results digest, and the
    program's metric catalogue must match BENCHMARK.json name for name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {kind: {m["name"]: m for m in spec[kind]}
                for kind in ("end_to_end", "per_layer")}
    problems = []
    if tuple(w["name"] for w in spec["workloads"]) != WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from %s"
                        % (WORKLOADS,))

    _, out = run_program(binary, ["--list-metrics"], run_timeout(1),
                         echo=False)
    catalogue = last_json(out)
    for kind, names in declared.items():
        program = {m["name"]: m for m in catalogue if m["kind"] == kind}
        for name in sorted(set(names) | set(program)):
            a, b = names.get(name), program.get(name)
            if a is None or b is None:
                problems.append("%s metric %s is not in both BENCHMARK.json "
                                "and the program" % (kind, name))
            elif (a["unit"], a["better"]) != (b["unit"], b["better"]):
                problems.append("%s: unit/direction %s/%s in BENCHMARK.json, "
                                "%s/%s in the program"
                                % (name, a["unit"], a["better"], b["unit"],
                                   b["better"]))

    # Reports of their own, so that no full run's report is overwritten.
    reports = os.path.join(reports, "self-test")
    os.makedirs(reports, exist_ok=True)
    for workload in WORKLOADS:
        digests = []
        for trace in (0, 1):
            kind = "per_layer" if trace else "end_to_end"
            label = "%s --trace %d" % (workload, trace)
            report = os.path.join(reports, "%s-trace%d.json"
                                  % (workload, trace))
            if os.path.exists(report):
                os.remove(report)
            code, out = run_program(binary, [
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--quick", "--report", report],
                run_timeout(1), echo=False)
            try:
                result = last_json(out)
            except ValueError:
                result = None
            if code != 0 or not result or not result.get("correct"):
                problems.append("%s: exit %d, result %r" % (label, code, result))
                continue
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: %d of %d operations failed"
                                % (label, result["failed"],
                                   result["attempted"]))
            got = result["metrics"]
            if set(got) != set(declared[kind]):
                problems.append("%s: metrics %s differ from BENCHMARK.json"
                                % (label, sorted(set(got)
                                                 ^ set(declared[kind]))))
            for name, metric in got.items():
                want = declared[kind].get(name)
                if want and metric["unit"] != want["unit"]:
                    problems.append("%s: %s in %s, BENCHMARK.json says %s"
                                    % (label, name, metric["unit"],
                                       want["unit"]))
            with open(report) as f:
                digests.append(json.load(f)["results_digest"])
            print("self-test %-24s ok (%d operations, results digest %s)"
                  % (label, result["attempted"], digests[-1]))
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append("%s: results digest %s untraced, %s in the "
                            "traced run" % (workload, digests[0], digests[1]))

    for p in problems:
        print("self-test FAILED: " + p)
    print("self-test: %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(
        description="Build and run the nocmap benchmark (see WORKLOADS.md).")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at reduced size and check "
                             "the reported metrics against BENCHMARK.json")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        parser.error("--seed must be >= 0 and --seconds in [1, %d]"
                     % MAX_SECONDS)

    binary = build()
    reports = os.path.join(build_dir(), "reports")
    os.makedirs(reports, exist_ok=True)
    if args.self_test:
        return self_test(binary, reports)
    report = os.path.join(reports, "%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    code, _ = run_program(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--report", report], run_timeout(args.seconds))
    return code


if __name__ == "__main__":
    sys.exit(main())
