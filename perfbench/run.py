"""The repo benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fattree_campaign --seed 1 \
        --seconds 20 --trace 0

Each run starts two fresh interpreters, each with its own randomly
drawn ``PYTHONHASHSEED`` (both recorded):

* ``--trace 0``: the measured run, with all in-program
  instrumentation off, then a short check run of the same seed that
  stops at the workload's fingerprint point.  The end-to-end metrics
  come from the measured run.
* ``--trace 1``: the traced run (outside-in span wrappers installed,
  span log written to ``.perfbench_out/``), then an untraced run of
  the same length.  The per-layer metrics come from the traced run;
  the untraced one gives the tracing overhead.

Either way the two runs' simulated outputs (delivered counts, delay
percentiles, per-switch hit/miss/packet-in counts, events dispatched)
must be identical.  That is the determinism check.  The result is
``correct`` only if that check and each run's own correctness checks
pass.  Metric names and units are read from ``BENCHMARK.json``; the
last line of output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when the result is correct and 1 otherwise.  It is
2, with no result, when the program's sources are missing.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BUDGET_S = 170.0    # a run must end within 180 s


def fail(message, code=2):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(code)


def child(args, hash_seed, deadline, extra=()):
    """Run one workload process; returns its parsed result."""
    command = [sys.executable, os.path.join(HERE, "workloads.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)] + list(extra)
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              capture_output=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s seed %d timed out" % (args.workload, args.seed), 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        fail("%s seed %d: workload process exited %d"
             % (args.workload, args.seed, proc.returncode), 1)
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        fail("program sources (src/repro) not found under %s" % ROOT)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        fail("cannot read BENCHMARK.json: %s" % exc)
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have: %s)"
             % (args.workload, ", ".join(names)))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    hash_seeds = random.SystemRandom().sample(range(1, 2 ** 32), 2)
    if args.trace:
        spans = os.path.join(OUT_DIR, "spans-%s.bin" % tag)
        main_run = child(args, hash_seeds[0], deadline,
                         ["--trace", "--spans", spans])
        other = child(args, hash_seeds[1], deadline)
        traced, untraced = main_run["metrics"], other["metrics"]
        values = dict(main_run["layers"])
        values.update({
            "trace.pps_wall": traced["pps_wall"],
            "trace.pps_slowdown": untraced["pps_wall"] / traced["pps_wall"],
            "trace.deploy_ms_mean": traced["deploy_ms_mean"],
            "trace.deploy_slowdown": (traced["deploy_ms_mean"]
                                      / untraced["deploy_ms_mean"]),
        })
    else:
        main_run = child(args, hash_seeds[0], deadline)
        other = child(args, hash_seeds[1], deadline, ["--check-only"])
        values = main_run["metrics"]

    problems = list(main_run["problems"]) + list(other["problems"])
    if main_run["fingerprint"] != other["fingerprint"]:
        problems.append("determinism: simulated outputs differ between "
                        "hash seeds %d and %d" % tuple(hash_seeds))
    missing = [metric["name"] for metric in wanted
               if metric["name"] not in values]
    if missing:
        problems.append("metrics not produced: %s" % ", ".join(missing))
    metrics = {metric["name"]: {"value": values.get(metric["name"], 0.0),
                                "unit": metric["unit"]}
               for metric in wanted}
    result = {"correct": not problems,
              "attempted": main_run["attempted"],
              "failed": main_run["failed"],
              "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "hash_seeds": hash_seeds, "problems": problems,
              "fingerprint": main_run["fingerprint"],
              "samples": main_run["samples"],
              "series": main_run["series"], "result": result}
    with open(os.path.join(OUT_DIR, "%s.json" % tag), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print("%s seed %d: hash seeds %d (%s) and %d (%s); samples %s"
          % (args.workload, args.seed, hash_seeds[0],
             "traced" if args.trace else "measured", hash_seeds[1],
             "untraced" if args.trace else "check",
             json.dumps(main_run["samples"], sort_keys=True)))
    for problem in problems:
        print("FAILED: %s" % problem)
    for name, metric in metrics.items():
        print("  %-40s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
