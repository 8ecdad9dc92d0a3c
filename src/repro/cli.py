"""The ``escape`` command-line entry point.

::

    escape scenario run  <scenario.(yaml|json)> [--seed N]... \\
                         [--results-dir DIR] [--no-gate] [--quiet]
    escape scenario list [DIR]...
    escape scenario report <bundle.json|results-dir>... \\
                           [--format table|json|csv]
    escape perf report <source> [--json] [--limit N]
    escape perf diff <baseline> <current> [--threshold F] \\
                     [--json] [--no-gate]
    escape flowtrace <bundle.json|flowtrace.jsonl|results-dir> \\
                     [--chain NAME] [--json]

``scenario run`` executes the campaign (every ``--seed``, or the
scenario's own ``seeds:`` list), writes one result bundle per run,
prints the cross-seed comparison table and — unless ``--no-gate`` —
exits non-zero when any chain deploy failed, any chain stayed
unrecovered, or the workload delivered nothing (the CI scenario-smoke
criterion).

``perf report`` renders one perf-attribution report (dispatch
accounting + profiler regions + throughput); ``perf diff`` compares
two and exits non-zero when a guarded region or throughput floor
regressed beyond the threshold — the CI perf gate against the
committed ``BENCH_profile.json``.  Both accept an attribution report
(``BENCH_profile.json`` is one, as is what
``benchmarks/run_profile.py --out`` writes), a result ``bundle.json``,
or a results directory holding exactly one bundle.

``flowtrace`` renders the per-chain hop-latency breakdown (p50/p99
per hop, attributed share of one-way delay, conformance counts) from
a flowtrace-enabled run — a ``bundle.json``, a raw ``flowtrace.jsonl``
postcard log, or a results directory containing either.

Also reachable as ``python -m repro ...`` when the package is on
``PYTHONPATH`` but not installed.
"""

import argparse
import os
import sys
from typing import List, Optional


def _add_scenario_parser(subparsers) -> None:
    scenario = subparsers.add_parser(
        "scenario", help="declarative experiment campaigns")
    actions = scenario.add_subparsers(dest="action")

    run = actions.add_parser("run", help="execute a scenario campaign")
    run.add_argument("spec", help="scenario file (.yaml/.yml/.json)")
    run.add_argument("--seed", type=int, action="append", default=None,
                     metavar="N", dest="seeds",
                     help="run this seed (repeatable; default: the "
                          "scenario's seeds list)")
    run.add_argument("--results-dir", default="results", metavar="DIR",
                     help="bundle output root (default: results)")
    run.add_argument("--no-gate", action="store_true",
                     help="exit 0 even when a run failed its gate")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-run progress lines")

    listing = actions.add_parser(
        "list", help="list scenario files, topologies and templates")
    listing.add_argument("paths", nargs="*", default=None,
                         help="directories to scan "
                              "(default: examples/scenarios)")

    report = actions.add_parser(
        "report", help="aggregate result bundles across seeds")
    report.add_argument("paths", nargs="+",
                        help="bundle files or results directories")
    report.add_argument("--format", choices=("table", "json", "csv"),
                        default=None, dest="format",
                        help="output format (default: table)")
    report.add_argument("--json", action="store_true",
                        help="shorthand for --format json")


def _add_perf_parser(subparsers) -> None:
    perf = subparsers.add_parser(
        "perf", help="perf attribution reports and cross-run diffing")
    actions = perf.add_subparsers(dest="action")

    report = actions.add_parser(
        "report", help="render one attribution report")
    report.add_argument("source",
                        help="attribution report (e.g. "
                             "BENCH_profile.json), bundle.json, or a "
                             "results dir with one bundle")
    report.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    report.add_argument("--limit", type=int, default=12, metavar="N",
                        help="rows per table (0 = all; default 12)")

    diff = actions.add_parser(
        "diff", help="calibration-normalized delta of two perf sources")
    diff.add_argument("baseline", help="baseline perf source")
    diff.add_argument("current", help="current perf source")
    diff.add_argument("--threshold", type=float, default=0.15,
                      metavar="F",
                      help="guarded regression threshold "
                           "(default 0.15 = 15%%)")
    diff.add_argument("--json", action="store_true",
                      help="emit the diff as JSON")
    diff.add_argument("--no-gate", action="store_true",
                      help="exit 0 even when the gate found "
                           "regressions")


def _add_flowtrace_parser(subparsers) -> None:
    flowtrace = subparsers.add_parser(
        "flowtrace", help="per-chain hop-latency breakdown from "
                          "sampled path traces")
    flowtrace.add_argument("source",
                           help="bundle.json, flowtrace.jsonl, or a "
                                "results dir containing either")
    flowtrace.add_argument("--chain", default=None, metavar="NAME",
                           help="show a single chain")
    flowtrace.add_argument("--json", action="store_true",
                           help="emit the report as JSON")


def _cmd_flowtrace(args) -> int:
    import json
    from repro.telemetry.flowtrace import (FlowTraceError,
                                           load_flowtrace_report,
                                           render_flowtrace_report)
    try:
        report = load_flowtrace_report(args.source)
    except (FlowTraceError, OSError, ValueError) as exc:
        print("*** %s" % exc, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_flowtrace_report(report, chain=args.chain))
    return 0


def _cmd_scenario_run(args) -> int:
    from repro.scenario import CampaignRunner, render_report
    printer = (lambda _line: None) if args.quiet else print
    runner = CampaignRunner(args.spec, results_dir=args.results_dir,
                            printer=printer)
    runner.run(seeds=args.seeds)
    print(render_report(runner.bundles))
    for bundle in runner.bundles:
        if "events" in bundle:
            print("bundle: %s" % os.path.join(
                runner.run_dir(bundle["seed"]), "bundle.json"))
    problems = runner.gate()
    if problems:
        for problem in problems:
            print("GATE: %s" % problem, file=sys.stderr)
        if not args.no_gate:
            return 1
    return 0


def _cmd_scenario_list(args) -> int:
    from repro.scenario import CHAIN_TEMPLATES, TOPOLOGY_KINDS
    from repro.scenario.spec import SpecError, load_scenario
    paths = args.paths or ["examples/scenarios"]
    found = []
    for path in paths:
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if name.endswith((".yaml", ".yml", ".json")):
                    found.append(os.path.join(path, name))
        elif os.path.isfile(path):
            found.append(path)
    if found:
        print("scenarios:")
        for name in found:
            try:
                scenario = load_scenario(name)
                print("  %-40s %s topology, %.3gs, seeds %r"
                      % (name, scenario.topology.get("kind"),
                         scenario.duration, scenario.seeds))
            except (SpecError, OSError) as exc:
                print("  %-40s UNREADABLE: %s" % (name, exc))
    else:
        print("no scenario files under: %s" % ", ".join(paths))
    print("topology kinds:  %s" % ", ".join(sorted(TOPOLOGY_KINDS)))
    print("chain templates: %s" % ", ".join(sorted(CHAIN_TEMPLATES)))
    return 0


def _cmd_scenario_report(args) -> int:
    import json
    from repro.scenario import load_bundles, render_csv, render_report
    from repro.scenario.analyzer import AnalyzerError, report_dict
    fmt = args.format or ("json" if args.json else "table")
    try:
        bundles = load_bundles(args.paths)
    except AnalyzerError as exc:
        print("*** %s" % exc, file=sys.stderr)
        return 2
    if fmt == "json":
        print(json.dumps(report_dict(bundles), indent=2, sort_keys=True))
    elif fmt == "csv":
        print(render_csv(bundles))
    else:
        print(render_report(bundles))
    return 0


def _cmd_perf_report(args) -> int:
    import json
    from repro.telemetry.introspect import (IntrospectError, load_report,
                                            render_report)
    try:
        report = load_report(args.source)
    except IntrospectError as exc:
        print("*** %s" % exc, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report, limit=args.limit))
    return 0


def _cmd_perf_diff(args) -> int:
    import json
    from repro.telemetry.introspect import (IntrospectError, diff_reports,
                                            load_report, render_diff)
    try:
        baseline = load_report(args.baseline)
        current = load_report(args.current)
        diff = diff_reports(baseline, current, threshold=args.threshold)
    except IntrospectError as exc:
        print("*** %s" % exc, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(render_diff(diff))
    if diff["findings"] and not args.no_gate:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="escape",
        description="ESCAPE service-chain prototyping environment")
    subparsers = parser.add_subparsers(dest="command")
    _add_scenario_parser(subparsers)
    _add_perf_parser(subparsers)
    _add_flowtrace_parser(subparsers)
    args = parser.parse_args(argv)
    if args.command == "scenario":
        if args.action == "run":
            return _cmd_scenario_run(args)
        if args.action == "list":
            return _cmd_scenario_list(args)
        if args.action == "report":
            return _cmd_scenario_report(args)
        parser.parse_args(["scenario", "--help"])
        return 2
    if args.command == "perf":
        if args.action == "report":
            return _cmd_perf_report(args)
        if args.action == "diff":
            return _cmd_perf_diff(args)
        parser.parse_args(["perf", "--help"])
        return 2
    if args.command == "flowtrace":
        return _cmd_flowtrace(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
