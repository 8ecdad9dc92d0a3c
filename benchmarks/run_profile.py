"""Profiled demo-chain workload -> attribution report.

The perf gate's workload: builds the standard benchmark substrate,
deploys a one-VNF chain, pushes a fixed UDP burst through it with
the profiler and dispatch accounting enabled, and writes an
attribution report (:func:`repro.telemetry.introspect.build_report`):
per-region timings and per-event-kind dispatch times normalized by a
machine-speed calibration unit, plus throughput numbers.  The numbers
are taken with the profiler on, so they are for attribution, not
throughput; ``perfbench/`` measures the uninstrumented end-to-end
figures.

Usage::

    python benchmarks/run_profile.py --out attribution.json
    python -m repro perf diff BENCH_profile.json attribution.json

``escape perf diff`` is the CI perf gate against the committed
``BENCH_profile.json`` baseline (itself an attribution report): it
exits 1 when a guarded region's score grew or a throughput number
dropped by more than 15%.  ``udp_pps_wall`` is a *guarded* throughput
floor: the gate fails both when it drops below the bound and when the
current report stops carrying it at all.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

from benchmarks.helpers import chain_sg, demo_topology  # noqa: E402
from repro.core import ESCAPE  # noqa: E402
from repro.telemetry.introspect import (build_report, calibrate,
                                        render_report)  # noqa: E402

PACKETS = 500
RATE_PPS = 1000
ROUNDS = 3


def _burst(escape):
    """One fixed UDP burst through the chain; returns (wall seconds,
    packets delivered)."""
    h1, h2 = escape.net.get("h1"), escape.net.get("h2")
    before = h2.udp_rx_count
    h1.start_udp_flow(h2.ip, 5001, rate_pps=RATE_PPS,
                      duration=PACKETS / RATE_PPS, payload_size=200)
    started = time.perf_counter()
    escape.run(PACKETS / RATE_PPS + 0.5)
    elapsed = time.perf_counter() - started
    delivered = h2.udp_rx_count - before
    if delivered != PACKETS:
        raise RuntimeError("workload lost packets: %d/%d delivered"
                           % (delivered, PACKETS))
    return elapsed, delivered


def run_workload(rounds=ROUNDS):
    """The standard profiled workload; returns (profiler, dispatch
    report, throughput, packets).

    OpenFlow wire serialization is on and the profiler is enabled
    across deploy/terminate cycles, so the report covers the
    control-path regions (mapping, NETCONF encode/decode, steering,
    OF wire) as well as the per-packet dataplane ones.  Each round is
    profiled in isolation and every region keeps its *best* (lowest
    per-call) round — the min-of-N de-noising the timing guards in
    ``test_bench_observability.py`` also use, without which scheduler
    jitter on a busy machine dwarfs real 15% regressions.
    """
    escape = ESCAPE.from_topology(
        demo_topology(containers=2, container_ports=4), of_wire=True)
    escape.start()
    _burst(escape)  # warm-up, unprofiled (plain L2 forwarding)
    profiler = escape.profiler
    accounting = escape.accounting
    best_stats = {}
    best_wall = None
    best_dispatch = None
    packets = 0
    sequence = 0
    for _ in range(rounds):
        profiler.reset()
        profiler.enable()
        accounting.reset()
        accounting.enable()
        # control-path exercise: repeated deploy/terminate cycles
        for _ in range(2):
            name = "ctl-%d" % sequence
            sequence += 1
            escape.deploy_service(chain_sg(1, name=name))
            escape.run(0.05)
            escape.terminate_service(name)
        name = "chain-%d" % sequence
        sequence += 1
        escape.deploy_service(chain_sg(1, name=name))
        elapsed, delivered = _burst(escape)
        profiler.disable()
        accounting.disable()
        escape.terminate_service(name)
        packets += delivered
        if best_wall is None or elapsed < best_wall:
            best_wall = elapsed
            best_dispatch = accounting.report()
        for region, stat in profiler.stats.items():
            kept = best_stats.get(region)
            if kept is None or stat.per_call < kept.per_call:
                best_stats[region] = stat
    profiler.stats = dict(best_stats)
    escape.stop()
    throughput = {
        "udp_pps_wall": PACKETS / best_wall,
        "sim_ratio": (PACKETS / RATE_PPS + 0.5) / best_wall,
    }
    return profiler, best_dispatch, throughput, packets


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="profiled demo-chain run for the perf gate")
    parser.add_argument("--out", metavar="PATH",
                        help="write the attribution report here")
    parser.add_argument("--rounds", type=int, default=ROUNDS,
                        help="workload repetitions (default %d)" % ROUNDS)
    args = parser.parse_args(argv)

    # best-of-several calibration: the unit divides every score, so
    # its own jitter would masquerade as uniform regressions
    calibration = min(calibrate() for _ in range(3))
    profiler, dispatch, throughput, packets = run_workload(
        rounds=args.rounds)
    meta = {"workload": "demo-chain udp burst",
            "packets_per_round": PACKETS, "rounds": args.rounds,
            "python": "%d.%d" % sys.version_info[:2]}
    report = build_report(
        profiler, accounting=dispatch, throughput=throughput,
        calibration=calibration, meta=meta)

    print("profiled %d packets over %d round(s), calibration %.6fs"
          % (packets, args.rounds, calibration))
    print(render_report(report, limit=0))

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
