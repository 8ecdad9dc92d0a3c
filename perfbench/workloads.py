"""One benchmark workload in one process.

``run.py`` starts this file in a fresh interpreter per run::

    python3 perfbench/workloads.py --workload NAME --seed N \
        --seconds S [--trace] [--check-only]

and reads the JSON object it prints as its last line.  The workloads
(see README.md for why each was chosen):

* ``fattree_campaign`` -- k=4 fat-tree, four template chains, seeded
  diurnal subscriber flows with per-packet-unique payloads (open loop
  in simulated time).  Takes the switch miss path.
* ``chain_iperf`` -- two-switch demo substrate, a 3-VNF forwarder
  chain h1 -> h2, ``Host.start_udp_flow`` sending byte-identical
  minimum-size frames (the iperf stand-in).  The microflow cache
  serves almost every lookup.
* ``deploy_churn`` -- fat-tree with OpenFlow wire encoding; one
  closed-loop client deploys a 1-3-VNF chain, waits for its steering
  entries, terminates it, repeats; a low-rate background flow crosses
  a long-lived chain meanwhile.

A run sets up the live network, then measures for ``--seconds`` of
wall time in whole blocks of fixed simulated work: a traffic epoch
followed by closed-loop terminate/deploy cycles of the workload's own
chains (``deploy_churn``: churn cycles).  Extra set-ups of a second
network are spread over the phase; ``setup_s`` is the median of all
set-ups.  ``--check-only`` stops at the fingerprint point: the
simulated outputs after a fixed amount of work, which must be
identical in every process whatever its hash seed.
"""

import argparse
import functools
import gc
import json
import os
import random
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as span_tracer  # noqa: E402
from repro.scenario.workload import (WORKLOAD_PORT, _FLOW_HEADER,  # noqa: E402
                                     _FLOW_MAGIC, WorkloadDriver)

MIN_SETUPS = 10     # set-ups per run at least; setup_s is their median
MIN_DEPLOYS = 120   # timed deploys per run at least (p90 needs >= 100)
MAX_WAIT_SIM = 5.0  # simulated seconds a deploy/teardown may take
CLOCK = time.perf_counter
COUNTERS = ("processed", "table_hits", "table_misses", "microflow_hits",
            "packet_ins", "flow_mods", "link_drops")


class BenchError(Exception):
    pass


def _percentile(values, q):
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# -- steering-entry polling -------------------------------------------------

def chain_entries(escape, chain):
    """(dpid, match, priority) of every steering entry of ``chain``."""
    entries = []
    for path_id in chain.path_ids:
        for dpid, flow_mod in escape.steering.paths[path_id].flow_mods:
            entries.append((dpid, flow_mod.match, flow_mod.priority))
    return entries


def _present(datapaths, entry):
    dpid, match, priority = entry
    return any(flow.priority == priority and flow.match == match
               for flow in datapaths[dpid].table.entries)


def step_until(escape, datapaths, done):
    """Step the simulator until ``done()`` holds.  ``done`` is only
    re-evaluated after some switch processed a FlowMod."""
    sim = escape.sim
    deadline = sim.now + MAX_WAIT_SIM
    seen = None
    while True:
        mods = sum(dp.flow_mod_count for dp in datapaths.values())
        if mods != seen:
            if done():
                return
            seen = mods
        if sim.now > deadline or not sim.step():
            raise BenchError("steering entries did not settle by t=%.3f"
                             % sim.now)


def deploy_and_wait(escape, datapaths, sg):
    """Deploy ``sg`` and step until its entries are installed; returns
    (chain, entries, wall seconds)."""
    started = CLOCK()
    chain = escape.deploy_service(sg)
    entries = chain_entries(escape, chain)
    step_until(escape, datapaths,
               lambda: all(_present(datapaths, entry) for entry in entries))
    return chain, entries, CLOCK() - started


def terminate_and_wait(escape, datapaths, name, entries):
    """Terminate chain ``name`` and step until its entries are gone;
    returns wall seconds."""
    started = CLOCK()
    escape.terminate_service(name)
    step_until(escape, datapaths,
               lambda: not any(_present(datapaths, entry)
                               for entry in entries))
    return CLOCK() - started


# -- substrates and chains ----------------------------------------------------

def fat_tree():
    from repro.scenario.zoo import FatTreeTopo
    return FatTreeTopo(k=4, containers_per_pod=1, container_ports=4)


def linear_sg(name, src, dst, vnfs):
    """A linear chain src -> vnfs... -> dst; ``vnfs`` is a list of
    (vnf_type, params)."""
    names = ["%s-v%d" % (name, index) for index in range(len(vnfs))]
    spec = []
    for vnf_name, (vnf_type, params) in zip(names, vnfs):
        entry = {"name": vnf_name, "type": vnf_type}
        if params:
            entry["params"] = dict(params)
        spec.append(entry)
    return {"name": name, "saps": [src, dst], "vnfs": spec,
            "chain": [src] + names + [dst]}


# -- the workload driver ---------------------------------------------------------

class Workload:
    """Shared run structure; subclasses fill in the substrate, the
    chains and one epoch of traffic."""

    name = ""
    of_wire = False
    REDEPLOYS_PER_EPOCH = 1

    def __init__(self, seed, seconds, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.escape = None
        self.datapaths = {}
        self.chains = {}          # name -> (chain, entries)
        self.problems = []
        self.setup_s = []
        self.deploy_s = []
        self.teardown_s = []
        self.epoch_pps = []
        self.deploys_attempted = 0
        self.deploys_failed = 0
        self.packets_sent = 0
        self.packets_lost = 0
        self.packets_delivered = 0   # in the measured phase, for pps_wall
        self.measure_wall = 0.0      # wall seconds of that traffic
        self.run_wall = 0.0
        self.fingerprint = None
        # program counters of every network built in this process,
        # summed when a network is retired (coverage + drop checks)
        self.retired = dict.fromkeys(COUNTERS, 0)
        # counter deltas over the measured traffic only
        self.window = dict.fromkeys(COUNTERS, 0)

    # -- hooks -------------------------------------------------------------

    def topology(self):
        raise NotImplementedError

    def initial_chains(self):
        """Service graphs deployed during set-up."""
        raise NotImplementedError

    def after_setup(self):
        """Untimed preparation between set-up and the measured phase."""

    def epoch(self, index):
        """One epoch of traffic, timed into ``measure_wall``; returns
        its simulated outputs."""
        raise NotImplementedError

    # -- shared machinery ----------------------------------------------------

    def group(self, label):
        if self.tracer is not None:
            self.tracer.begin_group(label)

    def counters(self):
        """Program counters of the live network."""
        dps = list(self.datapaths.values())
        return {
            "processed": self.escape.sim.processed,
            "table_hits": sum(dp.table_hit_count for dp in dps),
            "table_misses": sum(dp.table_miss_count for dp in dps),
            "microflow_hits": sum(dp.microflow_hit_count for dp in dps),
            "packet_ins": sum(dp.packet_in_count for dp in dps),
            "flow_mods": sum(dp.flow_mod_count for dp in dps),
            "link_drops": sum(link.dropped for link in self.escape.net.links),
        }

    def count_window(self, before):
        for key, value in self.counters().items():
            self.window[key] += value - before[key]

    def snapshot(self, outputs):
        """The fingerprint: simulated outputs at a fixed point."""
        return {"outputs": outputs,
                "sim_events": self.escape.sim.processed,
                "sim_now": self.escape.sim.now,
                "switches": {
                    switch.name: [switch.datapath.table_hit_count,
                                  switch.datapath.table_miss_count,
                                  switch.datapath.microflow_hit_count,
                                  switch.datapath.packet_in_count,
                                  switch.datapath.flow_mod_count]
                    for switch in self.escape.net.switches()}}

    def deploy(self, sg, timed=True):
        from repro.core.sgfile import load_service_graph
        self.deploys_attempted += 1
        try:
            chain, entries, wall = deploy_and_wait(
                self.escape, self.datapaths, load_service_graph(sg))
        except Exception as exc:  # a failed deploy is a result
            self.deploys_failed += 1
            self.problems.append("deploy %s failed: %s: %s"
                                 % (sg["name"], type(exc).__name__, exc))
            return None
        self.chains[sg["name"]] = (chain, entries)
        if timed:
            self.deploy_s.append(wall)
        return chain

    def terminate(self, name, timed=True):
        if name not in self.chains:
            return  # its deploy failed, already counted
        _chain, entries = self.chains.pop(name)
        wall = terminate_and_wait(self.escape, self.datapaths, name,
                                  entries)
        if timed:
            self.teardown_s.append(wall)

    def set_up(self):
        from repro.core import ESCAPE
        started = CLOCK()
        self.escape = ESCAPE.from_topology(self.topology(),
                                           of_wire=self.of_wire)
        self.escape.start()
        self.datapaths = {switch.dpid: switch.datapath
                          for switch in self.escape.net.switches()}
        self.chains = {}
        for sg in self.initial_chains():
            self.deploy(sg, timed=False)
        self.setup_s.append(CLOCK() - started)

    def retire(self):
        """Stop the live network and fold its counters into the run's."""
        self.escape.stop()
        for key, value in self.counters().items():
            self.retired[key] += value
        self.escape = None
        self.datapaths = {}
        self.chains = {}

    def extra_setup(self, label):
        """Set up a second network, time it, and stop it again; the
        live network is untouched.  Spread over the measured phase, so
        ``setup_s`` samples the same stretch of host time as the other
        metrics."""
        from repro.telemetry import set_current
        live = (self.escape, self.datapaths, self.chains)
        self.group("setup:%s" % label)
        self.set_up()
        self.group("teardown:%s" % label)
        self.retire()
        self.escape, self.datapaths, self.chains = live
        # ESCAPE() made the extra network's telemetry current; hand it
        # back to the live one for components built from now on
        set_current(self.escape.telemetry)
        gc.collect()

    def done(self, started):
        return (CLOCK() - started >= self.seconds
                and len(self.deploy_s) >= MIN_DEPLOYS
                and len(self.setup_s) >= MIN_SETUPS)

    def measure(self, check_only):
        """Traffic epochs, each followed by ``REDEPLOYS_PER_EPOCH``
        closed-loop terminate/deploy cycles of the workload's own
        chains, so both kinds of sample spread over the whole run.
        Each later epoch is preceded by one extra set-up.  Ends after
        ``seconds`` of wall time, ``MIN_DEPLOYS`` deploys and
        ``MIN_SETUPS`` set-ups; the fingerprint is taken after the
        first epoch and its cycles."""
        sgs = self.initial_chains()
        started = CLOCK()
        index = cycle = 0
        while True:
            if index:
                self.extra_setup(index)
            self.group("traffic:%d" % index)
            before = self.counters()
            outputs = self.epoch(index)
            self.count_window(before)
            self.group("redeploy:%d" % index)
            for _ in range(self.REDEPLOYS_PER_EPOCH):
                sg = sgs[cycle % len(sgs)]
                cycle += 1
                self.terminate(sg["name"])
                self.deploy(sg)
            if index == 0:
                self.fingerprint = self.snapshot(outputs)
                if check_only:
                    return
            index += 1
            if self.done(started):
                return

    def run(self, check_only=False):
        started = CLOCK()
        self.group("setup:live")
        self.set_up()
        self.group("prepare")
        self.after_setup()
        gc.collect()
        self.measure(check_only)
        self.group("teardown:final")
        self.retire()
        self.run_wall = CLOCK() - started


class FatTreeCampaign(Workload):
    """Diurnal subscriber flows over four template chains."""

    name = "fattree_campaign"
    TEMPLATES = ["web", "bump", "secure", "shaped"]
    REDEPLOYS_PER_EPOCH = 5
    EPOCH_SIM = 1.0     # simulated seconds of arrivals per epoch
    GRACE_SIM = 0.05    # drain window after each epoch
    WORKLOAD = {"subscribers_per_sap": 100, "flows_per_subscriber": 0.05,
                "flow_rate_pps": 200, "flow_duration": 0.3,
                "payload_size": 200, "max_flows": 100000,
                "diurnal": {"period": EPOCH_SIM, "trough": 0.4}}

    # The chain layout (host pairs, hence path lengths and placements)
    # is part of the workload, drawn once with this seed: the layout
    # of fattree_baseline.yaml seed 1.  ``--seed`` drives the flows.
    # Seeded layouts moved pps_wall by about 20% between seeds.
    LAYOUT_SEED = 1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from repro.scenario.workload import build_chain_requests
        self.requests = build_chain_requests(
            fat_tree(), {"count": len(self.TEMPLATES),
                         "templates": self.TEMPLATES},
            None, random.Random(self.LAYOUT_SEED))

    def topology(self):
        return fat_tree()

    def initial_chains(self):
        return [request["sg"] for request in self.requests]

    def epoch(self, index):
        from repro.scenario.workload import (Workload as Load,
                                             WorkloadSchedule, build_flows)
        flows = build_flows(self.requests, Load.from_dict(self.WORKLOAD),
                            self.EPOCH_SIM,
                            random.Random(self.seed * 1000003 + index))
        escape = self.escape
        for flow in flows:
            flow["start"] += escape.sim.now
        schedule = WorkloadSchedule(self.seed, self.requests, flows, {})
        started = CLOCK()
        driver = SinkCheckingDriver(escape.net, schedule).arm()
        escape.run(self.EPOCH_SIM)
        escape.run(self.GRACE_SIM)
        driver.disarm()
        wall = CLOCK() - started
        results = driver.results()
        sent, received = results["packets_sent"], results["packets_received"]
        self.measure_wall += wall
        self.epoch_pps.append(received / wall)
        self.packets_sent += sent
        self.packets_delivered += received
        self.packets_lost += sent - received
        if received != sent:
            self.problems.append("epoch %d: %d of %d packets delivered"
                                 % (index, received, sent))
        if driver.misdelivered:
            self.problems.append("epoch %d: %d packets reached the wrong "
                                 "sink" % (index, driver.misdelivered))
        return {key: results[key] for key in (
            "packets_sent", "packets_received", "delay_p50", "delay_p99",
            "flows_completed")}


class SinkCheckingDriver(WorkloadDriver):
    """A WorkloadDriver that also checks each datagram (magic and flow
    id) reached the sink its flow was addressed to."""

    def arm(self):
        super().arm()
        self.misdelivered = 0
        self._owner = {flow["id"]: flow["dst"]
                       for flow in self.schedule.flows}
        for sink in self._bound:
            sink.bind_udp(WORKLOAD_PORT,
                          functools.partial(self._receive_at, sink.name))
        return self

    def _receive_at(self, sink_name, srcip, srcport, payload):
        if len(payload) >= _FLOW_HEADER.size:
            magic, flow_id, _sent = _FLOW_HEADER.unpack_from(payload)
            if magic == _FLOW_MAGIC and self._owner.get(flow_id) != sink_name:
                self.misdelivered += 1
                return
        self._receive(srcip, srcport, payload)


class UdpSink:
    """Counts datagrams on one port of one host that carry the expected
    source address and payload; anything else is counted as wrong."""

    def __init__(self, host, port, srcip, payload):
        self.good = 0
        self.wrong = 0
        self.last_at = None       # simulated time of the last good one
        self._sim = host.sim
        self._srcip = srcip
        self._payload = payload
        host.bind_udp(port, self._receive)

    def _receive(self, srcip, _srcport, payload):
        if srcip == self._srcip and payload == self._payload:
            self.good += 1
            self.last_at = self._sim.now
        else:
            self.wrong += 1


class ChainIperf(Workload):
    """Constant-rate byte-identical minimum-size UDP through a 3-VNF
    forwarder chain on the demo substrate."""

    name = "chain_iperf"
    REDEPLOYS_PER_EPOCH = 2
    PORT = 5001
    PAYLOAD = 18        # 14 + 20 + 8 + 18 = 60-byte frames, the minimum
    RATE_PPS = 10000    # simulated packets per second
    EPOCH_PACKETS = 5000
    WARMUP_PACKETS = 200
    GRACE_SIM = 0.05

    def topology(self):
        from benchmarks.helpers import demo_topology
        return demo_topology(containers=2, container_ports=6)

    def initial_chains(self):
        return [linear_sg("iperf", "h1", "h2", [("forwarder", {})] * 3)]

    def after_setup(self):
        net = self.escape.net
        self.h1, self.h2 = net.get("h1"), net.get("h2")
        self.sink = UdpSink(self.h2, self.PORT, self.h1.ip,
                            b"\x00" * self.PAYLOAD)

    def flow(self, packets):
        """Send ``packets`` datagrams and drain; returns delivered."""
        before = self.sink.good
        report = self.h1.start_udp_flow(
            self.h2.ip, self.PORT, rate_pps=self.RATE_PPS,
            duration=packets / self.RATE_PPS, payload_size=self.PAYLOAD)
        self.escape.run(packets / self.RATE_PPS + self.GRACE_SIM)
        delivered = self.sink.good - before
        if report.sent != packets or delivered != packets or \
                self.sink.wrong:
            self.problems.append("flow: sent %d, delivered %d of %d, "
                                 "%d unexpected" % (report.sent, delivered,
                                                    packets,
                                                    self.sink.wrong))
        return delivered

    def steered_entries(self):
        """The flow entries of the chain's forward segments."""
        chain, _entries = self.chains["iperf"]
        flows = []
        for path_id in chain.path_ids:
            if path_id in chain.return_path_ids:
                continue
            for dpid, flow_mod in \
                    self.escape.steering.paths[path_id].flow_mods:
                flows.extend(
                    flow for flow in self.datapaths[dpid].table.entries
                    if flow.priority == flow_mod.priority
                    and flow.match == flow_mod.match)
        return flows

    def epoch(self, index):
        # warm-up, untimed: the chain was (re)deployed since the last
        # epoch, so caches start cold
        self.flow(self.WARMUP_PACKETS)
        steered = self.steered_entries()
        counted = [flow.packet_count for flow in steered]
        started = CLOCK()
        delivered = self.flow(self.EPOCH_PACKETS)
        wall = CLOCK() - started
        self.measure_wall += wall
        self.epoch_pps.append(delivered / wall)
        self.packets_sent += self.EPOCH_PACKETS
        self.packets_lost += self.EPOCH_PACKETS - delivered
        self.packets_delivered += delivered
        # steered by the chain, not by l2_learning: every forward
        # steering entry of the chain counted every packet
        passed = [flow.packet_count - before
                  for flow, before in zip(steered, counted)]
        if not passed or any(count != self.EPOCH_PACKETS
                             for count in passed):
            self.problems.append("epoch %d: chain entries matched %s of "
                                 "%d packets" % (index, passed,
                                                 self.EPOCH_PACKETS))
        return {"delivered": delivered, "last_arrival": self.sink.last_at}


class DeployChurn(Workload):
    """Closed-loop deploy/terminate of 1-3-VNF chains on the fat-tree
    with OpenFlow wire encoding, under a low-rate background flow."""

    name = "deploy_churn"
    of_wire = True
    VNF_TYPES = [("forwarder", {}), ("firewall", {"rules": "allow all"}),
                 ("dpi", {"signatures": "X-BENCH-EVIL"})]
    BG_PORT = 47100
    BG_RATE_PPS = 500
    BG_PAYLOAD = 200
    WARMUP_CYCLES = 3
    FINGERPRINT_CYCLES = 20
    SETUP_EVERY = 40    # cycles between extra set-ups
    GRACE_SIM = 0.1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        rng = random.Random(self.seed)
        hosts = fat_tree().hosts()
        self.bg_src, self.bg_dst = rng.sample(hosts, 2)
        # churn chains never reuse the background pair in either
        # direction: per-pair steering flowspecs would collide
        self.pairs = [(a, b) for a in hosts for b in hosts
                      if a != b and {a, b} != {self.bg_src, self.bg_dst}]
        self.rng = random.Random(self.seed * 7919 + 1)

    def topology(self):
        return fat_tree()

    def initial_chains(self):
        return [linear_sg("background", self.bg_src, self.bg_dst,
                          [("forwarder", {})])]

    def after_setup(self):
        net = self.escape.net
        src, dst = net.get(self.bg_src), net.get(self.bg_dst)
        self.sink = UdpSink(dst, self.BG_PORT, src.ip,
                            b"\x00" * self.BG_PAYLOAD)
        # runs far longer than any churn phase; checked at its end
        self.report = src.start_udp_flow(
            dst.ip, self.BG_PORT, rate_pps=self.BG_RATE_PPS,
            duration=1e6, payload_size=self.BG_PAYLOAD)
        self.escape.run(0.02)

    def cycle(self, index, timed):
        src, dst = self.pairs[self.rng.randrange(len(self.pairs))]
        vnfs = [self.VNF_TYPES[self.rng.randrange(len(self.VNF_TYPES))]
                for _ in range(self.rng.randint(1, 3))]
        name = "churn%d" % index
        self.deploy(linear_sg(name, src, dst, vnfs), timed=timed)
        self.terminate(name, timed=timed)

    def measure(self, check_only):
        for index in range(self.WARMUP_CYCLES):
            self.group("churn-warmup:%d" % index)
            self.cycle(index, timed=False)
        gc.collect()
        before = self.counters()
        delivered_before = self.sink.good
        started = CLOCK()
        index = self.WARMUP_CYCLES
        while True:
            if index > self.FINGERPRINT_CYCLES and \
                    index % self.SETUP_EVERY == 0:
                self.extra_setup(index)
            self.group("churn:%d" % index)
            self.cycle(index, timed=True)
            index += 1
            if index == self.FINGERPRINT_CYCLES:
                self.fingerprint = self.snapshot(
                    {"background_delivered": self.sink.good,
                     "background_sent": self.report.sent,
                     "background_last_arrival": self.sink.last_at})
                if check_only:
                    return
            if index > self.FINGERPRINT_CYCLES and self.done(started):
                break
        self.measure_wall = CLOCK() - started
        self.packets_delivered = self.sink.good - delivered_before
        self.count_window(before)
        # the background flow lost nothing across the churn: every
        # datagram sent before the churn ended arrives within the grace
        self.packets_sent = self.report.sent
        self.group("drain")
        self.escape.run(self.GRACE_SIM)
        self.packets_lost = max(0, self.packets_sent - self.sink.good)
        if self.packets_lost or self.sink.wrong:
            self.problems.append(
                "background flow: %d sent by the end of the churn, %d "
                "delivered, %d wrong" % (self.packets_sent, self.sink.good,
                                         self.sink.wrong))


WORKLOADS = {cls.name: cls for cls in (FatTreeCampaign, ChainIperf,
                                       DeployChurn)}


# -- reporting -----------------------------------------------------------------

def end_to_end(bench):
    deploy_ms = [1e3 * value for value in bench.deploy_s]
    teardown_ms = [1e3 * value for value in bench.teardown_s]
    return {
        "setup_s": statistics.median(bench.setup_s),
        "pps_wall": (bench.packets_delivered / bench.measure_wall
                     if bench.measure_wall else 0.0),
        "deploy_ms_mean": statistics.fmean(deploy_ms) if deploy_ms else 0.0,
        "deploy_ms_p90": _percentile(deploy_ms, 90) if deploy_ms else 0.0,
        "teardown_ms_mean": (statistics.fmean(teardown_ms)
                             if teardown_ms else 0.0),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(bench, tracer, totals):
    """Per-layer metrics of a traced run.  Counts and per-call times
    cover the whole run; ``*_per_pkt`` and the microflow hit ratio
    cover the measured phase only."""
    whole = tracer.aggregate()
    measured_prefix = ("churn:" if bench.name == "deploy_churn"
                       else "traffic:")
    measured = tracer.aggregate(measured_prefix)

    def calls(name):
        return whole[name][0]

    def self_us(name):
        count, _total, self_s = whole[name]
        return 1e6 * self_s / count if count else 0.0

    events = calls("sim.callback")
    packets = bench.packets_delivered
    deploys = bench.deploys_attempted
    window = bench.window
    lookups = window["table_hits"] + window["table_misses"]
    wait_calls, wait_total, wait_self = whole["netconf.reply_wait"]
    layer_self = dict.fromkeys(span_tracer.LAYERS, 0.0)
    for name, (_count, _total, self_s) in whole.items():
        layer_self[span_tracer.SPAN_LAYERS[name]] += self_s
    sim_self = whole["sim.run"][2] + whole["sim.step"][2]
    metrics = {
        "sim.events": events,
        "sim.events_per_pkt": (measured["sim.callback"][0] / packets
                               if packets else 0.0),
        "sim.dispatch_self_us": 1e6 * sim_self / events if events else 0.0,
        "sim.callback.self_us": self_us("sim.callback"),
        "netem.link.transmit.calls": calls("netem.link.transmit"),
        "netem.link.transmit.self_us": self_us("netem.link.transmit"),
        "netem.link.drops": totals["link_drops"],
        "packet.ethernet.unpack.calls": calls("packet.ethernet.unpack"),
        "packet.ethernet.unpack.self_us": self_us("packet.ethernet.unpack"),
        "packet.ethernet.pack.calls": calls("packet.ethernet.pack"),
        "packet.ethernet.pack.self_us": self_us("packet.ethernet.pack"),
        "packet.unpack_per_pkt": (
            measured["packet.ethernet.unpack"][0] / packets
            if packets else 0.0),
        "openflow.process_packet.calls": calls("openflow.process_packet"),
        "openflow.process_packet.self_us":
            self_us("openflow.process_packet"),
        "openflow.microflow_hit_ratio": (window["microflow_hits"] / lookups
                                         if lookups else 0.0),
        "openflow.packet_in": totals["packet_ins"],
        "openflow.flowtable.lookup.calls": calls("openflow.flowtable.lookup"),
        "openflow.flowtable.lookup.self_us":
            self_us("openflow.flowtable.lookup"),
        "openflow.flow_mods": totals["flow_mods"],
        "openflow.wire.pack.calls": calls("openflow.wire.pack"),
        "openflow.wire.pack.self_us": self_us("openflow.wire.pack"),
        "openflow.wire.unpack.self_us": self_us("openflow.wire.unpack"),
        "click.push.calls": calls("click.push"),
        "click.push.self_us": self_us("click.push"),
        "click.router.build.calls": calls("click.router.build"),
        "click.router.build.self_us": self_us("click.router.build"),
        "pox.steering.install_path.calls":
            calls("pox.steering.install_path"),
        "pox.steering.install_path.self_us":
            self_us("pox.steering.install_path"),
        "pox.steering.remove_path.self_us":
            self_us("pox.steering.remove_path"),
        "netconf.request.calls": calls("netconf.request"),
        "netconf.request.self_us": self_us("netconf.request"),
        "netconf.reply_wait_us": (1e6 * (wait_total - wait_self) / wait_calls
                                  if wait_calls else 0.0),
        "netconf.requests_per_deploy": (calls("netconf.request") / deploys
                                        if deploys else 0.0),
        "core.mapping.map.calls": calls("core.mapping.map"),
        "core.mapping.map.self_us": self_us("core.mapping.map"),
        "core.mapping.maps_per_deploy": (calls("core.mapping.map") / deploys
                                         if deploys else 0.0),
        "core.orchestrator.deploy.self_us":
            self_us("core.orchestrator.deploy"),
        "trace.spans": tracer.spans,
    }
    for layer, seconds in layer_self.items():
        metrics["%s.self_share" % layer] = seconds / bench.run_wall
    return metrics


def coverage_problems(tracer, totals):
    """Each wrapper's call count must equal a counter the program keeps
    itself; a wrapper bypassed by an early-bound handle fails here."""
    whole = tracer.aggregate()
    problems = []
    checks = [("openflow.process_packet",
               totals["table_hits"] + totals["table_misses"],
               "table hits + misses"),
              ("sim.callback", totals["processed"], "Simulator.processed")]
    for name, expected, what in checks:
        if whole[name][0] != expected:
            problems.append("coverage: %d %s spans vs %d %s"
                            % (whole[name][0], name, expected, what))
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the span log here")
    parser.add_argument("--check-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = span_tracer.Tracer()
        span_tracer.install(tracer)
    bench = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    bench.run(check_only=args.check_only)
    totals = bench.retired
    if totals["link_drops"]:
        bench.problems.append("%d frames dropped on links"
                              % totals["link_drops"])
    if bench.fingerprint is None:
        bench.problems.append("run ended before its fingerprint point")
    result = {
        "workload": bench.name, "seed": args.seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "fingerprint": bench.fingerprint,
        "problems": bench.problems,
    }
    if not args.check_only:
        if tracer is not None:
            bench.problems.extend(coverage_problems(tracer, totals))
            result["layers"] = per_layer(bench, tracer, totals)
            if args.spans:
                tracer.write(args.spans, meta={
                    "workload": bench.name, "seed": args.seed,
                    "hash_seed": result["hash_seed"]})
        result.update({
            "metrics": end_to_end(bench),
            "attempted": bench.packets_sent + bench.deploys_attempted,
            "failed": bench.packets_lost + bench.deploys_failed,
            "samples": {"setups": len(bench.setup_s),
                        "deploys": len(bench.deploy_s),
                        "teardowns": len(bench.teardown_s),
                        "packets": bench.packets_delivered,
                        "epochs": len(bench.epoch_pps)},
            "series": {"setup_s": bench.setup_s,
                       "epoch_pps": bench.epoch_pps,
                       "deploy_s": bench.deploy_s,
                       "teardown_s": bench.teardown_s},
        })
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
