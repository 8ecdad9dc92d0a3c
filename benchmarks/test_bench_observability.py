"""OBS — overhead of the observability stack.

Three questions, answered in wall-clock terms:

* how much does emitting a structured event cost (the price every
  instrumented layer pays),
* what does an attached flight-recorder tap add to the dataplane,
* and — the guardrails — does the dataplane stay fast once an
  instrument is off again?  Every dataplane site pays one ``is None``
  check on its network's observer slot while nothing observes; the
  recorder, profiler, accounting and flowtrace guards time the
  workload after on/off cycles of their instrument and fail if it
  regressed (10% for taps, 5% for the rest) against an identical
  framework that never ran the instrument, timed interleaved.
"""

import time

import pytest

from benchmarks.helpers import attach_telemetry, chain_sg, started_escape
from repro.telemetry import EventLog, Telemetry, Tracer


# -- event log ---------------------------------------------------------------

def test_event_emit(benchmark):
    log = EventLog(capacity=4096)

    def emit():
        log.info("bench.source", "bench.event", "message", key="value")
    benchmark(emit)
    assert log.emitted > 0


def test_event_emit_with_open_span(benchmark):
    """Emission inside a span also stamps the trace id."""
    tracer = Tracer()
    log = EventLog(tracer=tracer)
    with tracer.span("bench.op"):
        benchmark(lambda: log.info("bench.source", "bench.event"))
    assert log.events()[-1].trace_id is not None


def test_event_emit_suppressed(benchmark):
    """Below-threshold events should be near-free."""
    log = EventLog(min_severity="ERROR")
    benchmark(lambda: log.debug("bench.source", "bench.event"))
    assert len(log) == 0


def test_event_query_warn_of_mixed_log(benchmark):
    log = EventLog(capacity=8192)
    for index in range(4000):
        (log.warn if index % 10 == 0 else log.debug)(
            "layer.comp%d" % (index % 7), "name%d" % (index % 13))
    result = benchmark(lambda: log.query(min_severity="WARN"))
    assert len(result) == 400


# -- dataplane tap overhead ---------------------------------------------------

def _udp_workload(escape, packets=300):
    """Drive a burst of UDP through the deployed chain, return the
    host-process wall-clock seconds the simulation took."""
    h1, h2 = escape.net.get("h1"), escape.net.get("h2")
    before = h2.udp_rx_count
    h1.start_udp_flow(h2.ip, 5001, rate_pps=1000,
                      duration=packets / 1000.0, payload_size=200)
    started = time.perf_counter()
    escape.run(packets / 1000.0 + 0.5)
    elapsed = time.perf_counter() - started
    assert h2.udp_rx_count - before == packets
    return elapsed


def _forwarding_escape():
    escape = started_escape(containers=2, container_ports=4)
    escape.deploy_service(chain_sg(1, name="obs-chain"))
    return escape


def _assert_no_regression(cycle, bound, label):
    """The disabled-path A/B guard: once ``cycle(escape)`` has switched
    an instrument on and off again, the dataplane must cost what it
    costs on a framework that never ran the instrument.

    Each attempt builds two identical frameworks: a control that never
    sees the instrument and a treated one that goes through five
    cycles.  The workload is timed on the control before each cycle
    and on the treated framework after it, interleaved so clock drift
    hits both populations equally, and min-of-5 is compared.  (Timing
    one framework before and after its own cycles would miss a
    slowdown the first cycle leaves behind: it leaks into every later
    baseline.)  A load burst on a shared box can still skew one whole
    pass, so fail only when the regression reproduces on all three
    attempts — a real slowdown does, a scheduling artifact does not."""
    for _ in range(3):
        control, treated = _forwarding_escape(), _forwarding_escape()
        _udp_workload(control)  # warm-up
        _udp_workload(treated)
        before, after = [], []
        for _ in range(5):
            before.append(_udp_workload(control))
            cycle(treated)
            after.append(_udp_workload(treated))
        baseline, retimed = min(before), min(after)
        if retimed <= baseline * (1.0 + bound):
            return
    raise AssertionError("%s dataplane regressed: %.4fs vs %.4fs baseline"
                         % (label, retimed, baseline))


@pytest.fixture(scope="module")
def forwarding_escape():
    return _forwarding_escape()


def test_tap_attached_dataplane(benchmark, forwarding_escape):
    """Dataplane cost with every chain link tapped (ring appends)."""
    escape = forwarding_escape
    chain = escape.service_layer.services["obs-chain"]
    taps = escape.recorder.attach_chain(chain)
    try:
        benchmark.pedantic(lambda: _udp_workload(escape),
                           rounds=3, iterations=1)
        assert sum(tap.matched for tap in taps) > 0
    finally:
        escape.recorder.detach_all()
    attach_telemetry(benchmark, escape)


def test_untapped_dataplane_no_regression():
    """The 10% guardrail: after taps come and go, the no-tap path must
    cost what it costs on a never-tapped framework."""
    def cycle(escape):
        assert all(not link.taps for link in escape.net.links)
        escape.recorder.attach_chain(
            escape.service_layer.services["obs-chain"])
        _udp_workload(escape)
        escape.recorder.detach_all()
        assert all(not link.taps for link in escape.net.links)
    _assert_no_regression(cycle, 0.10, "untapped")


# -- profiler overhead --------------------------------------------------------

def test_profiler_disabled_region_cost(benchmark):
    """The disabled hot-path check: one ``is None`` test of the
    network's observer slot, no object."""
    from repro.sim import Simulator
    from repro.telemetry import NULL_REGION, Telemetry
    sim = Simulator()
    profiler = Telemetry(sim).profiler

    def disabled_path():
        observer = sim.observer  # the pattern every dataplane site uses
        if observer is not None:
            with observer.profiler.profile("bench.region.hot"):
                pass
    benchmark(disabled_path)
    assert profiler.profile("bench.region.hot") is NULL_REGION


def test_profiler_enabled_region_cost(benchmark):
    """Full enter/exit bookkeeping of one enabled region."""
    from repro.telemetry import Profiler
    profiler = Profiler().enable()

    def enabled_path():
        with profiler.profile("bench.region.hot"):
            pass
    benchmark(enabled_path)
    assert profiler.region("bench.region.hot").calls > 0
    assert profiler.overhead > 0.0


def test_profiler_enabled_captures_all_layers(forwarding_escape):
    """With the profiler on, one workload burst attributes time to the
    dataplane regions of every layer it crosses — and accounts for its
    own bookkeeping cost."""
    escape = forwarding_escape
    profiler = escape.profiler
    profiler.enable()
    try:
        _udp_workload(escape)
    finally:
        profiler.disable()
    for region in ("sim.event.dispatch", "netem.link.transmit",
                   "click.element.push"):
        stat = profiler.region(region)
        assert stat is not None and stat.calls > 0, region
    dispatch = profiler.region("sim.event.dispatch")
    assert dispatch.cum >= dispatch.self_time > 0.0
    assert profiler.overhead > 0.0
    assert profiler.collapsed()
    profiler.reset()


def test_unprofiled_dataplane_no_regression():
    """The <5% guardrail: after the profiler has been on and off
    again, the no-profile dataplane must cost what it costs on a
    never-profiled framework."""
    def cycle(escape):
        profiler = escape.profiler
        profiler.enable()
        _udp_workload(escape)
        profiler.disable()
        profiler.reset()
    _assert_no_regression(cycle, 0.05, "unprofiled")


# -- flowtrace (sampled path tracing) overhead --------------------------------

def test_flowtrace_disabled_record_cost(benchmark):
    """The disabled hot-path check: one ``is None`` test of the
    network's observer slot per postcard site, same as the profiler."""
    from repro.sim import Simulator
    from repro.telemetry import Telemetry
    sim = Simulator()
    flowtrace = Telemetry(sim).flowtrace
    data = bytes(range(200))

    def disabled_path():
        observer = sim.observer  # the pattern every dataplane site uses
        if observer is not None:
            observer.postcard("switch", "s1", data, 1)
    benchmark(disabled_path)
    assert flowtrace.postcards == 0


def test_flowtrace_enabled_record_cost(benchmark):
    """The enabled cost of one postcard site: a seeded CRC over the
    frame tail plus, for sampled packets, one list append."""
    from repro.telemetry import FlowTrace
    flowtrace = FlowTrace().enable(rate=64)
    data = bytes(range(200))
    benchmark(lambda: flowtrace.record("switch", "s1", 0.0, data,
                                       dpid=1))


def test_flowtrace_disabled_no_regression():
    """With sampling off again, the instrumented dataplane must cost
    what it costs on a framework that never sampled.  The *site* cost
    is pinned by ``test_flowtrace_disabled_record_cost`` (tens of ns —
    well under 1% of per-packet dataplane cost); this end-to-end A/B
    gates at the same 5% machine-noise budget as the profiler and
    accounting guards."""
    def cycle(escape):
        flowtrace = escape.flowtrace
        flowtrace.enable(rate=1, seed=1)
        _udp_workload(escape)
        assert flowtrace.postcards > 0
        flowtrace.disable()
        flowtrace.reset()
    _assert_no_regression(cycle, 0.05, "flowtrace-disabled")


def test_flowtrace_enabled_dataplane(benchmark, forwarding_escape):
    """Dataplane cost with 1/64 sampling live on every hop."""
    escape = forwarding_escape
    flowtrace = escape.flowtrace
    flowtrace.enable(rate=64, seed=1)
    try:
        benchmark.pedantic(lambda: _udp_workload(escape),
                           rounds=3, iterations=1)
    finally:
        flowtrace.disable()
        flowtrace.reset()
    attach_telemetry(benchmark, escape)


# -- dispatch accounting overhead ---------------------------------------------

def test_accounting_disabled_dispatch_cost(benchmark):
    """The disabled hot path: one attribute read per dispatched event,
    same budget as the disabled profiler."""
    from repro.sim import Simulator
    sim = Simulator()
    assert not sim.accounting.enabled

    def dispatch_event():
        sim.schedule(0.0, lambda: None)
        sim.step()
    benchmark(dispatch_event)
    assert sim.accounting.dispatched == 0


def test_accounting_enabled_dispatch_cost(benchmark):
    """Full per-event bookkeeping: kind lookup, lag, self-time."""
    from repro.sim import Simulator
    sim = Simulator()
    sim.accounting.enable()

    def dispatch_event():
        sim.schedule(0.0, lambda: None)
        sim.step()
    benchmark(dispatch_event)
    assert sim.accounting.dispatched > 0
    assert sim.accounting.kind_stats()


def test_unaccounted_dataplane_no_regression():
    """The <5% guardrail extended to dispatch accounting: after it has
    been on and off again, the unaccounted dataplane must cost what it
    costs on a never-accounted framework."""
    def cycle(escape):
        accounting = escape.accounting
        accounting.enable()
        _udp_workload(escape)
        accounting.disable()
        accounting.reset()
    _assert_no_regression(cycle, 0.05, "unaccounted")


def test_attribution_reconciles_with_profiler(forwarding_escape):
    """Dispatch accounting and the profiler's sim.event.dispatch region
    are stamped from one clock pair per event, so over one flat workload
    burst (no nested step() pumping) the per-kind self-times sum to the
    region's inclusive time exactly and both count the same events."""
    from repro.telemetry.introspect import build_report
    escape = forwarding_escape
    profiler = escape.profiler
    accounting = escape.accounting
    profiler.reset()
    profiler.enable()
    accounting.reset()
    accounting.enable()
    try:
        _udp_workload(escape)
    finally:
        profiler.disable()
        accounting.disable()
    report = build_report(profiler, accounting)
    dispatch = report["regions"]["sim.event.dispatch"]
    assert report["dispatch"]["dispatched"] == dispatch["calls"]
    assert report["dispatch"]["self_seconds"] == pytest.approx(
        dispatch["cum_s"], rel=1e-9)
    profiler.reset()
    accounting.reset()


def test_series_sampling_sweep(benchmark):
    """One registry.sample() sweep over a realistically sized registry
    (the recurring cost the series sampler pays 4x per sim second)."""
    from repro.telemetry import MetricsRegistry
    ticks = {"now": 0.0}
    registry = MetricsRegistry(clock=lambda: ticks["now"])
    for index in range(100):
        registry.counter("bench.c%d.value" % index).inc(index)

    def sweep():
        ticks["now"] += 1.0
        registry.sample()
    benchmark(sweep)
    assert registry.sample_count > 0
    assert registry.sample_seconds > 0.0


def test_sla_monitor_overhead(benchmark):
    """A probing SLA monitor on an idle chain: the cost of demo step 5
    running continuously."""
    escape = started_escape(containers=2, container_ports=4)
    sg = chain_sg(1, name="sla-bench")
    sg.add_requirement("h1", "h2", max_delay=0.5)
    escape.deploy_service(sg)
    monitor = escape.sla_monitors["sla-bench"]

    def probe_second():
        rounds_before = monitor.rounds
        escape.run(1.0)
        assert monitor.rounds > rounds_before
    benchmark.pedantic(probe_second, rounds=3, iterations=1)
    assert monitor.state == "OK"
    attach_telemetry(benchmark, escape)


def test_snapshot_with_events(benchmark):
    """Serializing a busy bundle (metrics + traces + events)."""
    telemetry = Telemetry()
    for index in range(200):
        telemetry.metrics.counter("bench.c%d.value" % index).inc()
        telemetry.events.info("bench.src", "e%d" % index)
    snapshot = benchmark(telemetry.snapshot)
    assert len(snapshot["events"]) == 200
