"""repro.telemetry — unified metrics, tracing & events across the
UNIFY layers.

One :class:`Telemetry` bundle groups a :class:`MetricsRegistry`, a
:class:`Tracer` and an :class:`EventLog`, all reading the same clock.
The ESCAPE facade creates a bundle bound to its simulator
(``Simulator.now``; the bundle records itself as ``sim.telemetry``)
and makes it *current*; control-plane components grab handles at
construction time via :func:`current`, dataplane sites read their
simulator's :class:`Observer` slot, and call-time event emitters
(link, container and switch state changes) write to :func:`of` their
simulator.

Metric names follow ``layer.component.name`` — e.g.
``netconf.client.rpc_latency`` or ``core.mapping.placement_attempts``
— so one snapshot shows all three layers side by side.  Events use
``layer.component`` sources and are stamped with the id of whatever
span is open at emit time, joining the three signal kinds together.
"""

from typing import Callable, Optional

from repro.telemetry.events import (DEBUG, ERROR, INFO, SEVERITIES, WARN,
                                    Event, EventError, EventLog)
from repro.telemetry.export import (snapshot_dict, to_json, to_prometheus,
                                    writable_path, write_snapshot)
from repro.telemetry.flowtrace import (FlowTrace, FlowTraceError,
                                       load_flowtrace_report,
                                       render_flowtrace_report,
                                       report_from_jsonl)
from repro.telemetry.introspect import (IntrospectError, build_report,
                                        diff_reports, load_report,
                                        report_from_bundle)
from repro.telemetry.metrics import (Counter, Gauge, Histogram, Metric,
                                     MetricError, MetricsRegistry, Series)
from repro.telemetry.observer import Observer
from repro.telemetry.profiler import NULL_REGION, Profiler, RegionStat
from repro.telemetry.trace import Span, Tracer

__all__ = [
    "Counter", "DEBUG", "ERROR", "Event", "EventError", "EventLog",
    "FlowTrace", "FlowTraceError", "Gauge", "Histogram", "INFO",
    "IntrospectError", "Metric", "MetricError", "MetricsRegistry",
    "NULL_REGION", "Observer", "Profiler", "RegionStat", "SEVERITIES",
    "Series", "Span", "Telemetry", "Tracer", "WARN", "build_report",
    "current", "diff_reports", "load_flowtrace_report", "load_report",
    "of", "render_flowtrace_report", "report_from_bundle",
    "report_from_jsonl", "set_current", "snapshot_dict", "to_json",
    "to_prometheus", "writable_path", "write_snapshot",
]


class Telemetry:
    """A metrics registry, a tracer, an event log and a profiler —
    the first three sharing one (simulated) clock, the profiler on
    host wall-clock (it measures the framework, not the simulation)."""

    def __init__(self, sim=None, max_traces: int = 16,
                 event_capacity: int = 4096, series_capacity: int = 512):
        self.sim = sim
        if sim is not None:
            sim.telemetry = self
        clock: Optional[Callable[[], float]] = (
            (lambda: sim.now) if sim is not None else None)
        self.metrics = MetricsRegistry(clock=clock,
                                       series_capacity=series_capacity)
        self.tracer = Tracer(clock=clock, max_traces=max_traces)
        self.events = EventLog(clock=clock, capacity=event_capacity,
                               tracer=self.tracer)
        self.profiler = Profiler()
        self.flowtrace = FlowTrace(events=self.events)
        self.observer = (Observer(sim, self.profiler, self.flowtrace)
                         if sim is not None else None)
        self.metrics.add_collector(self._collect_event_counts)
        self.metrics.add_collector(self._collect_self_overhead)
        self.metrics.add_collector(self._collect_flowtrace)

    def _collect_event_counts(self, registry: MetricsRegistry) -> None:
        for severity, count in self.events.counts().items():
            registry.gauge("telemetry.events.emitted",
                           "events emitted by severity",
                           labels={"severity": severity.lower()}
                           ).set(count)

    def _collect_self_overhead(self, registry: MetricsRegistry) -> None:
        """Telemetry self-overhead as first-class metrics: the cost of
        observing is part of what is observed."""
        registry.gauge("telemetry.profiler.enabled",
                       "1 while the profiler records regions").set(
            1.0 if self.profiler.enabled else 0.0)
        registry.gauge("telemetry.profiler.entries",
                       "region entries recorded by the profiler").set(
            self.profiler.entries)
        registry.gauge("telemetry.profiler.regions",
                       "distinct profile regions recorded").set(
            len(self.profiler.stats))
        registry.gauge("telemetry.profiler.overhead_seconds",
                       "host seconds spent on profiler bookkeeping").set(
            self.profiler.overhead)
        registry.gauge("telemetry.metrics.collect_seconds",
                       "host seconds spent running snapshot collectors"
                       ).set(registry.collect_seconds)
        registry.gauge("telemetry.metrics.sample_seconds",
                       "host seconds spent recording series samples").set(
            registry.sample_seconds)
        registry.gauge("telemetry.metrics.samples",
                       "series sampling sweeps taken").set(
            registry.sample_count)

    def _collect_flowtrace(self, registry: MetricsRegistry) -> None:
        flowtrace = self.flowtrace
        registry.gauge("telemetry.flowtrace.enabled",
                       "1 while postcard sampling is on").set(
            1.0 if flowtrace.enabled else 0.0)
        registry.gauge("telemetry.flowtrace.traces",
                       "sampled packets currently collected").set(
            len(flowtrace))
        registry.gauge("telemetry.flowtrace.postcards",
                       "per-hop postcards recorded").set(
            flowtrace.postcards)
        registry.gauge("telemetry.flowtrace.evicted",
                       "sampled packets evicted from the bounded "
                       "collector").set(flowtrace.evicted)

    def snapshot(self):
        return snapshot_dict(self.metrics, self.tracer, self.events)

    def __repr__(self) -> str:
        return "Telemetry(%d metrics, %d traces, %d events)" % (
            len(self.metrics), len(self.tracer.traces),
            len(self.events))


# The current bundle.  Components constructed outside an ESCAPE facade
# (unit tests, standalone simulations) share this default instance.
_current = Telemetry()


def current() -> Telemetry:
    """The telemetry bundle new components should bind to."""
    return _current


def of(sim) -> Telemetry:
    """The bundle bound to ``sim``; :func:`current` for a bare
    simulator (no ``Telemetry(sim)``), as in unit-test networks."""
    return sim.telemetry or _current


def set_current(telemetry: Telemetry) -> Telemetry:
    """Install ``telemetry`` as current; returns it for chaining."""
    global _current
    _current = telemetry
    return telemetry
