"""One instrumentation slot per network: the dataplane observer.

Dataplane sites (link transmit/deliver, the switch pipeline, Click
push/pull, queue residency, device splices) read their simulator's
``sim.observer`` once per frame.  The slot is ``None`` while the
profiler, flowtrace and recorder taps are all off, so the disabled path
is one ``is None`` check; otherwise it holds the network's
:class:`Observer`.  Nothing binds at construction: toggles re-evaluate
the slot through :meth:`Observer.refresh`, and two frameworks in one
process never share a slot because each has its own simulator.
"""

from typing import Optional

from repro.telemetry.flowtrace import FlowTrace
from repro.telemetry.profiler import Profiler


class Observer:
    """Routes one network's dataplane hooks to its profiler, flowtrace
    and recorder taps.  Owned by a simulator-bound ``Telemetry`` bundle,
    or by a bare network's ``FlightRecorder`` (taps only)."""

    def __init__(self, sim, profiler: Optional[Profiler] = None,
                 flowtrace: Optional[FlowTrace] = None):
        self.sim = sim
        # an empty FlowTrace is falsy (__len__): test for None
        self.profiler = Profiler() if profiler is None else profiler
        self.flowtrace = FlowTrace() if flowtrace is None else flowtrace
        self.profiler.observer = self
        self.flowtrace.observer = self
        self.taps = 0  # recorder taps attached on this network
        sim.observer_owner = self

    @staticmethod
    def of(sim) -> "Observer":
        """The observer owning ``sim``'s slot, so every recorder on a
        network counts its taps in one place; a bare network (no
        simulator-bound bundle) gets a taps-only one."""
        return sim.observer_owner or Observer(sim)

    def refresh(self) -> None:
        """Install the slot while anything observes, clear it after."""
        active = (self.taps or self.profiler.enabled
                  or self.flowtrace.enabled)
        self.sim.observer = self if active else None

    # -- dataplane hooks (called only while the slot is installed) --------

    def link_transmit(self, link, intf, data: bytes) -> None:
        now = self.sim.now
        for tap in link.taps:
            tap.observe(now, link, "tx", intf, data)
        profiler = self.profiler
        if profiler.enabled:
            with profiler.profile("netem.link.transmit"):
                sent = link._transmit(intf, data)
        else:
            sent = link._transmit(intf, data)
        if sent and self.flowtrace.enabled:
            self.flowtrace.record("link.tx", link.name, now, data)

    def link_deliver(self, link, intf, data: bytes) -> None:
        now = self.sim.now
        for tap in link.taps:
            tap.observe(now, link, "rx", intf, data)
        if self.flowtrace.enabled:
            self.flowtrace.record("link.rx", link.name, now, data)

    def postcard(self, kind: str, hop: str, data: bytes,
                 dpid: Optional[int] = None) -> None:
        if self.flowtrace.enabled:
            self.flowtrace.record(kind, hop, self.sim.now, data, dpid)

    def push(self, peer, packet) -> None:
        profiler = self.profiler
        if profiler.enabled:
            with profiler.profile("click.element.push"):
                peer.element.push(peer.index, packet)
        else:
            peer.element.push(peer.index, packet)

    def pull(self, peer):
        profiler = self.profiler
        if profiler.enabled:
            with profiler.profile("click.element.pull"):
                return peer.element.pull(peer.index)
        return peer.element.pull(peer.index)
