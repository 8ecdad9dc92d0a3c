"""Shaped point-to-point links (Mininet's TCLink equivalent).

Each direction models: serialization at ``bandwidth`` bits/s, a
transmit queue bounded by ``max_queue`` packets, fixed propagation
``delay``, and Bernoulli ``loss``.  The RNG is seeded from the link name
so packet-loss experiments replay identically.
"""

import random
import zlib
from typing import Optional

from repro import telemetry
from repro.netem.interface import Interface
from repro.sim import Simulator


class _Direction:
    """Shaping state for one direction of the link."""

    __slots__ = ("busy_until", "queued_packets")

    def __init__(self):
        self.busy_until = 0.0
        self.queued_packets = 0


class Link:
    """Bidirectional link between two interfaces.

    ``bandwidth`` is in bits/second (None = infinite), ``delay`` in
    seconds, ``loss`` a probability in [0, 1], ``max_queue`` in packets
    (applies only when bandwidth is finite, like a real tx queue).
    """

    def __init__(self, sim: Simulator, intf1: Interface, intf2: Interface,
                 bandwidth: Optional[float] = None, delay: float = 0.0,
                 loss: float = 0.0, max_queue: int = 1000,
                 jitter: float = 0.0, name: str = ""):
        if loss < 0.0 or loss > 1.0:
            raise ValueError("loss must be in [0,1], got %r" % loss)
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError("bandwidth must be positive, got %r" % bandwidth)
        if delay < 0:
            raise ValueError("delay must be non-negative, got %r" % delay)
        if jitter < 0:
            raise ValueError("jitter must be non-negative, got %r" % jitter)
        self.sim = sim
        self.intf1 = intf1
        self.intf2 = intf2
        self.bandwidth = bandwidth
        self.delay = delay
        # uniform extra delay in [0, jitter] per frame; like netem's
        # jitter this can reorder back-to-back frames
        self.jitter = jitter
        self.loss = loss
        self.max_queue = max_queue
        self.name = name or "%s<->%s" % (intf1.name, intf2.name)
        self.up = True
        # Flight-recorder taps (see repro.netem.recorder), fed by the
        # network's observer while any tap is attached
        self.taps = []
        self._rng = random.Random(zlib.crc32(self.name.encode()))
        self._dir1 = _Direction()  # intf1 -> intf2
        self._dir2 = _Direction()  # intf2 -> intf1
        # (direction, target) resolved once per orientation — the
        # per-frame transmit path avoids re-deriving the far end
        self._fwd = (self._dir1, intf2)
        self._rev = (self._dir2, intf1)
        # per-cause drop counters: chaos scenarios assert on *why*
        # frames died, not just how many
        self.dropped_down = 0
        self.dropped_loss = 0
        self.dropped_queue = 0
        self.delivered = 0
        self.delivered_bytes = 0
        intf1.link = self
        intf2.link = self

    @property
    def dropped(self) -> int:
        """Total drops across all causes (down + loss + queue-full)."""
        return self.dropped_down + self.dropped_loss + self.dropped_queue

    def other_end(self, intf: Interface) -> Interface:
        if intf is self.intf1:
            return self.intf2
        if intf is self.intf2:
            return self.intf1
        raise ValueError("interface %r not on link %r" % (intf.name,
                                                          self.name))

    def set_up(self, up: bool) -> None:
        if up == self.up:
            return
        self.up = up
        events = telemetry.of(self.sim).events
        if up:
            events.info("netem.link", "link.up", self.name,
                        link=self.name)
        else:
            events.warn("netem.link", "link.down", self.name,
                        link=self.name)
        # Propagate carrier state into attached OpenFlow datapaths at
        # the same simulated instant: fast-failover groups watching the
        # port flip locally, and the switch raises a deterministic
        # PortStatus toward the controller (no discovery lag).
        for intf in (self.intf1, self.intf2):
            node = getattr(intf, "node", None)
            datapath = getattr(node, "datapath", None)
            if datapath is None:
                continue
            try:
                port_no = node.port_number(intf)
            except KeyError:
                continue
            datapath.set_port_up(port_no, up)

    def flap(self, down_for: float) -> None:
        """Take the link down now and bring it back ``down_for``
        simulated seconds later."""
        if down_for <= 0:
            raise ValueError("down_for must be positive, got %r"
                             % down_for)
        self.set_up(False)
        self.sim.schedule(down_for, self.set_up, True)

    def set_degradation(self, loss: Optional[float] = None,
                        delay: Optional[float] = None,
                        jitter: Optional[float] = None) -> None:
        """Change the link's shaping in place (netem-style fault
        injection); emits a ``link.degraded`` event with the new
        values so recovery/monitoring can correlate."""
        if loss is not None:
            if loss < 0.0 or loss > 1.0:
                raise ValueError("loss must be in [0,1], got %r" % loss)
            self.loss = loss
        if delay is not None:
            if delay < 0:
                raise ValueError("delay must be non-negative, got %r"
                                 % delay)
            self.delay = delay
        if jitter is not None:
            if jitter < 0:
                raise ValueError("jitter must be non-negative, got %r"
                                 % jitter)
            self.jitter = jitter
        telemetry.of(self.sim).events.warn(
            "netem.link", "link.degraded", self.name, link=self.name,
            loss=self.loss, delay=self.delay, jitter=self.jitter)

    def transmit(self, from_intf: Interface, data: bytes) -> None:
        """Queue a frame for delivery to the other end."""
        observer = self.sim.observer
        if observer is None:
            self._transmit(from_intf, data)
        else:
            observer.link_transmit(self, from_intf, data)

    def _transmit(self, from_intf: Interface, data: bytes) -> bool:
        """Shape and schedule one frame; False when it was dropped."""
        if not self.up:
            self.dropped_down += 1
            return False
        if self.loss > 0 and self._rng.random() < self.loss:
            self.dropped_loss += 1
            return False
        direction, target = (self._fwd if from_intf is self.intf1
                             else self._rev)
        now = self.sim.now
        if self.bandwidth is None:
            depart = now
        else:
            if direction.queued_packets >= self.max_queue:
                self.dropped_queue += 1
                return False
            serialization = len(data) * 8.0 / self.bandwidth
            depart = max(now, direction.busy_until) + serialization
            direction.busy_until = depart
            direction.queued_packets += 1
        extra = self._rng.uniform(0.0, self.jitter) if self.jitter else 0.0
        self.sim.schedule(depart - now + self.delay + extra,
                          self._deliver, direction, target, data)
        return True

    def _deliver(self, direction: _Direction, target: Interface,
                 data: bytes) -> None:
        if self.bandwidth is not None:
            direction.queued_packets -= 1
        if not self.up:
            self.dropped_down += 1
            return
        self.delivered += 1
        self.delivered_bytes += len(data)
        observer = self.sim.observer
        if observer is not None:
            observer.link_deliver(self, target, data)
        target.deliver(data)

    def __repr__(self) -> str:
        bw = ("%.0fbit/s" % self.bandwidth) if self.bandwidth else "inf"
        return "Link(%s, bw=%s, delay=%.6fs, loss=%.3f)" % (
            self.name, bw, self.delay, self.loss)
