"""Outside-in span tracer for the benchmark's traced run.

The tracer never touches the program's own instrumentation.  It
replaces a fixed set of public functions, one or more per layer, with
wrappers that record a span around each call.  Wrappers are installed
on the classes before any network is built, so every instance built
afterwards dispatches through them.

A span has a name, a start, an end, a parent span and a group id.  The
group is the benchmark phase the span ran in (one set-up, the control
phase, the traffic phase, ...), so every span of one deploy or one
traffic phase shares an id.  Per name the tracer keeps exact totals
(calls, wall time, self time); self time is a span's duration minus
the part of it that its child spans cover.  The raw span log is kept
in memory up to ``LOG_CAP`` spans and written out at the end with
:meth:`Tracer.write`; :func:`read_spans` loads it back.
"""

import json
import struct
import time
from array import array

#: layer of each traced span name (first dotted component, except the
#: unattributed callback bodies which get their own row)
SPAN_LAYERS = {
    "sim.run": "sim",
    "sim.step": "sim",
    "sim.callback": "callback",
    "netem.link.transmit": "netem",
    "packet.ethernet.unpack": "packet",
    "packet.ethernet.pack": "packet",
    "openflow.process_packet": "openflow",
    "openflow.flowtable.lookup": "openflow",
    "openflow.wire.pack": "openflow",
    "openflow.wire.unpack": "openflow",
    "click.push": "click",
    "click.router.build": "click",
    "pox.steering.install_path": "pox",
    "pox.steering.remove_path": "pox",
    "netconf.request": "netconf",
    "netconf.reply_wait": "netconf",
    "core.mapping.map": "core",
    "core.orchestrator.deploy": "core",
}

LAYERS = ("sim", "callback", "netem", "packet", "openflow", "click",
          "pox", "netconf", "core")

_MAGIC = b"PBSPANS1"
LOG_CAP = 1_000_000   # raw spans kept; aggregates stay exact beyond it


class Tracer:
    """Span recorder shared by every wrapper of one traced run."""

    def __init__(self):
        self.names = list(SPAN_LAYERS)
        self._ids = {name: index for index, name in enumerate(self.names)}
        self.groups = []          # group id -> label
        self.group = -1
        # per group: [calls, total seconds, self seconds], each a list
        # indexed by name id
        self.totals = []
        self._current = None
        self._stack = []          # open spans: [start, child seconds, id]
        self._next_id = 0
        # bounded raw log: span id, name id, parent id, group, start, end
        self.log_id = array("q")
        self.log_name = array("H")
        self.log_parent = array("q")
        self.log_group = array("i")
        self.log_start = array("d")
        self.log_end = array("d")
        self.dropped = 0
        self.begin_group("init")

    # -- groups ------------------------------------------------------------

    def begin_group(self, label):
        """Open a new group; spans started from now on carry its id.
        Only called between top-level calls, never inside a span."""
        if self._stack:
            raise RuntimeError("group switch inside an open span")
        self.groups.append(label)
        self.group = len(self.groups) - 1
        width = len(self.names)
        self._current = ([0] * width, [0.0] * width, [0.0] * width)
        self.totals.append(self._current)
        return self.group

    def aggregate(self, prefix=None):
        """Per-name ``(calls, total s, self s)`` summed over every group
        whose label starts with ``prefix`` (all groups when None)."""
        out = {}
        for label, (calls, total, self_s) in zip(self.groups, self.totals):
            if prefix is not None and not label.startswith(prefix):
                continue
            for nid, name in enumerate(self.names):
                entry = out.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls[nid]
                entry[1] += total[nid]
                entry[2] += self_s[nid]
        return out

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, func):
        """A function that runs ``func`` inside a span called ``name``."""
        nid = self._ids[name]
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            frame = [clock(), 0.0, tracer._next_id]
            tracer._next_id += 1
            parent = stack[-1][2] if stack else -1
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                calls, total, self_s = tracer._current
                calls[nid] += 1
                total[nid] += duration
                self_s[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                tracer._log(frame[2], nid, parent, frame[0], end)

        return traced

    def _log(self, span_id, nid, parent, start, end):
        if len(self.log_id) >= LOG_CAP:
            self.dropped += 1
            return
        self.log_id.append(span_id)
        self.log_name.append(nid)
        self.log_parent.append(parent)
        self.log_group.append(self.group)
        self.log_start.append(start)
        self.log_end.append(end)

    @property
    def spans(self):
        """Spans recorded (logged or not)."""
        return self._next_id

    # -- output ------------------------------------------------------------

    def write(self, path, meta=None):
        """Write the span log: a length-prefixed JSON header (names,
        group labels, counts, ``meta``) followed by the six columns."""
        header = json.dumps({
            "names": self.names, "groups": self.groups,
            "count": len(self.log_id), "dropped": self.dropped,
            "columns": ["id", "name", "parent", "group", "start", "end"],
            "meta": meta or {},
        }, sort_keys=True).encode()
        with open(path, "wb") as handle:
            handle.write(_MAGIC)
            handle.write(struct.pack("<I", len(header)))
            handle.write(header)
            for column in (self.log_id, self.log_name, self.log_parent,
                           self.log_group, self.log_start, self.log_end):
                column.tofile(handle)


def read_spans(path):
    """Load a span log written by :meth:`Tracer.write`; returns
    ``(header, columns)`` with columns keyed by name."""
    with open(path, "rb") as handle:
        if handle.read(len(_MAGIC)) != _MAGIC:
            raise ValueError("%s is not a span log" % path)
        (size,) = struct.unpack("<I", handle.read(4))
        header = json.loads(handle.read(size))
        count = header["count"]
        columns = {}
        for column, code in zip(header["columns"],
                                ("q", "H", "q", "i", "d", "d")):
            values = array(code)
            values.fromfile(handle, count)
            columns[column] = values
    return header, columns


def install(tracer):
    """Wrap each layer's public entry points.  Call before building
    any network: instances constructed later dispatch through the
    wrappers, and the run's coverage check catches any that do not."""
    from repro.click import elements  # noqa: F401  (registers classes)
    from repro.click.element import Element
    from repro.click.router import Router
    from repro.core.mapping import Mapper
    from repro.core.orchestrator import Orchestrator
    from repro.netconf.client import NetconfClient, PendingReply
    from repro.netem.link import Link
    from repro.openflow import wire
    from repro.openflow.flowtable import FlowTable
    from repro.openflow.switch import OpenFlowSwitch
    from repro.packet import Ethernet
    from repro.packet.base import Header
    from repro.pox.steering import TrafficSteering
    from repro.sim import Simulator

    wrap = tracer.wrap
    Simulator.run = wrap("sim.run", Simulator.run)
    Simulator.step = wrap("sim.step", Simulator.step)
    # every event callback runs inside a "sim.callback" span: the
    # scheduled callable becomes one shared trampoline, so counting
    # spans counts dispatched events
    dispatch = wrap("sim.callback", lambda callback, *args: callback(*args))
    schedule = Simulator.schedule

    def traced_schedule(sim, delay, callback, *args):
        return schedule(sim, delay, dispatch, callback, *args)

    Simulator.schedule = traced_schedule
    Link.transmit = wrap("netem.link.transmit", Link.transmit)
    Ethernet.unpack = classmethod(
        wrap("packet.ethernet.unpack", Ethernet.__dict__["unpack"].__func__))
    Ethernet.pack = wrap("packet.ethernet.pack", Header.pack)
    OpenFlowSwitch.process_packet = wrap("openflow.process_packet",
                                         OpenFlowSwitch.process_packet)
    FlowTable.lookup = wrap("openflow.flowtable.lookup", FlowTable.lookup)
    # the channel imports the codec per message, so module attributes
    # are the seam
    wire.pack_message = wrap("openflow.wire.pack", wire.pack_message)
    wire.unpack_message = wrap("openflow.wire.unpack", wire.unpack_message)
    for cls in _subclasses(Element):
        if "push" in cls.__dict__:
            cls.push = wrap("click.push", cls.__dict__["push"])
    Router.from_config = classmethod(
        wrap("click.router.build", Router.__dict__["from_config"].__func__))
    TrafficSteering.install_path = wrap("pox.steering.install_path",
                                        TrafficSteering.install_path)
    TrafficSteering.remove_path = wrap("pox.steering.remove_path",
                                       TrafficSteering.remove_path)
    NetconfClient.request = wrap("netconf.request", NetconfClient.request)
    PendingReply.result = wrap("netconf.reply_wait", PendingReply.result)
    for cls in [Mapper] + _subclasses(Mapper):
        if "map" in cls.__dict__:
            cls.map = wrap("core.mapping.map", cls.__dict__["map"])
    Orchestrator.deploy = wrap("core.orchestrator.deploy",
                               Orchestrator.deploy)


def _subclasses(cls):
    found = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found
