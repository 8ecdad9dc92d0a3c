"""The software OpenFlow switch (Open vSwitch stand-in)."""

from typing import Callable, Dict, List, Optional

from repro.openflow.actions import Group, Output, apply_actions
from repro.openflow.channel import ControllerChannel
from repro.openflow.flowtable import (FlowEntry, FlowTable, GroupError,
                                      GroupTable)
from repro.openflow.match import flow_key
from repro.openflow import messages as msg
from repro.packet import Ethernet
from repro.packet.base import PacketError
from repro.sim import Simulator
from repro import telemetry

# OF 1.0 virtual port numbers.
OFPP_IN_PORT = 0xFFF8
OFPP_FLOOD = 0xFFFB
OFPP_ALL = 0xFFFC
OFPP_CONTROLLER = 0xFFFD
OFPP_LOCAL = 0xFFFE
OFPP_NONE = 0xFFFF


class SwitchPort:
    """A physical switch port.

    The emulator wires :attr:`transmit` to the attached link; incoming
    frames enter through :meth:`receive`.
    """

    def __init__(self, switch: "OpenFlowSwitch", port_no: int, name: str,
                 hw_addr: str):
        self.switch = switch
        self.port_no = port_no
        self.name = name
        self.hw_addr = hw_addr
        self.transmit: Optional[Callable[[bytes], None]] = None
        self.up = True
        self.rx_packets = 0
        self.tx_packets = 0
        self.rx_bytes = 0
        self.tx_bytes = 0
        self.tx_dropped = 0

    def receive(self, data: bytes) -> None:
        """Frame arriving from the attached link."""
        if not self.up:
            return
        self.rx_packets += 1
        self.rx_bytes += len(data)
        self.switch.process_packet(self.port_no, data)

    def send(self, data: bytes) -> None:
        if not self.up or self.transmit is None:
            self.tx_dropped += 1
            return
        self.tx_packets += 1
        self.tx_bytes += len(data)
        self.transmit(data)

    def description(self) -> msg.PortDescription:
        return msg.PortDescription(
            self.port_no, self.name, self.hw_addr,
            state=0 if self.up else msg.PortDescription.LINK_DOWN)

    def stats(self) -> msg.PortStats:
        return msg.PortStats(self.port_no, self.rx_packets, self.tx_packets,
                             self.rx_bytes, self.tx_bytes,
                             tx_dropped=self.tx_dropped)

    def __repr__(self) -> str:
        return "SwitchPort(%s:%d %s)" % (self.switch.name, self.port_no,
                                         self.name)


class OpenFlowSwitch:
    """An OF 1.0 datapath: ports + flow table + controller connection.

    Without a connected controller, table-miss packets are dropped
    (OVS's default secure mode).  ``miss_send_len`` bytes of a missed
    packet travel in the PacketIn; the rest waits in the buffer.
    """

    EXPIRY_INTERVAL = 0.5  # seconds between timeout sweeps
    MICROFLOW_CAP = 4096  # microflow cache entries before a reset

    def __init__(self, sim: Simulator, dpid: int, name: str = "",
                 n_buffers: int = 256, miss_send_len: int = 128):
        self.sim = sim
        self.dpid = dpid
        self.name = name or ("s%d" % dpid)
        self.ports: Dict[int, SwitchPort] = {}
        self.table = FlowTable(on_removed=self._flow_removed)
        self.groups = GroupTable()
        self.channel: Optional[ControllerChannel] = None
        self.n_buffers = n_buffers
        self.miss_send_len = miss_send_len
        self._buffers: Dict[int, tuple] = {}
        self._next_buffer = 1
        self._expiry_task = None
        # plain-int counters: this is the hot path, so telemetry pulls
        # them through a registry collector instead of per-event calls
        self.packet_in_count = 0
        self.flow_mod_count = 0
        self.group_mod_count = 0
        self.group_flip_count = 0
        self.forwarded_count = 0
        self.dropped_count = 0
        self.table_hit_count = 0
        self.table_miss_count = 0
        self.microflow_hit_count = 0
        # OVS-style microflow cache: one dict, two key kinds, both
        # filled on a flow-table lookup and mapping to (entry,
        # out_ports, wire, rewrite actions or None for output-only):
        #   (in_port, frame bytes): wire is the frame as sent, replayed
        #   (in_port, flow_key(frame)): wire is None; the frame itself
        #       is sent, or rewritten first
        # Valid because the lookup is a pure function of the header
        # fields and the flow table, and a keyed frame re-packs to
        # itself.  A table mutation (table.version), port liveness
        # change or GroupMod flushes it.
        self._microflow: Dict[tuple, tuple] = {}
        self._microflow_version = self.table.version

    # -- ports ----------------------------------------------------------------

    def add_port(self, port_no: int, name: str = "",
                 hw_addr: str = "") -> SwitchPort:
        if port_no in self.ports:
            raise ValueError("%s: port %d already exists"
                             % (self.name, port_no))
        if not hw_addr:
            hw_addr = "02:%02x:%02x:%02x:%02x:%02x" % (
                (self.dpid >> 24) & 0xFF, (self.dpid >> 16) & 0xFF,
                (self.dpid >> 8) & 0xFF, self.dpid & 0xFF, port_no & 0xFF)
        port = SwitchPort(self, port_no, name or "%s-eth%d"
                          % (self.name, port_no), hw_addr)
        self.ports[port_no] = port
        if self.channel is not None and self.channel.connected:
            self.channel.send_to_controller(
                msg.PortStatus(msg.PortStatus.REASON_ADD,
                               port.description()))
        return port

    def set_port_up(self, port_no: int, up: bool) -> None:
        """Flip a port's liveness — the dataplane half of link state.

        netem calls this from ``Link.set_up`` at the same simulated
        instant the link changes, so fast-failover groups watching the
        port re-steer locally with no controller round trip.  The
        controller still hears about it: a PortStatus(REASON_MODIFY)
        goes up the channel deterministically (no discovery lag).
        """
        port = self.ports.get(port_no)
        if port is None or port.up == up:
            return
        port.up = up
        # memoized rewrites may embed a group resolution through this
        # port — invalidate them all; steady-state forwarding re-caches
        self._microflow.clear()
        events = telemetry.of(self.sim).events
        note = events.info if up else events.warn
        note("openflow.switch", "of.port.up" if up else "of.port.down",
             "%s port %d (%s)" % (self.name, port_no, port.name),
             dpid=self.dpid, port=port_no, port_name=port.name)
        if self.channel is not None and self.channel.connected:
            self.channel.send_to_controller(
                msg.PortStatus(msg.PortStatus.REASON_MODIFY,
                               port.description()))

    # -- controller connection ------------------------------------------------

    def connect_controller(self, channel: ControllerChannel) -> None:
        """Attach the control channel and start the OF handshake."""
        self.channel = channel
        channel.set_switch_receiver(self._handle_controller_message)
        channel.connect()
        channel.send_to_controller(msg.Hello())
        self._arm_expiry()

    def disconnect_controller(self) -> None:
        if self.channel is not None:
            self.channel.disconnect()
            self.channel = None
        if self._expiry_task is not None:
            self._expiry_task.cancel()
            self._expiry_task = None

    def _arm_expiry(self) -> None:
        self._expiry_task = self.sim.schedule(self.EXPIRY_INTERVAL,
                                              self._expiry_sweep)

    def _expiry_sweep(self) -> None:
        self.table.expire(self.sim.now)
        self._arm_expiry()

    def _flow_removed(self, entry: FlowEntry, reason: int) -> None:
        if (entry.flags & msg.FlowMod.SEND_FLOW_REM
                and self.channel is not None):
            self.channel.send_to_controller(msg.FlowRemoved(
                entry.match, entry.cookie, entry.priority, reason,
                entry.duration(self.sim.now), entry.packet_count,
                entry.byte_count))

    # -- datapath -------------------------------------------------------------

    def process_packet(self, in_port: int, data: bytes) -> None:
        """Run one frame through the flow table."""
        observer = self.sim.observer
        if observer is not None:
            # postcarded ahead of the pipeline so microflow hits are
            # traced too — the conformance checker needs every switch a
            # sampled packet visits
            observer.postcard("switch", self.name, data, self.dpid)
        now = self.sim.now
        # expire() early-exits on a float compare until something can
        # actually time out; removals bump table.version which flushes
        # the microflow cache below.
        self.table.expire(now)
        cache = self._microflow
        if self._microflow_version != self.table.version:
            cache.clear()
            self._microflow_version = self.table.version
        cached = cache.get((in_port, data))
        if cached is None:
            key = flow_key(data)
            if key is not None:
                cached = cache.get((in_port, key))
        if cached is not None:
            entry, out_ports, wire, rewrite = cached
            self.table_hit_count += 1
            self.microflow_hit_count += 1
            entry.note_hit(len(data), now)
            if not out_ports:
                self.dropped_count += 1
                return
            if wire is None:  # served by the flow key
                wire = data if rewrite is None else self._rewrite(rewrite,
                                                                  data)
            for port_no in out_ports:
                self._output(port_no, wire, in_port)
            return
        if len(data) < Ethernet.MIN_LEN:
            # a runt has no Ethernet header to match on: a miss and a
            # drop, never a PacketIn
            self.table_miss_count += 1
            self.dropped_count += 1
            return
        entry = self.table.lookup(data, in_port, now)
        if entry is None:
            self.table_miss_count += 1
            self._table_miss(in_port, data)
            return
        self.table_hit_count += 1
        entry.note_hit(len(data), now)
        wire, out_ports, rewrite = self._execute(entry.actions, data,
                                                 in_port, key is not None)
        if len(cache) >= self.MICROFLOW_CAP:
            cache.clear()
        cache[(in_port, data)] = (entry, out_ports, wire, rewrite)
        if key is not None:
            cache[(in_port, key)] = (entry, out_ports, None, rewrite)

    def _execute(self, actions, data: bytes, in_port: Optional[int],
                 canonical: bool = False) -> tuple:
        """Apply ``actions`` to the frame; returns ``(wire, out_ports,
        rewrite)`` so table hits can memoize the outcome.

        ``wire`` is the frame as sent (None for a drop) and ``rewrite``
        the group-resolved action list when it does more than output
        (None otherwise).  A ``canonical`` frame is one
        :func:`flow_key` accepted: it re-packs to itself, so output-only
        actions send ``data`` as is, without a parse.
        """
        if self.groups.groups:
            # only switches with installed groups pay this scan, and
            # only on cache misses — hits replay the memoized resolution
            actions = self._resolve_groups(actions)
        out_ports = tuple(action.port for action in actions
                          if isinstance(action, Output))
        rewrite = None if len(out_ports) == len(actions) else actions
        if not out_ports:
            self.dropped_count += 1
            return None, (), rewrite
        if rewrite is None and canonical:
            wire = data
        else:
            try:
                wire = self._rewrite(actions, data)
            except PacketError:
                self.dropped_count += 1
                return None, (), rewrite
        for port_no in out_ports:
            self._output(port_no, wire, in_port)
        return wire, out_ports, rewrite

    @staticmethod
    def _rewrite(actions, data: bytes) -> bytes:
        """Parse the frame, apply the rewrite actions, pack it again."""
        return apply_actions(actions, Ethernet.unpack(data))[0].pack()

    def _resolve_groups(self, actions) -> list:
        """Expand Group actions into the live bucket's actions.

        FAST_FAILOVER semantics: first bucket whose watched port is up
        wins; with no live bucket (or an unknown group) the group
        contributes nothing, so the frame drops unless another action
        outputs it.  Bucket transitions are the dataplane failover —
        counted and logged so recovery can attribute the flip.
        """
        resolved = []
        for action in actions:
            if type(action) is not Group:
                resolved.append(action)
                continue
            entry = self.groups.get(action.group_id)
            if entry is None:
                continue
            selected = entry.select(self.ports)
            index = selected[0] if selected is not None else None
            if index != entry.current_bucket:
                self._note_group_flip(entry, index)
            if selected is not None:
                resolved.extend(selected[1].actions)
        return resolved

    def _note_group_flip(self, entry, index: Optional[int]) -> None:
        previous = entry.current_bucket
        entry.current_bucket = index
        if previous is None and index == 0:
            return  # first resolution landing on the primary bucket
        self.group_flip_count += 1
        bundle = telemetry.of(self.sim)
        bundle.metrics.counter(
            "openflow.group.flips",
            "fast-failover bucket transitions").inc()
        bundle.events.warn(
            "openflow.group", "of.group.flip",
            "%s group %d bucket %s -> %s" % (self.name, entry.group_id,
                                             previous, index),
            dpid=self.dpid, group=entry.group_id,
            from_bucket=previous if previous is not None else "",
            to_bucket=index if index is not None else "")

    def _output(self, port_no: int, data: bytes,
                in_port: Optional[int]) -> None:
        if port_no in (OFPP_FLOOD, OFPP_ALL):
            for number, port in self.ports.items():
                if port_no == OFPP_FLOOD and number == in_port:
                    continue
                port.send(data)
                self.forwarded_count += 1
            return
        if port_no == OFPP_IN_PORT:
            port_no = in_port if in_port is not None else OFPP_NONE
        if port_no == OFPP_CONTROLLER:
            self._send_packet_in(in_port or 0, data,
                                 msg.PacketIn.REASON_ACTION)
            return
        if port_no in (OFPP_NONE, OFPP_LOCAL):
            return
        port = self.ports.get(port_no)
        if port is None:
            self.dropped_count += 1
            return
        port.send(data)
        self.forwarded_count += 1

    def _table_miss(self, in_port: int, data: bytes) -> None:
        if self.channel is None or not self.channel.connected:
            self.dropped_count += 1
            return
        self._send_packet_in(in_port, data, msg.PacketIn.REASON_NO_MATCH)

    def _send_packet_in(self, in_port: int, data: bytes,
                        reason: int) -> None:
        buffer_id: Optional[int] = None
        payload = data
        if len(self._buffers) < self.n_buffers:
            buffer_id = self._next_buffer
            self._next_buffer += 1
            self._buffers[buffer_id] = (data, in_port)
            payload = data[: self.miss_send_len]
        self.packet_in_count += 1
        self.channel.send_to_controller(msg.PacketIn(
            buffer_id, in_port, payload, reason, total_len=len(data)))

    # -- controller message handling ------------------------------------------

    def _handle_controller_message(self, message: msg.Message) -> None:
        if isinstance(message, msg.Hello):
            return
        if isinstance(message, msg.EchoRequest):
            self.channel.send_to_controller(
                msg.EchoReply(message.data, xid=message.xid))
        elif isinstance(message, msg.FeaturesRequest):
            self.channel.send_to_controller(msg.FeaturesReply(
                self.dpid,
                [port.description() for port in self.ports.values()],
                n_buffers=self.n_buffers, xid=message.xid))
        elif isinstance(message, msg.FlowMod):
            self._handle_flow_mod(message)
        elif isinstance(message, msg.GroupMod):
            self._handle_group_mod(message)
        elif isinstance(message, msg.PacketOut):
            self._handle_packet_out(message)
        elif isinstance(message, msg.BarrierRequest):
            self.channel.send_to_controller(
                msg.BarrierReply(xid=message.xid))
        elif isinstance(message, msg.FlowStatsRequest):
            entries = self.table.stats(message.match, self.sim.now)
            self.channel.send_to_controller(msg.FlowStatsReply(
                [msg.FlowStats(entry.match, entry.priority, entry.cookie,
                               entry.duration(self.sim.now),
                               entry.packet_count, entry.byte_count,
                               entry.actions)
                 for entry in entries], xid=message.xid))
        elif isinstance(message, msg.PortStatsRequest):
            ports = (self.ports.values() if message.port_no is None
                     else [self.ports[message.port_no]]
                     if message.port_no in self.ports else [])
            self.channel.send_to_controller(msg.PortStatsReply(
                [port.stats() for port in ports], xid=message.xid))

    def _handle_flow_mod(self, flow_mod: msg.FlowMod) -> None:
        self.flow_mod_count += 1
        if flow_mod.command == msg.FlowMod.ADD:
            self.table.add(FlowEntry(
                flow_mod.match, flow_mod.actions, flow_mod.priority,
                flow_mod.idle_timeout, flow_mod.hard_timeout,
                flow_mod.cookie, flow_mod.flags, self.sim.now))
        elif flow_mod.command in (msg.FlowMod.MODIFY,
                                  msg.FlowMod.MODIFY_STRICT):
            strict = flow_mod.command == msg.FlowMod.MODIFY_STRICT
            updated = self.table.modify(flow_mod.match, flow_mod.actions,
                                        strict, flow_mod.priority)
            if not updated:
                self.table.add(FlowEntry(
                    flow_mod.match, flow_mod.actions, flow_mod.priority,
                    flow_mod.idle_timeout, flow_mod.hard_timeout,
                    flow_mod.cookie, flow_mod.flags, self.sim.now))
        elif flow_mod.command in (msg.FlowMod.DELETE,
                                  msg.FlowMod.DELETE_STRICT):
            strict = flow_mod.command == msg.FlowMod.DELETE_STRICT
            self.table.delete(flow_mod.match, strict, flow_mod.priority,
                              self.sim.now)
        # Release the buffered packet through the new actions, if asked.
        if flow_mod.buffer_id is not None:
            buffered = self._buffers.pop(flow_mod.buffer_id, None)
            if buffered is not None:
                data, in_port = buffered
                self._execute(flow_mod.actions, data, in_port)

    def _handle_group_mod(self, group_mod: msg.GroupMod) -> None:
        self.group_mod_count += 1
        try:
            if group_mod.command == msg.GroupMod.ADD:
                self.groups.add(group_mod.group_id,
                                group_mod.group_type, group_mod.buckets)
            elif group_mod.command == msg.GroupMod.MODIFY:
                self.groups.modify(group_mod.group_id,
                                   group_mod.group_type,
                                   group_mod.buckets)
            elif group_mod.command == msg.GroupMod.DELETE:
                self.groups.delete(group_mod.group_id)
            else:
                raise GroupError("bad group mod command %d"
                                 % group_mod.command)
        except GroupError as exc:
            if self.channel is not None and self.channel.connected:
                self.channel.send_to_controller(msg.ErrorMessage(
                    msg.ErrorMessage.TYPE_GROUP_MOD_FAILED, exc.code,
                    xid=group_mod.xid))
            return
        # cached resolutions may reference the touched group
        self._microflow.clear()

    def _handle_packet_out(self, packet_out: msg.PacketOut) -> None:
        if packet_out.buffer_id is not None:
            buffered = self._buffers.pop(packet_out.buffer_id, None)
            if buffered is None:
                return
            data, in_port = buffered
        else:
            data = packet_out.data
            in_port = packet_out.in_port
        self._execute(packet_out.actions, data, in_port)

    def __repr__(self) -> str:
        return "OpenFlowSwitch(%s, dpid=%d, %d ports, %d flows)" % (
            self.name, self.dpid, len(self.ports), len(self.table))
