"""Tests for the switch's header-keyed datapath.

The switch caches flow-table lookups under two key kinds: the exact
frame bytes and a header-only flow key (:func:`flow_key`).  Frames
served by the flow key are forwarded as the original bytes when the
entry only outputs, and parsed/rewritten/packed when it rewrites.
These tests pin that down against the full parse: the key never merges
two different concrete matches, the output bytes equal those of the
full parse/apply/pack path, the emulator's own frames re-pack to
themselves, and every table, port and group change flushes the cache.
"""

import random
import struct
from collections import defaultdict

import pytest

from repro.core import ESCAPE
from repro.core.sgfile import load_topology
from repro.openflow import (FlowEntry, FlowMod, FlowTable, Group,
                            GroupBucket, GroupMod, Match, OpenFlowSwitch,
                            Output, PacketIn, SetTpDst, SetTpSrc, SetVlan,
                            StripVlan)
from repro.openflow.actions import apply_actions
from repro.openflow.match import flow_key
from repro.packet import (ARP, ICMP, LLDP, TCP, UDP, Ethernet, IPv4, Vlan,
                          parse_probe)
from repro.packet.base import checksum
from repro.sim import Simulator
from tests.test_integration_vlan_steering import TOPOLOGY
from tests.test_openflow_switch import HarnessedSwitch

MAC_A = "00:00:00:00:00:01"
MAC_B = "00:00:00:00:00:02"


def ip_frame(l4, protocol, tos=0, srcip="10.0.0.1", dstip="10.0.0.2",
             vlan=None):
    ip = IPv4(srcip=srcip, dstip=dstip, protocol=protocol, tos=tos,
              payload=l4)
    if vlan is None:
        return Ethernet(src=MAC_A, dst=MAC_B, type=Ethernet.IP_TYPE,
                        payload=ip).pack()
    return Ethernet(src=MAC_A, dst=MAC_B, type=Ethernet.VLAN_TYPE,
                    payload=Vlan(vid=vlan, type=Ethernet.IP_TYPE,
                                 payload=ip)).pack()


def udp_frame(payload=b"payload-0", sport=4000, dport=5001, **kwargs):
    return ip_frame(UDP(srcport=sport, dstport=dport, payload=payload),
                    IPv4.UDP_PROTOCOL, **kwargs)


def tcp_frame(payload=b"GET / HTTP/1.0", sport=40000, dport=80, **kwargs):
    return ip_frame(TCP(srcport=sport, dstport=dport, seq=7, ack=3,
                        flags=TCP.ACK | TCP.PSH, payload=payload),
                    IPv4.TCP_PROTOCOL, **kwargs)


def reseal(data, start, csum_at, end=None):
    """Recompute the checksum at ``csum_at`` over ``data[start:end]``."""
    struct.pack_into("!H", data, csum_at, 0)
    struct.pack_into("!H", data, csum_at, checksum(bytes(data[start:end])))


def patch(frame, offset, fmt, value, ip_offset=None, l4=None):
    """``frame`` with one field overwritten.  With ``ip_offset`` the
    IPv4 header checksum, and with ``l4`` (``"udp"``/``"tcp"``, after an
    untagged 20-byte IPv4 header) the transport checksum, is recomputed
    so that only the patched field is off."""
    data = bytearray(frame)
    struct.pack_into(fmt, data, offset, value)
    if l4 is not None:
        reseal(data, 34, 34 + {"udp": 6, "tcp": 16}[l4])
    if ip_offset is not None:
        header_len = max(20, (data[ip_offset] & 0xF) * 4)
        reseal(data, ip_offset, ip_offset + 10, ip_offset + header_len)
    return bytes(data)


def ip_checksum_stored_as_ffff():
    """A UDP frame whose IPv4 checksum field holds 0xFFFF: it verifies,
    but a re-pack writes 0x0000 there.  Found by searching the IP id."""
    for ident in range(0x10000):
        frame = patch(udp_frame(), 18, "!H", ident, ip_offset=14)
        if frame[24:26] == b"\x00\x00":
            return patch(frame, 24, "!H", 0xFFFF)
    raise AssertionError("no IP id gives a zero header checksum")


def with_ip_options(payload=b"payload-0"):
    """A UDP frame whose IPv4 header carries 4 bytes of options that a
    parser ignoring IHL would take for a valid UDP header: the options
    are ports summing to 0xFFFF, the real source port is the length
    that parser expects, and the real UDP segment sums to 0xFFFF, so
    its checksum verifies too."""
    udp = UDP(srcport=4 + 8 + len(payload), dstport=5001,
              payload=payload).pack()
    options = struct.pack("!HH", 4000, 0xFFFF - 4000)
    ip = struct.pack("!BBHHHBBH4s4s", 0x46, 0, 24 + len(udp), 0, 0, 64,
                     IPv4.UDP_PROTOCOL, 0, bytes([10, 0, 0, 1]),
                     bytes([10, 0, 0, 2])) + options
    base = udp_frame()
    return patch(base[:14] + ip + udp, 24, "!H", 0, ip_offset=14)


def corpus():
    """Named frames covering every shape the extractor must key or
    refuse."""
    udp = udp_frame()
    tcp = tcp_frame()
    lldp = Ethernet(src=MAC_A, dst="01:80:c2:00:00:0e",
                    type=Ethernet.LLDP_TYPE,
                    payload=LLDP.discovery_frame(3, 2)).pack()
    arp = Ethernet(src=MAC_A, dst="ff:ff:ff:ff:ff:ff",
                   type=Ethernet.ARP_TYPE,
                   payload=ARP(hwsrc=MAC_A, protosrc="10.0.0.1",
                               protodst="10.0.0.2")).pack()
    icmp = ip_frame(ICMP(id=1, seq=2, payload=b"ping" * 8),
                    IPv4.ICMP_PROTOCOL)
    inner = Vlan(vid=30, type=Ethernet.IP_TYPE,
                 payload=IPv4(srcip="10.0.0.1", dstip="10.0.0.2",
                              protocol=IPv4.UDP_PROTOCOL,
                              payload=UDP(srcport=1, dstport=2)))
    double_vlan = Ethernet(src=MAC_A, dst=MAC_B, type=Ethernet.VLAN_TYPE,
                           payload=Vlan(vid=20, type=Ethernet.VLAN_TYPE,
                                        payload=inner)).pack()
    return {
        "udp": udp,
        "udp_other_flow": udp_frame(sport=5000, dstip="10.0.1.9"),
        "udp_tos": udp_frame(tos=0x20),
        "udp_empty": udp_frame(payload=b""),
        "udp_odd_length": udp_frame(payload=b"odd"),
        "tcp": tcp,
        "tcp_to_web": tcp_frame(dport=80, srcip="10.0.0.7"),
        "icmp": icmp,
        "arp": arp,
        "lldp": lldp,
        "vlan_udp": udp_frame(vlan=10),
        "vlan_tcp": tcp_frame(vlan=20),
        "vlan_pcp": patch(udp_frame(vlan=10), 14, "!H", 0xA000 | 10),
        "double_vlan": double_vlan,
        "runt_vlan": udp[:12] + b"\x81\x00\x00",
        "bad_ip_checksum": patch(udp, 24, "!H", 0x1234),
        "ip_checksum_ffff": ip_checksum_stored_as_ffff(),
        "total_len_beyond_frame": patch(udp, 16, "!H", len(udp),
                                        ip_offset=14),
        "ihl_6": with_ip_options(),
        "ihl_4": patch(udp, 14, "!B", 0x44, ip_offset=14),
        "ip_version_6": patch(udp, 14, "!B", 0x65, ip_offset=14),
        "udp_length_long": patch(udp, 38, "!H", len(udp) - 33, l4="udp"),
        "udp_length_short": patch(udp, 38, "!H", len(udp) - 35, l4="udp"),
        "udp_bad_checksum": patch(udp, 40, "!H", 0x0101),
        "tcp_offset_too_big": patch(tcp, 46, "!H", 0xF018, l4="tcp"),
        "tcp_offset_too_small": patch(tcp, 46, "!H", 0x4018, l4="tcp"),
        "tcp_options": patch(tcp, 46, "!H", 0x6018, l4="tcp"),
        "tcp_reserved_bits": patch(tcp, 46, "!H", 0x5118, l4="tcp"),
        "tcp_urgent": patch(tcp, 52, "!H", 1, l4="tcp"),
        "tcp_bad_checksum": patch(tcp, 50, "!H", 0x0101),
        "unknown_ethertype": udp[:12] + b"\x88\xb5" + udp[14:],
        "trailing_padding": udp + b"\x00" * 6,
        "ip_length_short": patch(udp, 16, "!H", len(udp) - 16,
                                 ip_offset=14),
        "short_ip": udp[:30],
    }


def fuzzed(frames, seed=20141010, per_frame=40):
    """Seeded byte mutations of ``frames``: raw flips (mostly refused or
    re-keyed) plus flips re-sealed by a parse/pack round trip, which
    makes them canonical frames with fresh payloads or headers."""
    rng = random.Random(seed)
    out = []
    for frame in frames:
        for _ in range(per_frame):
            data = bytearray(frame)
            for _ in range(rng.randint(1, 3)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            out.append(bytes(data))
            out.append(Ethernet.unpack(bytes(data)).pack())
    return out


# flow entries chosen so that any field the key dropped or confused
# would route some frame differently
ENTRIES = [
    (Match(dl_vlan=10), [Output(2)], 300),
    (Match(dl_vlan=20), [StripVlan(), Output(3)], 300),
    (Match(dl_type=Ethernet.IP_TYPE, nw_proto=IPv4.TCP_PROTOCOL,
           tp_dst=80), [Output(3)], 200),
    (Match(dl_type=Ethernet.IP_TYPE, nw_proto=IPv4.UDP_PROTOCOL,
           tp_src=5000), [SetVlan(7), Output(4)], 200),
    (Match(dl_type=Ethernet.IP_TYPE, nw_tos=0x20), [Output(2), Output(3)],
     150),
    (Match(dl_type=Ethernet.IP_TYPE, nw_dst="10.0.1.0/24"),
     [SetTpDst(9), Output(4)], 100),
    (Match(dl_type=Ethernet.IP_TYPE, nw_src="10.0.0.7"), [], 100),
    (Match(dl_type=Ethernet.ARP_TYPE), [Output(5)], 100),
    (Match(dl_dst=MAC_B), [Output(2)], 50),
    (Match(), [Output(5)], 0),
]


def full_parse_outputs(in_port, data):
    """The pre-flow-key datapath: ``Match.from_packet`` lookup, then
    parse, apply and pack the frame, for every frame."""
    table = FlowTable()
    for match, actions, priority in ENTRIES:
        table.add(FlowEntry(match, actions, priority))
    entry = table.lookup(data, in_port, 0.0)
    frame, ports = apply_actions(entry.actions, Ethernet.unpack(data))
    if not ports:
        return []
    wire = frame.pack()
    return [(port, wire) for port in ports]


class CaptureSwitch:
    """A controller-less switch whose ports record what they send."""

    def __init__(self, entries=ENTRIES, ports=5):
        self.sim = Simulator()
        self.switch = OpenFlowSwitch(self.sim, dpid=1)
        self.sent = []
        for number in range(1, ports + 1):
            port = self.switch.add_port(number)
            port.transmit = (lambda data, number=number:
                             self.sent.append((number, data)))
        for match, actions, priority in entries:
            self.switch.table.add(FlowEntry(match, actions, priority))
        self.lookups = 0
        lookup = self.switch.table.lookup

        def counted(*args):
            self.lookups += 1
            return lookup(*args)
        self.switch.table.lookup = counted

    def send(self, data, in_port=1):
        self.sent = []
        self.switch.ports[in_port].receive(data)
        return self.sent


class TestFlowKeyExtractor:
    KEYED = ("udp", "udp_other_flow", "udp_tos", "udp_empty",
             "udp_odd_length", "tcp", "tcp_to_web", "vlan_udp", "vlan_tcp",
             "vlan_pcp")

    def test_keys_exactly_the_canonical_udp_tcp_frames(self):
        frames = corpus()
        keyed = {name for name, data in frames.items()
                 if flow_key(data) is not None}
        assert keyed == set(self.KEYED)

    def test_key_fields(self):
        data = udp_frame(vlan=10, tos=0x20)
        assert flow_key(data) == (data[:12], 10, 0x20, IPv4.UDP_PROTOCOL,
                                  0x0A000001, 0x0A000002, 4000, 5001)

    def test_equal_keys_imply_equal_matches(self):
        frames = list(corpus().values())
        frames += fuzzed(frames)
        by_key = defaultdict(list)
        for data in frames:
            key = flow_key(data)
            if key is not None:
                by_key[key].append(data)
        assert len(by_key) > 50
        for group in by_key.values():
            first = Match.from_packet(group[0], 1)
            for data in group[1:]:
                assert Match.from_packet(data, 1) == first

    def test_keyed_frames_repack_to_themselves(self):
        frames = list(corpus().values())
        frames += fuzzed(frames)
        keyed = [data for data in frames if flow_key(data) is not None]
        assert len(keyed) > 200
        for data in keyed:
            assert Ethernet.unpack(data).pack() == data

    def test_distinct_matches_get_distinct_keys(self):
        frames = [data for data in corpus().values()
                  if flow_key(data) is not None]
        matches = {}
        for data in frames:
            matches.setdefault(flow_key(data), Match.from_packet(data))
        assert len(set(map(repr, matches.values()))) == len(matches)


class TestAgainstFullParse:
    def test_outputs_equal_full_parse_path(self):
        frames = list(corpus().values())
        frames += fuzzed(frames)
        harness = CaptureSwitch()
        # twice: the first pass fills both key kinds, the second replays
        # exact-frame hits
        for _ in range(2):
            for data in frames:
                assert harness.send(data) == full_parse_outputs(1, data)
        switch = harness.switch
        assert switch.table_hit_count == 2 * len(frames)
        # header keys served frames the exact-frame key had never seen
        first_pass_hits = switch.microflow_hit_count - len(frames)
        assert first_pass_hits > 100
        assert harness.lookups < len(frames)

    def test_output_only_hit_forwards_the_original_object(self):
        harness = CaptureSwitch(entries=[(Match(), [Output(2)], 0)])
        harness.send(udp_frame(payload=b"first"))
        data = udp_frame(payload=b"second")
        (port, wire), = harness.send(data)
        assert port == 2 and wire is data
        assert harness.lookups == 1


# -- frames the emulator emits ------------------------------------------------

SG = {
    "name": "datapath-chain",
    "saps": ["h1", "h2"],
    "vnfs": [{"name": "fw", "type": "firewall",
              "params": {"rules": "allow all"}}],
    "chain": ["h1", "fw", "h2"],
    "requirements": [{"from": "h1", "to": "h2", "max_delay": 0.05}],
}


def frame_kind(data):
    frame = Ethernet.unpack(data)
    kinds = {"vlan"} if frame.find(Vlan) is not None else set()
    for kind, header in (("lldp", LLDP), ("arp", ARP), ("icmp", ICMP),
                         ("tcp", TCP)):
        if frame.find(header) is not None:
            kinds.add(kind)
    udp = frame.find(UDP)
    if udp is not None:
        kinds.add("probe" if parse_probe(udp.raw_payload()) else "udp")
    return kinds


class TestEmittedFramesRoundTrip:
    def test_every_emitted_frame_repacks_to_itself(self, monkeypatch):
        seen = []
        original = OpenFlowSwitch.process_packet

        def recording(switch, in_port, data):
            seen.append(data)
            original(switch, in_port, data)
        monkeypatch.setattr(OpenFlowSwitch, "process_packet", recording)
        framework = ESCAPE.from_topology(load_topology(TOPOLOGY),
                                         steering_mode="vlan")
        framework.start()
        framework.deploy_service(SG)
        h1, h2 = framework.net.get("h1"), framework.net.get("h2")
        h1.arp_table.clear()  # make the ping resolve h2 over the wire
        h1.ping(h2.ip, count=3, interval=0.1)
        for index in range(5):
            h1.send_udp(h2.ip, 5001, b"datagram-%d" % index)
        h1.send_ip(IPv4(srcip=h1.ip, dstip=h2.ip,
                        protocol=IPv4.TCP_PROTOCOL,
                        payload=TCP(srcport=40000, dstport=80, seq=1,
                                    flags=TCP.SYN, payload=b"hello")))
        framework.run(2.5)
        kinds = set()
        for data in seen:
            kind = frame_kind(data)
            kinds |= kind
            assert Ethernet.unpack(data).pack() == data
            if kind & {"udp", "probe", "tcp"}:
                assert flow_key(data) is not None  # takes the fast path
        assert kinds >= {"udp", "tcp", "icmp", "arp", "probe", "lldp",
                         "vlan"}


# -- invalidation and rewrites ------------------------------------------------


class DatapathHarness(HarnessedSwitch):
    """The switch-suite harness plus helpers for per-packet-unique
    frames of one flow."""

    _seq = 0

    def control(self, message):
        self.channel.send_to_switch(message)
        self.run()

    def send_unique(self, **kwargs):
        """One frame of the same flow with a payload never sent before,
        so only the header key can serve it from the cache."""
        self._seq += 1
        self.switch.ports[1].receive(
            udp_frame(payload=b"unique-%d" % self._seq, **kwargs))

    def counts(self):
        return {n: len(frames) for n, frames in self.sent.items()}


def warmed(actions=(Output(2),), **flow_mod):
    """A harness whose flow has been looked up once and then served
    once by its header key."""
    harness = DatapathHarness(ports=3)
    harness.control(FlowMod(Match(in_port=1), list(actions), **flow_mod))
    harness.send_unique()
    harness.send_unique()
    assert harness.switch.microflow_hit_count == 1
    return harness


class TestInvalidation:
    def test_flow_mod_add_takes_effect(self):
        harness = warmed()
        harness.control(FlowMod(Match(in_port=1, tp_dst=5001), [Output(3)],
                                priority=0x9000))
        harness.send_unique()
        assert harness.counts() == {1: 0, 2: 2, 3: 1}

    def test_flow_mod_modify_takes_effect(self):
        harness = warmed()
        harness.control(FlowMod(Match(in_port=1), [Output(3)],
                                command=FlowMod.MODIFY))
        harness.send_unique()
        assert harness.counts() == {1: 0, 2: 2, 3: 1}

    def test_flow_mod_delete_takes_effect(self):
        harness = warmed()
        harness.control(FlowMod(Match(), command=FlowMod.DELETE))
        misses = harness.switch.table_miss_count
        harness.send_unique()
        harness.run()
        assert harness.switch.table_miss_count == misses + 1
        assert harness.counts()[2] == 2
        assert len([m for m in harness.received
                    if isinstance(m, PacketIn)]) == 1

    @pytest.mark.parametrize("timeout", ["idle_timeout", "hard_timeout"])
    def test_expiry_takes_effect(self, timeout):
        harness = warmed(**{timeout: 0.2})
        harness.sim.run(until=harness.sim.now + 0.3)
        misses = harness.switch.table_miss_count
        harness.send_unique()
        assert harness.switch.table_miss_count == misses + 1
        assert len(harness.switch.table) == 0

    def test_port_down_flips_group_on_first_packet(self):
        harness = DatapathHarness(ports=3)
        harness.control(GroupMod(GroupMod.ADD, 1, buckets=[
            GroupBucket([Output(2)], watch_port=2),
            GroupBucket([Output(3)], watch_port=3)]))
        harness.control(FlowMod(Match(in_port=1), [Group(1)]))
        harness.send_unique()
        harness.send_unique()
        assert harness.switch.microflow_hit_count == 1
        harness.switch.set_port_up(2, False)
        harness.send_unique()
        assert harness.switch.group_flip_count == 1
        assert harness.counts() == {1: 0, 2: 2, 3: 1}
        harness.send_unique()  # the backup resolution is cached again
        assert harness.switch.microflow_hit_count == 2
        harness.switch.set_port_up(2, True)
        harness.send_unique()
        assert harness.switch.group_flip_count == 2
        assert harness.counts() == {1: 0, 2: 3, 3: 2}

    def test_group_mod_takes_effect(self):
        harness = DatapathHarness(ports=3)
        harness.control(GroupMod(GroupMod.ADD, 1, buckets=[
            GroupBucket([Output(2)], watch_port=2)]))
        harness.control(FlowMod(Match(in_port=1), [Group(1)]))
        harness.send_unique()
        harness.send_unique()
        harness.control(GroupMod(GroupMod.MODIFY, 1, buckets=[
            GroupBucket([Output(3)], watch_port=3)]))
        harness.send_unique()
        assert harness.counts() == {1: 0, 2: 2, 3: 1}


def checksums_verify(data):
    frame = Ethernet.unpack(data)
    ip = frame.find(IPv4)
    offset = data.index(ip.pack()[:20])
    udp = data[offset + 20:]
    return checksum(data[offset:offset + 20]) == 0 and checksum(udp) == 0


class TestRewrites:
    def test_push_tag_on_header_key_hits(self):
        harness = warmed(actions=(SetVlan(7), Output(2)))
        for _ in range(3):
            harness.send_unique()
        assert harness.switch.microflow_hit_count == 4
        for index, wire in enumerate(harness.sent[2], start=1):
            frame = Ethernet.unpack(wire)
            assert frame.find(Vlan).vid == 7
            assert frame.find(UDP).payload == b"unique-%d" % index
            assert checksums_verify(wire)

    def test_strip_tag_on_header_key_hits(self):
        harness = DatapathHarness(ports=3)
        harness.control(FlowMod(Match(in_port=1, dl_vlan=7),
                                [StripVlan(), Output(2)]))
        for _ in range(4):
            harness.send_unique(vlan=7)
        assert harness.switch.microflow_hit_count == 3
        for index, wire in enumerate(harness.sent[2], start=1):
            assert wire == udp_frame(payload=b"unique-%d" % index)
            assert checksums_verify(wire)

    def test_transport_rewrite_on_header_key_hits(self):
        harness = warmed(actions=(SetTpSrc(7), SetTpDst(8), Output(2)))
        for wire in harness.sent[2]:
            udp = Ethernet.unpack(wire).find(UDP)
            assert (udp.srcport, udp.dstport) == (7, 8)
            assert checksums_verify(wire)

    def test_unique_datagrams_through_vlan_steered_chain(self):
        vlan_escape = ESCAPE.from_topology(load_topology(TOPOLOGY),
                                           steering_mode="vlan")
        vlan_escape.start()
        vlan_escape.deploy_service(dict(SG, requirements=[]))
        h1, h2 = vlan_escape.net.get("h1"), vlan_escape.net.get("h2")
        received = []
        h2.bind_udp(5001, lambda src, sport, payload:
                    received.append(payload))
        sent = [b"datagram-%03d" % index * 4 for index in range(30)]
        for index, payload in enumerate(sent):
            vlan_escape.sim.schedule(0.01 * index, h1.send_udp, h2.ip,
                                     5001, payload)
        vlan_escape.run(1.0)
        assert received == sent
        switches = [node.datapath for node in vlan_escape.net.switches()]
        assert sum(dp.microflow_hit_count for dp in switches) > 0


# -- satellite bugfixes -------------------------------------------------------


class TestRuntFrames:
    def test_runt_is_dropped_not_raised(self):
        harness = DatapathHarness(ports=3)
        harness.switch.ports[1].receive(b"\x00" * 10)
        harness.run()
        assert harness.switch.dropped_count == 1
        assert harness.switch.table_miss_count == 1
        assert not [m for m in harness.received if isinstance(m, PacketIn)]

    def test_runt_with_catch_all_entry(self):
        harness = DatapathHarness(ports=3)
        harness.control(FlowMod(Match(), [Output(2)]))
        harness.switch.ports[1].receive(b"\x00" * 13)
        assert harness.switch.dropped_count == 1
        assert harness.counts()[2] == 0


class TestNoHiddenTcpRepack:
    @pytest.fixture
    def pack_calls(self, monkeypatch):
        calls = []
        original = TCP.pack

        def counting(segment):
            calls.append(segment)
            return original(segment)
        monkeypatch.setattr(TCP, "pack", counting)
        return calls

    def test_match_from_packet_does_not_pack_tcp(self, pack_calls):
        data = tcp_frame()
        pack_calls.clear()
        match = Match.from_packet(data, in_port=1)
        assert (match.tp_src, match.tp_dst) == (40000, 80)
        assert pack_calls == []

    def test_transport_rewrites_do_not_pack_tcp(self, pack_calls):
        frame = Ethernet.unpack(tcp_frame())
        pack_calls.clear()
        SetTpSrc(1).apply(frame)
        SetTpDst(2).apply(frame)
        assert pack_calls == []
        assert (frame.find(TCP).srcport, frame.find(TCP).dstport) == (1, 2)
