"""Tests for the host's bytes-level UDP stack.

``Host.send_udp`` builds a datagram's frame from ``struct`` templates
once ARP has resolved, and ``Host._receive`` delivers a canonical
untagged UDP datagram for its own MAC and IP straight from the memoized
:func:`flow_key`.  Everything else — ARP, ICMP, VLAN, broadcast,
non-canonical frames and any frame a capture observes — takes the
object path.  These tests pin both fast paths to the object path: the
same wire bytes out, the same deliveries in, and the fallbacks taken
where they must be.
"""

import random
import struct

import pytest

from repro.netem import Host, PacketCapture
from repro.openflow.match import NO_VLAN, flow_key
from repro.packet import ICMP, UDP, EthAddr, Ethernet, IPAddr, IPv4
from repro.packet.base import checksum
from repro.packet.probe import pack_probe
from repro.sim import Simulator
from tests.test_switch_datapath import (MAC_A, MAC_B, corpus, fuzzed, patch,
                                        udp_frame)

HOST_IP = "10.0.0.2"  # the corpus frames' destination (MAC_B)


def reference_checksum(data):
    """The struct-sum RFC 1071 checksum ``checksum()`` replaced."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack("!%dH" % (len(data) // 2), data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


class Recorder:
    """A host whose interface records what it sends and whose UDP
    deliveries are recorded instead of dispatched."""

    def __init__(self, ip=HOST_IP, mac=MAC_B, capture=False):
        self.host = Host("h", Simulator(), ip, mac)
        self.sent = []
        self.delivered = []
        self.host.default_interface().send = self.sent.append
        self.host._deliver_udp = (lambda *args:
                                  self.delivered.append(args))
        self.capture = None
        if capture:
            self.capture = PacketCapture()
            self.host.attach_capture(self.capture)

    def receive(self, data):
        self.host._receive(self.host.default_interface(), data)
        return self.delivered


@pytest.fixture
def unpacks(monkeypatch):
    """Counts ``Ethernet.unpack`` calls: each is one object-path parse."""
    calls = []
    original = Ethernet.__dict__["unpack"].__func__

    def counted(cls, data):
        calls.append(data)
        return original(cls, data)
    monkeypatch.setattr(Ethernet, "unpack", classmethod(counted))
    return calls


def object_graph_frame(src_mac, dst_mac, srcip, dstip, sport, dport,
                       payload):
    return Ethernet(src=src_mac, dst=dst_mac, type=Ethernet.IP_TYPE,
                    payload=IPv4(srcip=srcip, dstip=dstip,
                                 protocol=IPv4.UDP_PROTOCOL,
                                 payload=UDP(srcport=sport, dstport=dport,
                                             payload=payload))).pack()


class TestSend:
    def test_frames_equal_object_graph_pack(self):
        rng = random.Random(1301)
        for size in list(range(0, 64)) + [rng.randrange(64, 1501)
                                          for _ in range(150)] + [1500]:
            src_mac = EthAddr(rng.randrange(1 << 48))
            dst_mac = EthAddr(rng.randrange(1 << 48))
            srcip = IPAddr(rng.randrange(1 << 32))
            dstip = IPAddr(rng.randrange(1 << 32))
            sport, dport = rng.randrange(0x10000), rng.randrange(0x10000)
            fill = rng.choice((0x00, 0xFF, None))
            payload = (bytes([fill]) * size if fill is not None
                       else bytes(rng.randrange(256) for _ in range(size)))
            rec = Recorder(ip=srcip, mac=src_mac)
            rec.host.arp_table[dstip] = dst_mac
            rec.host.send_udp(dstip, dport, payload, sport=sport)
            assert rec.sent == [object_graph_frame(
                src_mac, dst_mac, srcip, dstip, sport, dport, payload)], size

    def test_payload_coerced_to_bytes(self, unpacks):
        rec = Recorder(ip="10.0.0.1", mac=MAC_A)
        rec.host.arp_table[IPAddr(HOST_IP)] = EthAddr(MAC_B)
        # whatever bytes() accepts, as UDP.pack coerces its payload
        payloads = [bytearray(b"mutable"), memoryview(b"view"), [104, 105]]
        for payload in payloads:
            rec.host.send_udp(HOST_IP, 5001, payload, sport=4000)
        assert rec.sent == [
            object_graph_frame(MAC_A, MAC_B, "10.0.0.1", HOST_IP, 4000,
                               5001, payload)
            for payload in payloads]
        assert all(type(wire) is bytes for wire in rec.sent)
        # the sent frames are canonical: the receiver takes its fast path
        receiver = Recorder()
        for wire in rec.sent:
            receiver.receive(wire)
        assert [args[3] for args in receiver.delivered] == [b"mutable",
                                                            b"view", b"hi"]
        assert unpacks == []

    @pytest.mark.parametrize("resolved", [True, False])
    @pytest.mark.parametrize("ports", [(-1, 5001), (4000, 0x10000)])
    def test_out_of_range_ports_raise(self, resolved, ports):
        rec = Recorder(ip="10.0.0.1", mac=MAC_A)
        if resolved:
            rec.host.arp_table[IPAddr(HOST_IP)] = EthAddr(MAC_B)
        sport, dport = ports
        with pytest.raises(ValueError):
            rec.host.send_udp(HOST_IP, dport, b"x", sport=sport)
        assert rec.sent == []

    def test_arp_pending_queues_the_object_frame(self):
        rec = Recorder(ip="10.0.0.1", mac=MAC_A)
        rec.host.send_udp(HOST_IP, 5001, b"queued", sport=4000)
        assert len(rec.sent) == 1
        assert Ethernet.unpack(rec.sent[0]).type == Ethernet.ARP_TYPE
        queued = rec.host._arp_pending[IPAddr(HOST_IP)]
        assert [frame.find(UDP).raw_payload() for frame in queued] == \
            [b"queued"]

    def test_capture_sees_the_frame_object(self):
        rec = Recorder(ip="10.0.0.1", mac=MAC_A, capture=True)
        rec.host.arp_table[IPAddr(HOST_IP)] = EthAddr(MAC_B)
        rec.host.send_udp(HOST_IP, 5001, b"observed", sport=4000)
        wire = object_graph_frame(MAC_A, MAC_B, "10.0.0.1", HOST_IP, 4000,
                                  5001, b"observed")
        assert rec.sent == [wire]
        [captured] = rec.capture.frames
        assert captured.direction == "tx"
        assert captured.frame.pack() == wire


def probe_frame(dport=7001):
    return udp_frame(payload=pack_probe(7, 1, 0, 0.5, chain="c1",
                                        pad_to=64), dport=dport)


class TestReceive:
    def frames(self):
        frames = list(corpus().values())
        frames += [probe_frame(),
                   udp_frame(dstip="10.0.0.9"),
                   udp_frame(srcip="10.0.0.3", sport=1, dport=65535),
                   patch(udp_frame(), 0, "!6s", b"\xff" * 6),
                   patch(udp_frame(), 0, "!6s", EthAddr(MAC_A).raw)]
        return frames + fuzzed(frames, seed=1301, per_frame=40)

    def test_fast_path_delivers_what_the_full_parse_delivers(self):
        fast, full = Recorder(), Recorder(capture=True)
        fast_paths = 0
        for data in self.frames():
            before = len(fast.delivered)
            assert fast.receive(data) == full.receive(data), data.hex()
            assert fast.sent == full.sent
            key = flow_key(data)
            if (key is not None and key[1] == NO_VLAN
                    and key[3] == IPv4.UDP_PROTOCOL
                    and key[5] == IPAddr(HOST_IP).to_int()
                    and data[:6] == EthAddr(MAC_B).raw):
                fast_paths += 1
                assert len(fast.delivered) == before + 1
        # a good share of the corpus and fuzz takes the fast path
        assert fast_paths > 80
        assert len(full.capture.frames) > len(full.delivered)

    def test_delivered_fields(self, unpacks):
        rec = Recorder()
        rec.receive(udp_frame(payload=b"hello", sport=4000, dport=5001))
        rec.receive(probe_frame())
        assert rec.delivered[0] == (IPAddr("10.0.0.1"), 4000, 5001,
                                    b"hello", False)
        assert rec.delivered[1][2] == 7001
        srcip, sport, dport, payload, is_probe = rec.delivered[1]
        assert is_probe and len(payload) == 64
        assert type(srcip) is IPAddr and type(payload) is bytes
        assert unpacks == []

    def test_counters_follow_the_fast_path(self):
        host = Host("h", Simulator(), HOST_IP, MAC_B)
        got = []
        host.bind_udp(5001, lambda *args: got.append(args))
        intf = host.default_interface()
        host._receive(intf, udp_frame(payload=b"12345", dport=5001))
        host._receive(intf, udp_frame(payload=b"x", dport=6000))
        host._receive(intf, probe_frame())
        assert got == [(IPAddr("10.0.0.1"), 4000, b"12345")]
        assert (host.udp_rx_count, host.udp_rx_bytes,
                host.probe_rx_count) == (2, 6, 1)

    def test_multihomed_host_uses_the_receiving_interface(self, unpacks):
        rec = Recorder()
        second = rec.host.add_interface("00:00:00:00:00:09", "10.0.1.9")
        data = patch(udp_frame(dstip="10.0.1.9"), 0, "!6s", second.mac.raw)
        rec.host._receive(second, data)
        assert [args[3] for args in rec.delivered] == [b"payload-0"]
        rec.host._receive(rec.host.default_interface(), data)
        assert len(rec.delivered) == 1  # wrong MAC and IP for eth0
        assert len(unpacks) == 1


class TestFallbacks:
    @pytest.mark.parametrize("name, delivered", [
        ("vlan_udp", True),
        ("arp", False),
        ("icmp", False),
        ("udp_bad_checksum", True),
        ("bad_ip_checksum", False),
        ("trailing_padding", True),
        ("ihl_6", True),
        ("udp_length_short", True),
        ("tcp", False),
    ])
    def test_non_fast_frames_take_the_object_path(self, unpacks, name,
                                                   delivered):
        rec = Recorder()
        data = corpus()[name]
        rec.receive(data)
        assert unpacks == [data]
        assert bool(rec.delivered) == delivered

    def test_broadcast_takes_the_object_path(self, unpacks):
        rec = Recorder()
        data = patch(udp_frame(), 0, "!6s", b"\xff" * 6)
        assert flow_key(data) is not None
        rec.receive(data)
        assert unpacks == [data]
        assert [args[3] for args in rec.delivered] == [b"payload-0"]

    @pytest.mark.parametrize("data", [
        patch(udp_frame(), 0, "!6s", EthAddr(MAC_A).raw),
        udp_frame(dstip="10.0.0.9"),
    ], ids=["wrong_mac", "wrong_ip"])
    def test_not_addressed_here_takes_the_object_path(self, unpacks, data):
        rec = Recorder()
        assert flow_key(data) is not None
        rec.receive(data)
        assert unpacks == [data]
        assert rec.delivered == []

    def test_capture_takes_the_object_path(self, unpacks):
        rec = Recorder(capture=True)
        data = udp_frame()
        rec.receive(data)
        assert unpacks == [data]
        assert [args[3] for args in rec.delivered] == [b"payload-0"]
        [captured] = rec.capture.frames
        assert captured.direction == "rx"
        assert captured.frame.pack() == data

    def test_icmp_echo_still_answered(self):
        rec = Recorder()
        rec.host.arp_table[IPAddr("10.0.0.1")] = EthAddr(MAC_A)
        rec.receive(Ethernet(src=MAC_A, dst=MAC_B, type=Ethernet.IP_TYPE,
                             payload=IPv4(srcip="10.0.0.1", dstip=HOST_IP,
                                          protocol=IPv4.ICMP_PROTOCOL,
                                          payload=ICMP(id=3, seq=1)))
                    .pack())
        [reply] = rec.sent
        assert Ethernet.unpack(reply).find(ICMP).is_echo_reply


class TestChecksum:
    def buffers(self):
        rng = random.Random(1071)
        out = [b"", b"\x00", b"\xff", b"\x00\x00", b"\xff\xff",
               b"\xff\xfe\x00\x01", b"\x00\x01\xff\xfe\x00"]
        for size in list(range(1, 70)) + [1499, 1500, 1501]:
            out += [b"\x00" * size, b"\xff" * size,
                    bytes(rng.randrange(256) for _ in range(size))]
        for _ in range(2000):
            size = rng.randrange(0, 48)
            out.append(bytes(rng.choice((0x00, 0xFF, rng.randrange(256)))
                             for _ in range(size)))
        return out

    def test_equals_struct_sum_reference(self):
        for data in self.buffers():
            assert checksum(data) == reference_checksum(data), data.hex()

    def test_verifies_to_zero_over_a_packed_header(self):
        header = IPv4(srcip="10.0.0.1", dstip="10.0.0.2",
                      protocol=IPv4.UDP_PROTOCOL).pack()
        assert checksum(header) == 0


class TestFlowKeyMemo:
    def test_memoized_equals_uncached(self):
        frames = list(corpus().values())
        for data in frames + fuzzed(frames, seed=7, per_frame=10):
            assert flow_key(data) == flow_key.__wrapped__(data)
            assert flow_key(data) == flow_key.__wrapped__(data)

    def test_bounded(self):
        assert flow_key.cache_info().maxsize == 256
        for index in range(600):
            flow_key(udp_frame(payload=b"%d" % index))
        assert flow_key.cache_info().currsize <= 256
