"""OpenFlow 1.0 12-tuple match with per-field wildcards."""

import functools
import struct
from typing import Optional, Union

from repro.packet import ARP, EthAddr, Ethernet, IPAddr, IPv4, TCP, UDP, Vlan
from repro.packet.base import checksum
from repro.packet.icmp import ICMP

# Fields of the OF 1.0 match, in spec order.
MATCH_FIELDS = ("in_port", "dl_src", "dl_dst", "dl_vlan", "dl_type",
                "nw_tos", "nw_proto", "nw_src", "nw_dst",
                "tp_src", "tp_dst")

NO_VLAN = 0xFFFF  # OFP_VLAN_NONE


class Match:
    """A match pattern; ``None`` fields are wildcarded.

    ``nw_src``/``nw_dst`` accept either an :class:`IPAddr` (exact) or a
    ``(IPAddr, prefix_len)`` tuple for CIDR matching, mirroring OF 1.0's
    nw-address wildcard bits.
    """

    __slots__ = MATCH_FIELDS

    def __init__(self, in_port: Optional[int] = None,
                 dl_src: Optional[Union[str, EthAddr]] = None,
                 dl_dst: Optional[Union[str, EthAddr]] = None,
                 dl_vlan: Optional[int] = None,
                 dl_type: Optional[int] = None,
                 nw_tos: Optional[int] = None,
                 nw_proto: Optional[int] = None,
                 nw_src=None, nw_dst=None,
                 tp_src: Optional[int] = None,
                 tp_dst: Optional[int] = None):
        self.in_port = in_port
        self.dl_src = EthAddr(dl_src) if dl_src is not None else None
        self.dl_dst = EthAddr(dl_dst) if dl_dst is not None else None
        self.dl_vlan = dl_vlan
        self.dl_type = dl_type
        self.nw_tos = nw_tos
        self.nw_proto = nw_proto
        self.nw_src = self._normalize_nw(nw_src)
        self.nw_dst = self._normalize_nw(nw_dst)
        self.tp_src = tp_src
        self.tp_dst = tp_dst

    @staticmethod
    def _normalize_nw(value):
        if value is None:
            return None
        if isinstance(value, str) and "/" in value:
            addr, prefix = value.split("/", 1)
            value = (IPAddr(addr), int(prefix))
        if isinstance(value, tuple):
            addr, prefix = IPAddr(value[0]), int(value[1])
            if prefix >= 32:
                return addr   # /32 is an exact match
            if prefix <= 0:
                return None   # /0 is a wildcard
            return (addr, prefix)
        return IPAddr(value)

    # -- construction from a packet -------------------------------------

    @classmethod
    def from_packet(cls, packet: Union[Ethernet, bytes],
                    in_port: Optional[int] = None) -> "Match":
        """Exact-match fields extracted from ``packet`` (OF 1.0 style)."""
        if isinstance(packet, (bytes, bytearray)):
            packet = Ethernet.unpack(bytes(packet))
        match = cls(in_port=in_port, dl_src=packet.src, dl_dst=packet.dst)
        vlan = packet.find(Vlan)
        match.dl_vlan = vlan.vid if vlan is not None else NO_VLAN
        match.dl_type = packet.effective_type()
        ip = packet.find(IPv4)
        arp = packet.find(ARP)
        if ip is not None:
            match.nw_tos = ip.tos
            match.nw_proto = ip.protocol
            match.nw_src = ip.srcip
            match.nw_dst = ip.dstip
            # explicit None tests: a header's truthiness is its packed
            # length, which would re-pack (and checksum) the segment
            l4 = ip.find(TCP)
            if l4 is None:
                l4 = ip.find(UDP)
            if l4 is not None:
                match.tp_src = l4.srcport
                match.tp_dst = l4.dstport
            else:
                icmp = ip.find(ICMP)
                if icmp is not None:
                    # OF 1.0 reuses tp_src/tp_dst for ICMP type/code.
                    match.tp_src = icmp.type
                    match.tp_dst = icmp.code
        elif arp is not None:
            match.nw_proto = arp.opcode
            match.nw_src = arp.protosrc
            match.nw_dst = arp.protodst
        return match

    # -- matching ---------------------------------------------------------

    @staticmethod
    def _nw_matches(pattern, value: Optional[IPAddr]) -> bool:
        if pattern is None:
            return True
        if value is None:
            return False
        if isinstance(pattern, tuple):
            addr, prefix = pattern
            return value.in_network(addr, prefix)
        return value == pattern

    def matches_packet(self, packet: Union[Ethernet, bytes],
                       in_port: Optional[int] = None) -> bool:
        """Does this pattern match the concrete packet?"""
        concrete = Match.from_packet(packet, in_port)
        return self.matches(concrete)

    def matches(self, concrete: "Match") -> bool:
        """Does this (possibly wildcarded) pattern cover ``concrete``?

        ``concrete`` is normally an exact match built by
        :meth:`from_packet`; any field it leaves as None only matches a
        wildcard in the pattern.
        """
        for field in ("in_port", "dl_src", "dl_dst", "dl_vlan", "dl_type",
                      "nw_tos", "nw_proto", "tp_src", "tp_dst"):
            pattern_value = getattr(self, field)
            if pattern_value is None:
                continue
            if getattr(concrete, field) != pattern_value:
                return False
        if not self._nw_matches(self.nw_src, self._exact_nw(concrete.nw_src)):
            return False
        if not self._nw_matches(self.nw_dst, self._exact_nw(concrete.nw_dst)):
            return False
        return True

    @staticmethod
    def _exact_nw(value) -> Optional[IPAddr]:
        if isinstance(value, tuple):
            return value[0]
        return value

    def is_subset_of(self, other: "Match") -> bool:
        """True when every packet this matches is also matched by
        ``other`` (used for OFPFC_DELETE semantics)."""
        for field in MATCH_FIELDS:
            other_value = getattr(other, field)
            if other_value is None:
                continue
            if getattr(self, field) != other_value:
                return False
        return True

    @property
    def wildcard_count(self) -> int:
        return sum(1 for field in MATCH_FIELDS
                   if getattr(self, field) is None)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return all(getattr(self, field) == getattr(other, field)
                   for field in MATCH_FIELDS)

    def __hash__(self) -> int:
        return hash(tuple(str(getattr(self, field))
                          for field in MATCH_FIELDS))

    def __repr__(self) -> str:
        set_fields = ", ".join(
            "%s=%s" % (field, getattr(self, field))
            for field in MATCH_FIELDS if getattr(self, field) is not None)
        return "Match(%s)" % (set_fields or "*")


# -- header-only flow key -------------------------------------------------

_ETHERTYPE = struct.Struct("!H")
_VLAN_TAG = struct.Struct("!HH")
_IPV4 = struct.Struct("!BBHHHBBHII")
_UDP = struct.Struct("!HHHH")
_TCP = struct.Struct("!HHIIHHHH")


@functools.lru_cache(maxsize=256)
def flow_key(data: bytes) -> Optional[tuple]:
    """Header-only flow key of an Eth[/802.1Q]/IPv4/UDP|TCP frame.

    Reads fixed offsets with ``struct`` and builds no header objects.
    Two frames with equal keys give equal :meth:`Match.from_packet`
    results (``in_port`` aside), so a key can stand in for the concrete
    match in a lookup cache.

    Returns None for every other frame, which then takes the full parse.
    That covers the frames the full parse rejects — wrong IP version,
    failing IPv4 header checksum, ``total_len`` beyond the frame, bad
    UDP length, TCP data offset out of bounds — and also valid frames a
    re-pack would change: IPv4 options, trailing padding, TCP options,
    reserved bits or urgent pointer, and a UDP/TCP checksum that is
    not the one :meth:`pack` computes.  So for every keyed frame
    ``Ethernet.unpack(data).pack() == data``, and output-only actions
    may forward ``data`` itself.

    The key is a pure function of the frame bytes, so it is memoized:
    a frame crossing several switches and reaching a host is checked
    once, not at every hop.  ``data`` must be ``bytes`` (hashable); the
    small bound covers the frames in flight.  ``flow_key.__wrapped__``
    is the uncached extractor.
    """
    size = len(data)
    if size < 42:  # Ethernet + IPv4 + UDP headers
        return None
    (ethertype,) = _ETHERTYPE.unpack_from(data, 12)
    vid = NO_VLAN
    ip = 14
    if ethertype == 0x8100:
        tci, ethertype = _VLAN_TAG.unpack_from(data, 14)
        vid = tci & 0xFFF
        ip = 18
    if ethertype != 0x0800 or size < ip + 28:
        return None
    (ver_ihl, tos, total_len, _ident, _frag, _ttl, proto, csum,
     nw_src, nw_dst) = _IPV4.unpack_from(data, ip)
    # a stored checksum of 0xFFFF verifies but re-packs as 0x0000
    if (ver_ihl != 0x45 or total_len != size - ip or csum == 0xFFFF
            or checksum(data[ip:ip + 20])):
        return None
    l4 = ip + 20
    if proto == 17:
        tp_src, tp_dst, length, csum = _UDP.unpack_from(data, l4)
        if length != size - l4:
            return None
    elif proto == 6:
        if size < l4 + 20:
            return None
        (tp_src, tp_dst, _seq, _ack, offset_flags, _window, csum,
         urgent) = _TCP.unpack_from(data, l4)
        if offset_flags & 0xFFC0 != 0x5000 or urgent:
            return None
    else:
        return None
    if csum == 0xFFFF or checksum(data[l4:]):
        return None
    return (data[:12], vid, tos, proto, nw_src, nw_dst, tp_src, tp_dst)
