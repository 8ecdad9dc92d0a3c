"""OpenFlow 1.0 actions, applied to parsed Ethernet frames."""

from typing import List, Optional, Union

from repro.packet import EthAddr, Ethernet, IPAddr, IPv4, TCP, UDP, Vlan


class Action:
    """Base class.  :meth:`apply` may rewrite the frame in place and
    returns it (Output is handled by the switch, not here)."""

    def apply(self, frame: Ethernet) -> Ethernet:
        return frame

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join("%s=%s" % item for item in vars(self).items())
        return "%s(%s)" % (type(self).__name__, fields)


class Output(Action):
    """Forward out of ``port`` (or a virtual port like OFPP_FLOOD)."""

    def __init__(self, port: int):
        self.port = port


class Group(Action):
    """Hand the frame to group ``group_id`` (OF 1.1 OFPAT_GROUP,
    carried here as an extension to the 1.0 subset).

    The switch resolves the group at execution time — for a
    FAST_FAILOVER group that means the first bucket whose watched port
    is live — so this action has no :meth:`apply` of its own.
    """

    def __init__(self, group_id: int):
        self.group_id = group_id


class SetVlan(Action):
    """Set (pushing if absent) the 802.1Q VLAN id."""

    def __init__(self, vid: int):
        if not 0 <= vid < 4096:
            raise ValueError("VLAN id out of range: %d" % vid)
        self.vid = vid

    def apply(self, frame: Ethernet) -> Ethernet:
        vlan = frame.find(Vlan)
        if vlan is not None:
            vlan.vid = self.vid
            return frame
        tag = Vlan(vid=self.vid, type=frame.type, payload=frame.payload)
        frame.type = Ethernet.VLAN_TYPE
        frame.payload = tag
        return frame


class StripVlan(Action):
    """Remove the outermost 802.1Q tag, if any."""

    def apply(self, frame: Ethernet) -> Ethernet:
        if frame.type == Ethernet.VLAN_TYPE and isinstance(frame.payload,
                                                           Vlan):
            tag = frame.payload
            frame.type = tag.type
            frame.payload = tag.payload
        return frame


class SetDlSrc(Action):
    def __init__(self, addr: Union[str, EthAddr]):
        self.addr = EthAddr(addr)

    def apply(self, frame: Ethernet) -> Ethernet:
        frame.src = self.addr
        return frame


class SetDlDst(Action):
    def __init__(self, addr: Union[str, EthAddr]):
        self.addr = EthAddr(addr)

    def apply(self, frame: Ethernet) -> Ethernet:
        frame.dst = self.addr
        return frame


class SetNwSrc(Action):
    def __init__(self, addr: Union[str, IPAddr]):
        self.addr = IPAddr(addr)

    def apply(self, frame: Ethernet) -> Ethernet:
        ip = frame.find(IPv4)
        if ip is not None:
            ip.srcip = self.addr
        return frame


class SetNwDst(Action):
    def __init__(self, addr: Union[str, IPAddr]):
        self.addr = IPAddr(addr)

    def apply(self, frame: Ethernet) -> Ethernet:
        ip = frame.find(IPv4)
        if ip is not None:
            ip.dstip = self.addr
        return frame


def _transport(frame: Ethernet):
    """The frame's TCP or UDP header, else None.  Tests ``is None``
    rather than truthiness: ``bool(header)`` packs the whole segment."""
    l4 = frame.find(TCP)
    return l4 if l4 is not None else frame.find(UDP)


class SetTpSrc(Action):
    def __init__(self, port: int):
        self.port = port

    def apply(self, frame: Ethernet) -> Ethernet:
        l4 = _transport(frame)
        if l4 is not None:
            l4.srcport = self.port
        return frame


class SetTpDst(Action):
    def __init__(self, port: int):
        self.port = port

    def apply(self, frame: Ethernet) -> Ethernet:
        l4 = _transport(frame)
        if l4 is not None:
            l4.dstport = self.port
        return frame


def apply_actions(actions: List[Action],
                  frame: Ethernet) -> (Ethernet, List[int]):
    """Apply rewrite actions in order; collect Output ports.

    Returns the (possibly rewritten) frame and the list of output port
    numbers in action order, as OF 1.0 executes action lists.
    """
    out_ports: List[int] = []
    for action in actions:
        if isinstance(action, Output):
            out_ports.append(action.port)
        else:
            frame = action.apply(frame)
    return frame, out_ports
