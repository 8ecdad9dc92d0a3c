"""The in-process switch↔controller channel.

Stands in for the OF-over-TCP connection: bidirectional, ordered,
delivers each message after a configurable latency on the shared
simulator.  Either side installs a receive callback; the channel only
delivers while ``connected``.
"""

from typing import Callable, Optional

from repro.openflow import wire
from repro.sim import Simulator


class ChannelError(Exception):
    pass


class ControllerChannel:
    """One switch's control connection.

    ``to_controller``/``to_switch`` carry messages each way; receivers
    are installed with :meth:`set_controller_receiver` /
    :meth:`set_switch_receiver`.
    """

    def __init__(self, sim: Simulator, latency: float = 0.0005,
                 serialize: bool = False):
        self.sim = sim
        self.latency = latency
        self.serialize = serialize
        self.connected = False
        self._controller_rx: Optional[Callable] = None
        self._switch_rx: Optional[Callable] = None
        self.to_controller_count = 0
        self.to_switch_count = 0
        self.wire_bytes = 0

    def _encode(self, message):
        """With serialize=True every message round-trips the real OF 1.0
        wire format, proving the control plane is wire-compatible.
        The codecs are looked up on :mod:`repro.openflow.wire` per
        call and profiled on this channel's own simulator."""
        if not self.serialize:
            return message
        profiler = self.sim.profiler
        if profiler is not None and profiler.enabled:
            with profiler.profile("openflow.wire.encode"):
                data = wire.pack_message(message)
        else:
            data = wire.pack_message(message)
        self.wire_bytes += len(data)
        return data

    def _decode(self, payload):
        if not self.serialize:
            return payload
        profiler = self.sim.profiler
        if profiler is not None and profiler.enabled:
            with profiler.profile("openflow.wire.decode"):
                return wire.unpack_message(payload)
        return wire.unpack_message(payload)

    def connect(self) -> None:
        self.connected = True

    def disconnect(self) -> None:
        self.connected = False

    def set_controller_receiver(self, callback: Callable) -> None:
        self._controller_rx = callback

    def set_switch_receiver(self, callback: Callable) -> None:
        self._switch_rx = callback

    def send_to_controller(self, message) -> None:
        """Switch → controller."""
        if not self.connected:
            return
        self.to_controller_count += 1
        self.sim.schedule(self.latency, self._deliver_to_controller,
                          self._encode(message))

    def send_to_switch(self, message) -> None:
        """Controller → switch."""
        if not self.connected:
            return
        self.to_switch_count += 1
        self.sim.schedule(self.latency, self._deliver_to_switch,
                          self._encode(message))

    def _deliver_to_controller(self, message) -> None:
        if self.connected and self._controller_rx is not None:
            self._controller_rx(self._decode(message))

    def _deliver_to_switch(self, message) -> None:
        if self.connected and self._switch_rx is not None:
            self._switch_rx(self._decode(message))

    def __repr__(self) -> str:
        state = "up" if self.connected else "down"
        return "ControllerChannel(%s, up=%d msgs, down=%d msgs)" % (
            state, self.to_controller_count, self.to_switch_count)
