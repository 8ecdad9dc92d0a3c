"""Shared machinery for packet header classes."""

from typing import Optional, Type, Union


class PacketError(Exception):
    """Raised when a buffer cannot be parsed as the requested header."""


def checksum(data: bytes) -> int:
    """RFC 1071 Internet checksum over ``data``.

    The one's-complement sum of big-endian 16-bit words is congruent to
    the buffer read as one big-endian integer modulo 0xFFFF (2**16 = 1
    mod 0xFFFF), so the sum is one C-level ``int.from_bytes`` and one
    modulo.  A non-zero sum folds to a value in 1..0xFFFF, with 0xFFFF
    standing for 0 mod 0xFFFF; only an all-zero buffer sums to 0.  An
    odd-length buffer is zero-padded, i.e. shifted one byte left.
    """
    total = int.from_bytes(data, "big")
    if not total:
        return 0xFFFF
    if len(data) % 2:
        total <<= 8
    return 0xFFFF - (total % 0xFFFF or 0xFFFF)


class Header:
    """Base class for protocol headers.

    Subclasses implement :meth:`pack_header` and :meth:`unpack`.  Payloads
    chain through :attr:`payload`, which is either another header, raw
    ``bytes``, or ``None``.
    """

    payload: Union["Header", bytes, None] = None

    def pack(self) -> bytes:
        """Serialize this header and everything below it."""
        return self.pack_header() + self.pack_payload()

    def pack_header(self) -> bytes:
        raise NotImplementedError

    def pack_payload(self) -> bytes:
        if self.payload is None:
            return b""
        if isinstance(self.payload, Header):
            return self.payload.pack()
        return bytes(self.payload)

    @classmethod
    def unpack(cls, data: bytes) -> "Header":
        raise NotImplementedError

    def find(self, kind: Type["Header"]) -> Optional["Header"]:
        """Return the first header of type ``kind`` in this chain."""
        node: Union[Header, bytes, None] = self
        while isinstance(node, Header):
            if isinstance(node, kind):
                return node
            node = node.payload
        return None

    def raw_payload(self) -> bytes:
        """The innermost raw bytes of the chain (``b""`` when absent)."""
        node: Union[Header, bytes, None] = self.payload
        while isinstance(node, Header):
            node = node.payload
        return bytes(node) if node is not None else b""

    def __len__(self) -> int:
        return len(self.pack())
