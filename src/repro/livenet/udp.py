"""The UDP media probe: real datagrams under a negotiated channel.

The protocol negotiates media *descriptors* on the simulated plane — the
deterministic addresses the parity fingerprint pins.  To demonstrate
that a live channel can actually carry media between two OS processes,
each :class:`~repro.livenet.tcp.LiveNode` may attach one
:class:`MediaProbe`: a bound UDP socket whose real address is exchanged
over the signaling connection (``ProbeFrame``) once media is flowing.
The caller then *blasts* a burst of stamped datagrams at the peer's
probe; the peer echoes each one back; the caller counts echoes.  A
non-zero echo count proves a working bidirectional localhost media path
without perturbing the deterministic control plane at all.

Datagram format (not versioned wire schema — probe traffic never enters
journals or fingerprints)::

    b"RPB?" | key_len u8 | key bytes | seq u16   request
    b"RPB!" | key_len u8 | key bytes | seq u16   echo
"""

from __future__ import annotations

import asyncio
import struct
from typing import Callable, Dict, Optional, Tuple

__all__ = ["MediaProbe"]

_REQ = b"RPB?"
_ECHO = b"RPB!"
_MAX_DATAGRAM = 512


class MediaProbe(asyncio.DatagramProtocol):
    """One bound UDP socket per live node: echo server + echo counter."""

    def __init__(self) -> None:
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._addr: Tuple[str, int] = ("", 0)
        #: Echoes received, per stream key (e.g. channel id).
        self.echoes: Dict[bytes, int] = {}
        #: Requests served (observability for the remote side's tests).
        self.served = 0
        #: Called after each counted echo (the owning node wakes the
        #: code waiting on :meth:`echo_count`).
        self.on_echo: Optional[Callable[[], None]] = None

    # -- lifecycle --------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        loop = asyncio.get_running_loop()
        transport, _ = await loop.create_datagram_endpoint(
            lambda: self, local_addr=(host, port))
        self._transport = transport
        self._addr = transport.get_extra_info("sockname")[:2]

    def close(self) -> None:
        transport, self._transport = self._transport, None
        if transport is not None:
            transport.close()

    @property
    def address(self) -> Tuple[str, int]:
        """The really-bound (host, port), valid after :meth:`start`."""
        return self._addr

    # -- datagram protocol ------------------------------------------------
    def datagram_received(self, data: bytes,
                          addr: Tuple[str, int]) -> None:
        if len(data) < 7 or len(data) > _MAX_DATAGRAM:
            return  # not ours; drop silently (UDP is a hostile place)
        magic, rest = data[:4], data[4:]
        key_len = rest[0]
        if len(rest) != 1 + key_len + 2:
            return
        if magic == _REQ:
            self.served += 1
            if self._transport is not None:
                self._transport.sendto(_ECHO + rest, addr)
        elif magic == _ECHO:
            key = bytes(rest[1:1 + key_len])
            self.echoes[key] = self.echoes.get(key, 0) + 1
            if self.on_echo is not None:
                self.on_echo()

    # -- sending ----------------------------------------------------------
    def blast(self, dest: Tuple[str, int], key: bytes, count: int) -> int:
        """Fire ``count`` request datagrams at ``dest``, stamped with
        ``key``; returns how many were handed to the socket layer."""
        if self._transport is None or len(key) > 64:
            return 0
        head = _REQ + bytes((len(key),)) + key
        for seq in range(count):
            self._transport.sendto(head + struct.pack(">H", seq & 0xFFFF),
                                   dest)
        return count

    def echo_count(self, key: bytes) -> int:
        return self.echoes.get(key, 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<MediaProbe %s:%d served=%d>" % (
            self._addr[0], self._addr[1], self.served)
