"""The per-host TCP stack: demultiplexer, port allocator and counters.

One ``TcpStack`` is attached to each :class:`repro.net.host.Host` that
speaks TCP.  It routes inbound segments to connections or listeners,
allocates ephemeral ports, answers unexpected segments with RST, and keeps
the aggregate counters the monitors and metrics layers read.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.headers import PROTO_TCP, TCP_ACK, TCP_RST, TCP_SYN, TcpHeader
from repro.tcp.states import TcpState
from repro.net.host import Host
from repro.net.packet import Packet
from repro.sim.process import Timer
from repro.sim.rng import SeededRng
from repro.tcp.config import COOKIE_SLOT_S, DEFAULT_BACKLOG, EPHEMERAL_HI, EPHEMERAL_LO
from repro.tcp.socket import Connection, ConnKey, ListeningSocket

_new = tuple.__new__  # headers are built positionally: every field, in order


@dataclass
class StackCounters:
    """Aggregate stack statistics (consumed by monitors and metrics)."""

    segments_received: int = 0
    syns_received: int = 0
    syn_acks_sent: int = 0
    handshakes_completed: int = 0
    backlog_drops: int = 0
    half_open_expired: int = 0
    rsts_sent: int = 0
    rsts_received: int = 0
    cookies_sent: int = 0
    cookies_validated: int = 0
    cookie_failures: int = 0


class TcpStack:
    """TCP endpoint logic for one host."""

    #: Factory used by :meth:`create_connection`.  The invariant harness
    #: swaps in a state-machine-checked subclass per stack instance; the
    #: default path pays only this one attribute indirection.
    connection_class: type[Connection] = Connection

    def __init__(self, host: Host, rng: SeededRng, *, syn_cookies: bool = False) -> None:
        self.host = host
        self.sim = host.sim
        self.rng = rng
        # SYN cookies (host-side flood defense, compared against SPI in
        # E11): when the backlog is full, SYNs are answered with a
        # stateless cookie SYN-ACK instead of being dropped.
        self.syn_cookies = syn_cookies
        self.connections: dict[ConnKey, Connection] = {}
        self.listeners: dict[int, ListeningSocket] = {}
        self.counters = StackCounters()
        self._next_ephemeral = EPHEMERAL_LO
        self._cookie_secret = rng.randint(0, 2**63).to_bytes(8, "big")
        host.register_protocol(PROTO_TCP, self._on_ip_packet)

    # ------------------------------------------------------------ sockets

    def listen(
        self,
        port: int,
        backlog: int | None = None,
        on_accept: Optional[Callable[[Connection], None]] = None,
    ) -> ListeningSocket:
        """Open a passive socket on ``port``."""
        if port in self.listeners:
            raise ValueError(f"{self.host.name} already listening on {port}")
        socket = ListeningSocket(
            self, port, backlog or DEFAULT_BACKLOG, on_accept
        )
        self.listeners[port] = socket
        return socket

    def connect(
        self,
        remote_ip: str,
        remote_port: int,
        on_established: Optional[Callable[[Connection], None]] = None,
        on_failed: Optional[Callable[[Connection, str], None]] = None,
    ) -> Connection:
        """Open an active connection from an ephemeral local port."""
        local_port = self._allocate_port(remote_ip, remote_port)
        conn = self.create_connection(local_port, remote_ip, remote_port)
        conn.on_established = on_established
        conn.on_failed = on_failed
        conn.open_active()
        return conn

    def create_connection(
        self,
        local_port: int,
        remote_ip: str,
        remote_port: int,
        listener: Optional[ListeningSocket] = None,
    ) -> Connection:
        """Instantiate and register a connection object."""
        conn = self.connection_class(
            stack=self,
            local_port=local_port,
            remote_ip=remote_ip,
            remote_port=remote_port,
            iss=self.rng.randint(0, 0xFFFFFFFF),
            listener=listener,
        )
        self.connections[conn.key] = conn
        return conn

    def forget(self, conn: Connection) -> None:
        """Remove a closed connection from the demux table."""
        self.connections.pop(conn.key, None)

    def _allocate_port(self, remote_ip: str, remote_port: int) -> int:
        span = EPHEMERAL_HI - EPHEMERAL_LO + 1
        for _ in range(span):
            candidate = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > EPHEMERAL_HI:
                self._next_ephemeral = EPHEMERAL_LO
            key = (self.host.ip, candidate, remote_ip, remote_port)
            if key not in self.connections and candidate not in self.listeners:
                return candidate
        raise RuntimeError(f"{self.host.name}: ephemeral ports exhausted")

    # ------------------------------------------------------------- inbound

    def _on_ip_packet(self, packet: Packet) -> None:
        if packet.tcp is None or packet.ip is None:
            return
        self.counters.segments_received += 1
        header = packet.tcp
        key = (self.host.ip, header.dst_port, packet.ip.src_ip, header.src_port)
        conn = self.connections.get(key)
        if conn is not None:
            conn.handle_segment(header, packet.payload)
            return
        if header.syn and not header.ack_flag:
            self.counters.syns_received += 1
            listener = self.listeners.get(header.dst_port)
            if listener is not None:
                if self.syn_cookies and listener.backlog_full:
                    self._send_syn_cookie(header, packet.ip.src_ip)
                    return
                created = listener.incoming_syn(header, packet.ip.src_ip)
                if created is not None:
                    self.counters.syn_acks_sent += 1
                return
        if (
            self.syn_cookies
            and header.ack_flag
            and not header.syn
            and not header.rst
            and header.dst_port in self.listeners
            and self._accept_cookie_ack(header, packet.ip.src_ip)
        ):
            return
        if not header.rst:
            self._send_rst(packet)

    # --------------------------------------------------------- SYN cookies

    def _cookie(self, src_ip: str, src_port: int, dst_port: int, slot: int) -> int:
        digest = hashlib.sha256(
            self._cookie_secret
            + f"{src_ip}:{src_port}:{dst_port}:{slot}".encode()
        ).digest()
        return int.from_bytes(digest[:4], "big")

    def _cookie_slot(self) -> int:
        return int(self.sim.now / COOKIE_SLOT_S)

    def _send_syn_cookie(self, header: TcpHeader, src_ip: str) -> None:
        """Answer a SYN statelessly: the cookie is our ISN."""
        self.counters.cookies_sent += 1
        cookie = self._cookie(src_ip, header.src_port, header.dst_port, self._cookie_slot())
        reply = _new(TcpHeader, (
            header.dst_port, header.src_port, cookie,
            (header.seq + 1) & 0xFFFFFFFF, TCP_SYN | TCP_ACK, 65535,
        ))
        self.host.send_tcp(src_ip, reply)

    def _accept_cookie_ack(self, header: TcpHeader, src_ip: str) -> bool:
        """Validate a bare ACK against the cookie; on success, promote it
        to an ESTABLISHED connection with no prior half-open state."""
        expected = (header.ack - 1) & 0xFFFFFFFF
        slot = self._cookie_slot()
        if expected not in (
            self._cookie(src_ip, header.src_port, header.dst_port, slot),
            self._cookie(src_ip, header.src_port, header.dst_port, slot - 1),
        ):
            self.counters.cookie_failures += 1
            return False
        self.counters.cookies_validated += 1
        listener = self.listeners[header.dst_port]
        conn = self.create_connection(
            local_port=header.dst_port,
            remote_ip=src_ip,
            remote_port=header.src_port,
            listener=listener,
        )
        conn.snd_nxt = header.ack & 0xFFFFFFFF
        conn.snd_una = conn.snd_nxt
        conn.rcv_nxt = header.seq & 0xFFFFFFFF
        conn.state = TcpState.ESTABLISHED
        conn.stats.established_at = self.sim.now
        self.counters.handshakes_completed += 1
        listener.promote(conn)
        return True

    def _send_rst(self, packet: Packet) -> None:
        """Answer a segment for a non-existent connection with RST."""
        assert packet.tcp is not None and packet.ip is not None
        self.counters.rsts_sent += 1
        inbound = packet.tcp
        ack = (inbound.seq + (1 if inbound.syn or inbound.fin else 0) + len(packet.payload)) & 0xFFFFFFFF
        header = _new(TcpHeader, (
            inbound.dst_port, inbound.src_port,
            inbound.ack if inbound.ack_flag else 0, ack, TCP_RST | TCP_ACK, 65535,
        ))
        self.host.send_tcp(packet.ip.src_ip, header)

    # ------------------------------------------------------------ outbound

    def transmit(self, remote_ip: str, header: TcpHeader, payload: bytes = b"") -> None:
        """Hand a segment to the host NIC."""
        self.host.send_tcp(remote_ip, header, payload)

    def new_timer(self, fn: Callable[[], None], label: str) -> Timer:
        """Create a timer on the shared simulator clock."""
        return Timer(self.sim, fn, label)

    # ----------------------------------------------------------- telemetry

    def total_half_open(self) -> int:
        """Half-open connections across all listeners (flood pressure)."""
        return sum(sock.half_open_count for sock in self.listeners.values())
