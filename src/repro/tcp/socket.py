"""Connections and listening sockets.

``Connection`` is one endpoint of a TCP conversation and owns the state
machine for that endpoint.  ``ListeningSocket`` owns the finite SYN
backlog — the precise resource a SYN flood exhausts — and spawns
``Connection`` objects in SYN_RECEIVED as SYNs arrive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.headers import TCP_ACK, TCP_FIN, TCP_PSH, TCP_RST, TCP_SYN, TcpHeader
from repro.tcp.config import (
    DATA_RETRIES,
    DATA_RTO,
    HALF_OPEN_TIMEOUT,
    MSL,
    MSS,
    SYN_ACK_RETRIES,
    SYN_BACKOFF,
    SYN_RETRIES,
    SYN_TIMEOUT,
)
from repro.tcp.states import TcpState

_new = tuple.__new__  # headers are built positionally: every field, in order

if TYPE_CHECKING:
    from repro.tcp.stack import TcpStack


ConnKey = tuple[str, int, str, int]  # (local_ip, local_port, remote_ip, remote_port)


@dataclass
class ConnectionStats:
    """Per-connection timing and counters used by the metrics layer."""

    created_at: float = 0.0
    established_at: Optional[float] = None
    closed_at: Optional[float] = None
    syn_retransmits: int = 0
    syn_ack_retransmits: int = 0
    data_retransmits: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    def handshake_latency(self) -> Optional[float]:
        """Seconds from first SYN to ESTABLISHED, if it completed."""
        if self.established_at is None:
            return None
        return self.established_at - self.created_at


@dataclass
class _Unacked:
    """A stop-and-wait in-flight data segment awaiting its ACK."""

    seq: int
    data: bytes
    retries_left: int


class Connection:
    """One endpoint of a TCP conversation.

    The stack drives it by calling :meth:`handle_segment`; applications
    drive it with :meth:`send` and :meth:`close` and observe it through
    the ``on_established`` / ``on_data`` / ``on_closed`` / ``on_failed``
    callbacks.
    """

    def __init__(
        self,
        stack: "TcpStack",
        local_port: int,
        remote_ip: str,
        remote_port: int,
        iss: int,
        listener: Optional["ListeningSocket"] = None,
    ) -> None:
        self.stack = stack
        self.local_ip = stack.host.ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.listener = listener
        self.state = TcpState.CLOSED
        self.snd_nxt = iss
        self.snd_una = iss
        self.rcv_nxt = 0
        self.stats = ConnectionStats(created_at=stack.sim.now)
        self.on_established: Optional[Callable[["Connection"], None]] = None
        self.on_data: Optional[Callable[["Connection", bytes], None]] = None
        self.on_closed: Optional[Callable[["Connection"], None]] = None
        self.on_failed: Optional[Callable[["Connection", str], None]] = None
        self._send_queue: deque[bytes] = deque()
        self._inflight: Optional[_Unacked] = None
        self._retx_timer = stack.new_timer(self._on_data_timeout, "tcp.data_rto")
        self._handshake_timer = stack.new_timer(self._on_handshake_timeout, "tcp.handshake")
        self._handshake_tries = 0
        self._fin_sent = False

    @property
    def key(self) -> ConnKey:
        """Demux key within the owning stack."""
        return (self.local_ip, self.local_port, self.remote_ip, self.remote_port)

    def __repr__(self) -> str:
        return (
            f"<Connection {self.local_ip}:{self.local_port}<->"
            f"{self.remote_ip}:{self.remote_port} {self.state.value}>"
        )

    # ---------------------------------------------------------------- open

    def open_active(self) -> None:
        """Client side: fire the first SYN."""
        self.state = TcpState.SYN_SENT
        self._handshake_tries = 0
        self._send_syn()

    def open_passive(self, remote_seq: int) -> None:
        """Server side: a SYN arrived; reply SYN-ACK and wait for the ACK."""
        self.state = TcpState.SYN_RECEIVED
        self.rcv_nxt = (remote_seq + 1) & 0xFFFFFFFF
        self._handshake_tries = 0
        self._send_syn_ack()
        self._handshake_timer.start(HALF_OPEN_TIMEOUT)

    def _send_syn(self) -> None:
        self._send_flags(TCP_SYN, seq=self.snd_nxt)
        self._handshake_timer.start(
            SYN_TIMEOUT * (SYN_BACKOFF ** self._handshake_tries)
        )

    def _send_syn_ack(self) -> None:
        self._send_flags(TCP_SYN | TCP_ACK, seq=self.snd_nxt, ack=self.rcv_nxt)

    def _on_handshake_timeout(self) -> None:
        if self.state is TcpState.SYN_SENT:
            if self._handshake_tries >= SYN_RETRIES:
                self._fail("syn-timeout")
                return
            self._handshake_tries += 1
            self.stats.syn_retransmits += 1
            self._send_syn()
        elif self.state is TcpState.SYN_RECEIVED:
            if self._handshake_tries >= SYN_ACK_RETRIES:
                # Half-open entry expires: the backlog slot is recycled.
                self.stack.counters.half_open_expired += 1
                self._fail("half-open-timeout", quiet=True)
                return
            self._handshake_tries += 1
            self.stats.syn_ack_retransmits += 1
            self._send_syn_ack()
            self._handshake_timer.start(HALF_OPEN_TIMEOUT)

    # ---------------------------------------------------------------- data

    def send(self, data: bytes) -> None:
        """Queue application data (stop-and-wait, MSS-sized segments)."""
        if not self.state.open:
            raise RuntimeError(f"cannot send in state {self.state.value}")
        for start in range(0, len(data), MSS):
            self._send_queue.append(data[start:start + MSS])
        self._pump_data()

    def _pump_data(self) -> None:
        if self._inflight is not None or not self._send_queue:
            return
        data = self._send_queue.popleft()
        self._inflight = _Unacked(
            seq=self.snd_nxt, data=data, retries_left=DATA_RETRIES
        )
        self.snd_nxt = (self.snd_nxt + len(data)) & 0xFFFFFFFF
        self._transmit_inflight()

    def _transmit_inflight(self) -> None:
        assert self._inflight is not None
        self._send_flags(
            TCP_PSH | TCP_ACK,
            seq=self._inflight.seq,
            ack=self.rcv_nxt,
            payload=self._inflight.data,
        )
        self._retx_timer.start(DATA_RTO)

    def _on_data_timeout(self) -> None:
        if self._inflight is None:
            return
        if self._inflight.retries_left <= 0:
            self._fail("data-timeout")
            return
        self._inflight.retries_left -= 1
        self.stats.data_retransmits += 1
        self._transmit_inflight()

    # --------------------------------------------------------------- close

    def close(self) -> None:
        """Application close: send FIN on the appropriate path."""
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
            self._send_fin()
        elif self.state is TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK
            self._send_fin()
        elif self.state in (TcpState.SYN_SENT, TcpState.SYN_RECEIVED):
            self._fail("closed-during-handshake", quiet=True)
        # Closing an already-closing connection is a no-op.

    def abort(self) -> None:
        """Send RST and drop the connection immediately."""
        if not self.state.terminal:
            self._send_flags(TCP_RST | TCP_ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
            self._teardown(notify_closed=True)

    def _send_fin(self) -> None:
        self._fin_sent = True
        self._send_flags(TCP_FIN | TCP_ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
        self.snd_nxt = (self.snd_nxt + 1) & 0xFFFFFFFF

    # ------------------------------------------------------------- segment

    def handle_segment(self, header: TcpHeader, payload: bytes) -> None:
        """Advance the state machine on an arriving segment."""
        if header.rst:
            self._handle_rst()
            return
        if self.state is TcpState.SYN_SENT:
            self._handle_in_syn_sent(header)
        elif self.state is TcpState.SYN_RECEIVED:
            self._handle_in_syn_received(header)
        elif self.state.open:
            self._handle_in_open(header, payload)

    def _handle_rst(self) -> None:
        self.stack.counters.rsts_received += 1
        if self.state in (TcpState.SYN_SENT, TcpState.SYN_RECEIVED):
            self._fail("reset")
        else:
            self._teardown(notify_closed=True)

    def _handle_in_syn_sent(self, header: TcpHeader) -> None:
        if header.syn and header.ack_flag:
            self.rcv_nxt = (header.seq + 1) & 0xFFFFFFFF
            self.snd_nxt = (self.snd_nxt + 1) & 0xFFFFFFFF
            self.snd_una = self.snd_nxt
            self._handshake_timer.cancel()
            self._send_flags(TCP_ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
            self._become_established()

    def _handle_in_syn_received(self, header: TcpHeader) -> None:
        if header.syn and not header.ack_flag:
            # Duplicate SYN (client retransmission): repeat the SYN-ACK.
            self._send_syn_ack()
            return
        if header.ack_flag and header.ack == ((self.snd_nxt + 1) & 0xFFFFFFFF):
            self.snd_nxt = (self.snd_nxt + 1) & 0xFFFFFFFF
            self.snd_una = self.snd_nxt
            self._handshake_timer.cancel()
            self._become_established()
            if self.listener is not None:
                self.listener.promote(self)

    def _become_established(self) -> None:
        self.state = TcpState.ESTABLISHED
        self.stats.established_at = self.stack.sim.now
        self.stack.counters.handshakes_completed += 1
        if self.on_established is not None:
            self.on_established(self)

    def _handle_in_open(self, header: TcpHeader, payload: bytes) -> None:
        if header.ack_flag:
            self._process_ack(header.ack)
        if payload:
            self._process_data(header, payload)
        if header.fin:
            self._process_fin(header)

    def _process_ack(self, ack: int) -> None:
        if self._inflight is not None:
            expected = (self._inflight.seq + len(self._inflight.data)) & 0xFFFFFFFF
            if ack == expected:
                self.snd_una = ack
                self._inflight = None
                self._retx_timer.cancel()
                self._pump_data()
        if self._fin_sent and ack == self.snd_nxt:
            self._process_fin_ack()

    def _process_fin_ack(self) -> None:
        if self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.FIN_WAIT_2
        elif self.state is TcpState.LAST_ACK:
            self._teardown(notify_closed=True)
        elif self.state is TcpState.CLOSING:
            self._enter_time_wait()

    def _process_data(self, header: TcpHeader, payload: bytes) -> None:
        if header.seq != self.rcv_nxt:
            # Duplicate or out-of-window: re-ACK what we have.
            self._send_flags(TCP_ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
            return
        self.rcv_nxt = (self.rcv_nxt + len(payload)) & 0xFFFFFFFF
        self.stats.bytes_received += len(payload)
        self._send_flags(TCP_ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
        if self.on_data is not None:
            self.on_data(self, payload)

    def _process_fin(self, header: TcpHeader) -> None:
        self.rcv_nxt = (self.rcv_nxt + 1) & 0xFFFFFFFF
        self._send_flags(TCP_ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
            if self.on_data is not None:
                self.on_data(self, b"")  # EOF signal
        elif self.state is TcpState.FIN_WAIT_2:
            self._enter_time_wait()
        elif self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.CLOSING

    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        self.stack.sim.schedule(
            2 * MSL, lambda: self._teardown(notify_closed=True), "tcp.time_wait"
        )

    # ------------------------------------------------------------ plumbing

    def _send_flags(self, flags: int, seq: int, ack: int = 0, payload: bytes = b"") -> None:
        header = _new(TcpHeader, (self.local_port, self.remote_port, seq, ack, flags, 65535))
        if payload:
            self.stats.bytes_sent += len(payload)
        self.stack.transmit(self.remote_ip, header, payload)

    def _fail(self, reason: str, quiet: bool = False) -> None:
        self._teardown(notify_closed=False)
        if not quiet and self.on_failed is not None:
            self.on_failed(self, reason)
        elif quiet and self.listener is not None:
            pass  # backlog slot already released in _teardown

    def _teardown(self, notify_closed: bool) -> None:
        if self.state.terminal:
            return
        was_half_open = self.state.half_open
        self.state = TcpState.CLOSED
        self.stats.closed_at = self.stack.sim.now
        self._retx_timer.cancel()
        self._handshake_timer.cancel()
        self.stack.forget(self)
        if self.listener is not None and was_half_open:
            self.listener.release_half_open(self)
        if notify_closed and self.on_closed is not None:
            self.on_closed(self)


class ListeningSocket:
    """A passive socket with a finite SYN backlog.

    ``backlog`` bounds the number of simultaneous half-open
    (SYN_RECEIVED) connections; when the backlog is full, fresh SYNs are
    silently dropped, which is exactly the denial a SYN flood causes.
    """

    def __init__(
        self,
        stack: "TcpStack",
        port: int,
        backlog: int,
        on_accept: Optional[Callable[[Connection], None]] = None,
    ) -> None:
        self.stack = stack
        self.port = port
        self.backlog = backlog
        self.on_accept = on_accept
        self.half_open: dict[ConnKey, Connection] = {}
        self.accepted = 0
        self.backlog_drops = 0

    @property
    def half_open_count(self) -> int:
        """Current number of embryonic connections."""
        return len(self.half_open)

    @property
    def backlog_full(self) -> bool:
        """True when a fresh SYN would be dropped."""
        return len(self.half_open) >= self.backlog

    def incoming_syn(self, header: TcpHeader, src_ip: str) -> Optional[Connection]:
        """Process an inbound SYN; returns the new connection or ``None``."""
        key = (self.stack.host.ip, self.port, src_ip, header.src_port)
        existing = self.half_open.get(key)
        if existing is not None:
            existing.handle_segment(header, b"")
            return existing
        if self.backlog_full:
            self.backlog_drops += 1
            self.stack.counters.backlog_drops += 1
            return None
        conn = self.stack.create_connection(
            local_port=self.port,
            remote_ip=src_ip,
            remote_port=header.src_port,
            listener=self,
        )
        self.half_open[key] = conn
        conn.open_passive(header.seq)
        return conn

    def promote(self, conn: Connection) -> None:
        """Handshake completed: move out of the backlog and accept."""
        self.half_open.pop(conn.key, None)
        self.accepted += 1
        if self.on_accept is not None:
            self.on_accept(conn)

    def release_half_open(self, conn: Connection) -> None:
        """A half-open entry expired or was reset: recycle the slot."""
        self.half_open.pop(conn.key, None)
