"""Simplified but faithful TCP for handshake-centric experiments.

The SYN-flood attack and its detection live entirely in the 3-way
handshake, so this stack implements: listening sockets with a finite SYN
backlog, half-open (SYN_RECEIVED) tracking with timeouts and SYN-ACK
retransmission, client SYN retransmission with backoff, RST generation,
stop-and-wait data transfer and the common FIN teardown paths.
"""

from repro.tcp.states import TcpState
from repro.tcp.socket import Connection, ConnectionStats, ListeningSocket
from repro.tcp.stack import StackCounters, TcpStack

__all__ = [
    "TcpState",
    "Connection",
    "ConnectionStats",
    "ListeningSocket",
    "TcpStack",
    "StackCounters",
]
