"""Constants of the TCP stack.

Values are scaled for simulation: timeouts are shorter than Linux's
(e.g. TIME_WAIT is 2x1s rather than 2x60s) so experiments settle within
seconds of simulated time, but the *relationships* between them — SYN
retransmission backoff, half-open expiry dominating backlog recycling —
match a real stack's.  SYN cookies, the one per-stack choice, are a
:class:`~repro.tcp.stack.TcpStack` keyword.
"""

from __future__ import annotations

# Server side: the resource a SYN flood exhausts.
DEFAULT_BACKLOG = 128
HALF_OPEN_TIMEOUT = 3.0
SYN_ACK_RETRIES = 2

# SYN cookie time slot: a cookie validates within the slot it was issued
# in and the one before.
COOKIE_SLOT_S = 64.0

# Client side.
SYN_TIMEOUT = 1.0
SYN_RETRIES = 2
SYN_BACKOFF = 2.0

# Data transfer (stop-and-wait).
DATA_RTO = 1.0
DATA_RETRIES = 3
MSS = 1460

# Teardown.
MSL = 1.0

# Port allocation.
EPHEMERAL_LO = 32768
EPHEMERAL_HI = 60999
