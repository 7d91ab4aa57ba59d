"""Deep packet inspection substrate.

The inspector host hangs off an OVS SPAN port.  Each mirrored frame is
an immutable value equal to what its wire bytes parse back into, so the
engine reads the frame it is handed and feeds it to a handshake tracker
that counts, per source, the 3-way handshakes begun, completed and
reset: which sources complete and which leave connections half-open.
"""

from repro.inspection.dpi import DpiEngine, DpiStats
from repro.inspection.tracker import HandshakeEvidence, HandshakeTracker

__all__ = [
    "DpiEngine",
    "DpiStats",
    "HandshakeTracker",
    "HandshakeEvidence",
]
