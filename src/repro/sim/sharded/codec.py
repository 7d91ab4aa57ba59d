"""Canonical encoding for cross-shard boundary messages.

Everything that crosses a shard boundary travels as plain picklable
data.  Live :class:`~repro.net.packet.Packet` objects never cross:
frames are serialized to their canonical wire bytes (``Packet.to_bytes``,
which packs a flood frame here if nothing read it earlier) and re-parsed
on the owning shard — the same byte-exact round trip the fast-path tests
already assert.  ``PacketIn``, the one OpenFlow message that embeds a
packet, is rebuilt field-by-field with its original ``xid`` (passing
``xid`` explicitly skips the ``default_factory``, so decoding consumes
nothing from the xid counter); every other message type is plain data
and is shipped whole.

A boundary record is the tuple::

    (t_arr, emit_time, kind, entity, seq, dest, payload)

* ``t_arr``    — arrival time on the destination shard;
* ``emit_time``— simulated time the message was emitted (the primary
  tie-break at equal arrival times: in a single-process run, an earlier
  emission gets the lower event sequence number);
* ``kind``     — surface rank (cut link < channel-up < channel-down <
  alert), see the KIND_* constants;
* ``entity``   — deterministic per-surface rank (link index × 2 +
  direction, switch datapath id, monitor deployment index);
* ``seq``      — the emitting shard's monotone emission counter;
* ``dest``     — destination shard index;
* ``payload``  — surface-specific plain data.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.net.packet import Packet, parse_packet
from repro.openflow.messages import Message, PacketIn

__all__ = [
    "KIND_LINK",
    "KIND_CHAN_UP",
    "KIND_CHAN_DOWN",
    "KIND_ALERT",
    "encode_packet",
    "decode_packet",
    "encode_message",
    "decode_message",
    "encode_batch",
    "decode_batch",
    "sort_key",
]

KIND_LINK = 0
KIND_CHAN_UP = 1
KIND_CHAN_DOWN = 2
KIND_ALERT = 3


def encode_packet(packet: Packet) -> bytes:
    """Canonical wire bytes for one frame."""
    return packet.to_bytes()


def decode_packet(raw: bytes) -> Packet:
    """Rebuild a frame from its wire bytes (pool-free, byte-exact)."""
    return parse_packet(raw)


def encode_message(message: Message) -> tuple[str, Any]:
    """One OpenFlow message as (tag, plain data)."""
    if isinstance(message, PacketIn):
        return (
            "packet-in",
            (
                message.datapath_id,
                message.buffer_id,
                message.in_port,
                message.packet.to_bytes(),
                message.reason,
                message.xid,
            ),
        )
    # PacketOut / FlowMod / FlowRemoved / flow-stats requests and replies
    # are plain dataclasses over plain data; ship them whole.
    return ("pickled", message)


def decode_message(encoded: tuple[str, Any]) -> Message:
    """Inverse of :func:`encode_message`."""
    tag, body = encoded
    if tag == "packet-in":
        datapath_id, buffer_id, in_port, raw, reason, xid = body
        return PacketIn(
            datapath_id=datapath_id,
            buffer_id=buffer_id,
            in_port=in_port,
            packet=parse_packet(raw),
            reason=reason,
            xid=xid,
        )
    return body


_BATCH_MAGIC = b"RBB2"


def encode_batch(records: list) -> bytes:
    """One epoch's boundary records for a single (src, dest) pair, framed
    as ``_BATCH_MAGIC`` + one pickle of the record list.

    ``decode_batch`` restores the exact record tuples — ordering, types
    and all — so the ``(t_arr, emit_time, kind, entity, seq)`` ingest
    contract is untouched by transport.
    """
    return _BATCH_MAGIC + pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL)


def decode_batch(data: Any) -> list:
    """Inverse of :func:`encode_batch`."""
    buf = memoryview(data)
    if buf[:4] != _BATCH_MAGIC:
        raise ValueError("corrupt boundary batch: bad magic")
    try:
        return pickle.loads(buf[4:])
    except Exception as exc:  # pickle documents no closed set for bad input
        raise ValueError(f"corrupt boundary batch: {exc!r}") from exc


def sort_key(src_shard: int, record: tuple) -> tuple:
    """Deterministic ingest order for one epoch's routed records.

    ``(t_arr, emit_time, kind, entity, source shard, emission seq)`` —
    shard-count-invariant, and equal to the single-process event order
    wherever emission times differ (see DESIGN.md for the argument).
    ``dest`` and ``payload`` are excluded.
    """
    t_arr, emit_time, kind, entity, seq, _dest, _payload = record
    return (t_arr, emit_time, kind, entity, src_shard, seq)
