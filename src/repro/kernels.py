"""Batch kernels for the monitor plane: one pass per window, not per packet.

The feature extractor buffers a window as parallel columns and folds it
once at close; these are the three loops that fold runs through —
TCP-flag classification, count-min bulk add (digest → slot → counter in
one loop, returning the sequential post-add estimates) and HyperLogLog
register max.  Keyed blake2b hashing and float accumulation stay with
their callers in :mod:`repro.monitor.sketch` /
:mod:`repro.monitor.features`.

Each kernel has exactly one implementation and the module imports only
the stdlib: the plane's cost is one keyed hash per unique key per
sketch, which a vectorized twin of these loops does not touch
(EXPERIMENTS M8, M10).
"""

from __future__ import annotations

import sys
from array import array
from typing import NamedTuple


class FlagFold(NamedTuple):
    """One window's flag classification: scalar counts plus selectors.

    The selector lists are per-packet booleans in arrival order —
    ``syn_sel`` marks pure SYNs (no ACK), ``udp_sel`` marks UDP, and
    ``src_sel`` their union (the packets whose source feeds the
    source-distribution state).  They drive ``itertools.compress`` over
    the parallel address columns, so first-touch order is preserved.
    """

    n_tcp: int
    n_syn: int
    n_synack: int
    n_ack: int
    n_rst: int
    n_fin: int
    n_udp: int
    syn_sel: list
    udp_sel: list
    src_sel: list


def classify_flags(
    flags: list, syn_bit: int, ack_bit: int, rst_bit: int, fin_bit: int
) -> FlagFold:
    """Classify a window's TCP-flag column (``-1`` = UDP) in one pass."""
    n = len(flags)
    n_tcp = n_syn = n_synack = n_ack = n_rst = n_fin = n_udp = 0
    syn_sel = [False] * n
    udp_sel = [False] * n
    src_sel = [False] * n
    for i, fl in enumerate(flags):
        if fl >= 0:
            n_tcp += 1
            if fl & syn_bit:
                if fl & ack_bit:
                    n_synack += 1
                else:
                    n_syn += 1
                    syn_sel[i] = True
                    src_sel[i] = True
            elif fl & ack_bit:
                n_ack += 1
            if fl & rst_bit:
                n_rst += 1
            if fl & fin_bit:
                n_fin += 1
        else:
            n_udp += 1
            udp_sel[i] = True
            src_sel[i] = True
    return FlagFold(
        n_tcp, n_syn, n_synack, n_ack, n_rst, n_fin, n_udp,
        syn_sel, udp_sel, src_sel,
    )


def cms_bulk_add(rows: list, width: int, digests: list, counts: list) -> list:
    """Apply per-key increments to count-min rows; returns post-add mins.

    ``rows`` are the sketch's ``array('Q')`` counter rows of ``width``
    counters, ``digests`` the per-key 64-bit keyed digests (first-touch
    key order) and ``counts`` the per-key amounts.  Row ``i`` takes slot
    ``(h1 + i * h2) % width`` with ``h1``/``h2 | 1`` the digest's low/high
    32-bit halves, walked here as ``at += h2``.  The returned list is
    exactly what sequential ``CountMinSketch.add(key, amount)`` calls
    would have returned.
    """
    maxsize = sys.maxsize
    ests = []
    append = ests.append
    for digest, amount in zip(digests, counts):
        at = digest & 0xFFFFFFFF
        step = (digest >> 32) | 1
        est = maxsize
        for row in rows:
            slot = at % width
            value = row[slot] + amount
            row[slot] = value
            if value < est:
                est = value
            at += step
        append(est)
    return ests


def hll_bulk_max(registers: bytearray, slots: list, ranks: list) -> None:
    """Fold per-key (slot, rank) pairs into HLL registers by max."""
    for slot, rank in zip(slots, ranks):
        if rank > registers[slot]:
            registers[slot] = rank


# Ledger-pinned shims.  Nothing under src/ calls the five names below;
# they stay only because benchmarks/ledger resolves them by name
# unconditionally -- trace.WRAPS (uniform_type, f64_pack, i64_pack),
# trace.py:301 (prefer_numpy) and environment.py:60 (active_backend) --
# and go with the ledger-only PR that makes those lookups optional
# (ROADMAP open item 1).


def active_backend() -> str:
    """Always ``"scalar"``: there is one implementation."""
    return "scalar"


def prefer_numpy(n: int) -> bool:
    """Always ``False``: there is no second implementation to prefer."""
    return False


def uniform_type(values, kind: type) -> bool:
    """True when every element's exact type is ``kind``."""
    return list(map(type, values)).count(kind) == len(values)


def f64_pack(values: list) -> bytes:
    """An all-``float`` column as native-order IEEE-754 doubles."""
    return array("d", values).tobytes()


def i64_pack(values: list) -> bytes:
    """An all-``int`` column as native-order int64 (``OverflowError`` past it)."""
    return array("q", values).tobytes()
