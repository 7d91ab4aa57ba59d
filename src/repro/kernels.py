"""Batch kernels with numpy/scalar twins for the monitor and transport planes.

Every kernel in this module exists twice: a vectorized numpy
implementation and a pure-Python scalar reference.  The twins are
*byte-identical* — same sketch counter arrays, same estimate sequences,
same packed buffers — which is what lets the fast path ship without a
semantics review: the ``scalar-kernels`` variant of ``repro check`` and
the Hypothesis properties in ``tests/test_kernels.py`` assert identity
on adversarial inputs, and either twin can serve production traffic.

Backend selection happens once at import: numpy if importable, scalar
otherwise, overridable with ``REPRO_KERNELS=scalar`` (force the
reference twin) or ``set_backend()`` at runtime (used by the oracle to
run both sides in one process).  Even when numpy is active, callers go
through :func:`prefer_numpy` so batches below :data:`MIN_BATCH` stay on
the scalar twin — numpy's fixed per-call overhead loses on tiny windows
(see the ``small`` cases in ``bench_monitor_plane.py``), and identical
twins make the cutover invisible.

What is and is not vectorized is deliberate:

* Keyed blake2b hashing stays scalar — there is no batch primitive for
  keyed blake2b in the stdlib, and the sketches' bounded LRU already
  collapses repeat keys.  The kernels take the *derived* slot/rank
  values and vectorize everything after the hash: count-min scatter-add
  with an exact replay of the sequential post-add estimates, grouped
  HyperLogLog register max, and flag classification.
* Float accumulation (entropy) stays scalar: float addition is not
  associative, and the fingerprint oracles pin bit-exact sums.
* Transport column packing twins (`f64_pack`/`i64_pack`) emit identical
  IEEE-754/two's-complement little-endian bytes; on CPython they also
  run at parity — per-element extraction from an untyped list costs the
  same through ``array`` and ``np.fromiter`` — which is why the real
  transport win is the zero-copy typed-array node, not numpy (see
  DESIGN "Vectorized kernel plane").
"""

from __future__ import annotations

import os
import sys
from array import array
from typing import NamedTuple

try:  # pragma: no cover - exercised via the no-numpy subprocess test
    import numpy as _np
except Exception:  # pragma: no cover
    _np = None

#: True when numpy imported; the *active* backend may still be scalar.
NUMPY_AVAILABLE = _np is not None

#: Batches smaller than this stay on the scalar twin even under numpy:
#: fixed ufunc/allocation overhead dominates below a few dozen elements.
MIN_BATCH = 32

_VALID_BACKENDS = ("numpy", "scalar")

_backend = "scalar"
if NUMPY_AVAILABLE and os.environ.get("REPRO_KERNELS", "").lower() != "scalar":
    _backend = "numpy"


def active_backend() -> str:
    """The selected kernel backend: ``"numpy"`` or ``"scalar"``."""
    return _backend


def using_numpy() -> bool:
    """True when the numpy twin is the active backend."""
    return _backend == "numpy"


def set_backend(name: str) -> None:
    """Select the kernel backend at runtime (oracles run both sides)."""
    global _backend
    if name not in _VALID_BACKENDS:
        raise ValueError(f"unknown kernel backend: {name!r}")
    if name == "numpy" and not NUMPY_AVAILABLE:
        raise RuntimeError("numpy backend requested but numpy is not importable")
    _backend = name


def prefer_numpy(n: int) -> bool:
    """Whether a batch of ``n`` elements should take the numpy twin."""
    return _backend == "numpy" and n >= MIN_BATCH


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
    if prefer_numpy(len(flags)):
        return _classify_flags_numpy(flags, syn_bit, ack_bit, rst_bit, fin_bit)
    return _classify_flags_scalar(flags, syn_bit, ack_bit, rst_bit, fin_bit)


def _classify_flags_scalar(flags, syn_bit, ack_bit, rst_bit, fin_bit):
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


def _classify_flags_numpy(flags, syn_bit, ack_bit, rst_bit, fin_bit):
    fl = _np.asarray(flags, dtype=_np.int64)
    tcp = fl >= 0
    has_syn = tcp & ((fl & syn_bit) != 0)
    has_ack = (fl & ack_bit) != 0
    synack = has_syn & has_ack
    syn = has_syn & ~has_ack
    ack = tcp & ~has_syn & has_ack
    rst = tcp & ((fl & rst_bit) != 0)
    fin = tcp & ((fl & fin_bit) != 0)
    udp = ~tcp
    src = syn | udp
    count = _np.count_nonzero
    return FlagFold(
        int(count(tcp)),
        int(count(syn)),
        int(count(synack)),
        int(count(ack)),
        int(count(rst)),
        int(count(fin)),
        int(count(udp)),
        syn.tolist(),
        udp.tolist(),
        src.tolist(),
    )


def cms_bulk_add(rows: list, slots_list: list, counts: list) -> list:
    """Apply per-key increments to count-min rows; returns post-add mins.

    ``rows`` are the sketch's ``array('Q')`` counter rows, ``slots_list``
    the per-key slot tuples (one slot per row, first-touch key order)
    and ``counts`` the per-key amounts.  The returned list is exactly
    what sequential ``CountMinSketch.add(key, amount)`` calls would have
    returned — the numpy twin replays the sequential within-slot
    estimates via grouped cumulative sums — and the rows end
    byte-identical under either twin (integer adds commute).
    """
    if prefer_numpy(len(counts)):
        return _cms_bulk_numpy(rows, slots_list, counts)
    return _cms_bulk_scalar(rows, slots_list, counts)


def _cms_bulk_scalar(rows, slots_list, counts):
    maxsize = sys.maxsize
    ests = []
    append = ests.append
    for slots, amount in zip(slots_list, counts):
        est = maxsize
        for row, slot in zip(rows, slots):
            value = row[slot] + amount
            row[slot] = value
            if value < est:
                est = value
        append(est)
    return ests


def _cms_bulk_numpy(rows, slots_list, counts):
    n = len(counts)
    cc = _np.asarray(counts, dtype=_np.uint64)
    slot_mat = _np.asarray(slots_list, dtype=_np.uint64)
    start = _np.empty(n, dtype=bool)
    start[0] = True
    best = None
    for r, row in enumerate(rows):
        view = _np.frombuffer(row, dtype=_np.uint64)
        ss = slot_mat[:, r]
        order = _np.argsort(ss, kind="stable")
        ss_s = ss[order]
        cc_s = cc[order]
        csum = _np.cumsum(cc_s)
        _np.not_equal(ss_s[1:], ss_s[:-1], out=start[1:])
        # Exclusive prefix sum at each slot-group start, carried across
        # the group by a running max (valid: csum - cc_s strictly
        # increases from one group start to the next).
        base = _np.maximum.accumulate(_np.where(start, csum - cc_s, 0))
        est_sorted = view[ss_s] + (csum - base)
        est_row = _np.empty(n, dtype=_np.uint64)
        est_row[order] = est_sorted
        _np.add.at(view, ss, cc)
        best = est_row if best is None else _np.minimum(best, est_row)
    return best.tolist()


def hll_bulk_max(registers: bytearray, slots: list, ranks: list) -> None:
    """Fold per-key (slot, rank) pairs into HLL registers by grouped max.

    Max is order-insensitive, so the register file is byte-identical to
    sequential ``HyperLogLog.add`` under either twin.
    """
    if prefer_numpy(len(slots)):
        view = _np.frombuffer(registers, dtype=_np.uint8)
        _np.maximum.at(
            view,
            _np.asarray(slots, dtype=_np.int64),
            _np.asarray(ranks, dtype=_np.uint8),
        )
        return
    for slot, rank in zip(slots, ranks):
        if rank > registers[slot]:
            registers[slot] = rank


def uniform_type(values, kind: type) -> bool:
    """True when every element's exact type is ``kind``.

    One C-level pass (``map`` + ``list.count``) — measurably faster than
    materializing ``set(map(type, ...))`` on large columns — with
    identical accept/reject decisions, so callers' emitted bytes are
    unchanged for every input the set-based scan handled.  Backend
    independent: exact type scanning has no numpy analogue (``array``
    constructors coerce bools/Decimals, so value-level sniffing would
    change acceptance).
    """
    return list(map(type, values)).count(kind) == len(values)


def f64_pack(values: list) -> bytes:
    """Pack an all-``float`` column as little-endian IEEE-754 doubles.

    The twins are bit-exact (NaN payloads and signed zeros included):
    both extract each element with the same C ``PyFloat_AsDouble``
    conversion.  They also *cost* the same — per-element extraction is
    the bottleneck, not the backend — so this twin exists for the
    oracle's pack-byte identity story, not for speed.
    """
    if prefer_numpy(len(values)):
        return _np.fromiter(values, dtype="<f8", count=len(values)).tobytes()
    return array("d", values).tobytes()


def i64_pack(values: list) -> bytes:
    """Pack an all-``int`` column as little-endian int64.

    Raises :class:`OverflowError` on out-of-range values under either
    twin; callers fall back to their pickle path on that signal.
    """
    if prefer_numpy(len(values)):
        return _np.fromiter(values, dtype="<i8", count=len(values)).tobytes()
    return array("q", values).tobytes()
