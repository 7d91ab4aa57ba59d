"""Binary result transport: columnar codec + shared-memory segments.

The process pool (:mod:`repro.harness.parallel`) and the sharded epoch
protocol (:mod:`repro.harness.shards`) both ship values whose bulk is
numeric — flat ``float``/``int`` sequences, homogeneous tuple rows
(time series, counter tables), and nested dicts thereof — wrapped in a
little string metadata.  Pickling those spends most of its time
building per-element object headers.  This module packs the numeric
bulk into typed contiguous buffers (``array``/``struct``) behind a
compact self-describing schema, and falls back to pickle for any
residue, so *every* current payload still transports and conforming
payloads decode with one ``frombytes`` per column instead of one
object per element.

Guarantees of ``unpack(pack(v))``:

* value equality, including NaN/±inf/-0.0 bit patterns (IEEE doubles
  are copied, not re-parsed) and arbitrary-precision ints;
* exact container types — ``list`` vs ``tuple`` is preserved, dict
  insertion order is preserved, ``bool`` is never conflated with
  ``int`` nor ``int`` with ``float``, and ``array.array('d'|'q'|'Q')``
  round-trips as an ``array`` of the same typecode (the *typed-array*
  node: the buffer is appended zero-copy on pack and rebuilt with one
  ``frombytes`` on decode — the cheapest way to ship float/int bulk,
  and the one pack shape that beats ``pickle.dumps``; untyped lists
  pay an unavoidable per-element extraction either way, see DESIGN
  "Vectorized kernel plane");
* anything non-conforming (ragged rows, mixed-type columns, foreign
  objects, >2**63 ints, structures nested past the depth cap) rides a
  pickle node.  Identity *sharing* between separately encoded subtrees
  is not preserved (each pickle node has its own memo), which is
  invisible to the plain-data payloads the harness extracts.

The shared-memory helpers centralise the one subtle bit: on Python
3.11 every ``SharedMemory`` handle — creator *and* attacher —
registers with the ``resource_tracker``, so a worker that creates a
segment for its parent must explicitly unregister after closing or the
tracker unlinks the segment when the worker exits.  ``shm_put`` does
that; the parent's ``unlink()`` then retires its own registration.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
from array import array
from typing import Any, Optional

from repro import kernels

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import resource_tracker
    from multiprocessing.shared_memory import SharedMemory

    SHM_AVAILABLE = True
except ImportError:  # pragma: no cover - exotic builds only
    SharedMemory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]
    SHM_AVAILABLE = False

MAGIC = b"RTC1"

# Node tags.  The format is recursive: every node is one tag byte plus
# a tag-specific payload; lengths use native-order standard-size struct
# codes ("=I"/"=Q") so they agree with array.tobytes on the same host
# (pack and unpack always run on one machine — parent and its spawned
# workers).
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3  # =q scalar
_T_FLOAT = 4  # =d scalar
_T_STR = 5  # =I length + utf-8
_T_BYTES = 6  # =I length + raw
_T_PICKLE = 7  # =Q length + pickle blob
_T_NUM_ARRAY = 8  # container, code('d'|'q'), =I count, count*8 raw
_T_STR_ARRAY = 9  # container, blob column
_T_BYTES_ARRAY = 10  # container, blob column
_T_ROWS = 11  # container, =I nrows, =B ncols, ncols columns
_T_LIST = 12  # container, =I count, count nodes
_T_DICT = 13  # =I count, count * (key node + value node)
_T_TYPED_ARRAY = 14  # typecode char, =I count, count*8 raw buffer

# Column kinds inside a _T_ROWS node.
_C_FLOAT = 0
_C_INT = 1
_C_STR = 2
_C_BYTES = 3
_C_PICKLE = 4

_CONTAINER_LIST = 0
_CONTAINER_TUPLE = 1

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_MAX_BLOB = 0xFFFFFFFF  # =I ceiling for str/bytes scalars
_MAX_DEPTH = 32


def _pickle_node(out: bytearray, value: Any) -> None:
    blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    out.append(_T_PICKLE)
    out += struct.pack("=Q", len(blob))
    out += blob


def _pack_blob_column(out: bytearray, parts: list[bytes]) -> None:
    """Length-prefixed concatenation: count, end offsets, joined blob."""
    ends = array("Q")
    total = 0
    for part in parts:
        total += len(part)
        ends.append(total)
    out += struct.pack("=I", len(parts))
    out += ends.tobytes()
    out += struct.pack("=Q", total)
    for part in parts:
        out += part


def _pack_rows(out: bytearray, rows: Any, container: int) -> bool:
    """Columnar encoding for same-width tuple rows; False if unsuitable."""
    ncols = len(rows[0])
    if not 0 < ncols <= 255:
        return False
    for row in rows:
        if len(row) != ncols:
            return False
    out.append(_T_ROWS)
    out.append(container)
    out += struct.pack("=IB", len(rows), ncols)
    for col_idx in range(ncols):
        col = [row[col_idx] for row in rows]
        kind = type(col[0])
        if kind is float and kernels.uniform_type(col, float):
            out.append(_C_FLOAT)
            out += kernels.f64_pack(col)
            continue
        if kind is int and kernels.uniform_type(col, int):
            try:
                packed = kernels.i64_pack(col)
            except OverflowError:
                packed = None
            if packed is not None:
                out.append(_C_INT)
                out += packed
                continue
        if kind is str and kernels.uniform_type(col, str):
            encoded = [item.encode("utf-8") for item in col]
            if sum(map(len, encoded)) <= _MAX_BLOB:
                out.append(_C_STR)
                _pack_blob_column(out, encoded)
                continue
        if (
            kind is bytes
            and kernels.uniform_type(col, bytes)
            and sum(map(len, col)) <= _MAX_BLOB
        ):
            out.append(_C_BYTES)
            _pack_blob_column(out, col)
            continue
        blob = pickle.dumps(col, protocol=pickle.HIGHEST_PROTOCOL)
        out.append(_C_PICKLE)
        out += struct.pack("=Q", len(blob))
        out += blob
    return True


def _pack_sequence(out: bytearray, value: Any, depth: int) -> None:
    container = (
        _CONTAINER_TUPLE if type(value) is tuple else _CONTAINER_LIST
    )
    n = len(value)
    if n and n <= _MAX_BLOB:
        # Dispatch on the first element's type, then confirm homogeneity
        # with one C-level pass; accept/reject decisions are identical
        # to the old set(map(type, ...)) scan, so emitted bytes are
        # unchanged for every input — the probe is just cheaper.
        kind = type(value[0])
        if kind is float:
            if kernels.uniform_type(value, float):
                out.append(_T_NUM_ARRAY)
                out.append(container)
                out.append(_C_FLOAT)
                out += struct.pack("=I", n)
                out += kernels.f64_pack(value)
                return
        elif kind is int:
            if kernels.uniform_type(value, int):
                try:
                    packed = kernels.i64_pack(value)
                except OverflowError:
                    packed = None
                if packed is not None:
                    out.append(_T_NUM_ARRAY)
                    out.append(container)
                    out.append(_C_INT)
                    out += struct.pack("=I", n)
                    out += packed
                    return
        elif kind is str:
            if kernels.uniform_type(value, str):
                encoded = [item.encode("utf-8") for item in value]
                if sum(map(len, encoded)) <= _MAX_BLOB:
                    out.append(_T_STR_ARRAY)
                    out.append(container)
                    _pack_blob_column(out, encoded)
                    return
        elif kind is bytes:
            if kernels.uniform_type(value, bytes) and (
                sum(map(len, value)) <= _MAX_BLOB
            ):
                out.append(_T_BYTES_ARRAY)
                out.append(container)
                _pack_blob_column(out, value)
                return
        elif kind is tuple:
            if kernels.uniform_type(value, tuple) and _pack_rows(
                out, value, container
            ):
                return
    out.append(_T_LIST)
    out.append(container)
    out += struct.pack("=I", n)  # caller bounds n at _MAX_BLOB
    for item in value:
        _pack_into(out, item, depth + 1)


def _pack_into(out: bytearray, value: Any, depth: int) -> None:
    if value is None:
        out.append(_T_NONE)
        return
    kind = type(value)
    if kind is bool:
        out.append(_T_TRUE if value else _T_FALSE)
        return
    if kind is int:
        if _INT64_MIN <= value <= _INT64_MAX:
            out.append(_T_INT)
            out += struct.pack("=q", value)
        else:
            _pickle_node(out, value)
        return
    if kind is float:
        out.append(_T_FLOAT)
        out += struct.pack("=d", value)
        return
    if kind is str:
        raw = value.encode("utf-8")
        if len(raw) <= _MAX_BLOB:
            out.append(_T_STR)
            out += struct.pack("=I", len(raw))
            out += raw
        else:  # pragma: no cover - >4 GiB string
            _pickle_node(out, value)
        return
    if kind is bytes:
        if len(value) <= _MAX_BLOB:
            out.append(_T_BYTES)
            out += struct.pack("=I", len(value))
            out += value
        else:  # pragma: no cover - >4 GiB blob
            _pickle_node(out, value)
        return
    if kind is array:
        code = value.typecode
        if code in ("d", "q", "Q") and len(value) <= _MAX_BLOB:
            out.append(_T_TYPED_ARRAY)
            out += struct.pack("=BI", ord(code), len(value))
            out += value  # raw buffer append: zero-copy, no tobytes()
        else:  # other typecodes are machine-width-dependent: pickle them
            _pickle_node(out, value)
        return
    if kind is list or kind is tuple:
        if depth >= _MAX_DEPTH or len(value) > _MAX_BLOB:
            _pickle_node(out, value)
        else:
            _pack_sequence(out, value, depth)
        return
    if kind is dict:
        if depth >= _MAX_DEPTH or len(value) > _MAX_BLOB:
            _pickle_node(out, value)
            return
        out.append(_T_DICT)
        out += struct.pack("=I", len(value))
        for key, item in value.items():
            _pack_into(out, key, depth + 1)
            _pack_into(out, item, depth + 1)
        return
    _pickle_node(out, value)


def pack(value: Any) -> bytes:
    """Encode any picklable value into the self-describing binary form."""
    out = bytearray(MAGIC)
    _pack_into(out, value, 0)
    return bytes(out)


def _unpack_blob_column(buf: memoryview, offset: int) -> tuple[list[bytes], int]:
    (count,) = struct.unpack_from("=I", buf, offset)
    offset += 4
    ends = array("Q")
    ends.frombytes(buf[offset : offset + 8 * count])
    offset += 8 * count
    (total,) = struct.unpack_from("=Q", buf, offset)
    offset += 8
    blob = bytes(buf[offset : offset + total])
    offset += total
    parts: list[bytes] = []
    start = 0
    for end in ends:
        parts.append(blob[start:end])
        start = end
    return parts, offset


def _unpack_from(buf: memoryview, offset: int) -> tuple[Any, int]:
    tag = buf[offset]
    offset += 1
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_INT:
        return struct.unpack_from("=q", buf, offset)[0], offset + 8
    if tag == _T_FLOAT:
        return struct.unpack_from("=d", buf, offset)[0], offset + 8
    if tag == _T_STR:
        (length,) = struct.unpack_from("=I", buf, offset)
        offset += 4
        return str(buf[offset : offset + length], "utf-8"), offset + length
    if tag == _T_BYTES:
        (length,) = struct.unpack_from("=I", buf, offset)
        offset += 4
        return bytes(buf[offset : offset + length]), offset + length
    if tag == _T_PICKLE:
        (length,) = struct.unpack_from("=Q", buf, offset)
        offset += 8
        return pickle.loads(buf[offset : offset + length]), offset + length
    if tag == _T_NUM_ARRAY:
        container = buf[offset]
        code = buf[offset + 1]
        (count,) = struct.unpack_from("=I", buf, offset + 2)
        offset += 6
        values = array("d" if code == _C_FLOAT else "q")
        values.frombytes(buf[offset : offset + 8 * count])
        offset += 8 * count
        items = values.tolist()
        if container == _CONTAINER_TUPLE:
            return tuple(items), offset
        return items, offset
    if tag in (_T_STR_ARRAY, _T_BYTES_ARRAY):
        container = buf[offset]
        parts, offset = _unpack_blob_column(buf, offset + 1)
        if tag == _T_STR_ARRAY:
            decoded: Any = [part.decode("utf-8") for part in parts]
        else:
            decoded = parts
        if container == _CONTAINER_TUPLE:
            return tuple(decoded), offset
        return decoded, offset
    if tag == _T_ROWS:
        container = buf[offset]
        nrows, ncols = struct.unpack_from("=IB", buf, offset + 1)
        offset += 6
        columns: list[list[Any]] = []
        for _ in range(ncols):
            kind = buf[offset]
            offset += 1
            if kind in (_C_FLOAT, _C_INT):
                values = array("d" if kind == _C_FLOAT else "q")
                values.frombytes(buf[offset : offset + 8 * nrows])
                offset += 8 * nrows
                columns.append(values.tolist())
            elif kind in (_C_STR, _C_BYTES):
                parts, offset = _unpack_blob_column(buf, offset)
                if kind == _C_STR:
                    columns.append([part.decode("utf-8") for part in parts])
                else:
                    columns.append(list(parts))
            else:
                (length,) = struct.unpack_from("=Q", buf, offset)
                offset += 8
                columns.append(pickle.loads(buf[offset : offset + length]))
                offset += length
        rows = list(zip(*columns))
        if container == _CONTAINER_TUPLE:
            return tuple(rows), offset
        return rows, offset
    if tag == _T_TYPED_ARRAY:
        code = chr(buf[offset])
        (count,) = struct.unpack_from("=I", buf, offset + 1)
        offset += 5
        values = array(code)
        nbytes = count * values.itemsize
        values.frombytes(buf[offset : offset + nbytes])
        return values, offset + nbytes
    if tag == _T_LIST:
        container = buf[offset]
        (count,) = struct.unpack_from("=I", buf, offset + 1)
        offset += 5
        items = []
        for _ in range(count):
            item, offset = _unpack_from(buf, offset)
            items.append(item)
        if container == _CONTAINER_TUPLE:
            return tuple(items), offset
        return items, offset
    if tag == _T_DICT:
        (count,) = struct.unpack_from("=I", buf, offset)
        offset += 4
        result: dict[Any, Any] = {}
        for _ in range(count):
            key, offset = _unpack_from(buf, offset)
            value, offset = _unpack_from(buf, offset)
            result[key] = value
        return result, offset
    raise ValueError(f"corrupt transport buffer: unknown tag {tag}")


def unpack(data: Any) -> Any:
    """Decode a buffer produced by :func:`pack` (bytes or memoryview)."""
    buf = data if isinstance(data, memoryview) else memoryview(data)
    if bytes(buf[:4]) != MAGIC:
        raise ValueError("corrupt transport buffer: bad magic")
    value, offset = _unpack_from(buf, 4)
    if offset != len(buf):
        raise ValueError(
            f"corrupt transport buffer: {len(buf) - offset} trailing bytes"
        )
    return value


def resolve_transport(requested: str = "auto") -> str:
    """The result plane this host runs: ``"shm"`` where available, else ``"pickle"``.

    Decided from :data:`SHM_AVAILABLE` alone.  ``"auto"`` is the only
    request there is; the argument exists for callers that record what
    the default resolved to.
    """
    if requested != "auto":
        raise ValueError(
            f"unknown transport request {requested!r}: the result plane is "
            "chosen from SHM_AVAILABLE, not by the caller"
        )
    return "shm" if SHM_AVAILABLE else "pickle"


# --------------------------------------------------------------------------
# Shared-memory segments.  The parent issues names (so it can always
# sweep what it issued, even when a worker dies mid-write), workers
# create + fill, the parent attaches, decodes, and unlinks.

_name_lock = threading.Lock()
_name_counter = 0


def segment_prefix(pid: Optional[int] = None) -> str:
    """Prefix of every segment this process issues (globbable in /dev/shm)."""
    return f"repro_{(os.getpid() if pid is None else pid):x}_"


def new_segment_name() -> str:
    global _name_counter
    with _name_lock:
        _name_counter += 1
        serial = _name_counter
    return f"{segment_prefix()}{serial:x}_{os.urandom(3).hex()}"


def shm_put(name: str, data: bytes) -> None:
    """Create segment ``name``, copy ``data`` in, and hand ownership away.

    Called in the worker.  After this returns the creating process holds
    no mapping and no resource-tracker registration: the parent (which
    issued the name) owns cleanup.  On any failure the segment is
    destroyed before the exception propagates.
    """
    shm = SharedMemory(name=name, create=True, size=max(1, len(data)))
    try:
        shm.buf[: len(data)] = data
    except BaseException:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - tracker raced us
            pass
        raise
    tracked = getattr(shm, "_name", None)
    shm.close()
    if resource_tracker is not None and tracked is not None:
        try:
            resource_tracker.unregister(tracked, "shared_memory")
        except Exception:  # pragma: no cover - tracker already gone
            pass


def shm_get(name: str, length: int) -> Any:
    """Attach, decode ``length`` packed bytes, and unlink the segment."""
    shm = SharedMemory(name=name)
    try:
        view = shm.buf[:length]
        try:
            value = unpack(view)
        finally:
            view.release()
    finally:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - stray view in a traceback
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double retire
            pass
    return value


def shm_discard(name: str) -> bool:
    """Unlink ``name`` if it exists; True when a segment was removed."""
    if SharedMemory is None:  # pragma: no cover
        return False
    try:
        shm = SharedMemory(name=name)
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover - permission races
        return False
    try:
        shm.close()
    finally:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass
    return True
