"""Pool result transport: one framed pickle, and shared-memory segments.

Where the host has shared memory, the process pool
(:mod:`repro.harness.parallel`) ships each extracted result back to the
parent as ``pack(value)`` — a four-byte magic plus one ``pickle.dumps``
— inside a parent-issued segment; elsewhere the value rides the
executor's own pickle channel.  ``unpack(pack(v)) == v`` for every
picklable value, with everything pickle guarantees: exact ``bool``/
``int``/``float`` and ``list``/``tuple`` types, dict insertion order,
IEEE bit patterns (NaN, ±inf, -0.0), arbitrary-precision ints,
``array.array`` typecodes.
A pool result is ~1.5 KB of scalars and a short list (EXPERIMENTS M7),
so nothing here tries to beat pickle at encoding it.

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
import threading
from typing import Any, Optional

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import resource_tracker
    from multiprocessing.shared_memory import SharedMemory

    SHM_AVAILABLE = True
except ImportError:  # pragma: no cover - exotic builds only
    SharedMemory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]
    SHM_AVAILABLE = False

MAGIC = b"RTP1"


def pack(value: Any) -> bytes:
    """Frame any picklable value as ``MAGIC`` + one pickle."""
    return MAGIC + pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def unpack(data: Any) -> Any:
    """Decode a buffer produced by :func:`pack` (bytes or memoryview)."""
    buf = data if isinstance(data, memoryview) else memoryview(data)
    if buf[:4] != MAGIC:
        raise ValueError("corrupt transport buffer: bad magic")
    try:
        return pickle.loads(buf[4:])
    except Exception as exc:  # pickle documents no closed set for bad input
        raise ValueError(f"corrupt transport buffer: {exc!r}") from exc


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
