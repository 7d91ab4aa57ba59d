"""Worker-process lifecycle for the sharded simulation.

Each worker is one spawn-started process owning one
:class:`~repro.sim.sharded.runtime.ShardRuntime` and speaking a tiny
synchronous request/reply protocol over a duplex pipe:

==================  ====================================================
request             reply
==================  ====================================================
``("epoch", batches, limit)``   ``("ok", (next_time, outbox))``
``("finish", duration)``        ``("ok", report)``
``("close",)``                  *(none; the worker exits)*
==================  ====================================================

On startup the worker builds its replica and sends ``("ready",
next_time)``; any exception at any point is reported as ``("error",
summary, traceback)`` and the process exits.  The parent converts that
— or a dead/unresponsive worker — into a structured
:class:`ShardWorkerError` naming the shard and the protocol stage, so
the coordinator can tear down the remaining siblings (the same
terminate → join → kill escalation :func:`repro.harness.parallel
.shutdown_pool` applies to abandoned sweep workers).

Each epoch's boundary batches cross the pipe as one framed pickle per
``(src, dest)`` pair (:func:`repro.sim.sharded.codec.encode_batch`).  Each worker handle
tallies batch bytes/records in both directions for the coordinator's
transport telemetry.

``InlineShardWorker`` is the in-process stand-in with the identical
protocol — requests and replies are still round-tripped through the
same batch codec (and pickle for the non-batch residue) so transport
assumptions (no live object sharing) hold even without a process
boundary, and inline test runs exercise the real encoding.  The
``sharded-N`` variants of ``repro check`` use it to run the full epoch
protocol at test-suite speed.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from typing import Any

__all__ = [
    "ShardWorkerError",
    "ShardWorker",
    "InlineShardWorker",
    "shutdown_workers",
]

#: Seconds a worker may stay silent before the coordinator declares it hung.
DEFAULT_TIMEOUT_S = 300.0


class ShardWorkerError(RuntimeError):
    """A shard worker died, errored, or stopped responding."""

    def __init__(
        self, shard: int, stage: str, detail: str, remote_traceback: str = ""
    ) -> None:
        super().__init__(f"shard {shard} failed during {stage}: {detail}")
        self.shard = shard
        self.stage = stage
        self.detail = detail
        self.remote_traceback = remote_traceback


def _pack_request(request: tuple) -> tuple[tuple, int, int]:
    """Encode an epoch request's batches; returns (request, records, bytes)."""
    if request[0] != "epoch":
        return request, 0, 0
    # Imported here, not at module level: the sharded package's
    # coordinator imports this module, and spawn children resolve this
    # module first — a top-level import would close the cycle mid-init.
    from repro.sim.sharded.codec import encode_batch

    _tag, batches, limit = request
    packed = []
    records = total = 0
    for src, recs in batches:
        blob = encode_batch(recs)
        records += len(recs)
        total += len(blob)
        packed.append((src, blob))
    return ("epoch", packed, limit), records, total


def _unpack_request(request: tuple) -> tuple:
    """Decode the packed batches of an epoch request."""
    if request[0] != "epoch":
        return request
    from repro.sim.sharded.codec import decode_batch

    _tag, batches, limit = request
    return ("epoch", [(src, decode_batch(blob)) for src, blob in batches], limit)


def _pack_reply(tag: str, result: Any) -> Any:
    """Encode the outbox of an epoch reply; finish reports pass through."""
    if tag != "epoch":
        return result
    from repro.sim.sharded.codec import encode_batch

    next_time, outbox = result
    return (next_time, encode_batch(outbox))


def _unpack_reply(tag: str, value: Any) -> tuple[Any, int, int]:
    """Decode an epoch reply's packed outbox; returns (reply, records, bytes)."""
    if tag != "epoch":
        return value, 0, 0
    from repro.sim.sharded.codec import decode_batch

    next_time, blob = value
    outbox = decode_batch(blob)
    return (next_time, outbox), len(outbox), len(blob)


def _dispatch(runtime, request: tuple) -> Any:
    """Apply one protocol request to a runtime; shared by both workers."""
    tag = request[0]
    if tag == "epoch":
        _tag, batches, limit = request
        runtime.ingest(batches)
        runtime.run_until(limit)
        return (runtime.next_time(), runtime.take_outbox())
    if tag == "finish":
        return runtime.finish(request[1])
    raise ValueError(f"unknown shard request {tag!r}")


def _shard_worker_main(shard: int, config_data: dict, conn) -> None:
    """Spawn entrypoint: build the replica, then serve the pipe."""
    try:
        from repro.harness.serialize import config_from_dict
        from repro.sim.sharded.runtime import ShardRuntime

        runtime = ShardRuntime(config_from_dict(config_data), shard)
        conn.send(("ready", runtime.next_time()))
        while True:
            request = _unpack_request(conn.recv())
            if request[0] == "close":
                return
            result = _pack_reply(request[0], _dispatch(runtime, request))
            conn.send(("ok", result))
    except (EOFError, KeyboardInterrupt):
        return
    except BaseException as exc:  # report, then die
        try:
            conn.send(
                ("error", f"{type(exc).__name__}: {exc}", traceback.format_exc())
            )
        except Exception:
            pass
    finally:
        conn.close()


class ShardWorker:
    """Parent-side handle on one spawned shard process."""

    def __init__(
        self,
        shard: int,
        config_data: dict,
        timeout_s: float = DEFAULT_TIMEOUT_S,
    ) -> None:
        self.shard = shard
        self.timeout_s = timeout_s
        self.batch_records_out = 0
        self.batch_bytes_out = 0
        self.batch_records_in = 0
        self.batch_bytes_in = 0
        #: Tag of the request awaiting its reply (selects the decoder).
        self._asked = ""
        ctx = multiprocessing.get_context("spawn")
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_shard_worker_main,
            args=(shard, config_data, child),
            daemon=True,
        )
        self.process.start()
        child.close()

    def ready(self) -> float:
        """Wait for the build handshake; returns the first event time."""
        tag, *rest = self._recv("build")
        if tag == "error":
            detail, remote_tb = rest
            raise ShardWorkerError(self.shard, "build", detail, remote_tb)
        if tag != "ready":
            raise ShardWorkerError(self.shard, "build", f"bad handshake {tag!r}")
        return rest[0]

    def send(self, request: tuple) -> None:
        """Issue one protocol request (reply collected via :meth:`recv`)."""
        self._asked = request[0]
        request, records, total = _pack_request(request)
        self.batch_records_out += records
        self.batch_bytes_out += total
        try:
            self.conn.send(request)
        except (BrokenPipeError, OSError) as exc:
            raise ShardWorkerError(
                self.shard, str(request[0]), f"pipe closed: {exc}"
            ) from exc

    def recv(self, stage: str) -> Any:
        """Collect one reply; structured error on death/timeout/remote raise."""
        tag, *rest = self._recv(stage)
        if tag == "error":
            detail, remote_tb = rest
            raise ShardWorkerError(self.shard, stage, detail, remote_tb)
        if tag != "ok":
            raise ShardWorkerError(self.shard, stage, f"bad reply {tag!r}")
        value, records, total = _unpack_reply(self._asked, rest[0])
        self.batch_records_in += records
        self.batch_bytes_in += total
        return value

    def call(self, request: tuple, stage: str) -> Any:
        """Synchronous send + recv."""
        self.send(request)
        return self.recv(stage)

    def _recv(self, stage: str) -> tuple:
        deadline = time.monotonic() + self.timeout_s
        while not self.conn.poll(0.02):
            if not self.process.is_alive():
                code = self.process.exitcode
                raise ShardWorkerError(
                    self.shard, stage, f"worker process died (exit code {code})"
                )
            if time.monotonic() > deadline:
                raise ShardWorkerError(
                    self.shard, stage, f"no reply within {self.timeout_s:g}s"
                )
        try:
            return self.conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardWorkerError(
                self.shard, stage, f"pipe closed: {exc}"
            ) from exc

    def close(self) -> None:
        """Polite shutdown request (escalation is shutdown_workers' job)."""
        try:
            self.conn.send(("close",))
        except Exception:
            pass
        try:
            self.conn.close()
        except Exception:
            pass


class InlineShardWorker:
    """The same protocol served by an in-process runtime.

    Requests and replies are round-tripped through the *same* encoding
    the pipe would use — the columnar batch codec, with pickle covering
    the non-batch residue — so inline and process modes exercise
    identical transport semantics (and identical fingerprints).
    """

    def __init__(self, shard: int, config_data: dict) -> None:
        from repro.harness.serialize import config_from_dict
        from repro.sim.sharded.runtime import ShardRuntime

        self.shard = shard
        self.batch_records_out = 0
        self.batch_bytes_out = 0
        self.batch_records_in = 0
        self.batch_bytes_in = 0
        self.runtime = ShardRuntime(config_from_dict(config_data), shard)
        self._reply: Any = None

    def ready(self) -> float:
        return self.runtime.next_time()

    def send(self, request: tuple) -> None:
        request, records, total = _pack_request(request)
        self.batch_records_out += records
        self.batch_bytes_out += total
        request = _unpack_request(pickle.loads(pickle.dumps(request)))
        result = _pack_reply(request[0], _dispatch(self.runtime, request))
        result, records_in, bytes_in = _unpack_reply(
            request[0], pickle.loads(pickle.dumps(result))
        )
        self.batch_records_in += records_in
        self.batch_bytes_in += bytes_in
        self._reply = result

    def recv(self, stage: str) -> Any:
        reply, self._reply = self._reply, None
        return reply

    def call(self, request: tuple, stage: str) -> Any:
        self.send(request)
        return self.recv(stage)

    def close(self) -> None:
        self._reply = None


def shutdown_workers(workers: list, timeout_s: float = 5.0) -> None:
    """Tear a worker fleet down, escalating terminate → join → kill.

    Used both for orderly completion and for sibling teardown after a
    :class:`ShardWorkerError`; inline workers only drop state.
    """
    processes = []
    for worker in workers:
        worker.close()
        process = getattr(worker, "process", None)
        if process is not None:
            processes.append(process)
    for process in processes:
        if process.is_alive():
            process.terminate()
    deadline_each = max(0.1, timeout_s / max(1, len(processes)))
    for process in processes:
        process.join(timeout=deadline_each)
        if process.is_alive():
            process.kill()
            process.join(timeout=deadline_each)
