"""The stdlib-only asyncio HTTP/JSON control plane (``repro serve``).

One :class:`ControlPlaneServer` hosts a :class:`SessionRegistry` behind
a hand-rolled HTTP/1.1 endpoint (``asyncio.start_server``; no external
web framework, per the repo's no-new-dependencies rule).  Each running
session gets a driver task that alternates one bounded simulation slice
with ``await asyncio.sleep(0)`` (and, every ``_HANDOFF_EVERY_S`` of wall
time, a short real pause that lets other threads of the process take the
GIL), so control requests — status, retunes, blocks, drains — interleave
with simulation instead of waiting for a scenario to finish.

Routes (all bodies JSON)::

    GET    /healthz                   liveness probe
    GET    /status                    registry aggregate + session rows
    GET    /sessions                  session summaries
    POST   /sessions                  create (and by default start) one
    GET    /sessions/{id}             one session's summary
    POST   /sessions/{id}/start       start a pending session
    POST   /sessions/{id}/retune      schedule {target, params[, at]} for
                                      any of the eight reconfig targets:
                                      detector, monitor, budget, spi,
                                      block, unblock, whitelist, unwhitelist
    POST   /sessions/{id}/drain       graceful wind-down [{grace_s}]
    GET    /sessions/{id}/result      summary + fingerprint (DONE only)
    DELETE /sessions/{id}             forget a terminal session
    POST   /shutdown                  drain every session, then stop
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Optional

from repro.harness.serialize import config_from_dict
from repro.service.reconfig import RECONFIG_TARGETS
from repro.service.registry import SessionRegistry
from repro.service.session import IllegalTransition, Session, SessionState

_MAX_BODY = 1 << 20  # a config is a few KB; 1 MiB is already generous

#: Wall seconds a driver runs slices back to back before it pauses for
#: :data:`_HANDOFF_S`, so the threads it shares the GIL with get to run.
_HANDOFF_EVERY_S = 0.02
_HANDOFF_S = 0.001


class ApiError(Exception):
    """An error with an HTTP status, serialized as ``{"error": ...}``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ControlPlaneServer:
    """The ``repro serve`` process: registry + HTTP API + drivers."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        slice_s: float = 0.25,
        slice_events: int = 50_000,
    ) -> None:
        self.host = host
        self.port = port  # 0 = ephemeral; .port is rewritten on start()
        self.slice_s = slice_s
        self.slice_events = slice_events
        self.registry = SessionRegistry()
        self._server: Optional[asyncio.AbstractServer] = None
        self._drivers: dict[str, asyncio.Task] = {}
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind and start serving; rewrites ``self.port`` when it was 0."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Run until ``POST /shutdown`` (or :meth:`request_shutdown`)."""
        if self._server is None:
            await self.start()
        await self._stopping.wait()
        await self._shutdown()

    def request_shutdown(self) -> None:
        """Ask the serve loop to drain everything and exit."""
        self._stopping.set()

    async def _shutdown(self) -> None:
        for session in self.registry.active():
            try:
                session.drain()
            except IllegalTransition:
                pass
        if self._drivers:
            await asyncio.gather(
                *self._drivers.values(), return_exceptions=True
            )
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()

    # -------------------------------------------------------------- drivers

    def _launch(self, session: Session) -> None:
        session.start()
        self._drivers[session.id] = asyncio.get_running_loop().create_task(
            self._drive(session)
        )

    async def _drive(self, session: Session) -> None:
        # One bounded slice per loop turn: every await is an opening for
        # queued HTTP requests (and other sessions' drivers) to run.
        # Those zero-length awaits release the GIL only for the poll's
        # microseconds: too short for another thread of this process (an
        # in-process client) to take it, yet each release restarts that
        # thread's forced-switch timer, so it would starve until the
        # session ends.  A 1 ms pause every 20 ms of slices hands it over.
        clock = time.perf_counter
        held_since = clock()
        while session.state in (SessionState.RUNNING, SessionState.DRAINING):
            session.step()
            if clock() - held_since < _HANDOFF_EVERY_S:
                await asyncio.sleep(0)
            else:
                await asyncio.sleep(_HANDOFF_S)
                held_since = clock()

    # ----------------------------------------------------------------- http

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ApiError as exc:
                    # Answer a malformed request, then close: after a bad
                    # Content-Length the stream is at an unknown offset.
                    await _respond(writer, exc.status, {"error": str(exc)}, b"close")
                    break
                if request is None:
                    break
                method, path, body = request
                status, payload = await self._route(method, path, body)
                await _respond(writer, status, payload, b"keep-alive")
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown after /shutdown cancels handlers parked on an
            # idle keep-alive connection; end quietly instead of letting
            # the streams protocol log the cancellation.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[tuple[str, str, dict[str, Any]]]:
        """One request, or ``None`` at end of stream; raises
        :class:`ApiError` (400) for a body that cannot be read as a
        JSON object."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _ = lines[0].split(" ", 2)
        except ValueError:
            return None
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            raise ApiError(
                400, f"Content-Length {declared!r} is not a non-negative integer"
            )
        if length > _MAX_BODY:
            raise ApiError(
                400, f"request body of {length} bytes exceeds {_MAX_BODY}"
            )
        body: dict[str, Any] = {}
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except ValueError:
                raise ApiError(400, "request body is not valid JSON") from None
            if not isinstance(body, dict):
                raise ApiError(400, "request body must be a JSON object")
        path = target.split("?", 1)[0]
        return method.upper(), path, body

    async def _route(
        self, method: str, path: str, body: dict[str, Any]
    ) -> tuple[int, Any]:
        try:
            return await self._dispatch(method, path, body)
        except ApiError as exc:
            return exc.status, {"error": str(exc)}
        except (KeyError, ValueError, IllegalTransition) as exc:
            status = 404 if isinstance(exc, KeyError) else 400
            return status, {"error": str(exc).strip("'")}
        except Exception as exc:  # don't let one request kill the server
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    async def _dispatch(
        self, method: str, path: str, body: dict[str, Any]
    ) -> tuple[int, Any]:
        parts = [p for p in path.split("/") if p]
        if method == "GET" and path == "/healthz":
            return 200, {"ok": True, "sessions": len(self.registry)}
        if method == "GET" and path == "/status":
            return 200, self.registry.status()
        if method == "POST" and path == "/shutdown":
            self.request_shutdown()
            return 200, {"stopping": True, "sessions": len(self.registry)}
        if path == "/sessions":
            if method == "GET":
                return 200, [s.summary() for s in self.registry.sessions()]
            if method == "POST":
                return 201, self._create_session(body)
        if len(parts) >= 2 and parts[0] == "sessions":
            session = self.registry.get(parts[1])
            action = parts[2] if len(parts) == 3 else None
            if method == "GET" and action is None:
                return 200, session.summary()
            if method == "DELETE" and action is None:
                self.registry.remove(session.id)
                self._drivers.pop(session.id, None)
                return 200, {"deleted": session.id}
            if method == "GET" and action == "result":
                return 200, self._result(session)
            if method == "POST" and action is not None:
                return 200, self._session_action(session, action, body)
        raise ApiError(404, f"no route for {method} {path}")

    # -------------------------------------------------------------- handlers

    def _create_session(self, body: dict[str, Any]) -> dict[str, Any]:
        # Everything is validated before the registry sees the session,
        # so a malformed body answers 400 and registers nothing.
        try:
            config = config_from_dict(body.get("config") or {})
        except (TypeError, ValueError) as exc:
            raise ApiError(400, f"bad scenario config: {exc}") from None
        try:
            slicing = {
                "slice_s": float(body.get("slice_s", self.slice_s)),
                "slice_events": int(body.get("slice_events", self.slice_events)),
                "drain_grace_s": float(body.get("drain_grace_s", 2.0)),
            }
        except (TypeError, ValueError) as exc:
            raise ApiError(400, f"bad slice settings: {exc}") from None
        reconfigs = _reconfig_specs(body.get("reconfigs", []))
        session = self.registry.create(config, **slicing)
        for target, params, at in reconfigs:
            session.schedule_reconfig(target, params, at=at)
        if body.get("start", True):
            try:
                self._launch(session)
            except Exception as exc:
                raise ApiError(400, f"session failed to start: {exc}") from None
        return session.summary()

    def _session_action(
        self, session: Session, action: str, body: dict[str, Any]
    ) -> dict[str, Any]:
        if action == "start":
            if session.state is not SessionState.PENDING:
                raise IllegalTransition(session.state, SessionState.RUNNING)
            self._launch(session)
            return session.summary()
        if action == "retune":
            [(target, params, at)] = _reconfig_specs([{"target": "detector", **body}])
            scheduled = session.schedule_reconfig(target, params, at=at)
            return {"scheduled": scheduled, "session": session.id}
        if action == "drain":
            end = session.drain(grace_s=body.get("grace_s"))
            return {"session": session.id, "drain_end_s": end}
        raise ApiError(404, f"unknown session action {action!r}")

    def _result(self, session: Session) -> dict[str, Any]:
        if session.state not in (SessionState.DONE, SessionState.FAILED):
            raise ApiError(
                409,
                f"session {session.id} is {session.state.value}; "
                "result requires a terminal state",
            )
        payload = {
            "summary": session.summary(),
            "reconfig_log": session.reconfig_log,
        }
        if session.state is SessionState.DONE:
            payload["fingerprint"] = session.fingerprint()
        return payload


async def _respond(
    writer: asyncio.StreamWriter, status: int, payload: Any, connection: bytes
) -> None:
    data = json.dumps(payload, sort_keys=True).encode()
    writer.write(
        b"HTTP/1.1 %d %s\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: %d\r\n"
        b"Connection: %s\r\n\r\n"
        % (status, _reason(status).encode(), len(data), connection)
    )
    writer.write(data)
    await writer.drain()


def _reconfig_specs(
    specs: Any,
) -> list[tuple[str, dict[str, Any], Optional[float]]]:
    """Check a list of ``{target, params, at}`` reconfigs (a launch body's
    ``reconfigs``, or one ``/retune`` body); returns (target, params, at)."""
    if not isinstance(specs, list):
        raise ApiError(400, "reconfigs must be a list of {target, params, at}")
    checked = []
    for spec in specs:
        if not isinstance(spec, dict) or "target" not in spec:
            raise ApiError(400, f"reconfig entry {spec!r} names no target")
        if spec["target"] not in RECONFIG_TARGETS:
            raise ApiError(
                400,
                f"unknown reconfig target {spec['target']!r}; "
                f"choose from {RECONFIG_TARGETS}",
            )
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise ApiError(400, f"reconfig params {params!r} are not an object")
        at = spec.get("at")
        try:
            at = None if at is None else float(at)
        except (TypeError, ValueError):
            raise ApiError(400, f"reconfig time {at!r} is not a number") from None
        checked.append((spec["target"], dict(params), at))
    return checked


def _reason(status: int) -> str:
    return {
        200: "OK",
        201: "Created",
        400: "Bad Request",
        404: "Not Found",
        409: "Conflict",
        500: "Internal Server Error",
    }.get(status, "OK")


async def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    slice_s: float = 0.25,
    slice_events: int = 50_000,
    ready: Optional[asyncio.Event] = None,
    announce=None,
) -> None:
    """Entry point used by ``repro serve`` and the in-process tests."""
    server = ControlPlaneServer(
        host, port, slice_s=slice_s, slice_events=slice_events
    )
    await server.start()
    if announce is not None:
        announce(server)
    if ready is not None:
        ready.set()
    await server.serve_until_shutdown()
