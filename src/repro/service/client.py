"""Thin blocking client for the control-plane API (``repro ctl``).

One request per connection (``Connection: close``) keeps the client
trivially correct against server shutdown; the control plane is a
low-rate admin surface, not a data path.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Optional


class ServiceError(RuntimeError):
    """A non-2xx response from the control plane."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceClient:
    """Blocking JSON client bound to one ``repro serve`` endpoint."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8089, timeout_s: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    # ------------------------------------------------------------- plumbing

    def request(
        self, method: str, path: str, body: Optional[dict[str, Any]] = None
    ) -> Any:
        """One JSON round trip; raises :class:`ServiceError` on non-2xx."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Connection": "close"}
            if payload is not None:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            data = json.loads(raw) if raw else None
            if response.status >= 400:
                message = (
                    data.get("error", raw.decode("utf-8", "replace"))
                    if isinstance(data, dict)
                    else raw.decode("utf-8", "replace")
                )
                raise ServiceError(response.status, message)
            return data
        finally:
            conn.close()

    # -------------------------------------------------------------- queries

    def healthz(self) -> dict[str, Any]:
        return self.request("GET", "/healthz")

    def status(self) -> dict[str, Any]:
        return self.request("GET", "/status")

    def sessions(self) -> list[dict[str, Any]]:
        return self.request("GET", "/sessions")

    def session(self, session_id: str) -> dict[str, Any]:
        return self.request("GET", f"/sessions/{session_id}")

    def result(self, session_id: str) -> dict[str, Any]:
        return self.request("GET", f"/sessions/{session_id}/result")

    # ------------------------------------------------------------- commands

    def create_session(
        self,
        config: dict[str, Any],
        *,
        start: bool = True,
        reconfigs: Optional[list[dict[str, Any]]] = None,
        slice_s: Optional[float] = None,
        slice_events: Optional[int] = None,
        drain_grace_s: Optional[float] = None,
    ) -> dict[str, Any]:
        body: dict[str, Any] = {"config": config, "start": start}
        if reconfigs:
            body["reconfigs"] = reconfigs
        if slice_s is not None:
            body["slice_s"] = slice_s
        if slice_events is not None:
            body["slice_events"] = slice_events
        if drain_grace_s is not None:
            body["drain_grace_s"] = drain_grace_s
        return self.request("POST", "/sessions", body)

    def retune(
        self,
        session_id: str,
        target: str,
        params: dict[str, Any],
        at: Optional[float] = None,
    ) -> dict[str, Any]:
        body: dict[str, Any] = {"target": target, "params": params}
        if at is not None:
            body["at"] = at
        return self.request("POST", f"/sessions/{session_id}/retune", body)

    def drain(
        self, session_id: str, grace_s: Optional[float] = None
    ) -> dict[str, Any]:
        body: dict[str, Any] = {}
        if grace_s is not None:
            body["grace_s"] = grace_s
        return self.request("POST", f"/sessions/{session_id}/drain", body)

    def delete(self, session_id: str) -> dict[str, Any]:
        return self.request("DELETE", f"/sessions/{session_id}")

    def shutdown(self) -> dict[str, Any]:
        return self.request("POST", "/shutdown")
