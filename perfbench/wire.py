"""A minimal blocking client for the JSON-line protocol."""

from __future__ import annotations

import json
import socket
from typing import Any, Dict

TIMEOUT = 30.0


class RequestFailed(Exception):
    """The server answered ``ok: false``; ``code`` is its error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


class Connection:
    """One TCP connection; one request in flight at a time."""

    def __init__(self, host: str, port: int, timeout: float = TIMEOUT) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rwb")

    def call(self, message: Dict[str, Any]) -> Any:
        """Send ``message``; return its ``result`` or raise :class:`RequestFailed`."""
        self._file.write(json.dumps(message, separators=(",", ":")).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line)
        if response.get("ok"):
            return response.get("result")
        error = response.get("error") or {}
        raise RequestFailed(error.get("code", "?"), error.get("message", ""))

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def request_for(op) -> Dict[str, Any]:
    """The protocol message for one plan op (see ``plan.py``)."""
    if op[0] == "read":
        _, metric, k, tau = op
        return {"op": "topk", "metric": metric, "k": k, "tau": tau}
    _, action, u, v = op
    return {"op": "update", "action": action, "u": u, "v": v}
