"""Clients for the solve service.

:class:`ServiceClient` is the blocking TCP client the CLI uses: one
socket, NDJSON lines out, responses matched by the ``id`` they echo
(so several submissions may be pipelined before reading any result).

:class:`InProcessClient` embeds a :class:`SolveServer` in a private
event loop and drives it synchronously -- no socket, no background
thread.  ``run_until_complete`` pumps the same loop the server's
dispatcher runs on, so a blocking-looking ``submit`` still lets the
server dispatch, supervise workers, and retry underneath.  Tests use
it to exercise the full service stack deterministically.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Dict, List, Optional

from repro.service.protocol import decode_message, encode_message
from repro.service.server import SolveServer


class ServiceClient:
    """Blocking NDJSON-over-TCP client (the ``repro submit`` CLI)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 9123,
                 timeout: Optional[float] = 60.0):
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._file = self._sock.makefile("rb")

    def request(self, payload: Dict[str, Any],
                on_progress=None) -> Dict[str, Any]:
        """Send one request and block for the response matching its
        ``id`` (out-of-order responses for other ids are buffered
        out; this client sends one request at a time, so in practice
        the first response is the match).

        Non-terminal ``progress`` frames matching the id are passed
        to *on_progress* (or dropped without one) and never end the
        wait -- only a terminal kind does.
        """
        self._sock.sendall(encode_message(payload))
        wanted = payload.get("id")
        while True:
            line = self._file.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            response = decode_message(line)
            if wanted is not None and response.get("id") != wanted:
                continue
            if response.get("kind") == "progress":
                if on_progress is not None:
                    on_progress(response)
                continue
            return response

    def submit(self, job_id: str, *, dimacs: Optional[str] = None,
               clauses: Optional[List[List[int]]] = None,
               num_vars: Optional[int] = None,
               tenant: str = "default",
               deadline: Optional[float] = None,
               max_conflicts: Optional[int] = None,
               certify: bool = False,
               use_cache: bool = True,
               stream: bool = False,
               on_progress=None) -> Dict[str, Any]:
        """Submit one job and block for its terminal response.

        With ``stream=True`` the server pushes mid-solve ``progress``
        frames; each is handed to *on_progress* as it arrives.
        """
        payload: Dict[str, Any] = {"op": "submit", "id": job_id,
                                   "tenant": tenant,
                                   "certify": certify,
                                   "use_cache": use_cache}
        if stream:
            payload["stream"] = True
        if dimacs is not None:
            payload["dimacs"] = dimacs
        if clauses is not None:
            payload["clauses"] = clauses
            payload["num_vars"] = num_vars
        if deadline is not None:
            payload["deadline"] = deadline
        if max_conflicts is not None:
            payload["max_conflicts"] = max_conflicts
        return self.request(payload, on_progress=on_progress)

    def query(self, job_id: str, *, stream: bool = False,
              on_progress=None) -> Dict[str, Any]:
        """Reattach to a previously submitted job by id.

        Returns the terminal response -- immediately if the job
        already finished (possibly recovered from the server's
        journal after a restart), otherwise after blocking until it
        does.  With ``stream=True`` the server re-joins this
        connection to the job's progress stream first.
        """
        payload: Dict[str, Any] = {"op": "query", "id": job_id}
        if stream:
            payload["stream"] = True
        return self.request(payload, on_progress=on_progress)

    def status(self) -> Dict[str, Any]:
        return self.request({"op": "status", "id": "status"})

    def metrics(self) -> Dict[str, Any]:
        """Scrape the Prometheus exposition (``kind: metrics``)."""
        return self.request({"op": "metrics", "id": "metrics"})

    def ping(self) -> Dict[str, Any]:
        return self.request({"op": "ping", "id": "ping"})

    def shutdown(self,
                 grace: Optional[float] = None) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"op": "shutdown", "id": "shutdown"}
        if grace is not None:
            payload["grace"] = grace
        return self.request(payload)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InProcessClient:
    """A :class:`SolveServer` driven synchronously on a private loop."""

    def __init__(self, config=None, *, fault_plan=None, tracer=None,
                 journal=None):
        self._loop = asyncio.new_event_loop()
        self.server = SolveServer(config, fault_plan=fault_plan,
                                  tracer=tracer, journal=journal)
        self._loop.run_until_complete(self.server.start())

    def request(self, payload: Dict[str, Any],
                on_progress=None) -> Dict[str, Any]:
        """Serve one request to completion on the embedded loop.

        ``progress`` frames are delivered to *on_progress*
        synchronously, from inside the loop, before the terminal
        response returns -- same ordering contract as the TCP client.
        """
        send_frame = None
        if on_progress is not None:
            async def send_frame(frame):
                on_progress(frame)
        return self._loop.run_until_complete(
            self.server.handle_message(payload, send_frame))

    # The submit/status/metrics/ping/shutdown conveniences mirror
    # ServiceClient so tests can swap transports freely.
    submit = ServiceClient.submit
    query = ServiceClient.query
    status = ServiceClient.status
    metrics = ServiceClient.metrics
    ping = ServiceClient.ping

    def shutdown(self,
                 grace: Optional[float] = None) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"op": "shutdown", "id": "shutdown"}
        if grace is not None:
            payload["grace"] = grace
        return self.request(payload)

    def close(self) -> None:
        if not self.server._closed:
            self.shutdown(grace=0.0)
        self._loop.close()

    def __enter__(self) -> "InProcessClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
