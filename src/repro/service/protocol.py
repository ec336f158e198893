"""Wire protocol of the solve service: newline-delimited JSON.

One request or response is one JSON object on one line (NDJSON) --
trivially streamable over an asyncio TCP connection, debuggable with
``nc`` and ``jq``, and free of any framing library.  Requests carry an
``op``; responses carry a ``kind`` and echo the request ``id`` so a
client may pipeline submissions over one connection and match answers
by id.

Request ops
-----------

``submit``
    decide a formula.  The formula travels either as a DIMACS string
    (``"dimacs"``) or as explicit ``"clauses"`` + ``"num_vars"``.
    Optional: ``tenant`` (fairness bucket, default ``"default"``),
    ``deadline`` (seconds of wall clock for this job),
    ``max_conflicts`` (counter cap), ``certify`` (require a checked
    DRUP proof / audited model), ``use_cache`` (default true),
    ``stream`` (default false: opt into mid-solve ``progress``
    frames on this connection before the terminal response).
``status``
    queue depths, active jobs with heartbeat ages, cache statistics.
``metrics``
    the service's metrics registry rendered as Prometheus exposition
    text (``{"kind": "metrics", "text": ...}``) -- per-tenant
    queue-wait/solve-latency histograms, admission/retry counters,
    cache hit rate, worker gauges, merged solver search metrics.
``ping``
    liveness probe.
``query``
    look up a previously submitted job by ``id`` -- the reattach op
    a disconnected client uses after a server (or its own) crash.
    A terminal job answers immediately with the journaled/stored
    ``result``; a queued or running job blocks until its terminal
    response (optionally re-joining the progress stream with
    ``stream: true``); an unknown id answers ``error`` with code
    ``NOT_FOUND``.  Idempotent: querying never re-runs anything.
``shutdown``
    drain the queues and stop accepting work.

Response kinds
--------------

``result``   terminal verdict (the ``body`` sub-object is the unit
             the result cache stores, so a cache hit replays a
             byte-identical body); ``rejected`` (admission control or
             drain, with a ``code``); ``error`` (malformed request);
             ``status``; ``metrics``; ``pong``; ``shutdown``.

``progress`` is the one *non-terminal* kind: a streamed job may
receive any number of progress frames (each echoing the job ``id``)
before exactly one terminal response.  A frame carries ``seq``
(monotonic per job), ``attempt``, ``elapsed`` seconds, and a
``snapshot`` of solver effort (conflicts, decisions, propagations,
restarts, propagations/s, arena fill).  Clients that did not set
``stream: true`` never see one.  :func:`validate_progress_frame` is
the schema check used by tests and the streaming CI smoke.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cnf.formula import CNFFormula

#: Rejection / error codes carried in ``rejected`` and ``error``
#: responses.  REJECTED_OVERLOAD is the explicit load-shedding answer
#: -- a client that receives it knows the service is up and chose not
#: to take the job, as opposed to a timeout that could mean anything.
REJECTED_OVERLOAD = "REJECTED_OVERLOAD"
SHUTTING_DOWN = "SHUTTING_DOWN"
BAD_REQUEST = "BAD_REQUEST"
#: A ``query`` for a job id the server has never journaled, queued or
#: finished -- distinct from BAD_REQUEST so a reattaching client can
#: tell "you asked wrong" from "I genuinely do not know this job".
NOT_FOUND = "NOT_FOUND"

#: Request operations understood by the server.
OPS = ("submit", "status", "metrics", "ping", "query", "shutdown")

#: Required numeric attrs of a progress frame's ``snapshot``.
SNAPSHOT_COUNTERS = ("conflicts", "decisions", "propagations",
                     "restarts")


class ProtocolError(ValueError):
    """A request that violates the wire contract (-> BAD_REQUEST)."""


def encode_message(payload: Dict[str, Any]) -> bytes:
    """One NDJSON line (UTF-8, trailing newline) for *payload*."""
    return (json.dumps(payload, separators=(",", ":"), sort_keys=True)
            + "\n").encode("utf-8")


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one NDJSON line into a dict.

    Raises :class:`ProtocolError` on anything that is not a single
    JSON object -- the server answers those with ``BAD_REQUEST``
    instead of dying or closing the connection.
    """
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"not a JSON line: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    return payload


@dataclass
class SubmitRequest:
    """A validated ``submit`` request (see module docstring)."""

    job_id: str
    tenant: str
    formula: CNFFormula
    deadline: Optional[float] = None
    max_conflicts: Optional[int] = None
    certify: bool = False
    use_cache: bool = True
    stream: bool = False
    raw: Dict[str, Any] = field(default_factory=dict, repr=False)


def _require_str(payload: Dict[str, Any], key: str,
                 default: Optional[str] = None) -> str:
    value = payload.get(key, default)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"{key!r} must be a non-empty string")
    return value


def _optional_number(payload: Dict[str, Any], key: str,
                     integral: bool = False) -> Optional[float]:
    value = payload.get(key)
    if value is None:
        return None
    types = int if integral else (int, float)
    if not isinstance(value, types) or isinstance(value, bool) \
            or value <= 0:
        kind = "a positive integer" if integral else "a positive number"
        raise ProtocolError(f"{key!r} must be {kind}")
    return value


def _optional_bool(payload: Dict[str, Any], key: str,
                   default: bool) -> bool:
    value = payload.get(key, default)
    if not isinstance(value, bool):
        raise ProtocolError(f"{key!r} must be a boolean")
    return value


def parse_submit(payload: Dict[str, Any]) -> SubmitRequest:
    """Validate a ``submit`` payload into a :class:`SubmitRequest`.

    Everything a remote client sends is untrusted: the formula is
    validated structurally here and parsed into the one
    :class:`CNFFormula` the job keeps -- its cache key, the formula
    its workers solve and the formula every SAT model and UNSAT proof
    is checked against.
    """
    job_id = _require_str(payload, "id")
    tenant = _require_str(payload, "tenant", default="default")

    if "dimacs" in payload:
        text = payload["dimacs"]
        if not isinstance(text, str):
            raise ProtocolError("'dimacs' must be a string")
        from repro.cnf.dimacs import parse_dimacs
        try:
            formula = parse_dimacs(text)
        except ValueError as exc:
            raise ProtocolError(f"bad DIMACS: {exc}") from None
    elif "clauses" in payload:
        clauses = payload["clauses"]
        num_vars = payload.get("num_vars")
        if not isinstance(num_vars, int) or isinstance(num_vars, bool) \
                or num_vars < 0:
            raise ProtocolError("'num_vars' must be an int >= 0")
        if not isinstance(clauses, list):
            raise ProtocolError("'clauses' must be a list of lists")
        for clause in clauses:
            if not isinstance(clause, list) or not all(
                    isinstance(lit, int) and not isinstance(lit, bool)
                    and lit != 0 and abs(lit) <= num_vars
                    for lit in clause):
                raise ProtocolError(
                    "each clause must be a list of non-zero literals "
                    "within num_vars")
        formula = CNFFormula(num_vars, clauses)
    else:
        raise ProtocolError(
            "submit requires 'dimacs' or 'clauses'+'num_vars'")

    return SubmitRequest(
        job_id=job_id,
        tenant=tenant,
        formula=formula,
        deadline=_optional_number(payload, "deadline"),
        max_conflicts=_optional_number(payload, "max_conflicts",
                                       integral=True),
        certify=_optional_bool(payload, "certify", False),
        use_cache=_optional_bool(payload, "use_cache", True),
        stream=_optional_bool(payload, "stream", False),
        raw=dict(payload))


def validate_progress_frame(frame: Any) -> List[str]:
    """Problems with one streamed ``progress`` frame (empty = valid).

    A frame must be an object with ``kind == "progress"``, a string
    ``id``, integer ``seq >= 0`` and ``attempt >= 1``, numeric
    ``elapsed >= 0``, and a ``snapshot`` object carrying the
    :data:`SNAPSHOT_COUNTERS` as non-negative ints plus optional
    numeric ``propagations_per_sec`` and ``arena_fill`` readings.
    """
    problems: List[str] = []
    if not isinstance(frame, dict):
        return [f"frame is {type(frame).__name__}, not an object"]
    if frame.get("kind") != "progress":
        problems.append("kind must be 'progress'")
    if not isinstance(frame.get("id"), str) or not frame.get("id"):
        problems.append("'id' must be a non-empty string")
    seq = frame.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        problems.append("'seq' must be an int >= 0")
    attempt = frame.get("attempt")
    if not isinstance(attempt, int) or isinstance(attempt, bool) \
            or attempt < 1:
        problems.append("'attempt' must be an int >= 1")
    elapsed = frame.get("elapsed")
    if not isinstance(elapsed, (int, float)) \
            or isinstance(elapsed, bool) or elapsed < 0:
        problems.append("'elapsed' must be a number >= 0")
    snapshot = frame.get("snapshot")
    if not isinstance(snapshot, dict):
        problems.append("'snapshot' must be an object")
        return problems
    for key in SNAPSHOT_COUNTERS:
        value = snapshot.get(key)
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 0:
            problems.append(
                f"snapshot.{key} must be an int >= 0")
    for key in ("propagations_per_sec", "arena_fill"):
        value = snapshot.get(key)
        if value is not None and (
                not isinstance(value, (int, float))
                or isinstance(value, bool) or value < 0):
            problems.append(f"snapshot.{key} must be a number >= 0")
    return problems
