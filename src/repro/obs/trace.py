"""Trace/event layer: spans, progress snapshots, JSONL sinks.

One trace is a sequence of JSON objects, one per line (JSONL).  Every
event has exactly these top-level keys:

=========  =====================================================
``ts``     float, seconds since the tracer was created (>= 0)
``kind``   ``"span_begin"`` | ``"span_end"`` | ``"event"`` |
           ``"progress"``
``name``   non-empty string naming the span/event source
``span``   int span id (``span_begin``/``span_end``); for
           ``event``/``progress`` the id of the *enclosing* span,
           or ``null`` at top level
``parent`` present only on ``span_begin``: enclosing span id or
           ``null``
``attrs``  object with string keys and scalar values
           (string/number/bool/null)
=========  =====================================================

``span_end`` events additionally carry a numeric ``duration``
(seconds) inside ``attrs``.  :func:`validate_event` checks one decoded
event against this schema and is what CI runs over every line of an
emitted trace.

Design contract -- **zero overhead when disabled**: engines never test
a tracer inside their propagation loops.  Progress snapshots are
emitted from the solvers' cooperative-checkpoint callback
(:class:`~repro.runtime.budget.BudgetMeter`), which already exists for
budgets and heartbeats; attaching a tracer merely arms that meter.
With no tracer (and no budget) the hot path keeps its single
``meter is None`` test per propagate call.  Overhead of the *enabled*
path is measured by ``benchmarks/perf_harness.py``.
"""

from __future__ import annotations

import io
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

#: The event kinds a trace line may carry.
EVENT_KINDS = frozenset(
    {"span_begin", "span_end", "event", "progress"})

#: Required attributes of *known* named ``event`` lines.  The schema
#: stays open -- an unknown event name validates freely -- but a known
#: name must carry at least these attrs with the tagged type ("int" is
#: an integer, "number" admits floats, "str" is a string; bools never
#: qualify as int/number).  This is
#: what keeps producers (the CDCL engine's GC/restart events) and
#: consumers (``repro profile``'s clause-DB section) from drifting
#: apart silently.
NAMED_EVENT_ATTRS: Dict[str, Dict[str, str]] = {
    "cdcl.gc": {
        "reclaimed_ints": "int",   # flat-buffer slots reclaimed
        "collected": "int",        # clauses deleted this collection
        "live_ints": "int",        # buffer occupancy after compaction
        "clauses": "int",          # clauses surviving in the arena
        "learned_db": "int",       # learned clauses surviving
        "fill": "number",          # live_ints / peak_lits
    },
    "cdcl.restart": {"restarts": "int", "conflicts": "int"},
    # Structural hashing of a CEC miter (repro.apps.equivalence): the
    # miter's gates before hashing and how many hashing removed.
    "cec.strash": {"gates": "int", "merged": "int"},
    # The solve service (repro.service): one terminal event per
    # answered job (status/attempts/cache/degradation), one per shed
    # job.  "cached"/"degraded" are 0/1 ints (bools don't qualify).
    "service.result": {
        "job": "str",
        "tenant": "str",
        "status": "str",
        "attempts": "int",
        "cached": "int",
        "degraded": "int",
        "wall_seconds": "number",
    },
    # One streamed progress frame relayed to a client mid-solve
    # (PR 8): which job/attempt, the frame sequence number, worker
    # elapsed seconds, and the headline effort counters the frame
    # carried.
    "service.progress": {
        "job": "str",
        "tenant": "str",
        "attempt": "int",
        "seq": "int",
        "elapsed": "number",
        "conflicts": "int",
        "propagations": "int",
    },
    # One Prometheus exposition served through the ``metrics``
    # protocol op: metric families rendered and payload size.
    "service.metrics": {
        "families": "int",
        "bytes": "int",
    },
    "trace.meta": {
        "epoch_unix": "number",    # wall-clock instant of ts == 0
    },
    "service.reject": {
        "job": "str",
        "tenant": "str",
        "code": "str",
        "reason": "str",
    },
    # One independent proof/model check (repro.verify): proof steps
    # processed, proof bytes on disk, checker wall time, literals the
    # checker's RUP checks assigned (its work, so a slow check shows
    # whether it did more or ran slower), and the verdict (1 = valid,
    # 0 = rejected; int because bools don't qualify as "int"/"number").
    "verify.check": {
        "steps": "int",
        "bytes": "int",
        "check_seconds": "number",
        "propagations": "int",
        "valid": "int",
    },
    # Crash recovery (PR 10): one event per search-state checkpoint a
    # solver exports (clauses/units captured and the conflict count at
    # capture time)...
    "checkpoint.export": {
        "clauses": "int",
        "units": "int",
        "conflicts": "int",
    },
    # ...and one per warm restart that consumed a checkpoint: learned
    # clauses+units re-admitted through the RUP import gate, clauses
    # the gate dropped, unit imports, and saved phases restored.
    "checkpoint.resume": {
        "imported": "int",
        "dropped": "int",
        "units": "int",
        "phases": "int",
    },
}

#: Exactly the keys a trace event may have (``parent`` only on
#: ``span_begin``).
_TOP_KEYS = frozenset({"ts", "kind", "name", "span", "parent", "attrs"})

_SCALAR = (str, int, float, bool, type(None))


class NullSink:
    """Discards every event (overhead measurements, disabled CLI)."""

    def emit(self, event: Dict[str, Any]) -> None:
        """Drop *event*."""

    def close(self) -> None:
        """No-op."""


class ListSink:
    """Collects events in memory (tests, in-process consumers)."""

    def __init__(self):
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        """Append *event* to :attr:`events`."""
        self.events.append(event)

    def close(self) -> None:
        """No-op; the event list stays readable."""


class JsonlSink:
    """Writes one compact JSON object per line to a path or file.

    By default lines are flushed as they are written so a trace
    survives the process dying mid-solve -- exactly when a solver
    trace is most wanted.  A long-lived ``repro serve`` is the
    opposite trade: one ``write()+flush()`` syscall pair per event for
    days on end, on a trace whose tail (not whose last line) matters.
    Two opt-ins cover it:

    ``buffered=True``
        skip the per-line flush and let the ``io`` layer batch writes
        (``flush()``/``close()`` still force everything out);
    ``max_bytes=N``
        size-capped rotation for *path* targets: when the live file
        would exceed ``N`` bytes it is renamed to ``<path>.1`` (an
        older ``.1`` is dropped) and a fresh file is opened, so a
        server trace occupies at most ~``2 * max_bytes`` on disk.

    Rotation requires owning the file, so ``max_bytes`` with a
    file-object target raises.
    """

    def __init__(self, target: Union[str, io.TextIOBase], *,
                 buffered: bool = False,
                 max_bytes: Optional[int] = None):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        if isinstance(target, (str, bytes)):
            self._path: Optional[str] = os.fspath(target)
            self._file = open(target, "w", encoding="utf-8")
            self._owned = True
        else:
            if max_bytes is not None:
                raise ValueError(
                    "max_bytes rotation requires a path target")
            self._path = None
            self._file = target
            self._owned = False
        self._buffered = buffered
        self._max_bytes = max_bytes
        self._bytes = 0
        self.rotations = 0
        self._closed = False

    def emit(self, event: Dict[str, Any]) -> None:
        """Serialize *event* as one JSONL line."""
        if self._closed:
            return
        line = json.dumps(event, separators=(",", ":"),
                          sort_keys=True) + "\n"
        if (self._max_bytes is not None
                and self._bytes > 0
                and self._bytes + len(line) > self._max_bytes):
            self._rotate()
        self._file.write(line)
        self._bytes += len(line)
        if not self._buffered:
            self._file.flush()

    def _rotate(self) -> None:
        """Rename the live file to ``<path>.1`` and start a new one."""
        self._file.close()
        try:
            os.replace(self._path, self._path + ".1")
        except OSError:       # pragma: no cover - rename raced away
            pass
        self._file = open(self._path, "w", encoding="utf-8")
        self._bytes = 0
        self.rotations += 1

    def flush(self) -> None:
        """Force buffered lines out (no-op when closed)."""
        if not self._closed:
            self._file.flush()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._owned:
            self._file.close()
        else:
            try:
                self._file.flush()
            except ValueError:      # already-closed external file
                pass


class Tracer:
    """Emits schema-valid trace events through a pluggable sink.

    Parameters
    ----------
    sink:
        any object with ``emit(event_dict)`` and ``close()``
        (:class:`JsonlSink`, :class:`ListSink`, :class:`NullSink`).
    progress_interval:
        minimum seconds between two ``progress`` events of the same
        name; denser snapshots are dropped (checkpoints can fire every
        few milliseconds on fast instances).  ``0.0`` keeps everything.
    checkpoint_interval:
        optional override for the work-unit period of the solvers'
        cooperative checkpoint while this tracer is attached (defaults
        to the engines' own
        :data:`~repro.runtime.budget.DEFAULT_CHECK_INTERVAL`).  Tests
        lower it to make progress events deterministic on tiny
        formulas.

    context:
        optional dict of scalar attrs merged into **every** emitted
        event (explicit attrs win on collision).  This is the
        trace-context propagation hook: a service worker constructs
        its tracer with ``context={"job": job_id, "attempt": n}`` so
        every span/event in its per-attempt trace file carries the
        correlation keys ``repro profile`` needs to merge it with the
        server's trace.

    A tracer is single-process, single-thread state; service worker
    processes each own a tracer writing their own per-attempt file,
    and portfolio sub-workers do not trace -- their progress travels
    to the supervisor as heartbeat payloads and is traced
    supervisor-side.
    """

    def __init__(self, sink, progress_interval: float = 0.05,
                 checkpoint_interval: Optional[int] = None,
                 context: Optional[Dict[str, Any]] = None):
        if progress_interval < 0:
            raise ValueError("progress_interval must be >= 0")
        self.sink = sink
        self.progress_interval = progress_interval
        self.checkpoint_interval = checkpoint_interval
        self.context: Dict[str, Any] = dict(context or {})
        #: wall-clock instant of ``ts == 0`` for this tracer; lets a
        #: merger rebase several traces onto one shared time axis.
        self.epoch_unix = time.time()
        self._epoch = time.monotonic()
        self._next_span = 0
        self._stack: List[int] = []
        self._last_progress: Dict[str, float] = {}

    # -- core ----------------------------------------------------------

    def now(self) -> float:
        """Seconds since this tracer was created."""
        return time.monotonic() - self._epoch

    def _emit(self, kind: str, name: str, span: Optional[int],
              attrs: Dict[str, Any],
              parent: Optional[Tuple[Optional[int]]] = None) -> None:
        if self.context:
            attrs = {**self.context, **attrs}
        event: Dict[str, Any] = {
            "ts": round(self.now(), 6),
            "kind": kind,
            "name": name,
            "span": span,
            "attrs": attrs,
        }
        if parent is not None:
            event["parent"] = parent[0]
        self.sink.emit(event)

    def _current_span(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    # -- public emission API -------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict[str, Any]]:
        """A timed span; yields a dict whose entries land in the
        matching ``span_end`` attrs (set outcome fields there)."""
        span_id = self._next_span
        self._next_span += 1
        self._emit("span_begin", name, span_id, dict(attrs),
                   parent=(self._current_span(),))
        self._stack.append(span_id)
        started = self.now()
        end_attrs: Dict[str, Any] = {}
        try:
            yield end_attrs
        finally:
            self._stack.pop()
            end_attrs["duration"] = round(self.now() - started, 6)
            self._emit("span_end", name, span_id, end_attrs)

    def event(self, name: str, **attrs) -> None:
        """A point-in-time event inside the current span."""
        self._emit("event", name, self._current_span(), dict(attrs))

    def progress(self, name: str, **attrs) -> bool:
        """A periodic progress snapshot; returns True when emitted.

        Snapshots closer than :attr:`progress_interval` to the
        previous one *of the same name* are dropped (and False is
        returned), so callers can keep their delta baselines aligned
        with what actually reached the sink.
        """
        now = self.now()
        last = self._last_progress.get(name)
        if last is not None and now - last < self.progress_interval:
            return False
        self._last_progress[name] = now
        self._emit("progress", name, self._current_span(), dict(attrs))
        return True

    def emit_meta(self) -> None:
        """Emit a ``trace.meta`` event carrying :attr:`epoch_unix`
        (and the context attrs, like every event).

        Opt-in rather than automatic so short in-process traces stay
        free of it; anything that writes a trace *file* destined for
        cross-trace merging (``repro serve``, service workers,
        ``repro run --trace``) calls this first.
        """
        self.event("trace.meta", epoch_unix=round(self.epoch_unix, 6))

    def close(self) -> None:
        """Close the sink (idempotent)."""
        self.sink.close()


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------

def validate_event(event: Any) -> List[str]:
    """Problems with one decoded trace event (empty list = valid).

    Checks exactly the schema documented in this module: key set,
    types, ``kind`` membership, span-id rules, and the ``duration``
    attribute of ``span_end`` events.
    """
    problems: List[str] = []
    if not isinstance(event, dict):
        return [f"event is {type(event).__name__}, not an object"]
    keys = set(event)
    extra = keys - _TOP_KEYS
    if extra:
        problems.append(f"unknown keys {sorted(extra)}")
    for key in ("ts", "kind", "name", "span", "attrs"):
        if key not in keys:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems

    ts = event["ts"]
    if not isinstance(ts, (int, float)) or isinstance(ts, bool) \
            or ts < 0:
        problems.append(f"ts must be a number >= 0, got {ts!r}")
    kind = event["kind"]
    if kind not in EVENT_KINDS:
        problems.append(f"unknown kind {kind!r}")
    name = event["name"]
    if not isinstance(name, str) or not name:
        problems.append("name must be a non-empty string")
    span = event["span"]
    if span is not None and (not isinstance(span, int)
                             or isinstance(span, bool)):
        problems.append("span must be an int or null")
    attrs = event["attrs"]
    if not isinstance(attrs, dict):
        problems.append("attrs must be an object")
    else:
        for key, value in attrs.items():
            if not isinstance(key, str):
                problems.append(f"attr key {key!r} is not a string")
            if not isinstance(value, _SCALAR):
                problems.append(
                    f"attr {key!r} has non-scalar value "
                    f"{type(value).__name__}")

    if kind in ("span_begin", "span_end") and not isinstance(
            span, int):
        problems.append(f"{kind} requires an integer span id")
    if kind == "span_begin":
        if "parent" not in event:
            problems.append("span_begin requires a parent key")
        else:
            parent = event["parent"]
            if parent is not None and (not isinstance(parent, int)
                                       or isinstance(parent, bool)):
                problems.append("parent must be an int or null")
    elif "parent" in event:
        problems.append(f"{kind} must not carry a parent key")
    if kind == "span_end" and isinstance(attrs, dict):
        duration = attrs.get("duration")
        if not isinstance(duration, (int, float)) \
                or isinstance(duration, bool) or duration < 0:
            problems.append(
                "span_end attrs require a numeric duration >= 0")
    if kind == "event" and isinstance(attrs, dict):
        required = NAMED_EVENT_ATTRS.get(name)
        if required is not None:
            for attr, tag in required.items():
                if attr not in attrs:
                    problems.append(
                        f"event {name!r} requires attr {attr!r}")
                    continue
                value = attrs[attr]
                if tag == "str":
                    if not isinstance(value, str):
                        problems.append(
                            f"event {name!r} attr {attr!r} must be "
                            f"a string, got {value!r}")
                elif isinstance(value, bool) or not isinstance(
                        value, int if tag == "int" else (int, float)):
                    problems.append(
                        f"event {name!r} attr {attr!r} must be "
                        f"{'an integer' if tag == 'int' else 'a number'}"
                        f", got {value!r}")
    return problems


def validate_trace_file(path: str) -> Tuple[int, List[str]]:
    """Validate every line of a JSONL trace.

    Returns ``(num_events, problems)`` where each problem string is
    prefixed with its 1-based line number.  Blank lines are ignored.
    """
    count = 0
    problems: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            count += 1
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {lineno}: not JSON ({exc.msg})")
                continue
            for problem in validate_event(event):
                problems.append(f"line {lineno}: {problem}")
    return count, problems
