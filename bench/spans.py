"""Span bookkeeping for the traced run: collection, self time, JSONL.

The benchmark records its own spans through a :class:`repro.obs.Tracer`
writing to an in-memory :class:`repro.obs.ListSink`; in a traced run the
same tracer is handed to the program's public hooks (``solver.tracer``,
``certified_solve(tracer=)``, ``ATPGEngine(tracer=)``,
``check_safety(tracer=)``), so program spans nest under the benchmark's
spans in one tree.  :func:`collect` turns the event stream into span
records, :func:`self_times` charges each span its duration minus the
part of that interval its children cover, and :func:`layer_times`
sums them into the layers the benchmark reports (:data:`LAYERS`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Tuple

#: Span name -> reported layer.  Names not listed here are charged to
#: the enclosing span (they are treated as transparent).
LAYERS = {
    "bench.op": "harness",
    "dimacs.parse": "parse",
    "bench_format.parse": "parse",
    "cdcl.build": "build",
    # certified_solve minus its solve span and proof check: solver
    # construction, proof-sink plumbing and its own model audit.
    "verify.certified_solve": "build",
    "cdcl.solve": "solve",
    "verify.check": "check",
    "bench.audit": "audit",
    "atpg.run": "app",
    "bmc.check": "app",
}

#: Every layer the benchmark reports a share for, in display order.
LAYER_NAMES = ("parse", "build", "solve", "check", "audit", "app",
               "queue", "service", "harness")


def collect(events: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Span records ``{id, name, start, end, parent, attrs}`` from the
    events of one :class:`repro.obs.Tracer`.

    ``verify.check`` events (the checker reports its time as an event,
    not a span) become synthetic child spans ending at the event.  The
    ``inst`` attr of a root span is copied to all its descendants, so
    every span carries the id of the instance or job it belongs to.
    """
    spans: Dict[Any, Dict[str, Any]] = {}
    synthetic = 0
    for event in events:
        kind = event.get("kind")
        attrs = event.get("attrs") or {}
        if kind == "span_begin":
            spans[event["span"]] = {
                "id": event["span"], "name": event["name"],
                "start": event["ts"], "end": None,
                "parent": event.get("parent"), "attrs": dict(attrs)}
        elif kind == "span_end" and event["span"] in spans:
            span = spans[event["span"]]
            span["end"] = event["ts"]
            span["attrs"].update(attrs)
        elif kind == "event" and event.get("name") == "verify.check":
            seconds = float(attrs.get("check_seconds", 0.0))
            synthetic += 1
            key = f"check-{synthetic}"
            spans[key] = {"id": key, "name": "verify.check",
                          "start": event["ts"] - seconds,
                          "end": event["ts"], "parent": event.get("span"),
                          "attrs": dict(attrs)}
    closed = [span for span in spans.values() if span["end"] is not None]
    by_id = {span["id"]: span for span in closed}
    for span in closed:
        root = span
        while root["parent"] is not None and root["parent"] in by_id:
            root = by_id[root["parent"]]
        if "inst" in root["attrs"]:
            span["attrs"].setdefault("inst", root["attrs"]["inst"])
    return closed


def _covered(interval: Tuple[float, float],
             children: List[Tuple[float, float]]) -> float:
    """Length of the part of *interval* covered by *children*."""
    lo, hi = interval
    total = 0.0
    cursor = lo
    for start, end in sorted(children):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per span name: total duration minus the time child spans cover
    (overlapping children are counted once)."""
    children: Dict[Any, List[Tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start"], span["end"]))
    totals: Dict[str, float] = {}
    for span in spans:
        own = (span["end"] - span["start"]
               - _covered((span["start"], span["end"]),
                          children.get(span["id"], [])))
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def layer_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Self time per reported layer; spans of unmapped names are
    transparent (their self time goes to the nearest mapped ancestor)."""
    by_id = {span["id"]: span for span in spans}

    def mapped_parent(span) -> Any:
        parent = span["parent"]
        while parent is not None and parent in by_id \
                and LAYERS.get(by_id[parent]["name"]) is None:
            parent = by_id[parent]["parent"]
        return parent

    mapped = []
    for span in spans:
        if LAYERS.get(span["name"]) is not None:
            mapped.append(dict(span, parent=mapped_parent(span)))
    per_name = self_times(mapped)
    out = {layer: 0.0 for layer in LAYER_NAMES}
    for name, seconds in per_name.items():
        out[LAYERS.get(name)] += seconds
    return out


def write_jsonl(spans: List[Dict[str, Any]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
