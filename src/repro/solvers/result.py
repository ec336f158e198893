"""Solver outcome and statistics types shared by every algorithm.

The paper's generic algorithm (Figure 2) returns SATISFIABLE or
UNSATISFIABLE; practical solvers additionally time out (local search
cannot prove UNSAT at all), so a third ``UNKNOWN`` status exists.
Statistics fields mirror the quantities the paper's discussion turns
on: decisions, implied assignments (propagations), conflicts,
backtracks (chronological vs non-chronological), recorded and deleted
clauses, and restarts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional

from repro.cnf.assignment import Assignment


class Status(enum.Enum):
    """Outcome of a satisfiability query."""

    SATISFIABLE = "SATISFIABLE"
    UNSATISFIABLE = "UNSATISFIABLE"
    UNKNOWN = "UNKNOWN"


@dataclass
class SolverStats:
    """Search-effort counters of one solve call (or, on an engine's
    ``stats``, accumulated over all of its calls)."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    backtracks: int = 0
    nonchronological_backtracks: int = 0
    levels_skipped: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    restarts: int = 0
    #: Compacting clause-DB collections run, and flat-buffer slots
    #: (ints) they reclaimed (CDCL arena, PR 4).
    gc_runs: int = 0
    gc_reclaimed_ints: int = 0
    max_decision_level: int = 0
    #: High-water mark of the clause arena's flat literal buffer --
    #: an occupancy reading, so it merges via max, not sum.
    arena_peak_lits: int = 0
    #: Crash-recovery checkpointing (repro.runtime.checkpoint):
    #: checkpoints exported by this attempt; attempts seeded from a
    #: checkpoint (0/1 per attempt, summing to warm-resume count
    #: across merges); learned clauses re-attached from the imported
    #: checkpoint; imports dropped by the RUP admission gate.
    checkpoint_exports: int = 0
    warm_resumes: int = 0
    checkpoint_imported_clauses: int = 0
    checkpoint_dropped_clauses: int = 0
    flips: int = 0          # local search
    tries: int = 0          # local search
    time_seconds: float = 0.0
    #: Optional registry snapshot from ``repro.obs.metrics`` (search
    #: shape histograms); None unless a recorder was attached.
    metrics: Optional[Dict[str, Dict[str, Any]]] = None

    def merge(self, other: "SolverStats") -> None:
        """Accumulate *other* into this object (incremental solving).

        Iterates ``dataclasses.fields`` so newly added counters can
        never be silently dropped: numeric fields sum,
        ``max_decision_level`` keeps the maximum, and ``metrics``
        snapshots combine via
        :func:`repro.obs.metrics.merge_snapshots`.
        """
        for f in fields(self):
            mine = getattr(self, f.name)
            theirs = getattr(other, f.name)
            if f.name in ("max_decision_level", "arena_peak_lits"):
                setattr(self, f.name, max(mine, theirs))
            elif f.name == "metrics":
                if theirs is None:
                    continue
                if mine is None:
                    self.metrics = theirs
                else:
                    from repro.obs.metrics import merge_snapshots
                    self.metrics = merge_snapshots(mine, theirs)
            else:
                setattr(self, f.name, mine + theirs)

    def since(self, before: "SolverStats") -> "SolverStats":
        """The effort spent since the snapshot *before* (one call of a
        persistent engine), field-generically like :meth:`merge`:
        counters subtract, while ``max_decision_level``,
        ``arena_peak_lits`` (state readings) and the ``metrics``
        snapshot (a merged histogram cannot be split per call) report
        this object's current state."""
        delta = SolverStats()
        for f in fields(self):
            mine = getattr(self, f.name)
            if f.name in ("max_decision_level", "arena_peak_lits",
                          "metrics"):
                setattr(delta, f.name, mine)
            else:
                setattr(delta, f.name, mine - getattr(before, f.name))
        return delta

    def as_dict(self) -> Dict[str, Any]:
        """Every field as a JSON-serializable dict (pipe/JSON safe)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SolverStats":
        """Rebuild stats from :meth:`as_dict` output.

        Unknown keys and wrong-typed values are dropped (worker
        payloads cross a process boundary and are audited, never
        trusted), so a malformed dict yields defaults rather than
        arbitrary attribute injection.
        """
        stats = cls()
        for f in fields(cls):
            if f.name not in payload:
                continue
            value = payload[f.name]
            if f.name == "metrics":
                if isinstance(value, dict):
                    stats.metrics = value
            elif f.name == "time_seconds":
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    stats.time_seconds = float(value)
            elif isinstance(value, int) and not isinstance(value, bool):
                setattr(stats, f.name, value)
        return stats


@dataclass
class SolverResult:
    """Status, model (when SAT) and statistics of a solve call."""

    status: Status
    assignment: Optional[Assignment] = None
    stats: SolverStats = field(default_factory=SolverStats)
    #: Optional :class:`repro.verify.certificate.Certificate` --
    #: set on every result of a certified path (``certified_solve``
    #: and the apps on it, the portfolio under ``proof_dir``, the
    #: service's certified jobs) by ``certify_result``; None for plain
    #: solve calls.  Typed ``Any`` to keep this leaf module free of a
    #: verify-layer import.
    certificate: Optional[Any] = None

    @property
    def is_sat(self) -> bool:
        """True when the formula was proved satisfiable."""
        return self.status is Status.SATISFIABLE

    @property
    def is_unsat(self) -> bool:
        """True when the formula was proved unsatisfiable."""
        return self.status is Status.UNSATISFIABLE

    @property
    def is_unknown(self) -> bool:
        """True when the solver gave up (budget exhausted)."""
        return self.status is Status.UNKNOWN

    def __repr__(self) -> str:
        return (f"SolverResult({self.status.value}, "
                f"decisions={self.stats.decisions}, "
                f"conflicts={self.stats.conflicts})")
