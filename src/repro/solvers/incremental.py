"""Incremental and iterative SAT (paper Section 6).

"In many applications SAT solvers tend to be used iteratively and/or
incrementally.  Specific techniques for the iterative use of SAT
algorithms [25] or the incremental formulation of problem instances
[18] have been proposed."

:class:`IncrementalSolver` keeps one CDCL engine alive across a
sequence of related queries:

* clauses may be *added* between calls (the formula grows
  monotonically -- the incremental formulation of [18]);
* per-query constraints are passed as *assumptions*, so they can be
  retracted without invalidating anything;
* recorded conflict clauses persist across calls, which is where the
  iterative speedup of [25] comes from (experiment C8 measures it).
"""

from __future__ import annotations

from dataclasses import fields
from typing import Iterable, Optional, Sequence

from repro.cnf.formula import CNFFormula
from repro.runtime.budget import Budget
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.heuristics import DecisionHeuristic
from repro.solvers.restarts import RestartPolicy
from repro.solvers.result import SolverResult, SolverStats


class IncrementalSolver:
    """A persistent SAT engine for families of related instances."""

    def __init__(self, formula: Optional[CNFFormula] = None,
                 heuristic: Optional[DecisionHeuristic] = None,
                 restart_policy: Optional[RestartPolicy] = None,
                 max_conflicts_per_call: Optional[int] = None,
                 **cdcl_kwargs):
        inprocess = cdcl_kwargs.get("inprocess")
        if inprocess:
            # Incremental use means clauses and assumptions arrive
            # *after* inprocessing may have run, and they are free to
            # mention any allocated variable.  Variable-eliminating
            # passes (BVE, equivalent-literal substitution) would make
            # such clauses illegal (CDCLSolver.add_clause refuses
            # eliminated variables), so they are forced off here; the
            # clause-only passes (subsumption, self-subsumption,
            # vivification, root simplification) remain available.
            from dataclasses import replace

            from repro.solvers.inprocess import InprocessConfig
            if inprocess is True:
                inprocess = InprocessConfig()
            cdcl_kwargs["inprocess"] = replace(
                inprocess, bve=False, equivalence=False)
        self._formula = formula.copy() if formula is not None \
            else CNFFormula()
        self._max_conflicts_per_call = max_conflicts_per_call
        self._solver = CDCLSolver(self._formula, heuristic=heuristic,
                                  restart_policy=restart_policy,
                                  **cdcl_kwargs)
        self._calls = 0
        self.total_stats = SolverStats()

    @property
    def num_vars(self) -> int:
        """Current variable universe size."""
        return self._formula.num_vars

    @property
    def calls(self) -> int:
        """How many solve calls have been issued."""
        return self._calls

    def new_var(self) -> int:
        """Allocate a fresh variable usable in later clauses."""
        return self._formula.new_var()

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a permanent clause (monotonic growth)."""
        lits = list(literals)
        self._formula.add_clause(lits)
        self._solver.add_clause(lits)

    def add_clauses(self, clauses: Iterable) -> None:
        """Add several permanent clauses."""
        for clause in clauses:
            self.add_clause(list(clause))

    def solve(self, assumptions: Sequence[int] = (),
              budget: Optional[Budget] = None) -> SolverResult:
        """Solve the accumulated formula under *assumptions*.

        UNSATISFIABLE is relative to the assumptions.  Learned clauses
        survive into the next call.  *budget* governs **this call
        only**: its counter caps are measured from the call's start
        (not cumulatively) and its deadline is armed here.
        """
        if self._max_conflicts_per_call is not None:
            self._solver.max_conflicts = (self._solver.stats.conflicts
                                          + self._max_conflicts_per_call)
        self._solver.budget = budget
        before = _snapshot(self._solver.stats)
        result = self._solver.solve(assumptions)
        self._calls += 1
        delta = _delta(before, self._solver.stats)
        self.total_stats.merge(delta)
        return SolverResult(result.status, result.assignment, delta)

    def learned_clause_count(self) -> int:
        """Recorded clauses currently retained by the engine."""
        return len(self._solver.learned_clauses())

    def arena_occupancy(self):
        """The engine's clause-arena memory snapshot (clauses,
        live/peak buffer ints, fill ratio, GC counters).  Occupancy is
        cumulative across calls: added clauses and surviving learned
        clauses stay in the arena through every GC compaction."""
        return self._solver.arena_occupancy()

    @property
    def tracer(self):
        """The underlying engine's tracer (spans every solve call)."""
        return self._solver.tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._solver.tracer = tracer

    @property
    def metrics(self):
        """The underlying engine's search-shape recorder."""
        return self._solver.metrics

    @metrics.setter
    def metrics(self, metrics) -> None:
        self._solver.metrics = metrics


def _snapshot(stats: SolverStats) -> SolverStats:
    copy = SolverStats()
    copy.merge(stats)
    return copy


def _delta(before: SolverStats, after: SolverStats) -> SolverStats:
    """Per-call stats: *after* minus *before*, field-generically.

    Counters subtract; ``max_decision_level``, ``arena_peak_lits``
    (state readings, not counters) and the ``metrics`` snapshot report
    the call's final state (per-call attribution of a merged histogram
    is not recoverable, so the cumulative snapshot is passed through).
    Iterating ``dataclasses.fields`` keeps this honest as fields are
    added -- the old hand-written version silently dropped
    ``flips``/``tries``.
    """
    delta = SolverStats()
    for f in fields(SolverStats):
        if f.name in ("max_decision_level", "arena_peak_lits",
                      "metrics"):
            setattr(delta, f.name, getattr(after, f.name))
        else:
            setattr(delta, f.name,
                    getattr(after, f.name) - getattr(before, f.name))
    return delta
