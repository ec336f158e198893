"""Frozen pre-PR1 CDCL engine, kept verbatim as the perf baseline.

This is a snapshot of ``repro.solvers.cdcl`` (and the linear-scan
VSIDS ``decide``) as of commit 00ba90a, *before* the hot-path
flattening of PR 1 (flat watch arrays, binary-implication fast path,
inlined propagation, heap-based decisions).  ``perf_harness.py`` races
this engine against the live one so ``BENCH_*.json`` files carry
honest before/after numbers from any checkout.

Do not "fix" or modernise this file: its value is that it does not
change.  It is not part of the ``repro`` package and must never be
imported by library code.  Its one edit since: formulas store their
clauses as normal-form literal tuples, so the input-clause tautology
test reads them through :func:`repro.cnf.clause.is_tautology`.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cnf.assignment import Assignment
from repro.cnf.clause import is_tautology
from repro.cnf.formula import CNFFormula
from repro.solvers.restarts import NoRestarts, RestartPolicy
from repro.solvers.result import SolverResult, SolverStats, Status


class LegacyVSIDS:
    """The pre-PR1 VSIDS: full activity-dict scan every decision."""

    def __init__(self, decay: float = 0.95, bump: float = 1.0):
        self.decay = decay
        self.bump = bump
        self._activity: Dict[int, float] = {}
        self._increment = bump

    def setup(self, formula: CNFFormula) -> None:
        self._activity = {}
        self._increment = self.bump
        for lit, count in formula.literal_occurrences().items():
            self._activity[lit] = 1e-6 * count

    def on_conflict(self, learned_literals: Iterable[int]) -> None:
        for lit in learned_literals:
            self._activity[lit] = \
                self._activity.get(lit, 0.0) + self._increment
        self._increment /= self.decay
        if self._increment > 1e100:
            for lit in self._activity:
                self._activity[lit] *= 1e-100
            self._increment *= 1e-100

    def on_restart(self) -> None:
        pass

    def on_unassign(self, var: int) -> None:
        pass

    def decide(self, num_vars: int, is_assigned) -> Optional[int]:
        best_lit, best_score = None, -1.0
        for lit, score in self._activity.items():
            if score > best_score and not is_assigned(abs(lit)):
                best_lit, best_score = lit, score
        if best_lit is not None:
            return best_lit
        for var in range(1, num_vars + 1):
            if not is_assigned(var):
                return var
        return None


class _ClauseRef:
    __slots__ = ("lits", "learned", "deleted", "activity")

    def __init__(self, lits: List[int], learned: bool = False):
        self.lits = lits
        self.learned = learned
        self.deleted = False
        self.activity = 0.0


class LegacyCDCLSolver:
    """The seed-state CDCL engine (dict watch table, per-literal
    ``value_of_literal`` calls, linear-scan VSIDS)."""

    def __init__(self, formula: CNFFormula,
                 heuristic=None,
                 restart_policy: Optional[RestartPolicy] = None,
                 phase_saving: bool = False,
                 max_conflicts: Optional[int] = None,
                 max_decisions: Optional[int] = None):
        self.formula = formula
        self.heuristic = heuristic or LegacyVSIDS()
        self.restart_policy = restart_policy or NoRestarts()
        self.phase_saving = phase_saving
        self.max_conflicts = max_conflicts
        self.max_decisions = max_decisions
        self.stats = SolverStats()
        self._saved_phase: Dict[int, bool] = {}

        self.on_assign: Optional[Callable[[int], None]] = None
        self.on_unassign: Optional[Callable[[int], None]] = None

        self._num_vars = formula.num_vars
        n = self._num_vars + 1
        self._values: List[Optional[bool]] = [None] * n
        self._level: List[int] = [0] * n
        self._antecedent: List[Optional[_ClauseRef]] = [None] * n
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._watches: Dict[int, List[_ClauseRef]] = {}
        self._clauses: List[_ClauseRef] = []
        self._learned: List[_ClauseRef] = []
        self._root_conflict = False
        self._pending_units: List[int] = []

        for clause in formula.clauses:
            self._attach_input_clause(clause)

    def _attach_input_clause(self, clause: Tuple[int, ...]) -> None:
        if is_tautology(clause):
            return
        lits = list(clause)
        if not lits:
            self._root_conflict = True
            return
        if len(lits) == 1:
            self._pending_units.append(lits[0])
            return
        self._attach(_ClauseRef(lits, learned=False), learned=False)

    def _attach(self, ref: _ClauseRef, learned: bool) -> None:
        (self._learned if learned else self._clauses).append(ref)
        self._watches.setdefault(ref.lits[0], []).append(ref)
        self._watches.setdefault(ref.lits[1], []).append(ref)

    def value_of_literal(self, lit: int) -> Optional[bool]:
        value = self._values[abs(lit)]
        if value is None:
            return None
        return value == (lit > 0)

    @property
    def decision_level(self) -> int:
        return len(self._trail_lim)

    def _is_assigned(self, var: int) -> bool:
        return self._values[var] is not None

    def _enqueue(self, lit: int, reason: Optional[_ClauseRef]) -> bool:
        current = self.value_of_literal(lit)
        if current is not None:
            return current
        var = abs(lit)
        self._values[var] = lit > 0
        if self.phase_saving:
            self._saved_phase[var] = lit > 0
        self._level[var] = self.decision_level
        self._antecedent[var] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[_ClauseRef]:
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            false_lit = -lit
            watchers = self._watches.get(false_lit)
            if not watchers:
                continue
            kept: List[_ClauseRef] = []
            conflict: Optional[_ClauseRef] = None
            for index, ref in enumerate(watchers):
                if ref.deleted:
                    continue
                lits = ref.lits
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self.value_of_literal(first) is True:
                    kept.append(ref)
                    continue
                moved = False
                for k in range(2, len(lits)):
                    if self.value_of_literal(lits[k]) is not False:
                        lits[1], lits[k] = lits[k], lits[1]
                        self._watches.setdefault(lits[1], []).append(ref)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ref)
                if self.value_of_literal(first) is False:
                    conflict = ref
                    kept.extend(
                        r for r in watchers[index + 1:] if not r.deleted)
                    break
                self._enqueue(first, ref)
                self.stats.propagations += 1
            self._watches[false_lit] = kept
            if conflict is not None:
                self._qhead = len(self._trail)
                return conflict
        return None

    def _cancel_until(self, level: int) -> None:
        if self.decision_level <= level:
            return
        target = self._trail_lim[level]
        for index in range(len(self._trail) - 1, target - 1, -1):
            lit = self._trail[index]
            var = abs(lit)
            self._values[var] = None
            self._antecedent[var] = None
        del self._trail[target:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    def _analyze_1uip(self, conflict: _ClauseRef) -> Tuple[List[int], int]:
        learned: List[int] = [0]
        seen = [False] * (self._num_vars + 1)
        counter = 0
        lit = None
        reason_lits: Sequence[int] = conflict.lits
        index = len(self._trail)

        while True:
            for q in reason_lits:
                if lit is not None and q == lit:
                    continue
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    if self._level[var] >= self.decision_level:
                        counter += 1
                    else:
                        learned.append(q)
            while True:
                index -= 1
                if seen[abs(self._trail[index])]:
                    break
            lit = self._trail[index]
            var = abs(lit)
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            antecedent = self._antecedent[var]
            reason_lits = antecedent.lits if antecedent is not None else ()
        learned[0] = -lit

        if len(learned) == 1:
            return learned, 0
        backtrack = max(self._level[abs(q)] for q in learned[1:])
        for k in range(1, len(learned)):
            if self._level[abs(learned[k])] == backtrack:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, backtrack

    def _decide(self) -> Optional[int]:
        lit = self.heuristic.decide(self._num_vars, self._is_assigned)
        if lit is not None and self.phase_saving:
            var = abs(lit)
            saved = self._saved_phase.get(var)
            if saved is not None:
                return var if saved else -var
        return lit

    def solve(self, assumptions: Sequence[int] = ()) -> SolverResult:
        started = time.perf_counter()
        self.heuristic.setup(self.formula)
        try:
            status = self._search(list(assumptions))
        finally:
            self.stats.time_seconds += time.perf_counter() - started
        model = self._model() if status is Status.SATISFIABLE else None
        self._cancel_until(0)
        return SolverResult(status, model, self.stats)

    def _model(self) -> Assignment:
        model = Assignment()
        for var in range(1, self._num_vars + 1):
            if self._values[var] is not None:
                model.assign(var, self._values[var])
        return model

    def _budget_blown(self) -> bool:
        return ((self.max_conflicts is not None
                 and self.stats.conflicts >= self.max_conflicts)
                or (self.max_decisions is not None
                    and self.stats.decisions >= self.max_decisions))

    def _search(self, assumptions: List[int]) -> Status:
        if self._root_conflict:
            return Status.UNSATISFIABLE
        self._cancel_until(0)
        for lit in self._pending_units:
            if not self._enqueue(lit, None):
                self._root_conflict = True
                return Status.UNSATISFIABLE

        conflicts_since_restart = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                if self.decision_level == 0:
                    self._root_conflict = True
                    return Status.UNSATISFIABLE
                self._handle_conflict(conflict)
                if self._budget_blown():
                    return Status.UNKNOWN
                if self.restart_policy.should_restart(
                        conflicts_since_restart):
                    self.stats.restarts += 1
                    self.restart_policy.on_restart()
                    self.heuristic.on_restart()
                    conflicts_since_restart = 0
                    self._cancel_until(0)
                continue

            decision = self._next_decision(assumptions)
            if decision == "UNSAT":
                return Status.UNSATISFIABLE
            if decision is None:
                return Status.SATISFIABLE
            if self._budget_blown():
                return Status.UNKNOWN
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self.stats.max_decision_level = max(
                self.stats.max_decision_level, self.decision_level)
            self._enqueue(decision, None)

    def _next_decision(self, assumptions: List[int]):
        for lit in assumptions:
            value = self.value_of_literal(lit)
            if value is False:
                return "UNSAT"
            if value is None:
                return lit
        return self._decide()

    def _handle_conflict(self, conflict: _ClauseRef) -> None:
        learned_lits, backtrack = self._analyze_1uip(conflict)
        self.heuristic.on_conflict(learned_lits)
        self.stats.backtracks += 1
        skipped = (self.decision_level - 1) - backtrack
        if skipped > 0:
            self.stats.nonchronological_backtracks += 1
            self.stats.levels_skipped += skipped
        self._cancel_until(backtrack)

        asserting = learned_lits[0]
        if len(learned_lits) > 1:
            ref = _ClauseRef(list(learned_lits), learned=True)
            self._attach(ref, learned=True)
            self.stats.learned_clauses += 1
            self._enqueue(asserting, ref)
        else:
            self._cancel_until(0)
            self.stats.learned_clauses += 1
            self._pending_units.append(asserting)
            self._enqueue(asserting, None)


def solve_legacy(formula: CNFFormula, **kwargs) -> SolverResult:
    """One-shot solve with the frozen pre-PR1 engine."""
    return LegacyCDCLSolver(formula, **kwargs).solve()
