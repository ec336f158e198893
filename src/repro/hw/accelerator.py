"""A cycle-accurate model of an FPGA SAT accelerator ([43]-style).

Zhong-Ashar-Malik-Martonosi compile the *formula itself* into
hardware: one small evaluation unit per clause, all units clocked in
lockstep.  The resulting machine is a DPLL search with three hardware
characteristics the model reproduces:

* **clause-parallel deduction** -- every clause is (re)evaluated in a
  single clock, so one implication cycle costs O(1) clocks instead of
  software's O(clauses) visit work; all unit implications latch
  simultaneously;
* **chronological backtracking in hardware** -- a decision stack of
  flip-flops; a conflict pops to the most recent untried decision in
  one clock per popped level;
* **no learning** -- there is nowhere to put new clauses in a
  formula-shaped circuit (the paper: "significantly less sophisticated
  than software algorithms").

The model counts clocks with this budget:

=====================  =======
event                  clocks
=====================  =======
decision               1
implication wave       1 (any number of simultaneous implications)
conflict detection     0 (same clock as the wave that caused it)
backtrack (per level)  1
=====================  =======

Benchmark X9 compares these cycle counts with the software engines'
step counts, reproducing the claim's shape: the accelerator wins on
deduction-heavy instances despite its naive search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cnf.assignment import Assignment
from repro.cnf.clause import is_tautology
from repro.cnf.formula import CNFFormula
from repro.cnf.literals import variable
from repro.solvers.result import SolverResult, SolverStats, Status


@dataclass
class HardwareStats:
    """Clock-level counters of one accelerator run."""

    clocks: int = 0
    decisions: int = 0
    implication_waves: int = 0
    implications: int = 0
    conflicts: int = 0
    backtrack_clocks: int = 0


class HardwareSATAccelerator:
    """Cycle-level simulation of a clause-parallel SAT machine.

    Variables are decided in fixed index order with value 1 first
    (the hardwired policy of the original architecture).
    """

    def __init__(self, formula: CNFFormula,
                 max_clocks: Optional[int] = None):
        self.formula = formula
        self.max_clocks = max_clocks
        self.hw = HardwareStats()
        self._num_vars = formula.num_vars
        self._clauses: List[Tuple[int, ...]] = [
            clause for clause in formula if not is_tautology(clause)]
        self._values: List[Optional[bool]] = [None] * (self._num_vars + 1)
        # Decision stack entries: (variable, tried_both, implied vars).
        self._stack: List[Dict] = []

    # -- the combinational clause array --------------------------------

    def _evaluate_all_clauses(self) -> Tuple[bool, List[int]]:
        """One clock of the clause array.

        Returns ``(conflict, implied literals)``; all clause units
        evaluate simultaneously, so this costs exactly one clock.
        """
        self.hw.clocks += 1
        self.hw.implication_waves += 1
        implied: List[int] = []
        seen_vars = set()
        for clause in self._clauses:
            unassigned = None
            count = 0
            satisfied = False
            for lit in clause:
                value = self._values[variable(lit)]
                if value is None:
                    unassigned = lit
                    count += 1
                elif value == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if count == 0:
                return True, []
            if count == 1:
                var = variable(unassigned)
                if var in seen_vars:
                    # Two units disagreeing on one variable in the same
                    # wave is a conflict the hardware flags directly.
                    for other in implied:
                        if variable(other) == var and other != unassigned:
                            return True, []
                else:
                    seen_vars.add(var)
                    implied.append(unassigned)
        return False, implied

    # -- the sequential control machine ---------------------------------

    def _deduce(self, frame: Optional[Dict]) -> bool:
        """Run implication waves to fixpoint; False on conflict."""
        while True:
            conflict, implied = self._evaluate_all_clauses()
            if conflict:
                self.hw.conflicts += 1
                return False
            if not implied:
                return True
            for lit in implied:
                self._values[variable(lit)] = lit > 0
                if frame is not None:
                    frame["implied"].append(variable(lit))
                self.hw.implications += 1

    def _backtrack(self) -> bool:
        """Pop to the most recent untried decision; False = exhausted."""
        while self._stack:
            frame = self._stack[-1]
            self.hw.clocks += 1
            self.hw.backtrack_clocks += 1
            for var in frame["implied"]:
                self._values[var] = None
            frame["implied"] = []
            if frame["tried_both"]:
                self._values[frame["var"]] = None
                self._stack.pop()
                continue
            frame["tried_both"] = True
            self._values[frame["var"]] = False      # second value
            return True
        return False

    def _next_variable(self) -> Optional[int]:
        for var in range(1, self._num_vars + 1):
            if self._values[var] is None:
                return var
        return None

    def run(self) -> SolverResult:
        """Simulate the machine to completion (or clock budget)."""
        stats = SolverStats()
        if any(len(c) == 0 for c in self._clauses):
            return SolverResult(Status.UNSATISFIABLE, None, stats)

        # Power-on deduction of input units.
        if not self._deduce(None):
            return self._finish(Status.UNSATISFIABLE, stats)

        while True:
            if self.max_clocks is not None and \
                    self.hw.clocks > self.max_clocks:
                return self._finish(Status.UNKNOWN, stats)
            var = self._next_variable()
            if var is None:
                return self._finish(Status.SATISFIABLE, stats)
            self.hw.clocks += 1
            self.hw.decisions += 1
            self._values[var] = True                 # hardwired: 1 first
            frame = {"var": var, "tried_both": False, "implied": []}
            self._stack.append(frame)

            while not self._deduce(self._stack[-1]):
                if not self._backtrack():
                    return self._finish(Status.UNSATISFIABLE, stats)

    def _finish(self, status: Status, stats: SolverStats
                ) -> SolverResult:
        stats.decisions = self.hw.decisions
        stats.propagations = self.hw.implications
        stats.conflicts = self.hw.conflicts
        stats.backtracks = self.hw.backtrack_clocks
        model = None
        if status is Status.SATISFIABLE:
            model = Assignment()
            for var in range(1, self._num_vars + 1):
                if self._values[var] is not None:
                    model.assign(var, self._values[var])
        return SolverResult(status, model, stats)


def estimate_speedup(formula: CNFFormula,
                     software_propagations: int,
                     hardware: HardwareStats,
                     clause_visits_per_propagation: float = 3.0
                     ) -> float:
    """A first-order speedup estimate of [43]'s kind.

    Software BCP visits several clauses per propagation (watch-list
    traffic); the accelerator evaluates all clauses in one clock.
    The ratio of estimated software steps to hardware clocks is the
    per-step parallelism the papers report -- only meaningful for
    instances both engines complete.
    """
    software_steps = software_propagations * clause_visits_per_propagation
    if hardware.clocks == 0:
        return float("inf")
    return software_steps / hardware.clocks
