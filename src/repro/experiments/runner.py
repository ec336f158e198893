"""Uniform solver invocation with instrumentation.

Benchmarks compare algorithm configurations on common instances; this
module centralizes "run configuration X on formula Y and report the
counters" so every experiment measures the same way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cnf.formula import CNFFormula
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.dpll import DPLLSolver
from repro.solvers.heuristics import make_heuristic
from repro.solvers.local_search import solve_gsat, solve_walksat
from repro.solvers.restarts import make_restart_policy
from repro.solvers.result import SolverResult


@dataclass
class RunRecord:
    """One (configuration, instance) measurement."""

    config: str
    instance: str
    status: str
    decisions: int
    conflicts: int
    propagations: int
    backtracks: int
    nonchronological_backtracks: int
    learned: int
    deleted: int
    restarts: int
    flips: int
    seconds: float

    @classmethod
    def from_result(cls, config: str, instance: str,
                    result: SolverResult) -> "RunRecord":
        stats = result.stats
        return cls(config, instance, result.status.value,
                   stats.decisions, stats.conflicts, stats.propagations,
                   stats.backtracks, stats.nonchronological_backtracks,
                   stats.learned_clauses, stats.deleted_clauses,
                   stats.restarts, stats.flips, stats.time_seconds)

    def row(self) -> Tuple:
        """Table row for :func:`repro.experiments.tables.format_table`:
        backtrack-search effort, local-search flips, then the time."""
        return (self.config, self.instance, self.status, self.decisions,
                self.conflicts, self.backtracks,
                self.nonchronological_backtracks, self.learned,
                self.restarts, self.flips, round(self.seconds, 4))


RUN_HEADERS = ("config", "instance", "status", "decisions", "conflicts",
               "backtracks", "ncb", "learned", "restarts", "flips",
               "seconds")


def run_solver(config: str, formula: CNFFormula,
               max_conflicts: Optional[int] = 50000,
               max_decisions: Optional[int] = None,
               seed: int = 0) -> SolverResult:
    """Run one named configuration.

    Config grammar (dash-separated switches):

    * ``dpll`` -- chronological DPLL baseline;
    * ``cdcl`` -- defaults (VSIDS, 1-UIP, non-chronological, learning);
    * ``cdcl-chrono`` -- chronological backtracking ablation;
    * ``cdcl-nolearn`` -- clause recording off;
    * ``cdcl-size<k>`` / ``cdcl-rel<k>`` -- deletion policies;
    * ``cdcl-restart<interval>`` -- randomized fixed restarts;
    * ``cdcl-luby<unit>`` -- randomized Luby restarts;
    * ``cdcl-h:<name>`` -- decision heuristic override;
    * ``gsat`` / ``walksat`` -- local search baselines.
    """
    parts = config.split("-")
    engine = parts[0]
    if engine == "dpll":
        return DPLLSolver(formula, max_decisions=max_decisions,
                          max_conflicts=max_conflicts).solve()
    if engine == "gsat":
        return solve_gsat(formula, max_tries=20, max_flips=2000,
                          seed=seed)
    if engine == "walksat":
        flips = max_conflicts if max_conflicts else 20000
        return solve_walksat(formula, max_tries=20, max_flips=flips,
                             seed=seed)
    if engine != "cdcl":
        raise ValueError(f"unknown engine {engine!r} in {config!r}")

    kwargs: Dict = dict(max_conflicts=max_conflicts,
                        max_decisions=max_decisions)
    heuristic_name = "vsids"
    random_freq = 0.0
    for part in parts[1:]:
        if part == "chrono":
            kwargs["backtrack_mode"] = "chronological"
        elif part == "nolearn":
            kwargs["learning"] = False
        elif part == "minimize":
            kwargs["minimize_learned"] = True
        elif part == "phase":
            kwargs["phase_saving"] = True
        elif part == "decisioncut":
            kwargs["conflict_cut"] = "decision"
        elif part.startswith("size"):
            kwargs["deletion"] = "size"
            kwargs["deletion_bound"] = int(part[4:])
            kwargs["deletion_interval"] = 200
        elif part.startswith("rel"):
            kwargs["deletion"] = "relevance"
            kwargs["deletion_bound"] = int(part[3:])
            kwargs["deletion_interval"] = 200
        elif part.startswith("restart"):
            kwargs["restart_policy"] = make_restart_policy(
                "fixed", int(part[7:]))
            random_freq = 0.2
        elif part.startswith("luby"):
            kwargs["restart_policy"] = make_restart_policy(
                "luby", int(part[4:]) * 4)
            random_freq = 0.2
        elif part.startswith("h:"):
            heuristic_name = part[2:]
        else:
            raise ValueError(f"unknown switch {part!r} in {config!r}")
    heuristic = make_heuristic(heuristic_name, seed=seed,
                               random_freq=random_freq)
    return CDCLSolver(formula, heuristic=heuristic, **kwargs).solve()


def run_matrix(configs: Sequence[str],
               instances: Sequence[Tuple[str, CNFFormula]],
               max_conflicts: Optional[int] = 50000,
               seed: int = 0) -> List[RunRecord]:
    """Run every configuration on every instance."""
    records = []
    for config in configs:
        for name, formula in instances:
            result = run_solver(config, formula,
                                max_conflicts=max_conflicts, seed=seed)
            records.append(RunRecord.from_result(config, name, result))
    return records


def timed(function: Callable, *args, **kwargs) -> Tuple[float, object]:
    """Wall-clock one call; returns ``(seconds, result)``."""
    started = time.perf_counter()
    value = function(*args, **kwargs)
    return time.perf_counter() - started, value
