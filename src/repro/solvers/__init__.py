"""SAT algorithms (paper Sections 4-6).

* :mod:`repro.solvers.dpll` -- the generic backtrack search of Figure 2
  with chronological backtracking (DPLL baseline).
* :mod:`repro.solvers.cdcl` -- GRASP-style conflict-driven search:
  non-chronological backtracking, clause recording, bounded deletion,
  relevance-based learning, restarts with randomization; also the one
  persistent solver for incremental/iterative SAT (Section 6).
* :mod:`repro.solvers.heuristics` -- pluggable decision heuristics.
* :mod:`repro.solvers.local_search` -- GSAT / WalkSAT baselines.
* :mod:`repro.solvers.recursive_learning` -- recursive learning on CNF
  formulas (Section 4.2).
* :mod:`repro.solvers.preprocess` -- the ``Preprocess()`` step including
  equivalency reasoning (Section 6).
* :mod:`repro.solvers.circuit_sat` -- the structural layer of Section 5.
* :mod:`repro.solvers.portfolio` -- parallel racing of diversified
  CDCL configurations (the Section 6 randomization theme taken to
  multiple cores).
"""

from repro.solvers.cdcl import CDCLSolver, solve_cdcl
from repro.solvers.dpll import DPLLSolver, solve_dpll
from repro.solvers.local_search import solve_gsat, solve_walksat
from repro.solvers.portfolio import (
    PortfolioConfig,
    PortfolioResult,
    default_portfolio,
    solve_portfolio,
)
from repro.solvers.result import SolverResult, SolverStats, Status

__all__ = [
    "CDCLSolver",
    "DPLLSolver",
    "PortfolioConfig",
    "PortfolioResult",
    "SolverResult",
    "SolverStats",
    "Status",
    "default_portfolio",
    "solve_cdcl",
    "solve_dpll",
    "solve_gsat",
    "solve_portfolio",
    "solve_walksat",
]
