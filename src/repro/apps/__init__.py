"""EDA applications of SAT (paper Section 3).

One module per application domain the paper surveys:

* :mod:`repro.apps.atpg` -- automatic test pattern generation
  (a fresh solver per fault, portfolio, circuit layer,
  random-pattern hybrid).
* :mod:`repro.apps.sequential_atpg` -- non-scan sequential ATPG by
  time-frame expansion.
* :mod:`repro.apps.delay_fault` -- path delay fault test generation.
* :mod:`repro.apps.redundancy` -- redundancy identification/removal.
* :mod:`repro.apps.equivalence` -- combinational equivalence checking.
* :mod:`repro.apps.seq_equivalence` -- bounded sequential equivalence.
* :mod:`repro.apps.delay` -- circuit delay computation.
* :mod:`repro.apps.bmc` -- bounded model checking.
* :mod:`repro.apps.fvg` -- functional vector generation.
* :mod:`repro.apps.covering` -- covering / prime implicant problems.
* :mod:`repro.apps.routing` -- SAT-based FPGA detailed routing.
* :mod:`repro.apps.crosstalk` -- functional crosstalk noise analysis.
* :mod:`repro.apps.optimization` -- linear pseudo-Boolean
  optimization.
"""

from repro.apps.atpg import ATPGEngine, TestOutcome
from repro.apps.bmc import BoundedModelChecker, check_safety
from repro.apps.covering import minimum_size_implicant, solve_covering
from repro.apps.crosstalk import CouplingScenario, CrosstalkAnalyzer
from repro.apps.delay import compute_delay
from repro.apps.delay_fault import DelayFaultATPG, PathDelayFault
from repro.apps.equivalence import check_equivalence
from repro.apps.fvg import generate_vectors
from repro.apps.optimization import PBProblem, minimize
from repro.apps.routing import Net, minimum_tracks, route
from repro.apps.seq_equivalence import check_sequential_equivalence
from repro.apps.sequential_atpg import SequentialATPG

__all__ = [
    "ATPGEngine",
    "BoundedModelChecker",
    "CouplingScenario",
    "CrosstalkAnalyzer",
    "DelayFaultATPG",
    "Net",
    "PBProblem",
    "PathDelayFault",
    "SequentialATPG",
    "TestOutcome",
    "check_equivalence",
    "check_safety",
    "check_sequential_equivalence",
    "compute_delay",
    "generate_vectors",
    "minimize",
    "minimum_size_implicant",
    "minimum_tracks",
    "route",
    "solve_covering",
]
