"""Resource governance and fault tolerance (``repro.runtime``).

Production EDA flows call SAT engines under strict effort envelopes:
an ATPG run gets seconds per fault, an LEC regression gets a global
wall-clock budget, and a portfolio race must survive workers that
crash or hang.  This package provides the runtime layer those flows
need:

* :mod:`repro.runtime.budget` -- the :class:`Budget` value object
  (deadline, counter caps, soft memory ceiling) and the amortised
  cooperative-checkpoint :class:`BudgetMeter` every engine consults;
* :mod:`repro.runtime.attempt` -- the worker-attempt runtime shared
  by the portfolio and the solve service: the worker entry point, the
  pipe format and its payload audit, and the per-attempt process
  handle with the one liveness rule (crash after a grace period, hang
  after heartbeat silence);
* :mod:`repro.runtime.supervisor` -- the portfolio
  :class:`Supervisor`: crash respawn with exponential backoff and
  perturbed seeds, hung-worker termination, the UNSAT proof audit,
  and the per-worker :class:`PortfolioReport`;
* :mod:`repro.runtime.checkpoint` -- checksummed search checkpoints
  that warm a respawned or retried attempt;
* :mod:`repro.runtime.faults` -- deterministic fault injection
  (:class:`FaultPlan`, :class:`ServiceFaultPlan`) so the recovery
  paths are testable in CI.
"""

from repro.runtime.budget import (
    Budget,
    BudgetMeter,
    DEFAULT_CHECK_INTERVAL,
    merge_legacy_caps,
    process_rss_mb,
)
from repro.runtime.faults import FaultPlan, ServiceFaultPlan
from repro.runtime.supervisor import (
    PortfolioReport,
    Supervisor,
    WorkerOutcome,
    WorkerReport,
)

__all__ = [
    "Budget",
    "BudgetMeter",
    "DEFAULT_CHECK_INTERVAL",
    "FaultPlan",
    "PortfolioReport",
    "ServiceFaultPlan",
    "Supervisor",
    "WorkerOutcome",
    "WorkerReport",
    "merge_legacy_caps",
    "process_rss_mb",
]
