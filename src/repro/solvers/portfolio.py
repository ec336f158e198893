"""Parallel portfolio solving: race diversified CDCL configurations.

Section 6 of the paper presents randomized restarts as a cheap source
of run-to-run diversity; modern practice turns that observation into a
*portfolio*: launch several differently-configured engines on the same
formula and take the first decisive answer.  Because every
configuration here is a complete CDCL engine (learning on, no
unsound shortcuts), all workers agree on SAT/UNSAT and the race only
affects *which* proof or model arrives first.

Workers run in separate ``multiprocessing`` processes (CDCL is
CPU-bound, so threads would serialize on the GIL) under the
:class:`repro.runtime.supervisor.Supervisor`: worker liveness is
tracked through heartbeats, crashed configurations are respawned with
bounded retry and exponential backoff, hung workers are terminated at
``hang_timeout``, SAT claims are audited against the formula, and the
race-wide wall-clock deadline from the
:class:`~repro.runtime.budget.Budget` is enforced.  The per-worker
fates are returned in :attr:`PortfolioResult.report`.

With ``processes=1`` (or a single configuration) the race degrades to
an in-process sequential scan over the configurations, which keeps the
portfolio usable on single-core boxes and under test harnesses that
must not fork; the scan honours the same deadline by handing each
configuration the remaining wall-clock budget.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.runtime.budget import Budget, merge_legacy_caps
from repro.runtime.faults import FaultPlan
from repro.runtime.supervisor import (
    PortfolioReport,
    Supervisor,
    WorkerOutcome,
)
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.heuristics import make_heuristic
from repro.solvers.restarts import make_restart_policy
from repro.solvers.result import SolverResult, SolverStats, Status


@dataclass(frozen=True)
class PortfolioConfig:
    """One engine configuration in the race.

    Everything is a primitive so the config (and the worker arguments
    built from it) pickle cleanly across the process boundary.  The
    field defaults are the engine's, so ``PortfolioConfig(name=...)``
    searches exactly like ``CDCLSolver(formula)``.
    """

    name: str
    heuristic: str = "vsids"
    restart: str = "none"
    restart_interval: int = 64
    seed: int = 0
    random_freq: float = 0.0
    phase_saving: bool = False
    #: In-search simplification (repro.solvers.inprocess) -- one more
    #: diversification axis: simplifying members chase redundancy-heavy
    #: instances while non-simplifying ones keep raw search throughput.
    inprocess: bool = False
    inprocess_interval: int = 2000

    def build_solver(self, formula: CNFFormula,
                     max_conflicts: Optional[int] = None,
                     budget: Optional[Budget] = None,
                     resume_from=None) -> CDCLSolver:
        """Instantiate the configured engine on *formula*.

        *resume_from* (a ``repro.runtime.checkpoint.SearchCheckpoint``)
        warm-starts the engine from a dead attempt's search state.
        """
        inprocess = None
        if self.inprocess:
            from repro.solvers.inprocess import InprocessConfig
            inprocess = InprocessConfig(interval=self.inprocess_interval)
        return CDCLSolver(
            formula,
            heuristic=make_heuristic(self.heuristic, seed=self.seed,
                                     random_freq=self.random_freq),
            restart_policy=make_restart_policy(self.restart,
                                               self.restart_interval),
            phase_saving=self.phase_saving,
            max_conflicts=max_conflicts,
            budget=budget,
            inprocess=inprocess,
            resume_from=resume_from,
        )

    def perturbed(self, attempt: int) -> "PortfolioConfig":
        """This configuration jittered for respawn *attempt*.

        A worker that crashes deterministically (bad interaction of
        config and instance) would burn every backoff retry re-running
        the identical search; the supervisor therefore respawns with a
        shifted seed and a floor of decision randomness so the retry
        explores a genuinely different trajectory.  The name is kept:
        reports stay keyed by the configured identity.
        """
        if attempt <= 0:
            return self
        return replace(self, seed=self.seed + 7919 * attempt,
                       random_freq=max(self.random_freq, 0.02))


#: The diversification axes cycled by :func:`default_portfolio`:
#: heuristic x restart policy x randomness x phase saving x
#: inprocessing.  Seeds are added per slot so repeated axes still
#: differ.  Slot 0 keeps inprocessing off: it is the sequential
#: fallback's first engine, and the raw-search baseline of the race.
_DIVERSIFICATION: Tuple[Tuple[str, str, int, float, bool, bool], ...] = (
    ("vsids", "luby", 64, 0.0, True, False),
    ("vsids", "geometric", 100, 0.02, True, True),
    ("dlis", "luby", 128, 0.0, False, False),
    ("jw", "fixed", 512, 0.05, True, True),
    ("vsids", "luby", 32, 0.10, False, False),
    ("dlis", "geometric", 64, 0.05, True, True),
    ("vsids", "fixed", 256, 0.0, False, False),
    ("jw", "luby", 64, 0.10, False, True),
)


def default_portfolio(n: int, seed: int = 0) -> List[PortfolioConfig]:
    """*n* diversified configurations (seeds x restarts x heuristics x
    phase saving x inprocessing), deterministic for a given *seed*."""
    if n < 1:
        raise ValueError("portfolio size must be >= 1")
    configs = []
    for index in range(n):
        heur, restart, interval, freq, phases, inproc = \
            _DIVERSIFICATION[index % len(_DIVERSIFICATION)]
        suffix = "-inp" if inproc else ""
        configs.append(PortfolioConfig(
            name=f"{heur}-{restart}{interval}{suffix}-s{seed + index}",
            heuristic=heur, restart=restart, restart_interval=interval,
            seed=seed + index, random_freq=freq, phase_saving=phases,
            inprocess=inproc))
    return configs


@dataclass
class PortfolioResult:
    """The winning result plus race bookkeeping.

    ``report`` (supervised races only) names every worker's fate --
    SAT/UNSAT/UNKNOWN/CRASHED/TIMED_OUT/CANCELLED -- so failures are
    never silent.
    """

    result: SolverResult
    winner: Optional[str] = None         # winning config name
    winner_index: Optional[int] = None
    processes_used: int = 0
    finished: List[str] = field(default_factory=list)
    report: Optional[PortfolioReport] = None

    @property
    def status(self) -> Status:
        return self.result.status

    @property
    def assignment(self) -> Optional[Assignment]:
        return self.result.assignment

    @property
    def stats(self) -> SolverStats:
        return self.result.stats


def _solve_sequential(formula: CNFFormula,
                      configs: Sequence[PortfolioConfig],
                      max_conflicts: Optional[int],
                      budget: Optional[Budget],
                      tracer=None,
                      proof_dir: Optional[str] = None) -> PortfolioResult:
    """The ``processes=1`` fallback: try configurations in order,
    return the first decisive verdict.

    The budget's wall-clock deadline governs the whole scan: each
    configuration receives only the remaining time, and once the
    deadline passes the scan stops with UNKNOWN instead of starting
    the next engine.  With a *proof_dir* the scan certifies in
    process: each configuration streams its proof there and its
    result goes through
    :func:`repro.verify.certificate.certify_result` (a failed check
    demotes that configuration's answer to UNKNOWN and the scan
    continues).  A certified scan without a decisive verdict returns
    UNKNOWN carrying the first failed certificate, or a ``none`` one.
    """
    if proof_dir is not None:
        from repro.verify.certificate import certify_result
        from repro.verify.drat import FileProofSink, attach_proof_stream
        os.makedirs(proof_dir, exist_ok=True)
    started = time.monotonic()
    wall = budget.wall_seconds if budget is not None else None
    last = SolverResult(Status.UNKNOWN)
    failed = None
    finished = []
    for index, config in enumerate(configs):
        call_budget = budget
        if wall is not None:
            remaining = wall - (time.monotonic() - started)
            if remaining <= 0:
                break
            call_budget = replace(budget, wall_seconds=remaining)
        solver = config.build_solver(formula, max_conflicts,
                                     budget=call_budget)
        solver.tracer = tracer
        if proof_dir is None:
            last = solver.solve()
        else:
            proof_path = os.path.join(proof_dir,
                                      f"seq{index}-{config.name}.drup")
            sink = attach_proof_stream(solver, FileProofSink(proof_path))
            try:
                last = solver.solve()
            finally:
                sink.close()
            if last.status is not Status.UNSATISFIABLE:
                try:                    # partial proofs certify nothing
                    os.remove(proof_path)
                except OSError:
                    pass
            last = certify_result(formula, last, proof_path, tracer)
            if failed is None and last.certificate.valid is False:
                failed = last.certificate
        finished.append(config.name)
        if last.status is not Status.UNKNOWN:
            return PortfolioResult(last, winner=config.name,
                                   winner_index=index, processes_used=1,
                                   finished=finished)
    if proof_dir is not None:
        last = certify_result(formula, SolverResult(
            Status.UNKNOWN, None, last.stats, certificate=failed), None)
    return PortfolioResult(last, processes_used=1, finished=finished)


def solve_portfolio(formula: CNFFormula,
                    configs: Optional[Sequence[PortfolioConfig]] = None,
                    processes: Optional[int] = None,
                    max_conflicts: Optional[int] = None,
                    seed: int = 0,
                    timeout: Optional[float] = None,
                    budget: Optional[Budget] = None,
                    max_retries: int = 2,
                    hang_timeout: Optional[float] = 10.0,
                    fault_plan: Optional[FaultPlan] = None,
                    progress_interval: Optional[float] = 0.25,
                    proof_dir: Optional[str] = None,
                    inprocess=None,
                    tracer=None) -> PortfolioResult:
    """Race a portfolio of CDCL configurations on *formula*.

    ``processes`` defaults to ``os.cpu_count()``; the portfolio runs
    one process per configuration (default configurations:
    :func:`default_portfolio` of size ``processes``).  First decisive
    verdict wins; remaining workers are cancelled promptly.  When
    several decisive verdicts are already in the queue, the lowest
    configuration index is selected, so results do not depend on
    scheduling noise.  ``processes=1`` runs the configurations
    sequentially in-process under the same deadline.

    ``timeout`` (seconds) is shorthand for a wall-clock-only
    ``budget``; a full :class:`~repro.runtime.budget.Budget` adds
    counter caps and a memory ceiling, all enforced inside the
    workers via cooperative checkpoints.  On expiry the status is
    ``UNKNOWN`` and still-running workers are recorded TIMED_OUT.
    ``max_retries``/``hang_timeout``/``fault_plan`` configure the
    :class:`~repro.runtime.supervisor.Supervisor` (crash respawn,
    hang detection, scripted faults for tests).

    ``progress_interval`` sets how often each worker snapshots its
    live counters over its pipe (building the per-worker effort
    timelines in ``report``; ``None`` disables them); *tracer* records
    the race as a ``portfolio.race`` span with spawn/outcome events
    and relayed per-worker progress (sequential fallback: a plain
    ``cdcl.solve`` span per configuration).

    ``proof_dir`` turns the race into a *certified* one: workers
    stream DRUP proofs there, an UNSAT claim must pass the
    independent checker before it can win (failures degrade that
    worker to ``DISCREPANT`` and the race continues), and every
    result carries a :class:`~repro.verify.certificate.Certificate`
    (:func:`~repro.verify.certificate.certify_result`) -- an UNKNOWN
    the first failed one, if any claim failed its check.

    ``inprocess`` (an
    :class:`~repro.solvers.inprocess.InprocessConfig`) force-enables
    in-search simplification on *every* configuration with the given
    interval -- the CLI's ``--inprocess`` pass-through.  Without it,
    the default portfolio already diversifies along the inprocessing
    axis (every second configuration simplifies).
    """
    if processes is None:
        processes = os.cpu_count() or 1
    if processes < 1:
        raise ValueError("processes must be >= 1")
    if configs is None:
        configs = default_portfolio(max(processes, 1), seed=seed)
    if not configs:
        raise ValueError("empty portfolio")
    if inprocess is not None:
        configs = [replace(c, inprocess=True,
                           inprocess_interval=inprocess.interval)
                   for c in configs]

    if timeout is not None:
        if budget is None:
            budget = Budget(wall_seconds=timeout)
        elif budget.wall_seconds is None or timeout < budget.wall_seconds:
            budget = replace(budget, wall_seconds=timeout)

    if processes == 1 or len(configs) == 1:
        return _solve_sequential(formula, configs, max_conflicts,
                                 budget, tracer=tracer,
                                 proof_dir=proof_dir)

    race_budget = merge_legacy_caps(budget, max_conflicts=max_conflicts)
    supervisor = Supervisor(configs, budget=race_budget or Budget(),
                            max_retries=max_retries,
                            hang_timeout=hang_timeout,
                            fault_plan=fault_plan,
                            progress_interval=progress_interval,
                            proof_dir=proof_dir,
                            tracer=tracer)
    report = supervisor.run(formula)
    finished = [w.name for w in report.workers
                if w.outcome in (WorkerOutcome.SAT, WorkerOutcome.UNSAT,
                                 WorkerOutcome.UNKNOWN)]
    return PortfolioResult(report.result, winner=report.winner,
                           winner_index=report.winner_index,
                           processes_used=len(configs),
                           finished=finished, report=report)


def race_portfolio(formula: CNFFormula, certify: bool,
                   proof_dir: Optional[str], **options) -> PortfolioResult:
    """:func:`solve_portfolio` for a caller's ``certify``/``proof_dir``
    pair (the CLI, CEC and ATPG races).

    Without *certify*, *proof_dir* is ignored.  A certified race
    streams its proofs into *proof_dir* or, when that is ``None``,
    into a temporary directory removed after the race; the result's
    certificate then names no proof file.
    """
    if not certify:
        return solve_portfolio(formula, **options)
    if proof_dir is not None:
        return solve_portfolio(formula, proof_dir=proof_dir, **options)
    race_dir = tempfile.mkdtemp(prefix="repro-race-")
    try:
        outcome = solve_portfolio(formula, proof_dir=race_dir, **options)
    finally:
        shutil.rmtree(race_dir, ignore_errors=True)
    outcome.result.certificate.proof_path = None
    return outcome
