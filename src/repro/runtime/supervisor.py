"""Supervised parallel portfolio: heartbeats, respawn, verdict audit.

The PR-1 portfolio raced worker processes and silently dropped any
that died: a crashed worker just never reported, a hung worker pinned
a core until the race ended, and a corrupted payload could have been
believed.  This module wraps the race in a :class:`Supervisor` that

* tracks per-worker liveness through **heartbeats** written from the
  solvers' cooperative checkpoints (see :mod:`repro.runtime.budget`),
  so a worker that stops making progress is distinguishable from one
  that is merely slow;
* **respawns crashed workers** with bounded retries and exponential
  backoff, so a transient failure (OOM kill, interpreter abort) does
  not forfeit that configuration's diversity;
* **terminates hung workers** once their heartbeat goes stale past
  ``hang_timeout`` and records them as ``TIMED_OUT``;
* **audits payloads** -- malformed tuples, unknown status names and
  SAT claims whose model does not satisfy the formula are rejected
  and treated as crashes (the worker clearly can't be trusted);
  spawning, the audit and the liveness rule are the shared
  worker-attempt runtime of :mod:`repro.runtime.attempt`;
* **audits UNSAT claims** when a ``proof_dir`` is configured: each
  worker streams a DRUP proof to a per-attempt file, and a worker
  claiming UNSAT must pass the independent checker
  (:mod:`repro.verify.checker`) before the race settles; on check
  failure the slot degrades to ``DISCREPANT`` and the race continues
  -- the UNSAT mirror of the SAT model audit;
* enforces the race-wide wall-clock **deadline** from the
  :class:`~repro.runtime.budget.Budget`, cancelling everything still
  running when it expires;
* returns a structured :class:`PortfolioReport` naming every worker's
  fate instead of only the winner.

Fault injection (:mod:`repro.runtime.faults`) makes all of these
paths deterministically reachable from tests.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from enum import Enum
from multiprocessing import connection as mp_connection
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.runtime.attempt import AttemptSpec, WorkerAttempt
from repro.runtime.budget import Budget
from repro.runtime.faults import FaultPlan
from repro.solvers.result import SolverResult, SolverStats, Status


class WorkerOutcome(Enum):
    """Terminal state of one portfolio worker."""

    SAT = "SAT"                   # reported a (verified) model
    UNSAT = "UNSAT"               # reported unsatisfiability
    UNKNOWN = "UNKNOWN"           # exhausted its own budget
    CRASHED = "CRASHED"           # died without a trustworthy result
    TIMED_OUT = "TIMED_OUT"       # hung or overran the deadline
    CANCELLED = "CANCELLED"       # healthy, lost the race
    DISCREPANT = "DISCREPANT"     # claimed UNSAT, proof check failed


@dataclass
class WorkerReport:
    """One worker's fate across all of its attempts."""

    index: int
    name: str
    outcome: WorkerOutcome
    attempts: int = 1             # spawns, including respawns
    stats: Optional[SolverStats] = None
    wall_seconds: float = 0.0
    #: Checker diagnostic when the outcome is ``DISCREPANT`` (the
    #: worker claimed UNSAT but its proof failed the independent
    #: check) -- e.g. ``"line 3: clause is not a RUP consequence..."``.
    discrepancy: Optional[str] = None
    #: Live progress samples relayed over the worker's pipe: dicts of
    #: ``{"attempt", "elapsed", "stats"}`` in arrival order, spanning
    #: every attempt (counters reset on respawn).
    timeline: List[Dict] = field(default_factory=list)


@dataclass
class PortfolioReport:
    """Structured outcome of a supervised race.

    ``result`` is the decisive verdict (or UNKNOWN); ``workers`` has
    one entry per configuration, so no failure is silent.
    """

    result: SolverResult
    workers: List[WorkerReport] = field(default_factory=list)
    winner: Optional[str] = None
    winner_index: Optional[int] = None
    wall_seconds: float = 0.0
    deadline_hit: bool = False
    total_respawns: int = 0

    @property
    def status(self) -> Status:
        return self.result.status

    def outcome_counts(self) -> Dict[WorkerOutcome, int]:
        """How many workers ended in each state."""
        counts: Dict[WorkerOutcome, int] = {}
        for report in self.workers:
            counts[report.outcome] = counts.get(report.outcome, 0) + 1
        return counts

    def effort_timelines(self) -> Dict[str, List[Dict]]:
        """Per-worker progress samples, keyed by configuration name.

        Each sample is ``{"attempt", "elapsed", "stats"}`` with the
        worker's cumulative counters at that moment -- the live view
        of where every configuration spent its effort.
        """
        return {report.name: list(report.timeline)
                for report in self.workers}

    def loss_summary(self) -> Dict[str, str]:
        """One "why did this worker lose" line per non-winning worker."""
        summary: Dict[str, str] = {}
        for report in self.workers:
            if (self.winner_index is not None
                    and report.index == self.winner_index):
                continue
            effort = ""
            stats = report.stats
            if stats is not None:
                effort = (f" after {stats.conflicts} conflicts / "
                          f"{stats.decisions} decisions")
            elif report.timeline:
                last = report.timeline[-1]
                s = last.get("stats", {})
                effort = (f" at {s.get('conflicts', 0)} conflicts / "
                          f"{s.get('decisions', 0)} decisions "
                          f"({last.get('elapsed', 0.0):.2f}s in)")
            if report.outcome is WorkerOutcome.CANCELLED:
                reason = ("still searching when the race was decided"
                          + effort)
            elif report.outcome is WorkerOutcome.UNKNOWN:
                reason = "exhausted its budget" + effort
            elif report.outcome is WorkerOutcome.CRASHED:
                reason = (f"crashed ({report.attempts} attempt(s), "
                          f"retries exhausted)" + effort)
            elif report.outcome is WorkerOutcome.TIMED_OUT:
                reason = "hung or overran the deadline" + effort
            elif report.outcome is WorkerOutcome.DISCREPANT:
                reason = ("claimed UNSAT but its proof failed the "
                          "independent check"
                          + (f" ({report.discrepancy})"
                             if report.discrepancy else "") + effort)
            else:
                reason = ("reached a decisive verdict" + effort
                          + " but a lower-index worker won the tie")
            summary[report.name] = reason
        return summary


class _Slot:
    """Mutable supervisor-side state of one configuration."""

    __slots__ = ("index", "config", "worker", "attempts", "outcome",
                 "result", "stats", "respawn_at", "spawned_at",
                 "finished_at", "timeline", "traced_base", "proof_path",
                 "discrepancy", "last_checkpoint")

    def __init__(self, index: int, config):
        self.index = index
        self.config = config
        #: The latest attempt's process handle.
        self.worker: Optional[WorkerAttempt] = None
        self.attempts = 0
        #: DRUP proof file of the *latest* attempt (proof_dir mode).
        self.proof_path: Optional[str] = None
        #: Checker diagnostic when the slot went DISCREPANT.
        self.discrepancy: Optional[str] = None
        #: Latest piggybacked checkpoint blob (verified only by the
        #: respawned worker's checksummed loader -- a corrupt blob
        #: demotes that respawn to a cold restart).
        self.last_checkpoint: Optional[bytes] = None
        self.outcome: Optional[WorkerOutcome] = None
        self.result: Optional[SolverResult] = None
        self.stats: Optional[SolverStats] = None
        self.respawn_at: Optional[float] = None
        self.spawned_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        # Progress samples across every attempt (survives respawns).
        self.timeline: List[Dict] = []
        # (attempt, stats) of the last sample the tracer actually
        # emitted, so traced deltas stay sum-consistent under throttle.
        self.traced_base: Tuple[int, Dict] = (-1, {})

    @property
    def settled(self) -> bool:
        return self.outcome is not None


class Supervisor:
    """Run a portfolio race under full resource governance.

    Parameters
    ----------
    configs:
        portfolio configurations; each must provide ``name`` and
        ``build_solver(formula, budget=...)``
        (:class:`repro.solvers.portfolio.PortfolioConfig` does).
    budget:
        race-wide :class:`Budget`.  Its wall-clock deadline bounds the
        whole race; its counter caps are handed to every worker.
    max_retries:
        respawns allowed per configuration after crashes.
    backoff_seconds:
        base of the exponential respawn backoff: retry *k* waits
        ``backoff_seconds * 2**(k-1)``.
    hang_timeout:
        seconds of heartbeat silence after which a live worker is
        declared hung and terminated (``None`` disables detection).
    fault_plan:
        scripted misbehaviour for tests (:mod:`repro.runtime.faults`).
    poll_interval:
        supervisor wake-up period.
    progress_interval:
        seconds between a worker's live counter snapshots over its
        pipe (building the per-worker effort timelines); ``None``
        disables them and restores bare heartbeats.
    proof_dir:
        directory for per-attempt DRUP proof files.  When set, every
        worker streams its derivation there and an UNSAT claim is only
        believed after the independent checker validates the file; a
        failed check settles that slot as ``DISCREPANT`` while the
        race continues.  ``None`` (default) trusts UNSAT claims as
        before.
    tracer:
        optional :class:`repro.obs.trace.Tracer`: the race becomes a
        ``portfolio.race`` span with spawn/outcome events and
        per-worker progress relayed supervisor-side.
    """

    def __init__(self, configs: Sequence, *,
                 budget: Optional[Budget] = None,
                 max_retries: int = 2,
                 backoff_seconds: float = 0.1,
                 hang_timeout: Optional[float] = 10.0,
                 fault_plan: Optional[FaultPlan] = None,
                 poll_interval: float = 0.05,
                 progress_interval: Optional[float] = 0.25,
                 proof_dir: Optional[str] = None,
                 tracer=None):
        if not configs:
            raise ValueError("empty portfolio")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if progress_interval is not None and progress_interval < 0:
            raise ValueError("progress_interval must be >= 0")
        self.configs = list(configs)
        self.budget = budget or Budget()
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.hang_timeout = hang_timeout
        self.fault_plan = fault_plan
        self.poll_interval = poll_interval
        self.progress_interval = progress_interval
        self.proof_dir = proof_dir
        if proof_dir is not None:
            os.makedirs(proof_dir, exist_ok=True)
        self.tracer = tracer

    # ------------------------------------------------------------------

    def run(self, formula: CNFFormula) -> PortfolioReport:
        """Race the configurations on *formula* under supervision."""
        tracer = self.tracer
        if tracer is None:
            return self._run(formula)
        with tracer.span("portfolio.race", workers=len(self.configs),
                         num_vars=formula.num_vars,
                         num_clauses=len(formula.clauses)) as end:
            report = self._run(formula)
            end["status"] = report.result.status.value
            end["winner"] = report.winner
            end["respawns"] = report.total_respawns
            end["deadline_hit"] = report.deadline_hit
            return report

    def _run(self, formula: CNFFormula) -> PortfolioReport:
        started = time.monotonic()
        deadline = (None if self.budget.wall_seconds is None
                    else started + self.budget.wall_seconds)
        clause_lits = [tuple(clause) for clause in formula.clauses]
        slots = [_Slot(index, config)
                 for index, config in enumerate(self.configs)]
        deadline_hit = False

        def spawn(slot: _Slot, now: float) -> None:
            # A respawn gets the *remaining* budget, never a fresh
            # one: the deadline shrinks by the race time already
            # elapsed, and the counter caps shrink by the effort the
            # slot's previous attempts demonstrably burned (their
            # last progress snapshots) -- retries can never spend
            # more total effort than the caller's original envelope.
            spent = _slot_spent(slot) if slot.attempts > 0 else None
            worker_budget = self.budget.remaining_after(
                now - started if deadline is not None else 0.0,
                spent=spent)
            # Respawns run a *perturbed* configuration: a config that
            # crashes deterministically would otherwise burn all its
            # backoff retries re-crashing identically.
            config = slot.config
            if slot.attempts > 0:
                perturbed = getattr(config, "perturbed", None)
                if perturbed is not None:
                    config = perturbed(slot.attempts)
            proof_path = None
            if self.proof_dir is not None:
                proof_path = os.path.join(
                    self.proof_dir,
                    f"worker{slot.index}-attempt{slot.attempts}.drup")
            slot.proof_path = proof_path
            if slot.worker is not None:
                slot.worker.stop()
            slot.worker = WorkerAttempt(AttemptSpec(
                key=slot.index, attempt=slot.attempts,
                clause_lits=clause_lits, num_vars=formula.num_vars,
                config=config, budget=worker_budget,
                fault_plan=self.fault_plan,
                progress_interval=self.progress_interval,
                proof_path=proof_path,
                # Warm respawn: the previous attempt's last
                # piggybacked search state (None on attempt 0).
                resume_blob=slot.last_checkpoint))
            slot.attempts += 1
            slot.respawn_at = None
            slot.spawned_at = now
            if self.tracer is not None:
                self.tracer.event("portfolio.spawn", worker=slot.index,
                                  config=slot.config.name,
                                  attempt=slot.attempts,
                                  seed=getattr(config, "seed", None))

        def record_result(target: _Slot, message, now: float) -> None:
            _tag, _index, _attempt, status, model, stats_dict = message
            stats = SolverStats.from_dict(stats_dict)
            certificate = None
            if (status is Status.UNSATISFIABLE
                    and self.proof_dir is not None):
                # The UNSAT mirror of the SAT model audit: the claim
                # is only believed once the worker's streamed proof
                # passes the independent checker.  A missing or
                # invalid proof settles the slot as DISCREPANT and
                # the race continues without it.
                from repro.verify.certificate import check_unsat_proof
                certificate = check_unsat_proof(
                    formula, target.proof_path or "", self.tracer)
                if not certificate.valid:
                    target.outcome = WorkerOutcome.DISCREPANT
                    target.discrepancy = certificate.reason
                    target.stats = stats
                    target.finished_at = now
                    if self.tracer is not None:
                        self.tracer.event(
                            "portfolio.discrepant", worker=target.index,
                            config=target.config.name,
                            reason=certificate.reason
                            or "proof check failed")
                    return
            target.stats = stats
            target.finished_at = now
            assignment = Assignment(model) if model is not None else None
            target.result = SolverResult(status, assignment, stats,
                                         certificate=certificate)
            if status is Status.UNKNOWN:
                target.outcome = WorkerOutcome.UNKNOWN

        try:
            now = time.monotonic()
            for slot in slots:
                spawn(slot, now)

            while True:
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    deadline_hit = True
                    break

                # Wait on every live worker's pipe, then decide.  The
                # sender of a payload is identified by its pipe, never
                # by the (untrusted) index inside the payload.
                watch = {slot.worker.conn: slot for slot in slots
                         if slot.worker is not None
                         and slot.worker.conn is not None
                         and not slot.settled and slot.result is None}
                timeout = self._poll(deadline, now)
                if watch:
                    ready = mp_connection.wait(list(watch), timeout)
                else:
                    time.sleep(timeout)       # awaiting respawns only
                    ready = []
                for conn in ready:
                    slot = watch[conn]
                    now = time.monotonic()
                    for message in slot.worker.drain():
                        if slot.settled or slot.result is not None:
                            break             # a verdict is final
                        tag = message[0]
                        if tag == "checkpoint":
                            # Search state for a warm respawn.
                            slot.last_checkpoint = message[3]
                        elif tag == "progress":
                            self._record_progress(slot, message)
                        elif tag == "result":
                            record_result(slot, message, now)
                        else:
                            # An untrustworthy sender: treat exactly
                            # like a crash of that attempt.
                            self._handle_crash(slot, now)

                if any(s.result is not None
                       and s.result.status is not Status.UNKNOWN
                       for s in slots):
                    break                     # decisive verdict arrived

                now = time.monotonic()
                self._supervise(slots, spawn, now)
                if all(s.settled for s in slots):
                    break                     # nobody left to wait for
        finally:
            for slot in slots:
                if slot.worker is not None:
                    slot.worker.stop()

        return self._assemble(slots, started, deadline_hit)

    # ------------------------------------------------------------------

    def _poll(self, deadline: Optional[float], now: float) -> float:
        if deadline is None:
            return self.poll_interval
        return max(0.0, min(self.poll_interval, deadline - now))

    def _supervise(self, slots: List[_Slot], spawn, now: float) -> None:
        """One pass of liveness checks: crashes, hangs, respawns."""
        for slot in slots:
            if slot.settled or slot.result is not None:
                continue
            if slot.respawn_at is not None:
                if now >= slot.respawn_at:
                    spawn(slot, now)
                continue
            if slot.worker is None:
                continue
            fate = slot.worker.liveness(now, self.hang_timeout)
            if fate == "crash":
                self._handle_crash(slot, now)
            elif fate == "hang":
                slot.worker.stop()
                slot.outcome = WorkerOutcome.TIMED_OUT
                slot.finished_at = now

    def _handle_crash(self, slot: _Slot, now: float) -> None:
        retries_used = slot.attempts - 1
        if retries_used < self.max_retries:
            delay = self.backoff_seconds * (2 ** retries_used)
            slot.respawn_at = now + delay
        else:
            slot.outcome = WorkerOutcome.CRASHED
            slot.finished_at = now

    # -- progress timeline --------------------------------------------

    def _record_progress(self, slot: _Slot, message) -> None:
        """Fold one audited progress snapshot into the slot's timeline
        (and relay it to the tracer)."""
        _tag, _index, attempt, elapsed, clean, _extras = message
        tracer = self.tracer
        if tracer is not None:
            base_attempt, base = slot.traced_base
            if base_attempt != attempt:   # respawn reset the counters
                base = {}
            if tracer.progress(
                    f"portfolio.worker{slot.index}",
                    worker=slot.index, config=slot.config.name,
                    attempt=attempt, elapsed=elapsed,
                    decisions=clean["decisions"]
                    - base.get("decisions", 0),
                    conflicts=clean["conflicts"]
                    - base.get("conflicts", 0),
                    propagations=clean["propagations"]
                    - base.get("propagations", 0),
                    gc_runs=clean["gc_runs"] - base.get("gc_runs", 0),
                    arena_lits=clean["arena_peak_lits"]):
                slot.traced_base = (attempt, clean)
        slot.timeline.append({"attempt": attempt, "elapsed": elapsed,
                              "stats": clean})

    # -- report assembly ----------------------------------------------

    def _assemble(self, slots: List[_Slot], started: float,
                  deadline_hit: bool) -> PortfolioReport:
        now = time.monotonic()
        decisive = sorted(
            (slot.index, slot.result) for slot in slots
            if slot.result is not None
            and slot.result.status is not Status.UNKNOWN)

        workers: List[WorkerReport] = []
        for slot in slots:
            outcome = slot.outcome
            if outcome is None:
                if slot.result is not None:
                    outcome = (WorkerOutcome.SAT
                               if slot.result.status
                               is Status.SATISFIABLE
                               else WorkerOutcome.UNSAT)
                elif slot.respawn_at is not None:
                    outcome = WorkerOutcome.CRASHED
                elif deadline_hit:
                    outcome = WorkerOutcome.TIMED_OUT
                else:
                    outcome = WorkerOutcome.CANCELLED
            end = slot.finished_at if slot.finished_at is not None \
                else now
            begin = slot.spawned_at if slot.spawned_at is not None \
                else started
            workers.append(WorkerReport(
                index=slot.index, name=slot.config.name,
                outcome=outcome, attempts=slot.attempts,
                stats=slot.stats,
                wall_seconds=max(0.0, end - begin),
                discrepancy=slot.discrepancy,
                timeline=slot.timeline))
            if self.tracer is not None:
                self.tracer.event(
                    "portfolio.outcome", worker=slot.index,
                    config=slot.config.name, outcome=outcome.value,
                    attempts=slot.attempts,
                    samples=len(slot.timeline))

        respawns = sum(max(0, slot.attempts - 1) for slot in slots)
        if decisive:
            index, result = decisive[0]       # lowest index: reproducible
            return PortfolioReport(
                result=result, workers=workers,
                winner=self.configs[index].name, winner_index=index,
                wall_seconds=now - started, deadline_hit=deadline_hit,
                total_respawns=respawns)
        # No decisive verdict: surface any exhausted worker's stats.
        for slot in slots:
            if slot.result is not None:
                return PortfolioReport(
                    result=SolverResult(Status.UNKNOWN, None,
                                        slot.result.stats),
                    workers=workers, wall_seconds=now - started,
                    deadline_hit=deadline_hit, total_respawns=respawns)
        return PortfolioReport(
            result=SolverResult(Status.UNKNOWN), workers=workers,
            wall_seconds=now - started, deadline_hit=deadline_hit,
            total_respawns=respawns)


def _slot_spent(slot: "_Slot") -> Optional[SolverStats]:
    """Search effort a slot's previous attempts are known to have
    consumed: the last progress snapshot of each attempt, summed.

    A crashed attempt reports no final stats, so its latest snapshot
    is the best (under-)estimate of what it burned; underestimating
    only makes the respawn budget too generous by one progress
    interval, never too tight.  None when no snapshot ever arrived.
    """
    latest: Dict[int, Dict] = {}
    for sample in slot.timeline:
        latest[sample["attempt"]] = sample["stats"]
    if not latest:
        return None
    total = SolverStats()
    for stats_dict in latest.values():
        total.merge(SolverStats.from_dict(stats_dict))
    return total
