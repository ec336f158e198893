"""Supervised portfolio races under injected faults.

The Supervisor's contract: crashed configurations are respawned with
bounded retries, hung workers are detected by heartbeat and terminated,
garbage payloads are rejected (and the worker retried), healthy losers
are cancelled promptly, and every worker's fate is named in the
PortfolioReport.  Fault injection (:mod:`repro.runtime.faults`) makes
each failure mode deterministic.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import pigeonhole, random_ksat
from repro.runtime.faults import FaultPlan
from repro.runtime.supervisor import Supervisor, WorkerOutcome
from repro.solvers.portfolio import default_portfolio, solve_portfolio
from repro.solvers.result import Status

from conftest import assert_model_satisfies


def _no_orphans() -> bool:
    """No stray worker processes after a race."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return False


def _sat_formula() -> CNFFormula:
    formula = CNFFormula(3)
    formula.add_clause([1, 2])
    formula.add_clause([-1, 2])
    formula.add_clause([-2, 3])
    return formula


class TestFaultPlan:
    def test_action_schedule(self):
        # Attempts are 0-based: {0: 2} crashes attempts 0 and 1.
        plan = FaultPlan(crashes={0: 2}, hangs=frozenset({1}),
                         garbage={2: 1})
        assert plan.action(0, attempt=0) == "crash"
        assert plan.action(0, attempt=1) == "crash"
        assert plan.action(0, attempt=2) is None
        assert plan.action(1, attempt=0) == "hang"
        assert plan.action(1, attempt=5) == "hang"   # hangs never heal
        assert plan.action(2, attempt=0) == "garbage"
        assert plan.action(2, attempt=1) is None
        assert plan.action(3, attempt=0) is None

    def test_builders(self):
        crash = FaultPlan.crash_all_once(3)
        assert all(crash.action(i, 0) == "crash" for i in range(3))
        assert all(crash.action(i, 1) is None for i in range(3))
        hang = FaultPlan.hang_all(2)
        assert all(hang.action(i, 0) == "hang" for i in range(2))


class TestHealthyRace:
    def test_losers_are_cancelled(self):
        report = Supervisor(default_portfolio(3),
                            ).run(_sat_formula())
        assert report.status is Status.SATISFIABLE
        assert report.winner_index is not None
        decisive = {WorkerOutcome.SAT, WorkerOutcome.UNSAT}
        rest = {WorkerOutcome.CANCELLED} | decisive
        for worker in report.workers:
            if worker.index == report.winner_index:
                assert worker.outcome in decisive
            else:
                assert worker.outcome in rest
        assert report.total_respawns == 0
        assert _no_orphans()

    def test_outcome_counts(self):
        report = Supervisor(default_portfolio(2)).run(_sat_formula())
        counts = report.outcome_counts()
        assert sum(counts.values()) == 2


class TestCrashRecovery:
    def test_every_worker_crashes_once_then_verdict(self):
        """Acceptance: with fault injection forcing every initial
        worker to crash, the supervisor respawns each and still
        returns the correct verdict."""
        configs = default_portfolio(3)
        formula = random_ksat(12, 40, seed=5)
        report = Supervisor(configs, budget=None,
                            fault_plan=FaultPlan.crash_all_once(3),
                            backoff_seconds=0.01).run(formula)
        assert report.status in (Status.SATISFIABLE,
                                 Status.UNSATISFIABLE)
        # Nobody can answer without being respawned at least once; the
        # race may end before every crashed slot gets its turn.
        assert report.total_respawns >= 1
        winner = report.workers[report.winner_index]
        assert winner.attempts == 2
        if report.status is Status.SATISFIABLE:
            assert_model_satisfies(formula, report.result.assignment)
        assert _no_orphans()

    def test_unsat_verdict_survives_crashes(self):
        formula = pigeonhole(3)
        report = Supervisor(default_portfolio(2),
                            fault_plan=FaultPlan.crash_all_once(2),
                            backoff_seconds=0.01).run(formula)
        assert report.status is Status.UNSATISFIABLE
        assert _no_orphans()

    def test_retries_are_bounded(self):
        # Crash forever: after max_retries respawns the worker is
        # declared CRASHED and the race returns UNKNOWN.
        plan = FaultPlan(crashes={0: 99, 1: 99})
        report = Supervisor(default_portfolio(2), max_retries=1,
                            backoff_seconds=0.01,
                            fault_plan=plan).run(_sat_formula())
        assert report.status is Status.UNKNOWN
        assert all(w.outcome is WorkerOutcome.CRASHED
                   for w in report.workers)
        assert all(w.attempts == 2 for w in report.workers)  # 1 + 1 retry
        assert _no_orphans()

    def test_garbage_payload_rejected_and_retried(self):
        formula = random_ksat(10, 30, seed=2)
        plan = FaultPlan(garbage={0: 1, 1: 1})
        report = Supervisor(default_portfolio(2), backoff_seconds=0.01,
                            fault_plan=plan).run(formula)
        assert report.status in (Status.SATISFIABLE,
                                 Status.UNSATISFIABLE)
        assert report.total_respawns >= 1
        winner = report.workers[report.winner_index]
        assert winner.attempts == 2
        if report.status is Status.SATISFIABLE:
            assert_model_satisfies(formula, report.result.assignment)
        assert _no_orphans()


@pytest.mark.slow
class TestRespawnBudgetThreading:
    """A respawned worker must get the *remaining* budget, never the
    original one (satellite fix: retries can't exceed the caller's
    total envelope)."""

    def test_respawn_receives_shrunk_deadline(self, tmp_path,
                                              monkeypatch):
        # Record every worker attempt's budget by wrapping the worker
        # entry point; the fork start method carries the patched
        # module global into the children.
        import repro.runtime.attempt as attempt_runtime

        log = tmp_path / "budgets.jsonl"
        real_worker = attempt_runtime.worker_main

        def recording_worker(spec, *args):
            import json
            budget = spec.budget
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({
                    "attempt": spec.attempt,
                    "wall": None if budget is None
                    else budget.wall_seconds,
                    "max_conflicts": None if budget is None
                    else budget.max_conflicts}) + "\n")
            return real_worker(spec, *args)

        monkeypatch.setattr(attempt_runtime, "worker_main",
                            recording_worker)
        from repro.runtime.budget import Budget
        report = Supervisor(default_portfolio(1),
                            budget=Budget(wall_seconds=30.0,
                                          max_conflicts=100_000),
                            fault_plan=FaultPlan.crash_all_once(1),
                            backoff_seconds=0.05).run(_sat_formula())
        assert report.status is Status.SATISFIABLE
        import json
        records = sorted((json.loads(line)
                          for line in log.read_text().splitlines()),
                         key=lambda r: r["attempt"])
        assert [r["attempt"] for r in records] == [0, 1]
        assert records[0]["wall"] == pytest.approx(30.0, abs=0.5)
        # The respawn ran >= backoff_seconds later: its deadline must
        # have shrunk, not reset to the original 30 s.
        assert records[1]["wall"] < records[0]["wall"]
        assert records[1]["max_conflicts"] == 100_000  # nothing spent
        assert _no_orphans()

    def test_slot_spent_sums_last_snapshot_per_attempt(self):
        from repro.runtime.supervisor import _Slot, _slot_spent

        slot = _Slot(0, default_portfolio(1)[0])
        assert _slot_spent(slot) is None
        slot.timeline = [
            {"attempt": 0, "elapsed": 0.1,
             "stats": {"conflicts": 10, "decisions": 20, "flips": 0}},
            {"attempt": 0, "elapsed": 0.2,
             "stats": {"conflicts": 25, "decisions": 50, "flips": 0}},
            {"attempt": 1, "elapsed": 0.1,
             "stats": {"conflicts": 5, "decisions": 8, "flips": 0}},
        ]
        spent = _slot_spent(slot)
        # Latest snapshot per attempt, summed across attempts.
        assert spent.conflicts == 30
        assert spent.decisions == 58

    def test_respawn_budget_shrinks_counter_caps(self):
        from repro.runtime.budget import Budget
        from repro.runtime.supervisor import _Slot, _slot_spent

        slot = _Slot(0, default_portfolio(1)[0])
        slot.timeline = [{"attempt": 0, "elapsed": 0.3,
                          "stats": {"conflicts": 40, "decisions": 90,
                                    "flips": 0}}]
        budget = Budget(max_conflicts=100, max_decisions=200)
        tail = budget.remaining_after(0.0, spent=_slot_spent(slot))
        assert tail.max_conflicts == 60
        assert tail.max_decisions == 110


class TestHangDetection:
    def test_all_hung_times_out_within_deadline(self):
        """Acceptance: all workers hung -> UNKNOWN with per-worker
        TIMED_OUT, within the wall-clock deadline (+/- 1s)."""
        deadline = 2.0
        started = time.monotonic()
        result = solve_portfolio(pigeonhole(4), processes=3,
                                 configs=default_portfolio(3),
                                 timeout=deadline, hang_timeout=0.5,
                                 fault_plan=FaultPlan.hang_all(3))
        elapsed = time.monotonic() - started
        assert result.status is Status.UNKNOWN
        report = result.report
        assert all(w.outcome is WorkerOutcome.TIMED_OUT
                   for w in report.workers)
        assert elapsed <= deadline + 1.0
        assert _no_orphans()

    def test_one_hung_worker_does_not_block_verdict(self):
        formula = random_ksat(12, 40, seed=7)
        plan = FaultPlan(hangs=frozenset({0}))
        started = time.monotonic()
        report = Supervisor(default_portfolio(3), hang_timeout=5.0,
                            fault_plan=plan).run(formula)
        assert report.status in (Status.SATISFIABLE,
                                 Status.UNSATISFIABLE)
        # The healthy workers decide the race without waiting for the
        # hang timeout.
        assert time.monotonic() - started < 5.0
        assert _no_orphans()

    def test_hang_timeout_marks_worker_timed_out(self):
        plan = FaultPlan(hangs=frozenset({0, 1}))
        report = Supervisor(default_portfolio(2), hang_timeout=0.4,
                            budget=None,
                            fault_plan=plan).run(_sat_formula())
        assert report.status is Status.UNKNOWN
        assert all(w.outcome is WorkerOutcome.TIMED_OUT
                   for w in report.workers)
        assert _no_orphans()


class TestReportShape:
    def test_worker_reports_carry_names_and_timing(self):
        configs = default_portfolio(2)
        report = Supervisor(configs).run(_sat_formula())
        assert [w.name for w in report.workers] == \
            [c.name for c in configs]
        assert report.wall_seconds >= 0.0
        for worker in report.workers:
            assert worker.attempts >= 1
            assert worker.wall_seconds >= 0.0

    def test_portfolio_result_exposes_report(self):
        result = solve_portfolio(_sat_formula(), processes=2,
                                 configs=default_portfolio(2))
        assert result.report is not None
        assert result.report.status is result.status
        assert _no_orphans()


class TestRespawnPerturbation:
    def test_perturbed_shifts_seed_and_randomness(self):
        config = default_portfolio(1)[0]
        again = config.perturbed(1)
        assert again.name == config.name       # identity is kept
        assert again.seed != config.seed
        assert again.random_freq >= 0.02
        assert config.perturbed(0) is config
        assert config.perturbed(2).seed != again.seed

    def test_respawned_attempt_runs_a_different_seed(self):
        """A deterministically-crashing config must not burn its
        retries re-running the identical search: the spawn events of
        a crashed worker carry distinct seeds per attempt."""
        from repro.obs import ListSink, Tracer

        sink = ListSink()
        plan = FaultPlan.crash_all_once(2)
        report = Supervisor(default_portfolio(2), backoff_seconds=0.01,
                            fault_plan=plan,
                            tracer=Tracer(sink)).run(pigeonhole(3))
        # The verdict required at least one respawn (everyone crashed
        # first); the race may settle before every slot gets its turn,
        # so assert on the winner's spawn events specifically.
        winner = report.winner_index
        spawns = [e for e in sink.events
                  if e["kind"] == "event"
                  and e["name"] == "portfolio.spawn"
                  and e["attrs"]["worker"] == winner]
        assert len(spawns) == 2
        seeds = [e["attrs"]["seed"] for e in spawns]
        assert seeds[0] != seeds[1]
        assert _no_orphans()


class TestCertifiedRace:
    def test_unsat_claims_are_proof_checked(self, tmp_path):
        report = Supervisor(default_portfolio(2),
                            proof_dir=str(tmp_path)
                            ).run(pigeonhole(3))
        assert report.status is Status.UNSATISFIABLE
        assert report.result.certificate is not None
        assert report.result.certificate.valid
        assert _no_orphans()

    def test_false_unsat_goes_discrepant_and_race_continues(
            self, tmp_path):
        """A worker lying UNSAT (well-formed payload, no proof) is
        caught by the proof audit: DISCREPANT, with the checker's
        diagnostic, while the honest worker settles the race."""
        formula = _sat_formula()
        plan = FaultPlan(false_unsat={0: 1})
        report = Supervisor(default_portfolio(2), max_retries=1,
                            backoff_seconds=0.01, fault_plan=plan,
                            proof_dir=str(tmp_path)).run(formula)
        assert report.status is Status.SATISFIABLE
        assert_model_satisfies(formula, report.result.assignment)
        liar = report.workers[0]
        assert liar.outcome is WorkerOutcome.DISCREPANT
        assert liar.discrepancy
        summary = report.loss_summary()[liar.name]
        assert "proof failed the independent check" in summary
        assert "unreadable proof file" in summary
        assert _no_orphans()
