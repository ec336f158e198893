"""The unified Budget/BudgetMeter API and its engine integrations.

Covers the value-object semantics (validation, remaining_after,
merge_legacy_caps), the amortised meter (counters, deadline, memory,
heartbeat), and the per-engine wiring: CDCL, DPLL, local search,
incremental and recursive learning all honour the same Budget, and
DPLL's historical off-by-one (``>`` where CDCL used ``>=``) stays
fixed.
"""

from __future__ import annotations

import time

import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import pigeonhole, random_ksat
from repro.runtime.budget import (
    DEFAULT_CHECK_INTERVAL,
    Budget,
    BudgetMeter,
    merge_legacy_caps,
    process_rss_mb,
)
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.dpll import DPLLSolver
from repro.solvers.local_search import solve_gsat, solve_walksat
from repro.solvers.recursive_learning import recursive_learn
from repro.solvers.result import SolverStats, Status


class TestBudgetValueObject:
    def test_default_is_unlimited(self):
        assert Budget().unlimited
        assert not Budget(max_conflicts=5).unlimited
        assert not Budget(wall_seconds=1.0).unlimited

    @pytest.mark.parametrize("field", ["wall_seconds", "max_conflicts",
                                       "max_decisions", "max_flips",
                                       "max_memory_mb"])
    def test_rejects_negative(self, field):
        with pytest.raises(ValueError):
            Budget(**{field: -1})

    def test_remaining_after_shrinks_deadline_only(self):
        budget = Budget(wall_seconds=10.0, max_conflicts=100)
        tail = budget.remaining_after(4.0)
        assert tail.wall_seconds == pytest.approx(6.0)
        assert tail.max_conflicts == 100
        # never negative
        assert budget.remaining_after(99.0).wall_seconds == 0.0
        # no deadline: identity
        counters = Budget(max_conflicts=7)
        assert counters.remaining_after(5.0) is counters

    def test_remaining_after_threads_spent_counters(self):
        # A retried call (supervisor respawn, service retry) hands the
        # prior attempt's consumed counters through `spent`: caps
        # shrink so the retry can never exceed the original envelope.
        budget = Budget(wall_seconds=10.0, max_conflicts=100,
                        max_decisions=500, max_flips=50,
                        max_memory_mb=64.0)
        spent = SolverStats()
        spent.conflicts = 30
        spent.decisions = 100
        spent.flips = 60          # overshoot clamps at zero
        tail = budget.remaining_after(4.0, spent=spent)
        assert tail.wall_seconds == pytest.approx(6.0)
        assert tail.max_conflicts == 70
        assert tail.max_decisions == 400
        assert tail.max_flips == 0
        assert tail.max_memory_mb == 64.0   # a reading, not an allowance

    def test_remaining_after_spent_without_deadline(self):
        # Counter-only budgets shrink too (the old code returned the
        # budget unchanged whenever no deadline was set).
        budget = Budget(max_conflicts=100)
        spent = SolverStats()
        spent.conflicts = 99
        assert budget.remaining_after(0.0, spent=spent) \
            .max_conflicts == 1
        # uncapped axes stay uncapped
        assert budget.remaining_after(0.0, spent=spent) \
            .max_decisions is None

    def test_exhausted_property(self):
        assert not Budget().exhausted
        assert not Budget(wall_seconds=1.0, max_conflicts=5).exhausted
        assert Budget(wall_seconds=0.0).exhausted
        assert Budget(max_conflicts=0).exhausted
        spent = SolverStats()
        spent.conflicts = 10
        assert Budget(max_conflicts=10) \
            .remaining_after(0.0, spent=spent).exhausted

    def test_meter_requires_positive_interval(self):
        with pytest.raises(ValueError):
            Budget().meter(check_interval=0)


class TestMerge:
    def test_nothing_limited_is_none(self):
        assert merge_legacy_caps(None) is None

    def test_legacy_only(self):
        merged = merge_legacy_caps(None, max_conflicts=50)
        assert merged == Budget(max_conflicts=50)

    def test_takes_tighter_cap(self):
        merged = merge_legacy_caps(Budget(max_conflicts=100,
                                          wall_seconds=2.0),
                                   max_conflicts=10)
        assert merged.max_conflicts == 10
        assert merged.wall_seconds == 2.0
        merged = merge_legacy_caps(Budget(max_conflicts=5),
                                   max_conflicts=10)
        assert merged.max_conflicts == 5


class TestMeter:
    def test_counters_are_baseline_relative(self):
        baseline = SolverStats()
        baseline.conflicts = 1000
        meter = Budget(max_conflicts=10).meter(baseline=baseline)
        stats = SolverStats()
        stats.conflicts = 1009
        assert not meter.over_counters(stats)
        stats.conflicts = 1010
        assert meter.over_counters(stats)
        assert meter.blown(stats)
        assert meter.stop_reason == "counters"

    def test_spend_is_amortised(self):
        calls = []
        meter = Budget(wall_seconds=3600).meter(
            on_checkpoint=lambda: calls.append(1), check_interval=100)
        for _ in range(99):
            meter.spend(1)
        assert calls == []
        meter.spend(1)
        assert len(calls) == 1

    def test_spend_inert_without_time_or_memory_limits(self):
        meter = Budget(max_conflicts=5).meter()
        assert not meter._active
        assert meter.spend(10 ** 9) is False

    def test_deadline_latches(self):
        meter = Budget(wall_seconds=0.0).meter(check_interval=1)
        assert meter.spend(1)
        assert meter.stop_reason == "deadline"
        assert meter.blown(SolverStats())
        assert meter.expired()

    def test_memory_ceiling_trips(self):
        rss = process_rss_mb()
        if rss is None:
            pytest.skip("getrusage unavailable")
        meter = Budget(max_memory_mb=rss / 2).meter(check_interval=1)
        assert meter.spend(1)
        assert meter.stop_reason == "memory"

    def test_remaining_budget_shrinks(self):
        meter = Budget(wall_seconds=60.0).meter()
        time.sleep(0.01)
        assert meter.remaining_budget().wall_seconds < 60.0

    def test_expired_false_for_counter_only_budget(self):
        meter = Budget(max_conflicts=1).meter()
        assert not meter.expired()


class TestEngineIntegration:
    def test_cdcl_wall_deadline_returns_unknown(self):
        result = CDCLSolver(pigeonhole(8),
                            budget=Budget(wall_seconds=0.2)).solve()
        assert result.status is Status.UNKNOWN
        assert result.stats.time_seconds < 5.0

    def test_cdcl_budget_conflict_cap(self):
        solver = CDCLSolver(pigeonhole(6),
                            budget=Budget(max_conflicts=10))
        assert solver.solve().status is Status.UNKNOWN
        assert solver.stats.conflicts == 10

    def test_dpll_cdcl_conflict_cutoff_parity(self):
        """Regression: DPLL used ``>`` where CDCL used ``>=``, so the
        two engines stopped one conflict apart for the same cap."""
        formula = pigeonhole(5)
        cap = 10
        cdcl = CDCLSolver(formula, max_conflicts=cap)
        assert cdcl.solve().status is Status.UNKNOWN
        dpll = DPLLSolver(formula, max_conflicts=cap)
        assert dpll.solve().status is Status.UNKNOWN
        assert cdcl.stats.conflicts == cap
        assert dpll.stats.conflicts == cap

    def test_dpll_budget_object(self):
        result = DPLLSolver(pigeonhole(6),
                            budget=Budget(max_conflicts=25)).solve()
        assert result.status is Status.UNKNOWN

    def test_dpll_wall_deadline(self):
        result = DPLLSolver(pigeonhole(9),
                            budget=Budget(wall_seconds=0.2)).solve()
        assert result.status is Status.UNKNOWN

    def test_budget_does_not_change_verdicts(self):
        for seed in range(5):
            formula = random_ksat(12, 40, seed=seed)
            plain = CDCLSolver(formula).solve()
            roomy = CDCLSolver(formula,
                               budget=Budget(wall_seconds=3600,
                                             max_conflicts=10 ** 9)
                               ).solve()
            assert plain.status is roomy.status

    def test_local_search_total_flip_cap(self):
        formula = pigeonhole(5)          # UNSAT: every flip is spent
        for solve in (solve_gsat, solve_walksat):
            result = solve(formula, max_tries=100, max_flips=1000,
                           seed=3, budget=Budget(max_flips=50))
            assert result.status is Status.UNKNOWN
            assert result.stats.flips <= 50 + 1

    def test_local_search_wall_deadline(self):
        result = solve_walksat(pigeonhole(6), max_tries=10 ** 6,
                               max_flips=10 ** 6, seed=1,
                               budget=Budget(wall_seconds=0.2))
        assert result.status is Status.UNKNOWN

    def test_incremental_budget_is_per_call(self):
        solver = CDCLSolver()
        formula = pigeonhole(6)
        for _ in range(formula.num_vars):
            solver.new_var()
        for clause in formula:
            solver.add_clause(list(clause))
        solver.budget = Budget(max_conflicts=10)
        first = solver.solve()
        assert first.status is Status.UNKNOWN
        # The second call gets a fresh 10-conflict allowance despite
        # the conflicts already accumulated on the persistent engine.
        second = solver.solve()
        assert second.status is Status.UNKNOWN
        # And an unbudgeted call still finishes the proof.
        solver.budget = None
        assert solver.solve().status is Status.UNSATISFIABLE

    def test_recursive_learning_budget_partial_but_sound(self):
        formula = pigeonhole(4)
        full = recursive_learn(formula, {}, depth=2)
        cut = recursive_learn(formula, {}, depth=2,
                              budget=Budget(wall_seconds=0.0))
        assert cut.exhausted
        assert not full.exhausted
        # Everything the truncated pass derived, the full pass agrees
        # with (partial results stay sound).
        for var, value in cut.necessary.items():
            assert full.necessary.get(var) == value

    def test_default_check_interval_sane(self):
        assert DEFAULT_CHECK_INTERVAL >= 256


class TestCheckpointHook:
    def test_on_checkpoint_fires_during_search(self):
        beats = []
        solver = CDCLSolver(pigeonhole(6))
        solver.on_checkpoint = lambda: beats.append(time.monotonic())
        # Hook alone (no budget) must still create a meter and fire.
        assert solver.solve().status is Status.UNSATISFIABLE
        assert beats, "checkpoint callback never fired"

    def test_meter_direct_heartbeat(self):
        beats = []
        meter = BudgetMeter(Budget(), on_checkpoint=lambda:
                            beats.append(1), check_interval=10)
        meter.spend(10)
        meter.spend(10)
        assert len(beats) == 2
