"""Tests for the parallel portfolio layer (repro.solvers.portfolio)."""

import multiprocessing
import time

import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import pigeonhole, random_ksat
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.portfolio import (
    PortfolioConfig,
    default_portfolio,
    solve_portfolio,
)
from repro.solvers.result import Status

from conftest import assert_model_satisfies


def _no_orphans():
    """No racing worker may outlive solve_portfolio."""
    # Allow a short grace period for process table cleanup.
    for _ in range(50):
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return not multiprocessing.active_children()


class TestDefaultPortfolio:
    def test_sizes_and_determinism(self):
        configs = default_portfolio(6, seed=3)
        assert len(configs) == 6
        assert configs == default_portfolio(6, seed=3)
        # Diversified: not all configurations identical modulo seed.
        assert len({(c.heuristic, c.restart, c.restart_interval)
                    for c in configs}) > 1
        # Seeds differ so even repeated axes explore differently.
        assert len({c.seed for c in configs}) == 6

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            default_portfolio(0)


class TestSequentialFallback:
    def test_processes_1_uses_no_workers(self):
        formula = random_ksat(20, 60, 3, seed=9)
        result = solve_portfolio(formula, processes=1, seed=0)
        assert result.processes_used == 1
        assert result.status in (Status.SATISFIABLE,
                                 Status.UNSATISFIABLE)
        assert not multiprocessing.active_children()

    def test_single_config_stays_in_process(self):
        formula = random_ksat(15, 40, 3, seed=2)
        configs = [PortfolioConfig(name="only")]
        result = solve_portfolio(formula, configs=configs, processes=4)
        assert result.winner == "only"
        assert result.processes_used == 1

    def test_deterministic_winner_fixed_seed_set(self):
        formula = random_ksat(25, 80, 3, seed=4)
        configs = default_portfolio(4, seed=7)
        winners = {
            solve_portfolio(formula, configs=configs,
                            processes=1).winner
            for _ in range(3)
        }
        assert len(winners) == 1


class TestParallelRace:
    def test_sat_agreement_and_model(self):
        formula = random_ksat(30, 100, 3, seed=11)
        reference = CDCLSolver(formula).solve()
        result = solve_portfolio(formula, processes=3, seed=0)
        assert result.status is reference.status
        if result.status is Status.SATISFIABLE:
            assert_model_satisfies(formula, result.assignment)
        assert result.winner is not None
        assert _no_orphans()

    def test_unsat_agreement_across_configs(self):
        formula = pigeonhole(4)
        result = solve_portfolio(formula, processes=4, seed=0)
        assert result.status is Status.UNSATISFIABLE
        assert _no_orphans()

    def test_clean_shutdown_on_early_finish(self):
        # An easy instance finishes instantly in one worker; the
        # others must be terminated, not orphaned.
        formula = CNFFormula(num_vars=3,
                             clauses=[(1,), (1, 2), (-2, 3)])
        result = solve_portfolio(formula, processes=4, seed=0)
        assert result.status is Status.SATISFIABLE
        assert _no_orphans()

    def test_unknown_when_budget_exhausted(self):
        formula = pigeonhole(7)
        result = solve_portfolio(formula, processes=2, max_conflicts=5)
        assert result.status is Status.UNKNOWN
        assert result.winner is None
        assert _no_orphans()

    def test_winner_is_lowest_index_among_queued(self):
        # Trivial formula: every worker answers almost simultaneously;
        # deterministic selection must still name a single config.
        formula = CNFFormula(num_vars=2, clauses=[(1, 2)])
        result = solve_portfolio(formula, processes=3, seed=0)
        assert result.status is Status.SATISFIABLE
        assert result.winner_index is not None
        assert result.winner == \
            default_portfolio(3, seed=0)[result.winner_index].name


class TestCrossCheck:
    def test_fifty_instance_randomized_cross_check(self):
        # Acceptance criterion: portfolio == single-engine verdicts on
        # 50 randomized instances, using all available cores.
        for index in range(50):
            num_vars = 8 + (index % 12)
            num_clauses = int(num_vars * (3.0 + (index % 5) * 0.5))
            formula = random_ksat(num_vars, num_clauses, 3,
                                  seed=1000 + index)
            single = CDCLSolver(formula).solve()
            racing = solve_portfolio(formula, seed=index)
            assert racing.status is single.status, \
                f"instance {index}: {racing.status} != {single.status}"
            if racing.status is Status.SATISFIABLE:
                assert_model_satisfies(formula, racing.assignment)
        assert _no_orphans()


class TestAppIntegration:
    def test_atpg_portfolio_method(self):
        from repro.apps.atpg import TestOutcome, full_fault_list, \
            solve_fault
        from repro.circuits.generators import ripple_carry_adder

        circuit = ripple_carry_adder(2)
        fault = full_fault_list(circuit)[0]
        cdcl = solve_fault(circuit, fault, method="cdcl")
        racing = solve_fault(circuit, fault, method="portfolio")
        assert racing.outcome is cdcl.outcome
        if racing.outcome is TestOutcome.DETECTED:
            assert racing.vector is not None
