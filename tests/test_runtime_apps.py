"""Graceful degradation of the apps layer under tiny budgets.

ATPG, CEC and BMC must never raise on budget exhaustion: they return
partial reports with an explicit ``budget_exhausted`` flag.  Also
covers the portfolio sequential fallback honouring ``timeout`` and the
CLI's ``--timeout`` / ``--max-memory-mb`` plumbing.
"""

from __future__ import annotations

import time

import pytest

from repro.circuits.generators import ripple_carry_adder
from repro.runtime.budget import Budget
from repro.solvers.result import Status


class TestATPGDegradation:
    def test_zero_budget_aborts_all_faults_without_raising(self):
        from repro.apps.atpg import ATPGEngine, TestOutcome

        circuit = ripple_carry_adder(3)
        engine = ATPGEngine(circuit, fault_dropping=False,
                            budget=Budget(wall_seconds=0.0))
        report = engine.run()
        assert report.budget_exhausted
        assert report.results, "fault list must still be reported"
        assert all(r.outcome is TestOutcome.ABORTED
                   for r in report.results)

    def test_partial_budget_keeps_completed_results(self):
        from repro.apps.atpg import ATPGEngine, TestOutcome

        circuit = ripple_carry_adder(4)
        engine = ATPGEngine(circuit, fault_dropping=False,
                            budget=Budget(wall_seconds=0.5))
        report = engine.run()
        # Regardless of where the deadline lands, every fault is
        # accounted for and nothing raised.
        assert len(report.results) == len(engine.fault_list())
        if report.budget_exhausted:
            assert report.count(TestOutcome.ABORTED) > 0

    def test_unlimited_budget_matches_no_budget(self):
        from repro.apps.atpg import ATPGEngine

        circuit = ripple_carry_adder(2)
        plain = ATPGEngine(circuit).run()
        budgeted = ATPGEngine(circuit, budget=Budget()).run()
        assert not budgeted.budget_exhausted
        assert ([r.outcome for r in plain.results]
                == [r.outcome for r in budgeted.results])


class TestCECDegradation:
    def test_conflict_starved_check_reports_unknown(self):
        from repro.apps.equivalence import check_equivalence

        a = ripple_carry_adder(4)
        b = ripple_carry_adder(4)
        report = check_equivalence(a, b, simulation_vectors=0,
                                   max_conflicts=None,
                                   budget=Budget(max_conflicts=1))
        assert report.equivalent is None
        assert report.budget_exhausted
        assert report.stats.conflicts <= 1

    def test_zero_deadline_reports_unknown(self):
        from repro.apps.equivalence import check_equivalence

        a = ripple_carry_adder(3)
        b = ripple_carry_adder(3)
        report = check_equivalence(a, b, simulation_vectors=0,
                                   budget=Budget(wall_seconds=0.0))
        assert report.equivalent is None
        assert report.budget_exhausted

    def test_roomy_budget_still_decides(self):
        from repro.apps.equivalence import check_equivalence

        a = ripple_carry_adder(2)
        b = ripple_carry_adder(2)
        report = check_equivalence(a, b,
                                   budget=Budget(wall_seconds=60.0))
        assert report.equivalent is True
        assert not report.budget_exhausted


class TestBMCDegradation:
    def test_zero_budget_proves_nothing_and_says_so(self):
        from repro.apps.bmc import check_safety
        from repro.circuits.generators import binary_counter

        circuit = binary_counter(3)
        result = check_safety(circuit, circuit.outputs[0],
                              max_depth=6,
                              budget=Budget(wall_seconds=0.0))
        assert result.budget_exhausted
        assert result.depths_proved == 0
        assert result.failure_depth is None

    def test_unknown_depth_is_not_counted_as_proved(self):
        from repro.apps.bmc import check_safety
        from repro.circuits.generators import binary_counter

        # A 1-conflict budget exhausts mid-sweep on a counter whose
        # MSB needs several frames to rise; whatever depth the solver
        # could not decide must not inflate depths_proved.
        circuit = binary_counter(4)
        result = check_safety(circuit, circuit.outputs[0],
                              max_depth=14,
                              budget=Budget(max_conflicts=1))
        if result.budget_exhausted:
            assert result.failure_depth is None
            assert result.depths_proved < 15
        else:           # budget happened to suffice: normal verdict
            assert result.failure_depth is not None \
                or result.depths_proved == 15

    def test_roomy_budget_finds_counterexample(self):
        from repro.apps.bmc import check_safety, verify_trace
        from repro.circuits.generators import binary_counter

        circuit = binary_counter(2)
        result = check_safety(circuit, circuit.outputs[0],
                              max_depth=8,
                              budget=Budget(wall_seconds=60.0))
        assert not result.budget_exhausted
        assert result.failure_depth is not None
        assert verify_trace(circuit, result, circuit.outputs[0])


class TestSequentialPortfolioTimeout:
    def test_processes_1_honours_timeout(self):
        """Satellite: the sequential fallback used to ignore
        ``timeout`` entirely; it must stop at the deadline."""
        from repro.cnf.generators import pigeonhole
        from repro.solvers.portfolio import (
            default_portfolio,
            solve_portfolio,
        )

        started = time.monotonic()
        result = solve_portfolio(pigeonhole(8), processes=1,
                                 configs=default_portfolio(4),
                                 timeout=0.5)
        elapsed = time.monotonic() - started
        assert result.status is Status.UNKNOWN
        assert elapsed < 5.0
        assert result.processes_used == 1

    def test_deadline_splits_across_configs(self):
        from repro.cnf.generators import pigeonhole
        from repro.solvers.portfolio import (
            default_portfolio,
            solve_portfolio,
        )

        # Hard instance, several configs: the scan must not give each
        # config the full deadline.
        started = time.monotonic()
        solve_portfolio(pigeonhole(9), processes=1,
                        configs=default_portfolio(6), timeout=0.6)
        assert time.monotonic() - started < 4.0


class TestCLIBudgetFlags:
    def test_solve_timeout_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.cnf.dimacs import save_dimacs
        from repro.cnf.generators import pigeonhole

        path = tmp_path / "php8.cnf"
        save_dimacs(pigeonhole(8), str(path))
        code = main(["solve", str(path), "--timeout", "0.2"])
        assert code == 0
        assert "UNKNOWN" in capsys.readouterr().out

    def test_solve_unlimited_still_works(self, tmp_path, capsys):
        from repro.cli import main
        from repro.cnf.dimacs import save_dimacs
        from repro.cnf.generators import pigeonhole

        path = tmp_path / "php3.cnf"
        save_dimacs(pigeonhole(3), str(path))
        assert main(["solve", str(path)]) == 20

    def test_bmc_timeout_flag(self, tmp_path, capsys):
        from repro.circuits.bench_format import save_bench
        from repro.circuits.generators import binary_counter
        from repro.cli import main

        circuit = binary_counter(3)
        path = tmp_path / "counter.bench"
        save_bench(circuit, str(path))
        code = main(["bmc", str(path), "--depth", "6",
                     "--timeout", "0.0"])
        assert code == 2
        assert "budget exhausted" in capsys.readouterr().out

    def test_cec_timeout_flag(self, tmp_path, capsys):
        from repro.circuits.bench_format import save_bench
        from repro.cli import main

        a = ripple_carry_adder(3)
        b = ripple_carry_adder(3)
        pa, pb = tmp_path / "a.bench", tmp_path / "b.bench"
        save_bench(a, str(pa))
        save_bench(b, str(pb))
        code = main(["cec", str(pa), str(pb), "--timeout", "0.0"])
        assert code == 2
        assert "UNKNOWN" in capsys.readouterr().out

    def test_atpg_timeout_flag(self, tmp_path, capsys):
        from repro.circuits.bench_format import save_bench
        from repro.cli import main

        path = tmp_path / "adder.bench"
        save_bench(ripple_carry_adder(3), str(path))
        code = main(["atpg", str(path), "--timeout", "0.0"])
        assert code == 1                       # aborted faults remain
        assert "partial" in capsys.readouterr().out

    def test_memory_flag_parses(self, tmp_path):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["solve", "x.cnf", "--max-memory-mb", "512"])
        assert args.max_memory_mb == 512.0
        assert args.timeout is None
