"""Unit tests for CDCLSolver as the one persistent solver (Section 6):
clauses and variables added between calls, per-call assumptions,
stats and caps, and the search path of the apps built on it."""

import pytest

from repro.apps.bmc import check_safety
from repro.apps.delay_fault import DelayFaultATPG, enumerate_path_faults
from repro.apps.seq_equivalence import check_sequential_equivalence
from repro.circuits.generators import binary_counter, carry_select_adder
from repro.cnf.generators import pigeonhole
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.result import SolverStats


class TestBasics:
    def test_empty_start(self):
        solver = CDCLSolver()
        assert solver.solve().is_sat

    def test_monotonic_growth(self):
        solver = CDCLSolver()
        a = solver.new_var()
        b = solver.new_var()
        solver.add_clause([a, b])
        assert solver.solve().is_sat
        solver.add_clause([-a])
        solver.add_clause([-b])
        assert solver.solve().is_unsat

    def test_seed_formula(self, tiny_sat_formula):
        solver = CDCLSolver(tiny_sat_formula)
        assert solver.solve().is_sat
        assert solver.formula.num_vars == 3

    def test_seed_formula_not_mutated(self, tiny_sat_formula):
        before = tiny_sat_formula.num_clauses
        solver = CDCLSolver(tiny_sat_formula)
        solver.add_clause([-3])
        assert tiny_sat_formula.num_clauses == before

    def test_call_counter(self):
        solver = CDCLSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        first = solver.solve()
        second = solver.solve()
        # One engine served both calls: its running total is their sum.
        assert first.stats.decisions == second.stats.decisions > 0
        assert solver.stats.decisions == 2 * first.stats.decisions

    def test_added_clauses_and_variables_join_the_engine_formula(
            self, tiny_sat_formula):
        solver = CDCLSolver(tiny_sat_formula)
        assert solver.formula is tiny_sat_formula
        var = solver.new_var()
        solver.add_clause([-var, 3])
        assert solver.formula is not tiny_sat_formula
        assert solver.formula.num_vars == var == 4
        assert solver.formula.clauses == \
            tiny_sat_formula.clauses + [(3, -var)]


class TestAssumptions:
    def test_retractable_queries(self, tiny_sat_formula):
        solver = CDCLSolver(tiny_sat_formula)
        assert solver.solve(assumptions=[-2]).is_unsat  # b forced true
        assert solver.solve(assumptions=[2]).is_sat
        assert solver.solve().is_sat                    # fully retracted

    def test_per_call_stats_are_deltas(self):
        solver = CDCLSolver(pigeonhole(4))
        first = solver.solve()
        second = solver.solve()
        assert first.is_unsat and second.is_unsat
        # Totals accumulate both calls.
        assert solver.stats.conflicts == \
            first.stats.conflicts + second.stats.conflicts

    def test_learning_persists_across_calls(self):
        """The iterative-SAT speedup of [25]: the second, related query
        reuses recorded clauses and needs fewer conflicts."""
        solver = CDCLSolver(pigeonhole(4))
        first = solver.solve()
        assert len(solver.learned_clauses()) > 0
        second = solver.solve()
        assert second.stats.conflicts <= first.stats.conflicts

    def test_assumption_on_a_variable_no_clause_names(self):
        solver = CDCLSolver()
        a = solver.new_var()
        solver.add_clause([a])
        b = solver.new_var()
        result = solver.solve(assumptions=[b])
        assert result.is_sat
        assert result.assignment.value_of(b) is True
        assert solver.solve(assumptions=[-b, -a]).is_unsat

    def test_clause_false_at_the_root_refutes(self):
        solver = CDCLSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a])
        solver.add_clause([b])
        assert solver.solve().is_sat          # a and b: root facts now
        solver.add_clause([-a, -b])
        assert solver.solve().is_unsat

    def test_clause_unit_at_the_root_propagates(self):
        solver = CDCLSolver()
        a, b, c = solver.new_var(), solver.new_var(), solver.new_var()
        solver.add_clause([a])
        solver.add_clause([b])
        assert solver.solve().is_sat
        # Both of the clause's first two literals are false at the
        # root: c must still be implied.
        solver.add_clause([-a, -b, c])
        assert solver.solve(assumptions=[-c]).is_unsat
        result = solver.solve()
        assert result.is_sat and result.assignment.value_of(c) is True

    def test_unsat_not_sticky_for_assumptions(self):
        solver = CDCLSolver()
        a = solver.new_var()
        solver.add_clause([a])
        assert solver.solve(assumptions=[-a]).is_unsat
        assert solver.solve().is_sat


class TestBudgets:
    def test_per_call_conflict_budget(self):
        solver = CDCLSolver(pigeonhole(6), max_conflicts=2)
        result = solver.solve()
        assert result.is_unknown

    def test_budget_refreshes_each_call(self):
        solver = CDCLSolver(pigeonhole(4), max_conflicts=100000)
        assert solver.solve().is_unsat
        assert solver.solve().is_unsat

    @pytest.mark.parametrize("cap", ["max_conflicts", "max_decisions"])
    def test_caps_count_from_the_start_of_the_call(self, cap):
        solver = CDCLSolver(pigeonhole(6), **{cap: 10})
        counter = cap[len("max_"):]
        for _ in range(3):
            result = solver.solve()
            assert result.is_unknown
            assert getattr(result.stats, counter) == 10
        assert getattr(solver.stats, counter) == 30


class TestSearchPathPinned:
    """Counters of the apps on the persistent solver, pinned to the
    values measured before it replaced a wrapper that kept its own copy
    of every clause: the same clauses, seeds and caps give the same
    search, counter for counter."""

    @staticmethod
    def effort(stats):
        return stats.conflicts, stats.decisions, stats.propagations

    def test_bmc_counter_rollover(self):
        result = check_safety(binary_counter(4), "rollover", max_depth=20)
        assert result.failure_depth == 15
        assert self.effort(result.stats) == (81, 215, 5735)

    def test_sequential_equivalence_counters(self):
        # Re-pinned when the check became BMC on build_miter's product
        # machine: the product's input buffers add variables, which
        # moved the search (the private unroller read 394 / 547 /
        # 22,338).
        report = check_sequential_equivalence(
            binary_counter(3), binary_counter(3), max_depth=10)
        assert report.equivalent_through == 10
        assert self.effort(report.stats) == (419, 543, 28097)

    def test_robust_path_delay_counters(self):
        circuit = carry_select_adder(4)
        faults = enumerate_path_faults(circuit, max_paths=20)
        results = DelayFaultATPG(circuit, robust=True).run(faults)
        statuses = [result.status.value for result in results]
        assert (statuses.count("TESTABLE"),
                statuses.count("UNTESTABLE")) == (12, 28)
        total = SolverStats()
        for result in results:
            total.merge(result.stats)
        assert self.effort(total) == (17, 431, 2388)
