"""Regression tests: one per bug found and fixed during development.

Each test documents the original failure mode; none of these may
regress silently.
"""

import pytest

from conftest import brute_force_status

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import pigeonhole
from repro.cnf.simplify import remove_subsumed
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.heuristics import FixedOrderHeuristic
from repro.solvers.restarts import luby


class TestRootConflictStickiness:
    """Bug: after a level-0 conflict proved UNSAT, the solver left a
    falsified clause un-reexamined; a second solve() call could walk
    past it and report SATISFIABLE."""

    def test_resolve_after_unsat_stays_unsat(self):
        solver = CDCLSolver(pigeonhole(4))
        assert solver.solve().is_unsat
        assert solver.solve().is_unsat
        assert solver.solve().is_unsat


class TestAssumptionDepthMiscount:
    """Bug: the assumption-level prefix was computed as
    len(assumptions), so an assumption *implied* by an earlier one
    (taking no decision level of its own) made a genuine conflict at a
    deeper level look like assumption-level UNSAT."""

    def test_implied_assumption_depth(self):
        formula = CNFFormula(4)
        formula.add_clause([-1, 2])          # a -> b
        formula.add_clause([3, 4])
        formula.add_clause([3, -4])
        formula.add_clause([-3, 4])
        formula.add_clause([-3, -4])         # x3/x4 core is UNSAT
        solver = CDCLSolver(formula, heuristic=FixedOrderHeuristic())
        result = solver.solve(assumptions=[1, 2])
        assert result.is_unsat               # truly UNSAT either way
        # The formula minus the x3/x4 core is SAT under the same
        # assumptions -- the original bug also misfired here.
        sat_formula = CNFFormula(4)
        sat_formula.add_clause([-1, 2])
        sat_formula.add_clause([3, 4])
        sat_solver = CDCLSolver(sat_formula,
                                heuristic=FixedOrderHeuristic())
        assert sat_solver.solve(assumptions=[1, 2]).is_sat


class TestLubySequence:
    """Bug: the first luby() implementation produced negative shift
    counts (index arithmetic off by one in the sub-block recursion)."""

    def test_first_thirty_values(self):
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
                    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [luby(i + 1) for i in range(30)] == expected

    def test_block_boundaries(self):
        assert luby(31) == 16
        assert luby(63) == 32


class TestSubsumptionIndexing:
    """Bug: the subsumption pass looked for subsumers only in the
    occurrence list of the clause's rarest literal; a subsumer need
    not contain that literal, so subsumed clauses survived."""

    def test_subsumer_without_rarest_literal(self):
        formula = CNFFormula(3)
        formula.add_clause([1])              # subsumes both below
        formula.add_clause([1, 2])
        formula.add_clause([1, 2, 3])        # 3 is the rarest literal
        result = remove_subsumed(formula)
        assert result.formula.num_clauses == 1


class TestLearningDisabledAntecedent:
    """Bug: with learning disabled, the re-asserted literal was given
    the *conflicting clause* as its reason; later conflict analyses
    resolved on a clause that does not imply the literal, potentially
    deriving non-implicates."""

    @pytest.mark.parametrize("seed", range(6))
    def test_no_learning_soundness(self, seed):
        from repro.cnf.generators import random_ksat_at_ratio
        formula = random_ksat_at_ratio(8, ratio=4.3, seed=seed)
        expected = brute_force_status(formula)
        result = CDCLSolver(formula, learning=False).solve()
        assert result.is_sat == (expected == "SAT")


class TestProofUnitOrdering:
    """Bug: learned unit clauses were appended to the proof at the end
    of the run instead of at derivation time, so later steps that
    relied on them failed reverse-unit-propagation checking."""

    def test_units_interleaved_in_proof(self):
        from repro.verify import check_proof_steps, solve_with_proof_stream
        formula = pigeonhole(5)
        result, sink = solve_with_proof_stream(formula, deletion="size",
                                               deletion_bound=5,
                                               deletion_interval=20)
        assert result.is_unsat
        assert check_proof_steps(formula, sink.events).valid


class TestSweepFixpoint:
    """Bug: one sweep pass left constants stranded by its own folding
    (liveness was computed before constant propagation), so optimized
    netlists kept dead nodes."""

    def test_stranded_constant_removed(self):
        from repro.apps.redundancy import remove_redundancy
        from repro.circuits.faults import StuckAtFault
        from repro.circuits.library import redundant_or_chain
        optimized = remove_redundancy(redundant_or_chain(),
                                      StuckAtFault("ab", False))
        assert all(not node.gate_type.value.startswith("CONST")
                   for node in optimized), "stranded constant"


class TestXorArityOneEncoding:
    """Bug class guarded here: gate_cnf_clauses for XOR with a single
    input must behave as a buffer (parity of one bit)."""

    def test_single_input_xor(self):
        import itertools
        from repro.circuits.gates import GateType, gate_cnf_clauses
        clauses = gate_cnf_clauses(GateType.XOR, 2, [1])
        for a, x in itertools.product([False, True], repeat=2):
            model = {1: a, 2: x}
            satisfied = all(
                any(model[abs(lit)] == (lit > 0) for lit in clause)
                for clause in clauses)
            assert satisfied == (x == a)
