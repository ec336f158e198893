"""Unit tests for in-memory RUP proof logging and checking through
repro.verify (``solve_with_proof_stream`` into a ``MemoryProofSink``,
validated by ``check_proof_steps``)."""

import pytest

from conftest import brute_force_status

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import (
    parity_chain,
    pigeonhole,
    random_ksat_at_ratio,
)
from repro.verify import check_proof_steps, solve_with_proof_stream


def _check(formula, sink):
    """Check a streamed proof; only a concluded one must reach the
    empty clause."""
    return check_proof_steps(formula, sink.events,
                             require_empty=sink.concluded)


class TestProofLogging:
    def test_unsat_proof_complete_and_valid(self):
        formula = pigeonhole(4)
        result, sink = solve_with_proof_stream(formula)
        assert result.is_unsat
        assert sink.concluded
        assert sink.adds > 0
        check = _check(formula, sink)
        assert check.valid, check.error

    def test_sat_proof_incomplete_but_steps_valid(self):
        formula = random_ksat_at_ratio(20, ratio=3.5, seed=0)
        result, sink = solve_with_proof_stream(formula)
        assert result.is_sat
        assert not sink.concluded
        assert _check(formula, sink).valid

    @pytest.mark.parametrize("seed", range(6))
    def test_random_unsat_instances(self, seed):
        formula = random_ksat_at_ratio(8, ratio=5.5, seed=seed)
        if brute_force_status(formula) != "UNSAT":
            pytest.skip("instance happens to be satisfiable")
        result, sink = solve_with_proof_stream(formula)
        assert result.is_unsat
        assert _check(formula, sink).valid

    def test_parity_chain_proof(self):
        formula = parity_chain(10)
        result, sink = solve_with_proof_stream(formula)
        assert result.is_unsat
        assert _check(formula, sink).valid

    def test_proof_with_minimization(self):
        formula = pigeonhole(4)
        result, sink = solve_with_proof_stream(formula,
                                               minimize_learned=True)
        assert result.is_unsat
        assert _check(formula, sink).valid

    def test_proof_with_decision_cut(self):
        formula = pigeonhole(3)
        result, sink = solve_with_proof_stream(formula,
                                               conflict_cut="decision")
        assert result.is_unsat
        assert _check(formula, sink).valid

    def test_proof_with_deletion(self):
        """The clauses the GC deletes are streamed as deletion steps;
        the checker drops them too, and the proof stays valid."""
        formula = pigeonhole(5)
        result, sink = solve_with_proof_stream(formula, deletion="size",
                                               deletion_bound=5,
                                               deletion_interval=20)
        assert result.is_unsat
        assert _check(formula, sink).valid

    def test_trivially_unsat_formula(self):
        formula = CNFFormula(1)
        formula.add_clause([1])
        formula.add_clause([-1])
        result, sink = solve_with_proof_stream(formula)
        assert result.is_unsat
        assert sink.concluded
        assert _check(formula, sink).valid


class TestChecker:
    def test_rejects_non_consequence(self):
        formula = CNFFormula(2)
        formula.add_clause([1, 2])
        bogus = [("a", (1,))]                     # (1) not implied
        check = check_proof_steps(formula, bogus, require_empty=False)
        assert not check.valid
        assert check.line == 1

    def test_rejects_fake_completion(self):
        formula = CNFFormula(2)
        formula.add_clause([1, 2])
        fake = [("a", ())]
        check = check_proof_steps(formula, fake)
        assert not check.valid

    def test_accepts_unit_step(self):
        # (a + b)(a + b') |= (a) by RUP.
        formula = CNFFormula(2)
        formula.add_clause([1, 2])
        formula.add_clause([1, -2])
        proof = [("a", (1,))]
        assert check_proof_steps(formula, proof,
                                 require_empty=False).valid

    def test_steps_checked_counter(self):
        formula = CNFFormula(2)
        formula.add_clause([1, 2])
        formula.add_clause([1, -2])
        proof = [("a", (1,)), ("a", (2,))]
        check = check_proof_steps(formula, proof, require_empty=False)
        assert not check.valid and check.line == 2
        assert check.steps_checked == 1

    def test_tautological_step_accepted(self):
        formula = CNFFormula(1)
        formula.add_clause([1])
        proof = [("a", (1, -1))]
        assert check_proof_steps(formula, proof,
                                 require_empty=False).valid
