"""Tests for the inprocessing engine (repro.solvers.inprocess) and the
vectorized simplification kernels (repro.solvers.kernels)."""

import random

import pytest

from conftest import assert_model_satisfies

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import pigeonhole, random_ksat
from repro.solvers import kernels
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.dpll import solve_dpll
from repro.solvers.inprocess import InprocessConfig, Inprocessor, PASSES
from repro.solvers.result import Status
from repro.verify.checker import check_proof_steps
from repro.verify.drat import MemoryProofSink

HAS_NUMPY = kernels.active_kernel() == "numpy"


def small_random(rng, nv=None, nc=None):
    nv = nv or rng.randint(4, 10)
    nc = nc or rng.randint(nv, 4 * nv)
    return random_ksat(nv, nc, k=3, seed=rng.randrange(1 << 30))


def mixed_width(rng, nv=8, nc=24):
    """Random formula with clause widths 1..3 (units and binaries make
    the equivalence / root passes actually fire)."""
    f = CNFFormula(num_vars=nv)
    for _ in range(nc):
        width = rng.randint(1, 3)
        lits, seen = [], set()
        while len(lits) < width:
            var = rng.randint(1, nv)
            if var in seen:
                break
            seen.add(var)
            lits.append(var if rng.random() < 0.5 else -var)
        if lits:
            f.add_clause(lits)
    return f


def solo_pass(name, **extra):
    """InprocessConfig with only *name* (plus the always-on root
    sweep) enabled."""
    toggles = {"subsumption": False, "self_subsumption": False,
               "vivification": False, "bve": False, "equivalence": False}
    if name == "subsumption":
        toggles["subsumption"] = toggles["self_subsumption"] = True
    elif name != "root":
        toggles[name] = True
    return InprocessConfig(interval=1, **toggles, **extra)


def check_round_trip(formula, config, kernel_events=False):
    """Solve with inprocessing forced on every conflict; the verdict
    must match DPLL, SAT models must satisfy the *original* formula,
    and UNSAT proofs must pass the independent checker."""
    reference = solve_dpll(formula)
    solver = CDCLSolver(formula, inprocess=config)
    sink = solver.proof = MemoryProofSink()
    result = solver.solve()
    assert result.status == reference.status
    if result.status is Status.SATISFIABLE:
        assert_model_satisfies(formula, result.assignment)
    else:
        outcome = check_proof_steps(formula, sink.events)
        assert outcome.valid, outcome.error
    return result, solver


class TestKernels:
    def test_capability(self, monkeypatch):
        cap = kernels.capability()
        assert set(cap) == {"numpy", "numpy_version", "kernel"}
        assert cap["numpy"] == HAS_NUMPY
        assert cap["kernel"] == ("numpy" if HAS_NUMPY else "python")
        # Without numpy the stdlib path runs, and the probe says so.
        monkeypatch.setattr(kernels, "_np", None)
        assert kernels.capability() == {
            "numpy": False, "numpy_version": None, "kernel": "python"}

    def test_clause_signature_bits(self):
        # Bit position is lit & 63, identical for both literal signs.
        assert kernels.clause_signature([1]) == 1 << 1
        assert kernels.clause_signature([-1]) == 1 << (-1 & 63)
        assert kernels.clause_signature([64]) == 1 << 0
        combined = kernels.clause_signature([3, -7, 100])
        for lit in (3, -7, 100):
            assert combined & (1 << (lit & 63))

    def test_subsumption_pairs_strict_subset(self):
        # Regression: a strictly shorter clause must subsume its
        # superset (signature filter direction).
        pairs = kernels.subsumption_pairs([[1, 2, 3], [1, 2]])
        assert pairs == [(0, 1)]

    def test_subsumption_pairs_duplicates(self):
        pairs = kernels.subsumption_pairs([[4, 5], [5, 4]])
        assert pairs == [(1, 0)]

    def test_subsumption_pairs_none(self):
        assert kernels.subsumption_pairs([[1, 2], [-1, 3], [2, -3]]) == []

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")
    def test_kernel_parity(self, monkeypatch):
        rng = random.Random(42)
        for _ in range(25):
            clauses = [sorted({rng.randint(1, 20)
                               * rng.choice([1, -1])
                               for _ in range(rng.randint(1, 5))})
                       for _ in range(rng.randint(2, 30))]
            flat = [lit for c in clauses for lit in c]
            idx = list(range(len(clauses)))

            def outputs():
                sigs = kernels.bulk_signatures(clauses)
                arr = kernels.as_sig_array(sigs)
                return (sigs, kernels.occurrence_counts(flat, 20),
                        kernels.filter_supersets(sigs[0], idx, arr),
                        kernels.filter_subsets(sigs[0], idx, arr),
                        kernels.subsumption_pairs(clauses))

            with_numpy = outputs()
            with monkeypatch.context() as patch:
                patch.setattr(kernels, "_np", None)
                assert outputs() == with_numpy


class TestPassRoundTrips:
    @pytest.mark.parametrize("name", PASSES)
    def test_single_pass_preserves_answers(self, name):
        rng = random.Random(hash(name) & 0xFFFF)
        for _ in range(25):
            check_round_trip(mixed_width(rng), solo_pass(name))

    def test_all_passes_together(self):
        rng = random.Random(7)
        for _ in range(40):
            check_round_trip(small_random(rng),
                             InprocessConfig(interval=1))

    def test_python_kernel_round_trip(self, monkeypatch):
        monkeypatch.setattr(kernels, "_np", None)
        rng = random.Random(13)
        for _ in range(20):
            _, solver = check_round_trip(small_random(rng),
                                         InprocessConfig(interval=1))
            assert solver._inprocessor.kernel == "python"

    def test_pigeonhole_proof_checked(self):
        formula = pigeonhole(4)
        result, solver = check_round_trip(
            formula, InprocessConfig(interval=10))
        assert result.status is Status.UNSATISFIABLE
        assert solver.stats.inprocess_runs >= 1


class TestModelReconstruction:
    def drive(self, formula, config):
        solver = CDCLSolver(formula, inprocess=config)
        ip = Inprocessor(solver, config)
        solver._inprocessor = ip
        assert ip.run(()) is None
        return solver, ip

    def test_bve_restores_eliminated_variable(self):
        formula = CNFFormula(num_vars=3)
        formula.add_clauses([[1, 2], [-1, 3], [2, 3], [-2, -3, 1]])
        solver, ip = self.drive(formula, solo_pass("bve"))
        assert ip.eliminated
        result = solver.solve()
        assert result.status is Status.SATISFIABLE
        for var in ip.eliminated:
            assert result.assignment.value_of(var) is not None
        assert_model_satisfies(formula, result.assignment)

    def test_bve_pure_variable(self):
        # Variable 4 is pure-positive: BVE removes it with zero
        # resolvents; the witness loop must still give it a value
        # satisfying its saved clauses.
        formula = CNFFormula(num_vars=4)
        formula.add_clauses([[4, 1], [4, -2], [1, 2, 3], [-1, -2],
                             [-1, 2, -3]])
        solver, ip = self.drive(formula, solo_pass("bve"))
        assert 4 in ip.eliminated
        result = solver.solve()
        assert result.status is Status.SATISFIABLE
        assert_model_satisfies(formula, result.assignment)

    def test_equivalence_restores_substituted_variable(self):
        # 1 <-> 2 via the binary pair; one of them is substituted out.
        formula = CNFFormula(num_vars=4)
        formula.add_clauses([[-1, 2], [1, -2], [1, 3], [2, 4],
                             [-3, -4]])
        solver, ip = self.drive(formula, solo_pass("equivalence"))
        assert len(ip.eliminated) == 1
        result = solver.solve()
        assert result.status is Status.SATISFIABLE
        assert_model_satisfies(formula, result.assignment)
        # The equivalence itself must hold in the lifted model.
        assert (result.assignment.value_of(1)
                == result.assignment.value_of(2))

    def test_randomized_reconstruction(self):
        rng = random.Random(77)
        for _ in range(30):
            formula = mixed_width(rng, nv=7, nc=14)
            config = InprocessConfig(interval=1)
            solver = CDCLSolver(formula, inprocess=config)
            result = solver.solve()
            if result.status is Status.SATISFIABLE:
                assert_model_satisfies(formula, result.assignment)


class TestCompactionInterleaving:
    def test_gc_and_inprocessing_share_the_arena(self):
        rng = random.Random(5)
        for _ in range(15):
            formula = small_random(rng, nv=9, nc=34)
            reference = solve_dpll(formula)
            solver = CDCLSolver(
                formula, deletion="size", deletion_bound=3,
                deletion_interval=25,
                inprocess=InprocessConfig(interval=3))
            sink = solver.proof = MemoryProofSink()
            result = solver.solve()
            assert result.status == reference.status
            if result.status is Status.SATISFIABLE:
                assert_model_satisfies(formula, result.assignment)
            else:
                outcome = check_proof_steps(formula, sink.events)
                assert outcome.valid, outcome.error


class TestGuards:
    def eliminate_something(self):
        formula = CNFFormula(num_vars=3)
        formula.add_clauses([[1, 2], [-1, 3], [2, 3]])
        config = solo_pass("bve")
        solver = CDCLSolver(formula, inprocess=config)
        ip = Inprocessor(solver, config)
        solver._inprocessor = ip
        ip.run(())
        assert ip.eliminated
        return solver, next(iter(ip.eliminated))

    def test_assumption_on_eliminated_variable_rejected(self):
        solver, var = self.eliminate_something()
        with pytest.raises(RuntimeError, match="eliminated"):
            solver.solve([var])

    def test_added_clause_on_eliminated_variable_rejected(self):
        solver, var = self.eliminate_something()
        with pytest.raises(RuntimeError, match="eliminated"):
            solver.add_clause([var, 2])

    def test_frozen_assumption_variables_survive(self):
        rng = random.Random(21)
        for _ in range(15):
            formula = mixed_width(rng, nv=7, nc=16)
            assumption = rng.choice([1, -1]) * rng.randint(1, 7)
            with_assumption = formula.copy()
            with_assumption.add_clause([assumption])
            reference = solve_dpll(with_assumption)
            solver = CDCLSolver(formula,
                                inprocess=InprocessConfig(interval=1))
            result = solver.solve([assumption])
            assert result.status == reference.status
            if result.status is Status.SATISFIABLE:
                assert_model_satisfies(with_assumption,
                                       result.assignment)


class TestWiring:
    def test_stats_fields_populate(self):
        solver = CDCLSolver(pigeonhole(4),
                            inprocess=InprocessConfig(interval=10))
        solver.solve()
        stats = solver.stats
        assert stats.inprocess_runs >= 1
        assert stats.inprocess_removed_clauses >= 0
        assert "inprocess_runs" in stats.as_dict()

    def test_trace_event_valid(self):
        from repro.obs import ListSink, Tracer, validate_event
        sink = ListSink()
        tracer = Tracer(sink)
        solver = CDCLSolver(pigeonhole(4),
                            inprocess=InprocessConfig(interval=10))
        solver.tracer = tracer
        solver.solve()
        tracer.close()
        events = [e for e in sink.events
                  if e.get("name") == "cdcl.inprocess"]
        assert events
        for event in events:
            assert validate_event(event) == []
            assert event["attrs"]["kernel"] in ("numpy", "python")

    def test_portfolio_diversification_axis(self):
        from repro.solvers.portfolio import (PortfolioConfig,
                                             default_portfolio)
        configs = default_portfolio(8)
        assert configs[0].inprocess is False
        assert any(c.inprocess for c in configs)
        assert any("-inp" in c.name for c in configs)
        config = PortfolioConfig(name="x", inprocess=True,
                                 inprocess_interval=500)
        solver = config.build_solver(pigeonhole(3))
        assert solver.inprocess_config is not None
        assert solver.inprocess_config.interval == 500

    def test_pass_totals_accumulate(self):
        config = InprocessConfig(interval=10)
        solver = CDCLSolver(pigeonhole(4), inprocess=config)
        solver.solve()
        ip = solver._inprocessor
        assert ip is not None and ip.runs >= 1
        assert set(ip.pass_totals) == set(PASSES)
        total = sum(sum(c.values()) for c in ip.pass_totals.values())
        assert total > 0
