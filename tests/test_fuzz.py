"""Tests for repro.verify.fuzz: the differential fuzzer, its
cross-checks, and the delta-debugging shrinker."""

import json
import os
import random

from repro.cnf.dimacs import parse_dimacs
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import pigeonhole
from repro.solvers.result import SolverResult, Status
from repro.verify.fuzz import (
    CDCLEngine,
    DPLLEngine,
    Engine,
    IncrementalEngine,
    _raw_dimacs_text,
    default_engines,
    differential_failure,
    random_instance,
    run_fuzz,
    shrink_formula,
)


class TestDifferentialFailure:
    def test_honest_engines_agree(self):
        import random
        formula = pigeonhole(3)
        engines = default_engines(random.Random(7))
        assert differential_failure(formula, engines) is None

    def test_unknown_is_never_a_disagreement(self):
        class GiveUp(Engine):
            name = "give-up"

            def run(self, formula):
                return SolverResult(Status.UNKNOWN)

        formula = pigeonhole(3)
        engines = [CDCLEngine("cdcl"), GiveUp()]
        assert differential_failure(formula, engines) is None

    def test_flipped_verdict_is_a_disagreement(self):
        class Liar(Engine):
            name = "liar"

            def run(self, formula):
                return SolverResult(Status.SATISFIABLE)

        formula = pigeonhole(3)           # UNSAT
        failure = differential_failure(formula, [Liar()])
        assert failure is not None
        kind, detail, culprits = failure
        # A SAT claim with no model is caught as bad-model before any
        # pairwise comparison happens.
        assert kind == "bad-model"
        assert culprits[0].name == "liar"

    def test_invalid_streamed_proof_is_bad_proof(self):
        class ProofDropper(CDCLEngine):
            """Honest verdicts, dishonest proof: drops half the
            derivation before the cross-check sees it."""

            def run(self, formula):
                result = super().run(formula)
                if self.proof_events:
                    self.proof_events = self.proof_events[1::2]
                return result

        formula = pigeonhole(3)
        failure = differential_failure(formula,
                                       [ProofDropper("dropper")])
        assert failure is not None
        assert failure[0] == "bad-proof"
        assert "failed" in failure[1]


class TestIncrementalEngine:
    def test_panel_runs_the_cdcl_config_as_a_persistent_solver(self):
        engines = default_engines(random.Random(7))
        assert isinstance(engines[1], IncrementalEngine)
        assert engines[1].cdcl is engines[0]

    def test_honest_session_checks_its_stream(self):
        engine = IncrementalEngine(CDCLEngine("cdcl", seed=3))
        result = engine.run(pigeonhole(3))
        assert result.is_unsat
        assert engine.failure is None
        assert engine.queries > 1

    def test_wrong_target_is_bad_proof(self, monkeypatch):
        from repro.verify.drat import MemoryProofSink

        def weakened(self, literals):
            self.events.append(("u", tuple(literals) + (99,)))
            self.targets += 1

        monkeypatch.setattr(MemoryProofSink, "target", weakened)
        formula = CNFFormula(clauses=[[1, 2], [1, -2], [-1, 3]])
        for seed in range(20):
            engine = IncrementalEngine(CDCLEngine("cdcl", seed=seed))
            engine.run(formula)
            if engine.failure is not None:
                break
        kind, detail = engine.failure
        assert kind == "bad-proof"
        assert "differ from the refuted queries" in detail


class TestShrinker:
    def test_shrinks_to_the_failing_core(self):
        """Bury a tiny UNSAT core in satisfiable padding: the shrinker
        must dig it out."""
        core = [(1,), (-1,)]
        padding = [(i, i + 1) for i in range(2, 40)]
        formula = CNFFormula(num_vars=41,
                             clauses=[list(c) for c in core + padding])

        def is_unsat(candidate):
            from repro.solvers.dpll import solve_dpll
            return solve_dpll(candidate).status is Status.UNSATISFIABLE

        shrunk = shrink_formula(formula, is_unsat)
        assert shrunk.num_clauses == 2
        assert is_unsat(shrunk)
        # Variables were renumbered down to the survivors.
        assert shrunk.num_vars == 1

    def test_respects_eval_budget(self):
        calls = []

        def predicate(candidate):
            calls.append(1)
            return True

        formula = CNFFormula(
            num_vars=30, clauses=[[i] for i in range(1, 31)])
        shrink_formula(formula, predicate, max_evals=10)
        # + up to 1 for the renumbering probe
        assert len(calls) <= 11


class TestRandomInstance:
    def test_dimacs_family_spells_the_normal_form_edge_cases(self):
        seen = set()
        for seed in range(200):
            text = _raw_dimacs_text(random.Random(seed), max_vars=8)
            parse_dimacs(text)
            for line in text.splitlines()[1:]:
                lits = [int(token) for token in line.split()[:-1]]
                if not lits:
                    seen.add("empty")
                if len(lits) == 1:
                    seen.add("unit")
                if len(set(lits)) < len(lits):
                    seen.add("repeat")
                if any(-lit in lits for lit in lits):
                    seen.add("tautology")
                if lits != sorted(lits, key=lambda lit: (abs(lit), lit < 0)):
                    seen.add("unsorted")
        assert seen == {"empty", "unit", "repeat", "tautology", "unsorted"}

    def test_every_family_is_drawn(self):
        families = {random_instance(random.Random(seed))[0].split("(")[0]
                    for seed in range(40)}
        assert families == {"dimacs", "ksat", "miter"}


class TestRunFuzz:
    def test_clean_seeded_run_has_zero_failures(self, tmp_path):
        report = run_fuzz(iterations=25, seed=11,
                          out_dir=str(tmp_path))
        assert report.ok, report.failures
        assert report.iterations == 25
        assert report.sat + report.unsat + report.unknown == 25
        assert report.unsat > 0 and report.proofs_checked > 0
        assert os.listdir(str(tmp_path)) == []   # no reproducers

    def test_injected_bug_is_caught_and_shrunk(self, tmp_path):
        class BuggyEngine(Engine):
            """Solves a weakened formula: drops the last clause, so it
            sometimes answers SAT with a model falsifying the
            original."""

            name = "buggy"

            def run(self, formula):
                from repro.solvers.dpll import solve_dpll
                weakened = CNFFormula(
                    num_vars=formula.num_vars,
                    clauses=[list(c) for c in formula.clauses][:-1])
                return solve_dpll(weakened)

        def engines(rng):
            return [BuggyEngine(), DPLLEngine()]

        report = run_fuzz(iterations=40, seed=5,
                          out_dir=str(tmp_path),
                          engines_factory=engines,
                          max_shrink_evals=150)
        assert not report.ok, "injected bug escaped the fuzzer"
        failure = report.failures[0]
        assert failure.kind in ("bad-model", "disagreement")
        assert failure.shrunk_clauses <= failure.original_clauses
        assert os.path.exists(failure.cnf_path)
        assert os.path.exists(failure.meta_path)
        meta = json.load(open(failure.meta_path))
        assert meta["kind"] == failure.kind
        assert meta["seed"] == failure.seed
        # The reproducer replays: the shrunk formula still trips the
        # same engines.
        from repro.cnf.dimacs import load_dimacs
        shrunk = load_dimacs(failure.cnf_path)
        assert differential_failure(
            shrunk, [BuggyEngine(), DPLLEngine()]) is not None

    def test_progress_callback_fires(self):
        ticks = []
        run_fuzz(iterations=6, seed=1, shrink=False,
                 on_progress=lambda i, rep: ticks.append(i))
        assert ticks and ticks[-1] == 6

    def test_portfolio_rounds_counted(self):
        report = run_fuzz(iterations=4, seed=2, portfolio_every=2)
        assert report.portfolio_rounds == 2
        assert report.ok, report.failures
