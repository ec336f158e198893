"""Tests for repro.verify: streaming DRUP proofs, the independent
checker, certificates, and the certified application paths."""

import os

import pytest

from repro.circuits.generators import binary_counter, shift_register
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import pigeonhole, random_ksat_at_ratio
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.result import Status
from repro.verify import (
    Certificate,
    CheckOutcome,
    FileProofSink,
    MemoryProofSink,
    certified_solve,
    check_proof_file,
    check_proof_lines,
    check_proof_steps,
    check_unsat_proof,
    solve_with_proof_stream,
)


class TestCheckerIndependence:
    def test_checker_never_imports_the_solver_stack(self):
        """The trusted base is the checker alone: a checker built on
        the solver's BCP would faithfully reproduce the solver's bugs
        and certify nothing."""
        import ast
        import inspect

        import repro.verify.checker as checker

        tree = ast.parse(inspect.getsource(checker))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        for module in imported:
            assert not module.startswith("repro"), \
                f"checker imports {module}"


class TestProofStreaming:
    def test_unsat_proof_checks_valid_in_memory(self):
        formula = pigeonhole(4)
        result, sink = solve_with_proof_stream(formula)
        assert result.status is Status.UNSATISFIABLE
        assert sink.concluded
        outcome = check_proof_steps(formula, sink.events)
        assert outcome.valid, outcome.error
        assert outcome.concluded

    def test_unsat_proof_checks_valid_on_disk(self, tmp_path):
        formula = pigeonhole(4)
        path = str(tmp_path / "php4.drup")
        result, sink = solve_with_proof_stream(formula,
                                               proof_path=path)
        assert result.status is Status.UNSATISFIABLE
        assert sink.bytes_written == os.path.getsize(path)
        outcome = check_proof_file(formula, path)
        assert outcome.valid, outcome.error
        assert outcome.adds == sink.adds + 1   # + concluding 0 line

    def test_memory_sink_lines_round_trip(self):
        """The rendered file body and the in-memory events are the
        same proof to the checker."""
        formula = pigeonhole(4)
        result, sink = solve_with_proof_stream(formula)
        assert result.status is Status.UNSATISFIABLE
        by_events = check_proof_steps(formula, sink.events)
        by_lines = check_proof_lines(formula,
                                     sink.lines().splitlines())
        assert by_events.valid and by_lines.valid
        assert by_events.adds == by_lines.adds
        assert by_events.deletes == by_lines.deletes

    def test_sat_run_emits_no_conclusion(self):
        formula = random_ksat_at_ratio(20, 3.5, 3, seed=0)
        result, sink = solve_with_proof_stream(formula)
        assert result.status is Status.SATISFIABLE
        assert not sink.concluded
        # The partial derivation is still all-RUP.
        outcome = check_proof_steps(formula, sink.events,
                                    require_empty=False)
        assert outcome.valid, outcome.error

    def test_proof_file_survives_only_a_concluded_run(self, tmp_path):
        sat, unsat = str(tmp_path / "sat.drup"), str(tmp_path / "u.drup")
        result, sink = solve_with_proof_stream(
            random_ksat_at_ratio(60, 4.0, 3, seed=7), proof_path=sat)
        assert result.status is Status.SATISFIABLE
        assert sink.closed and sink.adds > 0
        assert not os.path.exists(sat)
        result, _ = solve_with_proof_stream(pigeonhole(4),
                                            proof_path=unsat)
        assert result.status is Status.UNSATISFIABLE
        assert os.path.exists(unsat)

    def test_unsat_under_assumptions_leaves_the_proof_open(self):
        """A refutation under assumptions refutes only them: the sink
        stays unconcluded.  The next solve without assumptions proves
        the formula UNSAT and concludes the sink exactly once."""
        formula = pigeonhole(4)
        solver = CDCLSolver(formula)
        sink = solver.proof = MemoryProofSink()
        assert solver.solve([1]).status is Status.UNSATISFIABLE
        assert not sink.concluded
        assert ("a", ()) not in sink.events
        partial = check_proof_steps(formula, sink.events,
                                    require_empty=False)
        assert partial.valid and not partial.concluded, partial.error
        for _ in range(2):
            assert solver.solve().status is Status.UNSATISFIABLE
            assert sink.concluded
            assert sink.events.count(("a", ())) == 1
        outcome = check_proof_steps(formula, sink.events)
        assert outcome.valid, outcome.error
        assert outcome.concluded

    def test_proof_valid_across_gc_compactions(self):
        """Deletion lines keep the proof checkable across arena GC:
        the checker's database mirrors the solver's, shrinking in
        step.  At least two compactions must actually happen."""
        formula = pigeonhole(5)
        solver = CDCLSolver(formula, deletion="size",
                            deletion_bound=3, deletion_interval=20)
        sink = solver.proof = MemoryProofSink()
        result = solver.solve()
        assert result.status is Status.UNSATISFIABLE
        assert result.stats.gc_runs >= 2, \
            "instance no longer exercises the compacting GC"
        assert sink.deletes > 0, "GC emitted no deletion lines"
        outcome = check_proof_steps(formula, sink.events)
        assert outcome.valid, outcome.error
        assert outcome.deletes == sink.deletes


class TestCheckerRejections:
    @pytest.fixture()
    def php4_proof(self, tmp_path):
        formula = pigeonhole(4)
        path = str(tmp_path / "php4.drup")
        result, _ = solve_with_proof_stream(formula, proof_path=path)
        assert result.status is Status.UNSATISFIABLE
        return formula, path

    def test_corrupted_add_line_pinpointed(self, php4_proof):
        formula, path = php4_proof
        lines = open(path).read().splitlines()
        # Replace the first add with a clause the database cannot
        # derive (a fresh positive unit over a brand-new variable).
        lines[0] = "999 0"
        outcome = check_proof_lines(formula, lines)
        assert not outcome.valid
        assert outcome.line == 1
        assert outcome.error.startswith("line 1:")
        assert "not a RUP consequence" in outcome.error

    def test_truncated_proof_pinpointed(self, php4_proof):
        formula, path = php4_proof
        lines = open(path).read().splitlines()[:-1]   # drop final "0"
        # Drop the trailing derived units too so the database does
        # not already propagate to conflict.
        while lines and len(lines[-1].split()) <= 2:
            lines.pop()
        outcome = check_proof_lines(formula, lines)
        assert not outcome.valid
        assert outcome.line == len(lines)
        assert "without the empty clause" in outcome.error

    def test_malformed_literal_pinpointed(self, php4_proof):
        formula, path = php4_proof
        lines = open(path).read().splitlines()
        lines[2] = "1 bogus 0"
        outcome = check_proof_lines(formula, lines)
        assert not outcome.valid
        assert outcome.line == 3
        assert "malformed literal 'bogus'" in outcome.error

    def test_missing_terminator_pinpointed(self, php4_proof):
        formula, path = php4_proof
        lines = open(path).read().splitlines()
        lines[1] = lines[1].rsplit(" ", 1)[0]         # strip the 0
        outcome = check_proof_lines(formula, lines)
        assert not outcome.valid
        assert outcome.line == 2
        assert "missing terminating 0" in outcome.error

    def test_deleting_unknown_clause_rejected(self):
        formula = CNFFormula(num_vars=2, clauses=[[1, 2]])
        outcome = check_proof_lines(formula, ["d 1 -2 0"])
        assert not outcome.valid
        assert outcome.line == 1
        assert "not in the database" in outcome.error

    def test_missing_file_is_invalid_not_raised(self):
        formula = CNFFormula(num_vars=1, clauses=[[1]])
        outcome = check_proof_file(formula, "/nonexistent/p.drup")
        assert not outcome.valid
        assert "unreadable proof file" in outcome.error


class TestIncrementalStream:
    """Input and target steps: the stream of one persistent solver."""

    @staticmethod
    def queried_solver():
        """A persistent solver, clauses added in two batches with a
        refuted and a satisfiable query after each; returns the app's
        formula, the stream and the targets the app expects."""
        formula = CNFFormula()
        solver = CDCLSolver()
        solver.proof = MemoryProofSink()
        expected = []
        batches = [[[1, 2], [-1, 3], [-2, 3]], [[-3, 4], [-4, -1, 5]]]
        queries = [[-3], [1], [-4, 1], [-5, 1]]
        for batch, pair in zip(batches, (queries[:2], queries[2:])):
            for clause in batch:
                formula.add_clause(clause)
                solver.add_clause(clause)
            for assumptions in pair:
                result = solver.solve(assumptions=assumptions)
                if result.is_unsat:
                    expected.append(tuple(-lit for lit in assumptions))
        return formula, solver.proof, expected

    def test_solver_stream_checks_and_reports_its_targets(self):
        formula, sink, expected = self.queried_solver()
        assert expected == [(3,), (4, -1), (5, -1)]
        assert sink.inputs == 5 and sink.targets == 3
        assert not sink.concluded
        outcome = check_proof_steps(formula, sink.events,
                                    require_empty=False, preloaded=0)
        assert outcome.valid, outcome.error
        assert outcome.inputs == 5
        assert outcome.targets == expected

    def test_file_text_checks_like_the_events(self):
        formula, sink, expected = self.queried_solver()
        text = sink.lines().splitlines()
        assert text[0] == "i 1 2 0"
        assert "u 3 0" in text
        outcome = check_proof_lines(formula, text, require_empty=False,
                                    preloaded=0)
        assert outcome.valid, outcome.error
        assert outcome.targets == expected

    def test_input_differing_from_the_formula_is_refused(self):
        formula = CNFFormula(clauses=[[1, 2], [-1]])
        events = [("i", (1, 2)), ("i", (-1, 2))]
        outcome = check_proof_steps(formula, events,
                                    require_empty=False, preloaded=0)
        assert not outcome.valid
        assert outcome.line == 2
        assert "not the formula's next clause" in outcome.error

    def test_input_past_the_formula_is_refused(self):
        # A one-shot check preloads every clause: no input is left.
        formula = CNFFormula(clauses=[[1, 2]])
        outcome = check_proof_steps(formula, [("i", (1, 2))],
                                    require_empty=False)
        assert not outcome.valid
        assert "not the formula's next clause" in outcome.error

    def test_target_needing_a_later_input_is_refused(self):
        # (1) is RUP once both inputs are in, but the second arrives
        # after the target.
        formula = CNFFormula(clauses=[[1, 2], [1, -2]])
        events = [("i", (1, 2)), ("u", (1,)), ("i", (1, -2))]
        outcome = check_proof_steps(formula, events,
                                    require_empty=False, preloaded=0)
        assert not outcome.valid
        assert outcome.line == 2
        assert "target is not a RUP consequence" in outcome.error
        assert outcome.targets == []
        # In the right order the same target passes.
        events = [("i", (1, 2)), ("i", (1, -2)), ("u", (1,))]
        outcome = check_proof_steps(formula, events,
                                    require_empty=False, preloaded=0)
        assert outcome.valid and outcome.targets == [(1,)]

    def test_target_does_not_enter_the_database(self):
        # The target (1 2) is RUP; the lemma (1) would be RUP only
        # with the target in the database.
        clauses = [(1, 2, 3), (1, 2, -3), (-2, 4), (-2, -4)]
        events = [("i", clause) for clause in clauses]
        events += [("u", (1, 2)), ("a", (1,))]
        outcome = check_proof_steps(CNFFormula(clauses=clauses), events,
                                    require_empty=False, preloaded=0)
        assert not outcome.valid
        assert outcome.line == 6
        assert outcome.targets == [(1, 2)]

    def test_preloaded_prefix_needs_no_input_steps(self):
        formula = CNFFormula(clauses=[[1, 2], [-1, 2], [-2]])
        events = [("u", (2,)), ("i", (-2,)), ("a", ())]
        outcome = check_proof_steps(formula, events, preloaded=2)
        assert outcome.valid and outcome.concluded
        assert outcome.targets == [(2,)]

    def test_file_sink_keeps_a_proof_of_a_target(self, tmp_path):
        kept, dropped = str(tmp_path / "kept"), str(tmp_path / "gone")
        for path, refuted in ((kept, True), (dropped, False)):
            solver = CDCLSolver()
            solver.proof = FileProofSink(path)
            a = solver.new_var()
            solver.add_clause([a])
            result = solver.solve(assumptions=[-a if refuted else a])
            solver.proof.close()
            assert result.is_unsat is refuted
        with open(kept) as handle:
            assert handle.read() == "i 1 0\nu 1 0\n"
        assert not os.path.exists(dropped)


class _NaiveRup:
    """Reference forward-DRUP database for the differential tests.

    Deliberately the slowest obviously-correct design: no watches, no
    literal encoding, no trail -- every propagation re-sweeps every
    live clause until nothing changes.  It shares no code with
    :mod:`repro.verify.checker` and states the semantics the checker
    must reproduce: deletions match by literal set, root assignments
    persist once derived (deleting a clause never retracts them), and
    a root conflict makes every later lemma acceptable.
    """

    def __init__(self, formula):
        self.clauses = []           # live clauses as literal sets
        self.root = {}              # var -> bool, only ever grows
        self.conflict = False
        for clause in formula:
            self.add(clause)

    def _fixpoint(self, assignment):
        """Unit-propagate *assignment* in place; True on conflict."""
        changed = True
        while changed:
            changed = False
            for clause in self.clauses:
                open_lits = []
                for lit in clause:
                    value = assignment.get(abs(lit))
                    if value is None:
                        open_lits.append(lit)
                    elif value == (lit > 0):
                        break
                else:
                    if not open_lits:
                        return True
                    if len(open_lits) == 1:
                        unit = open_lits[0]
                        assignment[abs(unit)] = unit > 0
                        changed = True
        return False

    def add(self, lits):
        self.clauses.append(set(lits))
        if not self.conflict:
            self.conflict = self._fixpoint(self.root)

    def delete(self, lits):
        target = set(lits)
        for index, clause in enumerate(self.clauses):
            if clause == target:
                del self.clauses[index]
                return True
        return False

    def is_rup(self, lits):
        if self.conflict:
            return True
        assignment = dict(self.root)
        for lit in lits:
            value = assignment.get(abs(lit))
            if value is None:
                assignment[abs(lit)] = lit < 0
            elif value == (lit > 0):
                return True
        return self._fixpoint(assignment)


def _oracle_check(formula, events, require_empty=True):
    database = _NaiveRup(formula)
    outcome = CheckOutcome(valid=False)
    line = 0
    for line, (kind, lits) in enumerate(events, start=1):
        if kind == "d":
            if not database.delete(lits):
                outcome.error = (f"line {line}: deletion of a clause "
                                 f"not in the database")
                outcome.line = line
                return outcome
            outcome.deletes += 1
        else:
            if not database.is_rup(lits):
                outcome.error = (f"line {line}: clause is not a RUP "
                                 f"consequence of the database")
                outcome.line = line
                return outcome
            database.add(lits)
            outcome.adds += 1
            outcome.concluded = not lits
        outcome.steps_checked += 1
        if outcome.concluded:
            break
    if require_empty and not outcome.concluded:
        outcome.error = (f"line {line}: proof ends without the empty "
                         f"clause (truncated?)")
        outcome.line = line
        return outcome
    outcome.valid = True
    return outcome


def _verdict(outcome):
    """Every CheckOutcome field except the implementation-specific
    work counter (propagation order decides where a conflict is
    found)."""
    return (outcome.valid, outcome.concluded, outcome.steps_checked,
            outcome.adds, outcome.deletes, outcome.line, outcome.error)


def _mutants(formula, events, rng):
    """One corrupted copy of *events* per corruption class."""
    adds = [i for i, (kind, lits) in enumerate(events)
            if kind == "a" and lits]
    pick = rng.choice(adds)
    lits = list(events[pick][1])
    out = {}

    if len(lits) > 1:
        dropped = list(events)
        dropped[pick] = ("a", tuple(lits[:-1]))
        out["drop-literal"] = dropped

    flipped = list(events)
    flipped[pick] = ("a", tuple([-lits[0]] + lits[1:]))
    out["flip-sign"] = flipped

    def random_clause(size):
        chosen = rng.sample(range(1, formula.num_vars + 1), size)
        return tuple(v if rng.random() < 0.5 else -v for v in chosen)

    at = rng.randrange(len(events))
    out["splice-non-rup"] = (events[:at] + [("a", random_clause(2))]
                             + events[at:])
    out["delete-absent"] = (events[:at] + [("d", random_clause(3))]
                            + events[at:])
    # Removing an *original* clause early: later lemmas must stop
    # relying on it (deleted clauses no longer propagate).
    original = tuple(rng.choice(list(formula)))
    out["delete-original"] = [("d", original)] + list(events)

    cut = rng.randrange(len(events))
    out["truncated"] = events[:cut]

    # A weakening of a RUP lemma by a fresh variable is still RUP (and
    # forces the checker to grow mid-proof); a fresh bare unit is not.
    fresh = formula.num_vars + rng.randint(1, 5)
    out["above-num-vars"] = (events[:pick]
                             + [("a", tuple(lits) + (fresh,))]
                             + events[pick:])
    out["above-num-vars-unit"] = (events[:pick] + [("a", (-fresh,))]
                                  + events[pick:])
    return out


class TestDifferentialChecker:
    """The tight-loop checker against :class:`_NaiveRup` on genuine
    proofs (keep and size-bounded deletion) and every corruption
    class."""

    CASES = [("rk", seed, mode) for seed in range(6)
             for mode in ("keep", "size")] + \
            [("php", 4, "keep"), ("php", 4, "size")]

    @staticmethod
    def _proof(family, seed, mode):
        formula = (random_ksat_at_ratio(40, 5.0, 3, seed=seed)
                   if family == "rk" else pigeonhole(seed))
        options = ({} if mode == "keep" else
                   dict(deletion="size", deletion_bound=3,
                        deletion_interval=10))
        _, sink = solve_with_proof_stream(formula, **options)
        return formula, list(sink.events)

    @pytest.mark.parametrize("family,seed,mode", CASES)
    def test_matches_naive_oracle(self, family, seed, mode):
        import random

        formula, events = self._proof(family, seed, mode)
        rng = random.Random(seed * 7 + (mode == "size"))
        inputs = {"genuine": events, **_mutants(formula, events, rng)}
        rejected = 0
        for name, proof in inputs.items():
            got = check_proof_steps(formula, proof)
            want = _oracle_check(formula, proof)
            assert _verdict(got) == _verdict(want), name
            rejected += not want.valid
            if name == "genuine" and mode == "size" and family == "php":
                assert want.deletes > 0, "no deletion lines exercised"
        assert rejected >= 3

    def test_partial_proofs_match_without_conclusion(self):
        formula = random_ksat_at_ratio(40, 3.5, 3, seed=1)
        _, sink = solve_with_proof_stream(formula, deletion="size",
                                          deletion_bound=3,
                                          deletion_interval=10)
        got = check_proof_steps(formula, sink.events, require_empty=False)
        want = _oracle_check(formula, sink.events, require_empty=False)
        assert _verdict(got) == _verdict(want)
        assert got.valid and not got.concluded

    def test_root_units_survive_grow(self):
        """Units derived at root before a lemma over a new variable
        widens the tables must still be assigned afterwards."""
        formula = CNFFormula(num_vars=2, clauses=[[1], [-1, 2]])
        # (9 v 2) is RUP only because 2 is still true at root, and the
        # check runs after the tables grew to cover variable 9.
        events = [("a", (9, 2)), ("a", (-2,))]
        outcome = check_proof_steps(formula, events)
        assert _verdict(outcome) == _verdict(
            _oracle_check(formula, events))
        assert outcome.line == 2 and outcome.adds == 1

        from repro.verify.checker import _Propagation
        engine = _Propagation(2)
        engine.add_clause([1])
        engine.add_clause([-1, 2])
        engine.grow(40)
        assert engine.rup_check([2]) and engine.rup_check([1])
        assert not engine.rup_check([40, -2])

    def test_rup_database_admissions_match_oracle(self):
        import random

        from repro.verify.checker import RupDatabase

        rng = random.Random(5)
        formula = random_ksat_at_ratio(40, 5.0, 3, seed=2)
        _, sink = solve_with_proof_stream(formula)
        candidates = []
        for kind, lits in sink.events:
            if kind != "a" or not lits:
                continue
            candidates.append(lits)
            if rng.random() < 0.4:       # junk the gate must refuse
                candidates.append(tuple(
                    v if rng.random() < 0.5 else -v for v in
                    rng.sample(range(1, formula.num_vars + 1), 2)))
        database = RupDatabase(formula)
        oracle = _NaiveRup(formula)
        decisions = []
        for lits in candidates:
            admitted = database.admit(lits)
            expected = oracle.is_rup(lits)
            if expected:
                oracle.add(lits)
            assert admitted == expected, lits
            decisions.append(admitted)
        assert True in decisions and False in decisions


class TestCheckerWork:
    def test_propagations_counted_per_check(self):
        formula = pigeonhole(4)
        _, sink = solve_with_proof_stream(formula)
        outcome = check_proof_steps(formula, sink.events)
        # Every lemma asserts at least one negated literal.
        assert outcome.propagations >= outcome.adds - 1 > 0

    def test_no_checks_no_propagations(self):
        formula = CNFFormula(num_vars=1, clauses=[[1], [-1]])
        outcome = check_proof_steps(formula, [("a", ())])
        assert outcome.valid and outcome.propagations == 0

    def test_certificate_event_and_profile_carry_work(self, tmp_path):
        from repro.obs import ListSink, Tracer, build_report, render_report

        sink = ListSink()
        result = certified_solve(pigeonhole(4),
                                 proof_path=str(tmp_path / "p.drup"),
                                 tracer=Tracer(sink))
        cert = result.certificate
        assert cert.valid and cert.propagations > 0
        (event,) = [e for e in sink.events
                    if e["name"] == "verify.check"]
        assert event["attrs"]["propagations"] == cert.propagations
        report = build_report(sink.events, [])
        assert report["certification"]["propagations"] == \
            cert.propagations
        text = render_report(report)
        assert f"checker work: {cert.propagations:,} propagations" in text
        assert "steps/s" in text and "propagations/s" in text


class _TamperingSink(FileProofSink):
    """Drops every third add step: the proof file looks plausible but
    has holes the checker must catch."""

    def add(self, literals):
        if self.adds % 3 == 2:
            self.adds += 1              # count it, never emit it
            return
        super().add(literals)


class TestCertifiedSolve:
    def test_unsat_carries_valid_proof_certificate(self, tmp_path):
        path = str(tmp_path / "php4.drup")
        result = certified_solve(pigeonhole(4), proof_path=path)
        assert result.status is Status.UNSATISFIABLE
        cert = result.certificate
        assert cert.kind == "proof" and cert.valid
        assert cert.proof_path == path and os.path.exists(path)
        assert cert.steps > 0 and cert.bytes_written > 0

    def test_ephemeral_proof_cleaned_up(self):
        result = certified_solve(pigeonhole(4))
        cert = result.certificate
        assert cert.valid and cert.proof_path is None

    def test_sat_model_audited(self):
        formula = random_ksat_at_ratio(20, 3.5, 3, seed=0)
        result = certified_solve(formula)
        assert result.status is Status.SATISFIABLE
        cert = result.certificate
        assert cert.kind == "model" and cert.valid

    def test_unknown_gets_reasoned_none_certificate(self):
        result = certified_solve(pigeonhole(6), max_conflicts=5)
        assert result.status is Status.UNKNOWN
        assert result.certificate.kind == "none"
        assert "budget" in result.certificate.reason

    def test_learning_disabled_is_refused(self):
        with pytest.raises(ValueError, match="clause learning"):
            certified_solve(pigeonhole(4), learning=False)

    def test_invalid_proof_demotes_to_unknown(self, tmp_path):
        """A tampered stream must never surface as UNSAT: the answer
        is demoted and the diagnostic kept."""
        path = str(tmp_path / "bad.drup")
        result = certified_solve(pigeonhole(4), proof_path=path,
                                 sink_factory=_TamperingSink)
        assert result.status is Status.UNKNOWN
        cert = result.certificate
        assert cert.kind == "proof" and cert.valid is False
        assert cert.reason.startswith("line ")
        assert os.path.exists(path)     # kept for post-mortem

    def test_check_emits_trace_event(self, tmp_path):
        from repro.obs import ListSink, Tracer, validate_event

        sink = ListSink()
        tracer = Tracer(sink)
        path = str(tmp_path / "php4.drup")
        result = certified_solve(pigeonhole(4), proof_path=path,
                                 tracer=tracer)
        assert result.status is Status.UNSATISFIABLE
        checks = [e for e in sink.events
                  if e["kind"] == "event"
                  and e["name"] == "verify.check"]
        assert len(checks) == 1
        event = checks[0]
        assert validate_event(event) == []
        assert event["attrs"]["valid"] == 1
        assert event["attrs"]["steps"] > 0
        assert event["attrs"]["bytes"] == os.path.getsize(path)

    def test_check_unsat_proof_standalone(self, tmp_path):
        formula = pigeonhole(4)
        path = str(tmp_path / "php4.drup")
        solve_with_proof_stream(formula, proof_path=path)
        cert = check_unsat_proof(formula, path)
        assert isinstance(cert, Certificate)
        assert cert.valid and "proof verified" in cert.summary()


class TestCertifiedApplications:
    def test_atpg_redundant_fault_certified(self, tmp_path):
        from repro.apps.atpg import TestOutcome, solve_fault
        from repro.circuits.faults import StuckAtFault
        from repro.circuits.library import redundant_or_chain

        result = solve_fault(redundant_or_chain(),
                             StuckAtFault("ab", False),
                             certify=True, proof_dir=str(tmp_path))
        assert result.outcome is TestOutcome.REDUNDANT
        cert = result.certificate
        assert cert.valid
        assert os.path.exists(str(tmp_path / "atpg-ab-sa0.drup"))

    def test_atpg_detected_fault_model_audited(self):
        from repro.apps.atpg import TestOutcome, solve_fault
        from repro.circuits.faults import StuckAtFault
        from repro.circuits.library import c17

        result = solve_fault(c17(), StuckAtFault("G10", False),
                             certify=True)
        assert result.outcome is TestOutcome.DETECTED
        assert result.certificate.kind == "model"
        assert result.certificate.valid

    def test_atpg_circuit_method_cannot_certify(self):
        from repro.apps.atpg import solve_fault
        from repro.circuits.faults import StuckAtFault
        from repro.circuits.library import c17

        with pytest.raises(ValueError, match="structural"):
            solve_fault(c17(), StuckAtFault("G10", False),
                        method="circuit", certify=True)

    def test_cec_equivalence_certified(self, tmp_path):
        from repro.apps.equivalence import check_equivalence
        from repro.circuits.generators import (
            carry_select_adder,
            ripple_carry_adder,
        )

        report = check_equivalence(ripple_carry_adder(4),
                                   carry_select_adder(4),
                                   certify=True,
                                   proof_dir=str(tmp_path))
        assert report.equivalent is True
        assert report.certificate.valid
        assert report.certificate.proof_path.endswith(".drup")
        assert os.path.exists(report.certificate.proof_path)

    def test_cec_preprocessing_cannot_certify(self):
        from repro.apps.equivalence import check_equivalence
        from repro.circuits.generators import ripple_carry_adder

        with pytest.raises(ValueError, match="preprocess"):
            check_equivalence(ripple_carry_adder(4),
                              ripple_carry_adder(4),
                              use_preprocessing=True, certify=True)

    @pytest.fixture
    def temp_root(self, tmp_path, monkeypatch):
        """An empty directory standing in for the system temp root."""
        import tempfile
        root = tmp_path / "temp-root"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        return root

    def test_atpg_race_without_proof_dir(self, temp_root):
        from repro.apps.atpg import TestOutcome, solve_fault
        from repro.circuits.faults import StuckAtFault
        from repro.circuits.library import redundant_or_chain

        result = solve_fault(redundant_or_chain(),
                             StuckAtFault("ab", False),
                             method="portfolio", certify=True)
        assert result.outcome is TestOutcome.REDUNDANT
        cert = result.certificate
        assert cert.kind == "proof" and cert.valid
        assert cert.proof_path is None
        assert list(temp_root.iterdir()) == []

    def test_cec_race_without_proof_dir(self, temp_root):
        from repro.apps.equivalence import check_equivalence
        from repro.circuits.generators import (
            carry_select_adder,
            ripple_carry_adder,
        )

        report = check_equivalence(ripple_carry_adder(4),
                                   carry_select_adder(4),
                                   backend="portfolio", certify=True)
        assert report.equivalent is True
        cert = report.certificate
        assert cert.kind == "proof" and cert.valid
        assert cert.proof_path is None
        assert list(temp_root.iterdir()) == []

    def test_bmc_per_depth_proofs(self, tmp_path):
        from repro.apps.bmc import BoundedModelChecker

        checker = BoundedModelChecker(binary_counter(3), certify=True,
                                      proof_dir=str(tmp_path))
        result = checker.check_output("rollover", True, max_depth=4)
        # 2^3 counter: rollover unreachable within 4 steps.
        assert result.property_holds
        assert result.depths_proved == 5
        assert not result.discrepant
        assert len(result.certificates) == 5
        path = str(tmp_path / "bmc.drup")
        # One file for the sweep, holding every depth's target.
        assert os.listdir(str(tmp_path)) == ["bmc.drup"]
        for depth, cert in enumerate(result.certificates):
            assert cert.valid, f"depth {depth}: {cert.reason}"
            assert cert.proof_path == path
        outcome = check_proof_file(checker.formula, path,
                                   require_empty=False, preloaded=0)
        assert outcome.valid, outcome.error
        assert outcome.inputs == checker.formula.num_clauses
        assert outcome.targets == [(-frame["rollover"],)
                                   for frame in checker.frames]

    def test_bmc_counterexample_model_audited(self, temp_root):
        from repro.apps.bmc import check_safety

        result = check_safety(binary_counter(2), "rollover", True,
                              max_depth=5, certify=True)
        assert result.failure_depth == 3
        assert result.certificates[-1].kind == "model"
        assert result.certificates[-1].valid
        assert [c.kind for c in result.certificates] == \
            ["proof"] * 3 + ["model"]
        # Without a proof_dir the sweep's proof is a removed temporary.
        assert all(c.valid and c.proof_path is None
                   for c in result.certificates)
        assert list(temp_root.iterdir()) == []


class _PlantingSink(FileProofSink):
    """Corrupts one step of a certified sweep's stream, just before
    target number *at* is written (or, for ``"input"``, rewrites input
    number *at*)."""

    def __init__(self, path, at, corruption):
        super().__init__(path)
        self.at = at
        self.corruption = corruption

    def input(self, literals):
        if self.corruption == "input" and self.inputs == self.at:
            literals = literals[1:]     # drop a literal
        super().input(literals)

    def target(self, literals):
        if self.targets == self.at:
            if self.corruption == "lemma":
                self.add([9999])        # a fresh unit: never RUP
            elif self.corruption == "target":
                literals = list(literals) + [9999]   # RUP, but weaker
        super().target(literals)


class TestCertifiedSweep:
    """Certified BMC is the plain sweep with a proof sink attached."""

    @pytest.mark.parametrize("make, width, output, bound", [
        (binary_counter, 2, "rollover", 4),
        (binary_counter, 3, "rollover", 8),
        (binary_counter, 4, "rollover", 16),
        (binary_counter, 5, "rollover", 32),
        (binary_counter, 4, "rollover", 8),
        (shift_register, 3, "sout", 5),
        (shift_register, 5, "sout", 7),
    ])
    def test_one_search(self, make, width, output, bound):
        from repro.apps.bmc import check_safety

        plain = check_safety(make(width), output, max_depth=bound)
        certified = check_safety(make(width), output, max_depth=bound,
                                 certify=True)
        assert certified.failure_depth == plain.failure_depth
        assert certified.depths_proved == plain.depths_proved
        assert not certified.discrepant
        for counter in ("conflicts", "decisions", "propagations"):
            assert getattr(certified.stats, counter) == \
                getattr(plain.stats, counter), counter
        assert [c.valid for c in certified.certificates] == \
            [True] * len(certified.certificates)

    def test_one_solver(self, monkeypatch):
        import repro.apps.bmc as bmc

        built = []

        class Counted(bmc.CDCLSolver):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(bmc, "CDCLSolver", Counted)
        result = bmc.check_safety(binary_counter(3), "rollover",
                                  max_depth=8, certify=True)
        assert result.failure_depth == 7
        assert len(built) == 1

    def test_second_certified_sweep_is_refused(self):
        from repro.apps.bmc import BoundedModelChecker

        checker = BoundedModelChecker(binary_counter(2), certify=True)
        checker.check_output("rollover", max_depth=1)
        with pytest.raises(RuntimeError, match="one sweep"):
            checker.check_output("rollover", max_depth=1)

    @pytest.mark.parametrize("corruption", ["lemma", "target"])
    @pytest.mark.parametrize("depth", [0, 2, 5])
    def test_corrupted_target_stops_the_proof_at_its_depth(
            self, tmp_path, monkeypatch, corruption, depth):
        import repro.apps.bmc as bmc

        monkeypatch.setattr(
            bmc, "FileProofSink",
            lambda path: _PlantingSink(path, depth, corruption))
        result = bmc.check_safety(binary_counter(3), "rollover",
                                  max_depth=8, certify=True,
                                  proof_dir=str(tmp_path))
        assert result.discrepant
        assert result.depths_proved == depth
        # No counterexample survives a broken proof below it.
        assert result.failure_depth is None and result.trace == []
        certificates = result.certificates
        assert len(certificates) == depth + 1
        assert all(c.valid for c in certificates[:-1])
        last = certificates[-1]
        assert last.kind == "proof" and last.valid is False
        if corruption == "lemma":
            assert "not a RUP consequence" in last.reason
        else:
            assert f"depth {depth}'s target" in last.reason

    def test_corrupted_input_proves_nothing(self, monkeypatch):
        import repro.apps.bmc as bmc

        monkeypatch.setattr(bmc, "FileProofSink",
                            lambda path: _PlantingSink(path, 4, "input"))
        result = bmc.check_safety(binary_counter(3), "rollover",
                                  max_depth=3, certify=True)
        assert result.discrepant and result.depths_proved == 0
        assert "not the formula's next clause" in \
            result.certificates[-1].reason

    def test_budget_cut_keeps_the_checked_depths(self):
        from repro.apps.bmc import check_safety
        from repro.runtime.budget import Budget

        plain = check_safety(binary_counter(4), "rollover",
                             max_depth=14,
                             budget=Budget(max_conflicts=3))
        certified = check_safety(binary_counter(4), "rollover",
                                 max_depth=14, certify=True,
                                 budget=Budget(max_conflicts=3))
        assert certified.budget_exhausted and plain.budget_exhausted
        assert certified.depths_proved == plain.depths_proved > 0
        assert len(certified.certificates) == certified.depths_proved
        assert not certified.discrepant


class TestCertifiedPortfolio:
    def test_race_unsat_carries_checked_certificate(self, tmp_path):
        from repro.solvers.portfolio import solve_portfolio

        outcome = solve_portfolio(pigeonhole(5), processes=2,
                                  timeout=30.0,
                                  progress_interval=None,
                                  proof_dir=str(tmp_path))
        result = outcome.result
        assert result.status is Status.UNSATISFIABLE
        assert result.certificate is not None
        assert result.certificate.valid

    def test_false_unsat_lie_degrades_to_discrepant(self, tmp_path):
        """A worker lying UNSAT without a checkable proof must not
        settle the race: it is marked DISCREPANT and the honest
        workers carry on."""
        from repro.runtime.faults import FaultPlan
        from repro.solvers.portfolio import solve_portfolio

        formula = random_ksat_at_ratio(20, 3.0, 3, seed=3)
        # The honest slot's first attempt crashes, so its verdict can
        # come no sooner than the death grace plus the respawn backoff,
        # long after the instant lie has been read and checked.
        plan = FaultPlan(false_unsat={0: 1}, crashes={1: 1})
        outcome = solve_portfolio(formula, processes=2,
                                  timeout=30.0, max_retries=1,
                                  fault_plan=plan,
                                  progress_interval=None,
                                  proof_dir=str(tmp_path))
        result = outcome.result
        assert result.status is Status.SATISFIABLE
        assert formula.is_satisfied_by(result.assignment)
        fates = [w.outcome.name for w in outcome.report.workers]
        assert "DISCREPANT" in fates
        liar = next(w for w in outcome.report.workers
                    if w.outcome.name == "DISCREPANT")
        assert liar.discrepancy


class TestCertifyResult:
    """The rules of the one certification function that the
    entry-point table below does not reach."""

    def test_model_that_fails_the_audit_is_demoted(self):
        from repro.cnf.assignment import Assignment
        from repro.solvers.result import SolverResult
        from repro.verify import certify_result

        formula = CNFFormula(num_vars=2, clauses=[[1, 2], [-1]])
        good = SolverResult(Status.SATISFIABLE,
                            Assignment({1: False, 2: True}))
        assert certify_result(formula, good, None) is good
        assert good.certificate.kind == "model" and good.certificate.valid
        bad = certify_result(formula, SolverResult(
            Status.SATISFIABLE, Assignment({1: True, 2: True})), None)
        assert bad.status is Status.UNKNOWN and bad.assignment is None
        assert bad.certificate.kind == "model"
        assert bad.certificate.valid is False

    def test_demotion_keeps_stats_and_is_idempotent(self, tmp_path):
        from repro.solvers.result import SolverResult, SolverStats
        from repro.verify import certify_result

        formula = pigeonhole(4)
        stats = SolverStats(conflicts=7)
        claim = SolverResult(Status.UNSATISFIABLE, None, stats)
        demoted = certify_result(formula, claim,
                                 str(tmp_path / "absent.drup"))
        assert claim.status is Status.UNSATISFIABLE      # never flipped
        assert demoted.status is Status.UNKNOWN
        assert demoted.stats is stats
        certificate = demoted.certificate
        assert certificate.kind == "proof" and certificate.valid is False
        assert certify_result(formula, demoted, None) is demoted
        assert demoted.certificate is certificate


# -- the contract table -------------------------------------------------
#
# Every certified entry point must return a certificate on every
# result, with the same verdict and evidence for the same outcome.

def _via_certified_solve(formula, max_conflicts, tmp_path):
    result = certified_solve(formula, max_conflicts=max_conflicts)
    cert = result.certificate
    return result.status.name, cert and cert.kind, cert and cert.valid


def _via_portfolio(processes):
    def run(formula, max_conflicts, tmp_path):
        from repro.solvers.portfolio import solve_portfolio

        result = solve_portfolio(formula, processes=processes,
                                 max_conflicts=max_conflicts,
                                 timeout=60.0, progress_interval=None,
                                 proof_dir=str(tmp_path)).result
        cert = result.certificate
        return result.status.name, cert and cert.kind, cert and cert.valid
    return run


def _via_service(formula, max_conflicts, tmp_path):
    from repro.service import InProcessClient, ServiceConfig

    config = ServiceConfig(max_workers=2, hang_timeout=5.0,
                           default_deadline=60.0, poll_interval=0.01,
                           progress_interval=0.0, grace_seconds=5.0)
    with InProcessClient(config) as client:
        body = client.submit("contract",
                             clauses=[list(c) for c in formula.clauses],
                             num_vars=formula.num_vars,
                             max_conflicts=max_conflicts,
                             certify=True, use_cache=False)["body"]
    cert = body["certificate"] or {}
    return body["status"], cert.get("kind"), cert.get("valid")


ENTRY_POINTS = {
    "certified_solve": _via_certified_solve,
    "scan": _via_portfolio(1),
    "race": _via_portfolio(2),
    "service": _via_service,
}

#: outcome -> (formula factory, conflict cap, forced check failure,
#: expected (status, certificate kind, certificate valid)).
OUTCOMES = {
    "sat": (lambda: random_ksat_at_ratio(40, 3.5, 3, seed=11), None,
            False, ("SATISFIABLE", "model", True)),
    "unsat": (lambda: pigeonhole(5), None, False,
              ("UNSATISFIABLE", "proof", True)),
    "unknown": (lambda: pigeonhole(7), 5, False,
                ("UNKNOWN", "none", None)),
    "failed-check": (lambda: pigeonhole(5), None, True,
                     ("UNKNOWN", "proof", False)),
}


class TestCertificationContract:
    @pytest.mark.parametrize("outcome", list(OUTCOMES))
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_contract(self, entry, outcome, tmp_path, monkeypatch):
        make, cap, fail_check, expected = OUTCOMES[outcome]
        if fail_check:
            monkeypatch.setattr(
                "repro.verify.certificate.check_proof_file",
                lambda formula, path: CheckOutcome(
                    valid=False, error="forced failure"))
        assert ENTRY_POINTS[entry](make(), cap, tmp_path) == expected
