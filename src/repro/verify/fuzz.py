"""Differential fuzzing + delta-debugging shrinker.

The certification stack (streamed proofs, independent checker, model
audits) tells us when an answer is wrong; the fuzzer's job is to go
*looking* for wrong answers before users do.  Each round draws a
random instance -- uniform k-SAT near and off the phase transition,
raw DIMACS text full of normal-form edge cases, or a Tseitin-encoded
random-circuit miter -- and cross-checks three
algorithm families the paper treats as interchangeable decision
procedures:

* **CDCL** under a randomized configuration (heuristic, restarts,
  deletion policy, minimization, phase saving, budget) with a
  streamed proof attached -- every UNSAT verdict is check-verified;
* the same configuration as **one persistent solver** (Section 6):
  the instance arrives in random clause batches with a random
  assumption query after each and a plain query last, every model is
  audited against the clauses added so far, and the one proof stream
  -- input, lemma and target steps -- is checked once;
* **DPLL** (chronological, no learning) -- an independent baseline;
* **recursive learning** as a preprocessor feeding a plain CDCL.

Any two decisive verdicts must agree; every SAT model must satisfy
the original formula; every CDCL UNSAT proof must check.  UNKNOWN
(budget exhausted) never counts against an engine.  Periodically a
round races a small *supervised portfolio* under a random
:class:`~repro.runtime.faults.FaultPlan` with proof certification on,
exercising the crash/garbage/false-UNSAT recovery paths against a
known verdict.

When a round fails, the instance is **shrunk**: greedy ddmin over
clauses (then a variable renumbering) while the failure predicate
still fires, and the minimal reproducer is written to disk as DIMACS
plus a JSON description of the disagreeing engines.  ``repro fuzz``
is the CLI entry; CI runs it as the fuzz-smoke job.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cnf.canonical import renumber
from repro.cnf.dimacs import parse_dimacs, save_dimacs
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_ksat
from repro.solvers.result import SolverResult, Status
from repro.verify.checker import check_proof_steps
from repro.verify.drat import MemoryProofSink


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------

class Engine:
    """One deterministic decision procedure under test.

    ``run(formula)`` returns a :class:`SolverResult`; for engines that
    can emit proofs, ``proof_events`` holds the streamed
    ``("a"|"d", lits)`` events of the *latest* run (None otherwise).
    Engines must be deterministic for a fixed construction: the
    shrinker re-runs them on candidate formulas and needs the failure
    to be a function of the formula alone.
    """

    name = "engine"
    proof_events: Optional[List[Tuple[str, Tuple[int, ...]]]] = None
    #: ``(kind, detail)`` when the latest run failed its own checks
    #: (the persistent solver's model audits and stream check).
    failure: Optional[Tuple[str, str]] = None
    #: Assumption queries the latest run asked.
    queries = 0

    def run(self, formula: CNFFormula) -> SolverResult:
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        return {"name": self.name}


class CDCLEngine(Engine):
    """Randomly-configured CDCL with a streamed (in-memory) proof."""

    def __init__(self, name: str, heuristic: str = "vsids",
                 seed: int = 0, random_freq: float = 0.0,
                 restart: str = "none", restart_interval: int = 100,
                 deletion: str = "keep", deletion_bound: int = 20,
                 deletion_interval: int = 1000,
                 minimize_learned: bool = False,
                 phase_saving: bool = False,
                 max_conflicts: Optional[int] = None):
        self.name = name
        self.params = dict(
            heuristic=heuristic, seed=seed, random_freq=random_freq,
            restart=restart, restart_interval=restart_interval,
            deletion=deletion, deletion_bound=deletion_bound,
            deletion_interval=deletion_interval,
            minimize_learned=minimize_learned,
            phase_saving=phase_saving, max_conflicts=max_conflicts)
        self.proof_events = None

    def solver(self, formula: Optional[CNFFormula] = None):
        """A :class:`CDCLSolver` in this configuration, with a memory
        proof sink."""
        from repro.solvers.cdcl import CDCLSolver
        from repro.solvers.heuristics import make_heuristic
        from repro.solvers.restarts import make_restart_policy

        p = self.params
        solver = CDCLSolver(
            formula,
            heuristic=make_heuristic(p["heuristic"], seed=p["seed"],
                                     random_freq=p["random_freq"]),
            restart_policy=make_restart_policy(p["restart"],
                                               p["restart_interval"]),
            deletion=p["deletion"], deletion_bound=p["deletion_bound"],
            deletion_interval=p["deletion_interval"],
            minimize_learned=p["minimize_learned"],
            phase_saving=p["phase_saving"],
            max_conflicts=p["max_conflicts"])
        solver.proof = MemoryProofSink()
        return solver

    def run(self, formula: CNFFormula) -> SolverResult:
        solver = self.solver(formula)
        result = solver.solve()
        self.proof_events = solver.proof.events
        return result

    def describe(self) -> Dict[str, object]:
        return {"name": self.name, "kind": "cdcl", **self.params}


class IncrementalEngine(Engine):
    """*cdcl*'s configuration as one persistent solver.

    The formula arrives in random clause batches (variables allocated
    up front, so a query may name one no clause mentions yet), each
    batch followed by a query under 1-3 random assumptions, and a last
    query without any gives the verdict.  Every model is audited
    against the clauses added so far and its query's assumptions; the
    whole proof stream is checked once, its input steps against those
    clauses and its targets against the refuted queries.  The batches
    and queries are drawn from *cdcl*'s seed.
    """

    def __init__(self, cdcl: CDCLEngine):
        self.name = f"{cdcl.name}-incremental"
        self.cdcl = cdcl
        self.proof_events = None

    def run(self, formula: CNFFormula) -> SolverResult:
        rng = random.Random(self.cdcl.params["seed"])
        solver = self.cdcl.solver()
        added = CNFFormula(num_vars=formula.num_vars)
        for _ in range(formula.num_vars):
            solver.new_var()
        clauses = formula.clauses
        expected: List[Tuple[int, ...]] = []
        self.failure = None
        self.queries = 0
        start = 0
        while start < len(clauses) and self.failure is None:
            end = start + rng.randint(1, max(1, len(clauses) // 3))
            for clause in clauses[start:end]:
                added.add_clause(clause)
                solver.add_clause(clause)
            start = end
            variables = rng.sample(range(1, formula.num_vars + 1),
                                   min(rng.randint(1, 3),
                                       formula.num_vars))
            self._ask(solver, added, [rng.choice((1, -1)) * var
                                      for var in variables], expected)
        if self.failure is not None:
            return SolverResult(Status.UNKNOWN)
        result = self._ask(solver, added, [], expected)
        if self.failure is not None:
            return result
        outcome = check_proof_steps(added, solver.proof.events,
                                    require_empty=False, preloaded=0)
        if not outcome.valid:
            detail = f"stream failed: {outcome.error}"
        elif outcome.targets != expected:
            detail = (f"targets {outcome.targets} differ from the "
                      f"refuted queries {expected}")
        elif result.is_unsat and not outcome.concluded:
            detail = "the last query's UNSAT left no empty clause"
        else:
            return result
        self.failure = ("bad-proof", f"{self.name}: {detail}")
        return result

    def _ask(self, solver, added: CNFFormula, assumptions: List[int],
             expected: List[Tuple[int, ...]]) -> SolverResult:
        """One query: a refuted one adds its target to *expected*, a
        model failing the audit sets ``failure``."""
        self.queries += 1
        result = solver.solve(assumptions=assumptions)
        if result.is_unsat and assumptions:
            expected.append(tuple(-lit for lit in assumptions))
        model = result.assignment
        if result.is_sat and not (
                model is not None and added.is_satisfied_by(model)
                and all(model.satisfies_literal(lit)
                        for lit in assumptions)):
            self.failure = ("bad-model",
                            f"{self.name}: query {self.queries} under "
                            f"{assumptions} answered SAT with a model "
                            f"that fails the clauses added so far or "
                            f"its assumptions")
        return result

    def describe(self) -> Dict[str, object]:
        return {**self.cdcl.describe(), "name": self.name,
                "kind": "cdcl-incremental"}


class DPLLEngine(Engine):
    """Plain DPLL -- no learning, chronological backtracking."""

    def __init__(self, max_decisions: Optional[int] = None):
        self.name = "dpll"
        self.max_decisions = max_decisions
        self.proof_events = None

    def run(self, formula: CNFFormula) -> SolverResult:
        from repro.solvers.dpll import solve_dpll
        return solve_dpll(formula, max_decisions=self.max_decisions)

    def describe(self) -> Dict[str, object]:
        return {"name": self.name, "kind": "dpll",
                "max_decisions": self.max_decisions}


class RecursiveLearningEngine(Engine):
    """Recursive-learning preprocessing feeding a default CDCL."""

    def __init__(self, depth: int = 1):
        self.name = f"rl{depth}+cdcl"
        self.depth = depth
        self.proof_events = None

    def run(self, formula: CNFFormula) -> SolverResult:
        from repro.solvers.cdcl import solve_cdcl
        from repro.solvers.recursive_learning import (
            preprocess_recursive_learning)

        strengthened, _forced = preprocess_recursive_learning(
            formula, depth=self.depth)
        if strengthened is None:
            return SolverResult(Status.UNSATISFIABLE)
        # The strengthened formula only adds *implied* units, so it is
        # equisatisfiable and its models satisfy the original.
        return solve_cdcl(strengthened)

    def describe(self) -> Dict[str, object]:
        return {"name": self.name, "kind": "recursive-learning",
                "depth": self.depth}


def default_engines(rng: random.Random) -> List[Engine]:
    """The per-round engine panel: one randomized CDCL, the same
    configuration as a persistent solver, one DPLL, one
    recursive-learning pipeline.  Budgets are randomized too -- a
    budget-limited engine answers UNKNOWN, which must never be treated
    as a disagreement."""
    heuristic = rng.choice(["vsids", "dlis", "jw"])
    restart = rng.choice(["none", "fixed", "geometric", "luby"])
    deletion = rng.choice(["keep", "size", "relevance"])
    max_conflicts = rng.choice([None, None, None, 150])
    cdcl = CDCLEngine(
        name=f"cdcl-{heuristic}-{restart}-{deletion}",
        heuristic=heuristic, seed=rng.randrange(1 << 30),
        random_freq=rng.choice([0.0, 0.02, 0.1]),
        restart=restart, restart_interval=rng.choice([16, 64, 256]),
        deletion=deletion, deletion_bound=rng.choice([3, 8, 20]),
        deletion_interval=rng.choice([25, 100, 1000]),
        minimize_learned=rng.random() < 0.5,
        phase_saving=rng.random() < 0.5,
        max_conflicts=max_conflicts)
    return [cdcl, IncrementalEngine(cdcl),
            DPLLEngine(max_decisions=rng.choice([None, None, 20000])),
            RecursiveLearningEngine(depth=rng.choice([1, 2]))]


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------

def _raw_dimacs_text(rng: random.Random, max_vars: int = 26) -> str:
    """Random DIMACS text spelled the way no encoder spells it: repeated
    literals, a literal next to its complement (tautologies), unit
    clauses, now and then the empty clause, and every clause's
    literals in shuffled order -- the cases
    :meth:`~repro.cnf.formula.CNFFormula.add_clause` must put in
    normal form before any engine reads them."""
    num_vars = rng.randint(3, max_vars)
    clauses = []
    for _ in range(round(rng.uniform(1.5, 5.0) * num_vars)):
        if rng.random() < 0.1:
            lits = [rng.choice((1, -1)) * rng.randint(1, num_vars)]
        else:
            lits = [rng.choice((1, -1)) * rng.randint(1, num_vars)
                    for _ in range(rng.randint(2, 4))]
            if rng.random() < 0.3:
                lits.append(rng.choice(lits))
            if rng.random() < 0.1:
                lits.append(-rng.choice(lits))
        rng.shuffle(lits)
        clauses.append(lits)
    if rng.random() < 0.03:
        clauses.insert(rng.randrange(len(clauses) + 1), [])
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(map(str, lits + [0])) for lits in clauses]
    return "\n".join(lines) + "\n"


def random_instance(rng: random.Random, max_vars: int = 26
                    ) -> Tuple[str, CNFFormula]:
    """Draw one fuzz instance: ``(description, formula)``."""
    family = rng.random()
    if family < 0.15:
        formula = parse_dimacs(_raw_dimacs_text(rng, max_vars))
        return (f"dimacs(v={formula.num_vars},"
                f"c={formula.num_clauses})", formula)
    if family < 0.75:
        num_vars = rng.randint(5, max_vars)
        k = rng.choice([2, 3, 3, 4])
        ratio = rng.uniform(1.5, 6.0)
        num_clauses = max(1, round(ratio * num_vars))
        formula = random_ksat(num_vars, num_clauses, k=k,
                              seed=rng.randrange(1 << 30))
        return (f"ksat(v={num_vars},c={num_clauses},k={k})", formula)
    from repro.apps.equivalence import mutate_circuit
    from repro.circuits.generators import random_circuit
    from repro.circuits.tseitin import encode_miter

    circuit = random_circuit(num_inputs=rng.randint(3, 5),
                             num_gates=rng.randint(4, 14),
                             seed=rng.randrange(1 << 30))
    if rng.random() < 0.5:
        other = circuit                     # self-miter: UNSAT
        kind = "self"
    else:
        other = mutate_circuit(circuit, seed=rng.randrange(1 << 30))
        kind = "mutant"
    formula = encode_miter(circuit, other).formula
    return (f"miter({kind},v={formula.num_vars})", formula)


# ----------------------------------------------------------------------
# Differential check
# ----------------------------------------------------------------------

@dataclass
class Discrepancy:
    """One confirmed fuzz failure, before/after shrinking."""

    kind: str            # disagreement | bad-model | bad-proof | portfolio
    detail: str
    engines: List[Dict[str, object]] = field(default_factory=list)
    instance: str = ""
    seed: int = 0
    original_clauses: int = 0
    shrunk_clauses: int = 0
    cnf_path: Optional[str] = None
    meta_path: Optional[str] = None


def differential_failure(formula: CNFFormula,
                         engines: Sequence[Engine]
                         ) -> Optional[Tuple[str, str, List[Engine]]]:
    """Run every engine on *formula* and cross-check.

    Returns ``(kind, detail, culprit_engines)`` for the first failure
    found, or None when all answers are mutually consistent:

    * a SAT claim whose model falsifies the formula -> ``bad-model``;
    * a CDCL UNSAT whose streamed proof fails the independent check
      -> ``bad-proof``;
    * an engine's own failed check (``Engine.failure``);
    * two decisive verdicts that differ -> ``disagreement``.
    """
    verdicts: List[Tuple[Engine, SolverResult]] = []
    for engine in engines:
        result = engine.run(formula)
        if engine.failure is not None:
            return engine.failure + ([engine],)
        if result.status is Status.SATISFIABLE:
            if (result.assignment is None
                    or not formula.is_satisfied_by(result.assignment)):
                return ("bad-model",
                        f"{engine.name} claimed SAT with a model that "
                        f"does not satisfy the formula", [engine])
        elif result.status is Status.UNSATISFIABLE:
            if engine.proof_events is not None:
                outcome = check_proof_steps(formula, engine.proof_events)
                if not outcome.valid:
                    return ("bad-proof",
                            f"{engine.name} claimed UNSAT but its proof "
                            f"failed: {outcome.error}", [engine])
        verdicts.append((engine, result))

    decisive = [(e, r) for e, r in verdicts
                if r.status is not Status.UNKNOWN]
    for i in range(1, len(decisive)):
        a_engine, a = decisive[0]
        b_engine, b = decisive[i]
        if a.status is not b.status:
            return ("disagreement",
                    f"{a_engine.name}={a.status.value} vs "
                    f"{b_engine.name}={b.status.value}",
                    [a_engine, b_engine])
    return None


# ----------------------------------------------------------------------
# Shrinker
# ----------------------------------------------------------------------

def shrink_formula(formula: CNFFormula,
                   predicate: Callable[[CNFFormula], bool],
                   max_evals: int = 250) -> CNFFormula:
    """Delta-debug *formula* down while *predicate* keeps firing.

    Greedy ddmin over clauses: try removing chunks (halving the chunk
    size down to single clauses), restarting a pass after any
    successful removal, bounded by *max_evals* predicate evaluations.
    Finishes with a compacting variable renumbering (kept only if the
    predicate still fires on the renamed formula).
    """
    clauses: List[Tuple[int, ...]] = [tuple(c) for c in formula.clauses]
    num_vars = formula.num_vars

    def build(cls: Sequence[Tuple[int, ...]]) -> CNFFormula:
        return CNFFormula(num_vars=num_vars, clauses=list(cls))

    evals = 0
    chunk = max(1, len(clauses) // 2)
    while chunk >= 1 and evals < max_evals:
        index = 0
        removed_any = False
        while index < len(clauses) and evals < max_evals:
            candidate = clauses[:index] + clauses[index + chunk:]
            if not candidate:
                index += chunk
                continue
            evals += 1
            if predicate(build(candidate)):
                clauses = candidate
                removed_any = True      # same index now names new chunk
            else:
                index += chunk
        if chunk == 1 and not removed_any:
            break
        chunk = max(1, chunk // 2) if chunk > 1 else 1
        if chunk == 1 and not removed_any and evals >= max_evals:
            break

    shrunk = build(clauses)
    # Compact the variable space: reproducers read better as 1..k.
    # The renumbering is the shared repro.cnf.canonical helper -- the
    # same transformation that feeds the service's cache key.
    renamed, mapping = renumber(shrunk)
    if mapping and (renamed.num_vars < num_vars
                    or any(old != new for old, new in mapping.items())):
        if predicate(renamed):
            return renamed
    return shrunk


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------

@dataclass
class FuzzReport:
    """Aggregate outcome of one :func:`run_fuzz` campaign."""

    iterations: int = 0
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    proofs_checked: int = 0
    incremental_queries: int = 0
    portfolio_rounds: int = 0
    failures: List[Discrepancy] = field(default_factory=list)
    out_dir: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return (f"{self.iterations} instances: {self.sat} SAT / "
                f"{self.unsat} UNSAT / {self.unknown} UNKNOWN, "
                f"{self.proofs_checked} proofs checked, "
                f"{self.incremental_queries} incremental queries, "
                f"{self.portfolio_rounds} portfolio rounds, "
                f"{len(self.failures)} failure(s)")


def _write_reproducer(out_dir: str, failure: Discrepancy,
                      formula: CNFFormula) -> None:
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"repro-{failure.seed}")
    failure.cnf_path = stem + ".cnf"
    failure.meta_path = stem + ".json"
    save_dimacs(formula, failure.cnf_path,
                comments=[f"fuzz reproducer seed={failure.seed}",
                          f"kind={failure.kind}", failure.detail])
    with open(failure.meta_path, "w", encoding="utf-8") as fh:
        json.dump({"seed": failure.seed, "kind": failure.kind,
                   "detail": failure.detail,
                   "instance": failure.instance,
                   "engines": failure.engines,
                   "original_clauses": failure.original_clauses,
                   "shrunk_clauses": failure.shrunk_clauses},
                  fh, indent=2, sort_keys=True)


def _portfolio_round(formula: CNFFormula, rng: random.Random,
                     consensus: Optional[Status]) -> Optional[str]:
    """Race a small certified supervised portfolio under a random
    fault plan; returns a failure detail string or None.

    The race must either agree with the engines' *consensus* verdict
    or come back UNKNOWN (budgets and injected faults make giving up
    legitimate; lying does not), and being certified, every result
    must carry a certificate.
    """
    from repro.runtime.faults import FaultPlan
    from repro.solvers.portfolio import default_portfolio, solve_portfolio

    plan = rng.choice([
        None,
        FaultPlan(crashes={0: 1}),
        FaultPlan(garbage={0: 1}),
        FaultPlan(false_unsat={0: 1}),
    ])
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-race-") as tmp:
        outcome = solve_portfolio(
            formula, configs=default_portfolio(2, seed=rng.randrange(1000)),
            processes=2, timeout=20.0, max_retries=1,
            fault_plan=plan, progress_interval=None, proof_dir=tmp)
        status = outcome.result.status
        certificate = outcome.result.certificate
        if certificate is None:
            return (f"portfolio {status.value} arrived without a "
                    f"certificate (faults={plan!r})")
        if status is Status.UNKNOWN:
            return None
        if consensus is not None and status is not consensus:
            return (f"portfolio={status.value} disagrees with "
                    f"engine consensus {consensus.value} "
                    f"(faults={plan!r})")
        if status is Status.UNSATISFIABLE and not certificate.valid:
            return "portfolio UNSAT arrived without a valid certificate"
    return None


def run_fuzz(iterations: int, seed: int = 0,
             out_dir: Optional[str] = None,
             max_vars: int = 26,
             portfolio_every: int = 0,
             shrink: bool = True,
             max_shrink_evals: int = 250,
             engines_factory: Optional[
                 Callable[[random.Random], List[Engine]]] = None,
             on_progress: Optional[Callable[[int, "FuzzReport"],
                                            None]] = None) -> FuzzReport:
    """Run *iterations* differential rounds; returns a
    :class:`FuzzReport` (``report.ok`` == no failures).

    Every round is seeded as ``seed * 1_000_003 + i``, so a failing
    round reproduces standalone.  ``portfolio_every > 0`` inserts a
    supervised certified portfolio race (with a random fault plan)
    every that-many rounds.  ``engines_factory`` overrides the engine
    panel -- the mutation test injects a deliberately buggy engine
    through it and asserts the campaign catches it.
    """
    report = FuzzReport(out_dir=out_dir)
    make_engines = engines_factory or default_engines
    for i in range(iterations):
        spec_seed = seed * 1_000_003 + i
        rng = random.Random(spec_seed)
        instance, formula = random_instance(rng, max_vars=max_vars)
        engines = make_engines(rng)
        failure = differential_failure(formula, engines)
        report.iterations += 1

        # Bookkeeping: one representative verdict per round.
        statuses = set()
        for engine in engines:
            if engine.proof_events is not None:
                report.proofs_checked += 1
            report.incremental_queries += engine.queries
        if failure is None:
            consensus = _consensus(formula, engines, report, statuses)
            if (portfolio_every > 0
                    and (i + 1) % portfolio_every == 0):
                report.portfolio_rounds += 1
                detail = _portfolio_round(formula, rng, consensus)
                if detail is not None:
                    failure = ("portfolio", detail, [])

        if failure is not None:
            kind, detail, culprits = failure
            record = Discrepancy(
                kind=kind, detail=detail,
                engines=[e.describe() for e in culprits],
                instance=instance, seed=spec_seed,
                original_clauses=len(formula.clauses))
            shrunk = formula
            if shrink and culprits:
                def still_failing(candidate: CNFFormula) -> bool:
                    got = differential_failure(candidate, culprits)
                    return got is not None and got[0] == kind
                shrunk = shrink_formula(formula, still_failing,
                                        max_evals=max_shrink_evals)
            record.shrunk_clauses = len(shrunk.clauses)
            if out_dir is not None:
                _write_reproducer(out_dir, record, shrunk)
            report.failures.append(record)

        if on_progress is not None:
            on_progress(i + 1, report)
    return report


def _consensus(formula: CNFFormula, engines: Sequence[Engine],
               report: FuzzReport, statuses: set) -> Optional[Status]:
    """Fold the engines' (cached-by-rerun) verdicts into the report
    tallies; returns the decisive consensus status, if any.

    Engines were already run by :func:`differential_failure`; rather
    than cache results there (and complicate its shrink-time reuse),
    the cheapest decisive engine opinion is recomputed here: a plain
    default CDCL solve, whose verdict the round already validated.
    """
    from repro.solvers.cdcl import solve_cdcl

    result = solve_cdcl(formula)
    if result.status is Status.SATISFIABLE:
        report.sat += 1
    elif result.status is Status.UNSATISFIABLE:
        report.unsat += 1
    else:
        report.unknown += 1
        return None
    return result.status
