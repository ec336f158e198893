"""SAT-based automatic test pattern generation (paper Section 3).

The encoding follows Larrabee [20]: for a target stuck-at fault, the
good circuit and the faulty circuit share their primary inputs; a test
vector exists iff some primary output can differ, i.e. the miter output
can be raised.  Satisfying assignments are test vectors; UNSAT proofs
certify the fault *redundant* (undetectable).

Every clausal path encodes that miter on the fault's cones
(:func:`encode_fault_cone`): only the fault's transitive fanout can
differ and only the outputs it reaches can show it, so the good
circuit's fanin of those outputs is encoded once, the faulty machine
adds only the fanout, and the difference runs over the reached
outputs.  Three solving paths are provided, one per ``method``:

* ``"cdcl"``: plain CDCL, a fresh solver per fault, on the fault-cone
  CNF;
* ``"portfolio"``: a race of diversified CDCL configurations on the
  same CNF;
* ``"circuit"``: the Section 5 circuit layer (justification frontier +
  backtracing) on the whole-circuit miter, which returns *partial*
  test cubes instead of fully specified vectors.

The engine supports structural fault collapsing and simulation-based
fault dropping, the standard complements of any deterministic ATPG.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.circuits.faults import (
    FAULT_NODE,
    StuckAtFault,
    collapse_equivalent,
    full_fault_list,
    inject_fault,
)
from repro.circuits.netlist import Circuit
from repro.circuits.parallel_sim import (
    fault_parallel_detects,
    parallel_fault_simulate,
)
from repro.circuits.tseitin import (
    CircuitEncoding,
    add_difference,
    encode_nodes,
)
from repro.cnf.formula import CNFFormula
from repro.runtime.budget import Budget
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.circuit_sat import CircuitSATSolver
from repro.solvers.result import SolverStats, Status


class TestOutcome(enum.Enum):
    """Classification of one target fault."""

    # Not a pytest class, despite the domain-standard "Test" prefix.
    __test__ = False

    DETECTED = "DETECTED"            # SAT: vector generated
    DETECTED_BY_SIMULATION = "DETECTED_BY_SIMULATION"
    REDUNDANT = "REDUNDANT"          # UNSAT: no test exists
    ABORTED = "ABORTED"              # budget exhausted


@dataclass
class FaultResult:
    """Per-fault outcome."""

    fault: StuckAtFault
    outcome: TestOutcome
    vector: Optional[Dict[str, Optional[bool]]] = None
    stats: SolverStats = field(default_factory=SolverStats)
    #: :class:`repro.verify.certificate.Certificate` when the fault
    #: was solved under ``certify=True``: a checked UNSAT proof for
    #: REDUNDANT, an audited model for DETECTED.  A fault whose proof
    #: failed the check is reported ABORTED (never REDUNDANT) with the
    #: diagnostic in ``certificate.reason``.
    certificate: Optional[object] = None


@dataclass
class ATPGReport:
    """Aggregate outcome over a fault list.

    ``budget_exhausted`` marks a run cut short by its
    :class:`~repro.runtime.budget.Budget`: the per-fault results up to
    the cutoff are complete and trustworthy (partial result, not an
    error); faults never attempted are reported ABORTED.
    """

    results: List[FaultResult] = field(default_factory=list)
    vectors: List[Dict[str, bool]] = field(default_factory=list)
    budget_exhausted: bool = False

    def count(self, outcome: TestOutcome) -> int:
        """Number of faults with the given outcome."""
        return sum(1 for r in self.results if r.outcome is outcome)

    @property
    def fault_coverage(self) -> float:
        """Detected / total (redundant faults count as covered, the
        usual fault-efficiency convention)."""
        total = len(self.results)
        if not total:
            return 1.0
        covered = (self.count(TestOutcome.DETECTED)
                   + self.count(TestOutcome.DETECTED_BY_SIMULATION)
                   + self.count(TestOutcome.REDUNDANT))
        return covered / total


def encode_fault_cone(circuit: Circuit, fault: StuckAtFault,
                      new_var: Callable[[str], int],
                      add_clause: Callable[[List[int]], object]
                      ) -> Tuple[Dict[str, int], int]:
    """The test condition of *fault*, encoded on the fault's cones.

    Only the fault's transitive fanout can differ between the good and
    the faulty machine, and only the primary outputs it reaches can
    show a difference.  The good circuit's fanin of those outputs is
    encoded once; the faulty machine adds only that fanout, with the
    fault site a constant and every side input its good variable; and
    :func:`~repro.circuits.tseitin.add_difference` runs over the
    reached outputs.  Returns the good variables and the difference
    variable: asserting it is satisfiable exactly when the
    whole-circuit miter is, and a model restricted to the inputs is a
    test.  When no output is reached the difference is fixed false.
    """
    fanout = circuit.transitive_fanout([fault.node])
    reached = [out for out in circuit.outputs if out in fanout]
    cone = circuit.transitive_fanin(reached)
    order = [name for name in circuit.topological_order() if name in cone]
    good = encode_nodes(circuit, new_var, add_clause, nodes=order)
    faulty = [name for name in order
              if name in fanout and name != fault.node]
    given = {fanin: good[fanin] for name in faulty
             for fanin in circuit.fanin(name) if fanin not in fanout}
    stuck = given[fault.node] = new_var(FAULT_NODE)
    add_clause([stuck if fault.value else -stuck])
    bad = encode_nodes(circuit, new_var, add_clause, given=given,
                       nodes=faulty)
    diff = add_difference([(good[out], bad[out]) for out in reached],
                          new_var, add_clause)
    return good, diff


#: The per-fault solving paths, the values of ``method``.
_SOLVE_METHODS = ("cdcl", "portfolio", "circuit")


def _check_method(method: str, certify: bool) -> None:
    """Reject an unknown *method*, and *certify* with the one method
    whose UNSAT answers carry no proof of the fault's formula."""
    if method not in _SOLVE_METHODS:
        raise ValueError(
            f"unknown ATPG method {method!r}; expected one of "
            + ", ".join(repr(name) for name in _SOLVE_METHODS))
    if certify and method == "circuit":
        raise ValueError(
            "certify=True needs a clausal proof; the structural "
            "'circuit' method records none -- use 'cdcl' or "
            "'portfolio'")


def solve_fault(circuit: Circuit, fault: StuckAtFault,
                method: str = "cdcl",
                max_conflicts: Optional[int] = 20000,
                budget: Optional[Budget] = None,
                tracer=None,
                certify: bool = False,
                proof_dir: Optional[str] = None) -> FaultResult:
    """Generate a test for one fault (or prove it redundant).

    *method*: ``"cdcl"`` solves the fault-cone formula
    (:func:`encode_fault_cone`) directly; ``"portfolio"`` races
    diversified CDCL configurations on it
    (:mod:`repro.solvers.portfolio`); ``"circuit"`` runs the Section 5
    structural layer on the whole-circuit miter, producing a partial
    test cube.  A clausal vector sets the inputs outside the cone to
    0.  *budget* bounds the solver call (deadline / counters /
    memory); exhaustion yields ABORTED.  *tracer* is handed to the
    underlying CDCL/portfolio solve (the ``"circuit"`` path has no
    engine-level tracing).

    With *certify*, a REDUNDANT verdict must carry a DRUP proof that
    passes the independent checker and a DETECTED vector's underlying
    model is audited; a failed check demotes the fault to ABORTED --
    a certified run never declares a fault redundant on the solver's
    word alone.  Proof files land in *proof_dir* (named per fault)
    when given, else in cleaned-up temporaries.  The structural
    ``"circuit"`` method records no clausal derivation and cannot
    certify: asking for both raises ``ValueError``, as does a
    sequential *circuit* or an unknown *method*.
    """
    if circuit.is_sequential():
        raise ValueError("combinational ATPG only")
    _check_method(method, certify)
    if method == "circuit":
        from repro.circuits.tseitin import build_miter
        miter, _ = build_miter(circuit, inject_fault(circuit, fault))
        solver = CircuitSATSolver(miter, {"miter_out": True},
                                  max_conflicts=max_conflicts,
                                  budget=budget)
        result = solver.solve()
        if result.status is Status.SATISFIABLE:
            return FaultResult(fault, TestOutcome.DETECTED,
                               result.input_vector, result.stats)
        if result.status is Status.UNSATISFIABLE:
            return FaultResult(fault, TestOutcome.REDUNDANT,
                               stats=result.stats)
        return FaultResult(fault, TestOutcome.ABORTED, stats=result.stats)

    formula = CNFFormula()
    good, diff = encode_fault_cone(circuit, fault, formula.new_var,
                                   formula.add_clause)
    formula.add_clause([diff])
    proof_path = None
    if certify and proof_dir is not None:
        import os
        os.makedirs(proof_dir, exist_ok=True)
        proof_path = os.path.join(
            proof_dir, f"atpg-{fault.node}-sa{int(fault.value)}.drup")
    if method == "portfolio":
        from repro.solvers.portfolio import race_portfolio
        result = race_portfolio(formula, certify, proof_dir,
                                max_conflicts=max_conflicts,
                                budget=budget, tracer=tracer).result
    elif certify:
        from repro.verify.certificate import certified_solve
        result = certified_solve(formula,
                                 proof_path=proof_path, tracer=tracer,
                                 max_conflicts=max_conflicts,
                                 budget=budget)
    else:
        solver = CDCLSolver(formula, max_conflicts=max_conflicts,
                            budget=budget)
        solver.tracer = tracer
        result = solver.solve()
    # A model's input values are the test (inputs outside the fault's
    # cones read 0), UNSAT is redundancy, and UNKNOWN -- including a
    # certified UNSAT demoted by a failed proof check, whose
    # diagnostic travels in the certificate -- aborts.
    if result.is_sat:
        vector = CircuitEncoding(circuit, formula, good).input_vector(
            result.assignment, default=False)
        return FaultResult(fault, TestOutcome.DETECTED, vector,
                           result.stats, certificate=result.certificate)
    outcome = (TestOutcome.REDUNDANT if result.is_unsat
               else TestOutcome.ABORTED)
    return FaultResult(fault, outcome, stats=result.stats,
                       certificate=result.certificate)


class ATPGEngine:
    """Deterministic test generation over a fault list.

    Parameters
    ----------
    circuit:
        combinational circuit under test.
    method:
        per-fault solving path: ``"cdcl"``, ``"portfolio"`` or
        ``"circuit"`` (see :func:`solve_fault`).
    fault_dropping:
        simulate each SAT-generated vector once against every fault
        not yet detected -- fault-parallel, one machine per bit
        (:func:`repro.circuits.parallel_sim.fault_parallel_detects`)
        -- and drop the detected ones, so SAT targets only faults no
        earlier vector covers (the iterated-SAT usage of Section 6).
    collapse:
        apply structural fault collapsing before generation.
    random_patterns:
        number of random input vectors graded by bit-parallel fault
        simulation before any SAT call; the vectors that detect some
        fault are kept and their faults are reported
        DETECTED_BY_SIMULATION (0 skips the phase).
    max_conflicts:
        per-fault conflict cap.
    seed:
        seeds the generator behind the random-pattern vectors and the
        don't-care fill of ``"circuit"``-method cubes, and nothing
        else: clausal vectors leave no don't-cares (inputs outside
        the fault's cone read 0), so without random patterns the
        clausal runs are the same for every seed.
    budget:
        run-wide :class:`~repro.runtime.budget.Budget`: the whole
        fault list shares one deadline / memory ceiling, and each
        per-fault solve receives only the remaining tail.  On
        exhaustion the report is partial (``budget_exhausted=True``,
        unattempted faults ABORTED) -- no exception is raised.
    tracer:
        optional :class:`repro.obs.trace.Tracer`: the run becomes an
        ``atpg.run`` span with one ``atpg.fault`` event per targeted
        fault (node, stuck-at value, outcome, effort) and the
        per-fault solver spans nested inside.
    certify:
        certify every per-fault answer (see :func:`solve_fault`):
        REDUNDANT requires a checker-validated DRUP proof, DETECTED an
        audited model; failed checks degrade to ABORTED.  Incompatible
        with ``method="circuit"``.
    proof_dir:
        where certified proof files are kept (per-fault names);
        ``None`` uses cleaned-up temporaries.
    """

    def __init__(self, circuit: Circuit, method: str = "cdcl",
                 fault_dropping: bool = True, collapse: bool = False,
                 random_patterns: int = 0,
                 max_conflicts: Optional[int] = 20000,
                 seed: int = 0,
                 budget: Optional[Budget] = None,
                 tracer=None,
                 certify: bool = False,
                 proof_dir: Optional[str] = None):
        circuit.validate()
        if circuit.is_sequential():
            raise ValueError("combinational ATPG only")
        _check_method(method, certify)
        self.circuit = circuit
        self.method = method
        self.fault_dropping = fault_dropping
        self.collapse = collapse
        self.random_patterns = random_patterns
        self.max_conflicts = max_conflicts
        self.budget = budget
        self.tracer = tracer
        self.certify = certify
        self.proof_dir = proof_dir
        self.rng = random.Random(seed)

    def fault_list(self) -> List[StuckAtFault]:
        """The target fault universe (optionally collapsed)."""
        faults = full_fault_list(self.circuit)
        if self.collapse:
            faults = collapse_equivalent(self.circuit, faults)
        return faults

    def run(self, faults: Optional[Sequence[StuckAtFault]] = None
            ) -> ATPGReport:
        """Process the fault list, returning vectors and outcomes."""
        tracer = self.tracer
        if tracer is None:
            return self._run(faults)
        with tracer.span("atpg.run", method=self.method) as end:
            report = self._run(faults)
            end["faults"] = len(report.results)
            end["detected"] = report.count(TestOutcome.DETECTED)
            end["redundant"] = report.count(TestOutcome.REDUNDANT)
            end["aborted"] = report.count(TestOutcome.ABORTED)
            end["coverage"] = round(report.fault_coverage, 4)
            end["budget_exhausted"] = report.budget_exhausted
            return report

    def _run(self, faults: Optional[Sequence[StuckAtFault]] = None
             ) -> ATPGReport:
        tracer = self.tracer
        report = ATPGReport()
        remaining = list(faults if faults is not None
                         else self.fault_list())
        detected_early: Dict[StuckAtFault, bool] = {}

        if self.random_patterns > 0:
            # Random-pattern grading phase (bit-parallel): the classic
            # front-end that leaves only hard faults to the SAT engine.
            vectors = [
                {name: self.rng.random() < 0.5
                 for name in self.circuit.inputs}
                for _ in range(self.random_patterns)]
            detection = parallel_fault_simulate(self.circuit,
                                                remaining, vectors)
            used_indices = sorted({index for index in detection.values()
                                   if index is not None})
            report.vectors.extend(vectors[index]
                                  for index in used_indices)
            for fault, index in detection.items():
                if index is not None:
                    detected_early[fault] = True

        meter = self.budget.meter() if self.budget is not None else None
        for position, fault in enumerate(remaining):
            if detected_early.get(fault):
                report.results.append(
                    FaultResult(fault,
                                TestOutcome.DETECTED_BY_SIMULATION))
                continue
            if meter is not None and meter.expired():
                # Graceful degradation: report what was achieved and
                # mark everything unattempted, instead of raising.
                report.budget_exhausted = True
                if tracer is not None:
                    tracer.event("atpg.budget_exhausted",
                                 attempted=position,
                                 leftover=len(remaining) - position)
                for leftover in remaining[position:]:
                    report.results.append(FaultResult(
                        leftover,
                        TestOutcome.DETECTED_BY_SIMULATION
                        if detected_early.get(leftover)
                        else TestOutcome.ABORTED))
                break
            fault_budget = meter.remaining_budget() \
                if meter is not None else None
            result = solve_fault(self.circuit, fault, self.method,
                                 self.max_conflicts, budget=fault_budget,
                                 tracer=tracer, certify=self.certify,
                                 proof_dir=self.proof_dir)
            report.results.append(result)
            if tracer is not None:
                tracer.event("atpg.fault", node=fault.node,
                             stuck_at=bool(fault.value),
                             outcome=result.outcome.value,
                             conflicts=result.stats.conflicts,
                             decisions=result.stats.decisions)
            if result.outcome is not TestOutcome.DETECTED:
                continue
            vector = self._complete_vector(result.vector)
            report.vectors.append(vector)
            if self.fault_dropping:
                candidates = [other for other in remaining
                              if other != fault
                              and not detected_early.get(other)]
                hits = fault_parallel_detects(self.circuit, candidates,
                                              vector)
                for other, hit in zip(candidates, hits):
                    if hit:
                        detected_early[other] = True
        return report

    def _complete_vector(self, cube: Dict[str, Optional[bool]]
                         ) -> Dict[str, bool]:
        """Fill don't-care positions with random values (the usual
        treatment before applying a cube on a tester)."""
        return {name: (self.rng.random() < 0.5 if value is None
                       else bool(value))
                for name, value in cube.items()}

