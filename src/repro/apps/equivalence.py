"""SAT-based combinational equivalence checking (paper Section 3).

"Combinational equivalence checking can easily be cast as an instance
of SAT": build the miter of the two circuits and ask whether its
output can be raised.  UNSAT proves equivalence; a model is a
counterexample vector.

Following the hybrid approaches the paper cites [16, 26], the checker
runs a random-simulation prefilter (fast refutation of inequivalent
pairs), then structurally hashes the miter
(:mod:`repro.circuits.strash`) so the SAT search sees shared logic
once.  CNF preprocessing with equivalency reasoning (Section 6) is
optional; experiment C6 quantifies it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.circuits.netlist import Circuit
from repro.circuits.simulate import output_values, random_vector, simulate
from repro.circuits.strash import HashedEncoding
from repro.circuits.tseitin import check_miter_interface, encode_miter
from repro.runtime.budget import Budget
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.preprocess import preprocess
from repro.solvers.result import SolverStats, Status


@dataclass
class EquivalenceReport:
    """Outcome of an equivalence check.

    ``equivalent`` is ``None`` when the solver budget ran out;
    ``budget_exhausted`` then says so explicitly.  Even an exhausted
    check reports its partial progress (simulation vectors tried,
    variables eliminated, search effort spent).
    """

    equivalent: Optional[bool]
    counterexample: Optional[Dict[str, bool]] = None
    refuted_by_simulation: bool = False
    simulation_vectors: int = 0
    variables_eliminated: int = 0
    budget_exhausted: bool = False
    stats: SolverStats = field(default_factory=SolverStats)
    #: :class:`repro.verify.certificate.Certificate` under
    #: ``certify=True``: a checked DRUP proof of the unhashed miter's
    #: unsatisfiability for ``equivalent=True``, an audited
    #: counterexample model for ``equivalent=False``.  A failed check
    #: yields ``equivalent=None`` with the diagnostic here -- a
    #: certified checker never proclaims equivalence it cannot defend.
    certificate: Optional[object] = None


def check_equivalence(circuit_a: Circuit, circuit_b: Circuit,
                      simulation_vectors: int = 32,
                      use_preprocessing: bool = False,
                      max_conflicts: Optional[int] = 100000,
                      seed: int = 0,
                      budget: Optional[Budget] = None,
                      tracer=None,
                      certify: bool = False,
                      proof_dir: Optional[str] = None
                      ) -> EquivalenceReport:
    """Check functional equivalence of two combinational circuits.

    The circuits must share the input name list and have equally many
    outputs (reorderings are not reconciled); a mismatch raises
    ``ValueError`` before any vector is simulated.  So does a
    sequential circuit: one frame with free latches would report
    differences no reachable state shows
    (:mod:`repro.apps.seq_equivalence` bounds sequential pairs).

    The search runs on the structurally hashed miter (the structural
    half of the hybrid checkers [16, 26]), encoded over the unhashed
    miter's variables.  ``use_preprocessing`` adds the Section 6
    equivalency-reasoning pass on that CNF.  ``budget`` bounds the
    SAT effort (deadline / counters / memory ceiling); exhaustion
    returns ``equivalent=None`` with ``budget_exhausted=True`` rather
    than raising.  *tracer* records the check as a ``cec.check`` span
    with ``cec.simulation`` / ``cec.strash`` / ``cec.preprocess``
    phase events and the SAT effort nested inside.

    With *certify*, an ``equivalent=True`` verdict must carry a DRUP
    proof of the *unhashed* miter
    (``encode_miter(circuit_a, circuit_b).formula``) that passes the
    independent checker (kept in *proof_dir* when given); it opens
    with the hashing's own derivation, so a wrong merge fails the
    check.  A SAT counterexample's model is lifted to the unhashed
    miter and audited; failed checks return
    ``equivalent=None``.  Certification is incompatible with
    ``use_preprocessing``: the equivalency-reasoning pass rewrites the
    formula (and can even conclude UNSAT itself), so a proof of the
    rewritten CNF would not certify the miter actually encoded --
    asking for both raises ``ValueError``.
    """
    if circuit_a.is_sequential() or circuit_b.is_sequential():
        raise ValueError("equivalence checking is combinational only")
    check_miter_interface(circuit_a, circuit_b)
    if certify and use_preprocessing:
        raise ValueError(
            "certify=True is incompatible with use_preprocessing: the "
            "preprocessed CNF is not the encoded miter, so its proof "
            "certifies the wrong formula")
    if tracer is None:
        return _check_equivalence(
            circuit_a, circuit_b, simulation_vectors, use_preprocessing,
            max_conflicts, seed, budget, None, certify, proof_dir)
    with tracer.span("cec.check", circuit_a=circuit_a.name,
                     circuit_b=circuit_b.name) as end:
        report = _check_equivalence(
            circuit_a, circuit_b, simulation_vectors, use_preprocessing,
            max_conflicts, seed, budget, tracer, certify, proof_dir)
        end["equivalent"] = report.equivalent
        end["refuted_by_simulation"] = report.refuted_by_simulation
        end["budget_exhausted"] = report.budget_exhausted
        return report


def _check_equivalence(circuit_a: Circuit, circuit_b: Circuit,
                       simulation_vectors: int,
                       use_preprocessing: bool,
                       max_conflicts: Optional[int],
                       seed: int,
                       budget: Optional[Budget],
                       tracer,
                       certify: bool,
                       proof_dir: Optional[str]
                       ) -> EquivalenceReport:
    rng = random.Random(seed)
    for index in range(simulation_vectors):
        vector = random_vector(circuit_a, rng)
        out_a = output_values(circuit_a, simulate(circuit_a, vector))
        out_b = output_values(circuit_b, simulate(circuit_b, vector))
        if list(out_a.values()) != list(out_b.values()):
            if tracer is not None:
                tracer.event("cec.simulation", vectors=index + 1,
                             refuted=True)
            return EquivalenceReport(False, vector,
                                     refuted_by_simulation=True,
                                     simulation_vectors=index + 1)
    if tracer is not None and simulation_vectors > 0:
        tracer.event("cec.simulation", vectors=simulation_vectors,
                     refuted=False)

    encoding = encode_miter(circuit_a, circuit_b)
    hashed = HashedEncoding(encoding)
    hashed.formula.add_clause([encoding.literal("miter_out")])
    if tracer is not None:
        tracer.event("cec.strash", gates=hashed.gates,
                     merged=hashed.merged)
    formula = hashed.formula
    eliminated = 0
    lift = None
    if use_preprocessing:
        pre = preprocess(formula, equivalency=True)
        if tracer is not None:
            tracer.event("cec.preprocess",
                         eliminated=pre.variables_eliminated,
                         unsat=pre.unsat)
        if pre.unsat:
            return EquivalenceReport(
                True, simulation_vectors=simulation_vectors,
                variables_eliminated=pre.variables_eliminated)
        formula = pre.formula
        eliminated = pre.variables_eliminated
        lift = pre.lift_model

    if certify:
        import os
        from repro.verify.certificate import certified_solve
        proof_path = None
        if proof_dir is not None:
            os.makedirs(proof_dir, exist_ok=True)
            proof_path = os.path.join(
                proof_dir,
                f"cec-{circuit_a.name}-vs-{circuit_b.name}.drup")
        result = certified_solve(encoding.formula, proof_path=proof_path,
                                 tracer=tracer, prefix=hashed.prove,
                                 max_conflicts=max_conflicts,
                                 budget=budget)
    else:
        solver = CDCLSolver(formula, max_conflicts=max_conflicts,
                            budget=budget)
        solver.tracer = tracer
        result = solver.solve()
    certificate = result.certificate
    if result.status is Status.UNSATISFIABLE:
        return EquivalenceReport(True,
                                 simulation_vectors=simulation_vectors,
                                 variables_eliminated=eliminated,
                                 stats=result.stats,
                                 certificate=certificate)
    if result.status is Status.SATISFIABLE:
        model = lift(result.assignment) if lift else result.assignment
        vector = encoding.input_vector(model, default=False)
        witness = {k: bool(v) for k, v in vector.items()}
        return EquivalenceReport(False, witness,
                                 simulation_vectors=simulation_vectors,
                                 variables_eliminated=eliminated,
                                 stats=result.stats,
                                 certificate=certificate)
    # UNKNOWN: genuine budget exhaustion, or a certified UNSAT demoted
    # by a failed proof check (the certificate carries the diagnostic).
    demoted = certificate is not None and certificate.valid is False
    return EquivalenceReport(None,
                             simulation_vectors=simulation_vectors,
                             variables_eliminated=eliminated,
                             budget_exhausted=not demoted,
                             stats=result.stats,
                             certificate=certificate)


def mutate_circuit(circuit: Circuit, seed: int = 0) -> Circuit:
    """A copy with one random gate type swapped -- a realistic buggy
    revision for negative equivalence tests and benchmarks."""
    from repro.circuits.gates import GateType

    rng = random.Random(seed)
    swaps = {
        GateType.AND: GateType.OR, GateType.OR: GateType.AND,
        GateType.NAND: GateType.NOR, GateType.NOR: GateType.NAND,
        GateType.XOR: GateType.XNOR, GateType.XNOR: GateType.XOR,
        GateType.NOT: GateType.BUFFER, GateType.BUFFER: GateType.NOT,
    }
    candidates = [node.name for node in circuit
                  if node.is_gate and node.gate_type in swaps]
    if not candidates:
        raise ValueError("no mutable gate found")
    target = rng.choice(candidates)

    mutated = Circuit(circuit.name + "_mut")
    for node in circuit:
        if node.is_input:
            mutated.add_input(node.name)
        elif node.gate_type is GateType.DFF:
            mutated.add_dff(node.name,
                            node.fanins[0] if node.fanins else None)
        elif node.name == target:
            mutated.add_gate(node.name, swaps[node.gate_type],
                             node.fanins)
        elif node.gate_type in (GateType.CONST0, GateType.CONST1):
            mutated.add_const(node.name,
                              node.gate_type is GateType.CONST1)
        else:
            mutated.add_gate(node.name, node.gate_type, node.fanins)
    for out in circuit.outputs:
        mutated.set_output(out)
    return mutated
