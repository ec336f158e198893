"""SAT-based combinational equivalence checking (paper Section 3).

"Combinational equivalence checking can easily be cast as an instance
of SAT": build the miter of the two circuits and ask whether its
output can be raised.  UNSAT proves equivalence; a model is a
counterexample vector.

Following the hybrid approaches the paper cites [16, 26], the checker
optionally runs a random-simulation prefilter (fast refutation of
inequivalent pairs) and CNF preprocessing with equivalency reasoning
(Section 6), which collapses the internal equivalences miters are full
of -- experiment C6 quantifies that effect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.circuits.netlist import Circuit
from repro.circuits.simulate import output_values, random_vector, simulate
from repro.circuits.tseitin import encode_miter
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
    #: ``certify=True``: a checked DRUP proof of the miter's
    #: unsatisfiability for ``equivalent=True``, an audited
    #: counterexample model for ``equivalent=False``.  A failed check
    #: yields ``equivalent=None`` with the diagnostic here -- a
    #: certified checker never proclaims equivalence it cannot defend.
    certificate: Optional[object] = None


def check_equivalence(circuit_a: Circuit, circuit_b: Circuit,
                      simulation_vectors: int = 32,
                      use_preprocessing: bool = False,
                      use_strash: bool = False,
                      max_conflicts: Optional[int] = 100000,
                      seed: int = 0,
                      backend: str = "cdcl",
                      portfolio_processes: Optional[int] = None,
                      budget: Optional[Budget] = None,
                      tracer=None,
                      certify: bool = False,
                      proof_dir: Optional[str] = None
                      ) -> EquivalenceReport:
    """Check functional equivalence of two combinational circuits.

    The circuits must share input and output name lists (reorderings
    are not reconciled).  A sequential circuit raises ``ValueError``:
    one frame with free latches would report differences no reachable
    state shows (:mod:`repro.apps.seq_equivalence` bounds sequential
    pairs).  ``use_preprocessing`` enables the Section 6
    equivalency-reasoning pass on the miter CNF; ``use_strash`` merges
    structurally identical miter gates first (the structural half of
    the hybrid checkers [16, 26]).  ``backend="portfolio"`` races
    diversified CDCL configurations on the miter
    (:mod:`repro.solvers.portfolio`) instead of a single engine;
    ``portfolio_processes`` caps the process count.  ``budget``
    bounds the SAT effort (deadline / counters / memory ceiling);
    exhaustion returns ``equivalent=None`` with
    ``budget_exhausted=True`` rather than raising.  *tracer* records
    the check as a ``cec.check`` span with ``cec.simulation`` /
    ``cec.preprocess`` phase events and the SAT effort nested inside.

    With *certify*, an ``equivalent=True`` verdict must carry a DRUP
    proof of the miter CNF's unsatisfiability that passes the
    independent checker (kept in *proof_dir* when given), and a SAT
    counterexample's model is audited; failed checks return
    ``equivalent=None``.  Certification is incompatible with
    ``use_preprocessing``: the equivalency-reasoning pass rewrites the
    formula (and can even conclude UNSAT itself), so a proof of the
    rewritten CNF would not certify the miter actually encoded --
    asking for both raises ``ValueError``.
    """
    if backend not in ("cdcl", "portfolio"):
        raise ValueError(f"unknown backend {backend!r}")
    if circuit_a.is_sequential() or circuit_b.is_sequential():
        raise ValueError("equivalence checking is combinational only")
    if certify and use_preprocessing:
        raise ValueError(
            "certify=True is incompatible with use_preprocessing: the "
            "preprocessed CNF is not the encoded miter, so its proof "
            "certifies the wrong formula")
    if tracer is None:
        return _check_equivalence(
            circuit_a, circuit_b, simulation_vectors, use_preprocessing,
            use_strash, max_conflicts, seed, backend,
            portfolio_processes, budget, None, certify, proof_dir)
    with tracer.span("cec.check", circuit_a=circuit_a.name,
                     circuit_b=circuit_b.name, backend=backend) as end:
        report = _check_equivalence(
            circuit_a, circuit_b, simulation_vectors, use_preprocessing,
            use_strash, max_conflicts, seed, backend,
            portfolio_processes, budget, tracer, certify, proof_dir)
        end["equivalent"] = report.equivalent
        end["refuted_by_simulation"] = report.refuted_by_simulation
        end["budget_exhausted"] = report.budget_exhausted
        return report


def _check_equivalence(circuit_a: Circuit, circuit_b: Circuit,
                       simulation_vectors: int,
                       use_preprocessing: bool,
                       use_strash: bool,
                       max_conflicts: Optional[int],
                       seed: int,
                       backend: str,
                       portfolio_processes: Optional[int],
                       budget: Optional[Budget],
                       tracer,
                       certify: bool = False,
                       proof_dir: Optional[str] = None
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

    if use_strash:
        from repro.circuits.strash import structural_hash
        from repro.circuits.tseitin import (
            build_miter,
            encode_with_objective,
        )
        miter, _ = build_miter(circuit_a, circuit_b)
        miter = structural_hash(miter)
        encoding = encode_with_objective(miter, {"miter_out": True})
    else:
        encoding = encode_miter(circuit_a, circuit_b)
    formula = encoding.formula
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

    if backend == "portfolio":
        from repro.solvers.portfolio import race_portfolio
        result = race_portfolio(formula, certify, proof_dir,
                                processes=portfolio_processes,
                                max_conflicts=max_conflicts,
                                seed=seed, budget=budget,
                                tracer=tracer).result
    elif certify:
        import os
        from repro.verify.certificate import certified_solve
        proof_path = None
        if proof_dir is not None:
            os.makedirs(proof_dir, exist_ok=True)
            proof_path = os.path.join(
                proof_dir,
                f"cec-{circuit_a.name}-vs-{circuit_b.name}.drup")
        result = certified_solve(formula, proof_path=proof_path,
                                 tracer=tracer,
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
