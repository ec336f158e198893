"""Bounded model checking of sequential circuits (paper Section 3, [5]).

"Symbolic model checking without BDDs": unroll the sequential circuit
k time frames into a combinational formula and ask SAT whether a state
violating the property is reachable within k steps.  A model is a
concrete counterexample trace; UNSAT at every depth up to k proves the
property holds for k steps.

The checker exploits the *incremental* interface (Section 6): one
persistent solver accumulates frames, and the per-depth property check
rides on an assumption literal, so clauses learned at depth t prune
the search at depth t+1.

A certified sweep is the same search with a proof sink attached: the
solver writes one stream for the whole sweep -- every unrolled clause
as an input step, every learned clause, and each UNSAT depth's negated
property literal as a target step (:mod:`repro.verify.drat`).  The
independent checker reads it once, matching the input steps against
the unrolling this checker encoded, and a depth counts as proved only
when its own target passed.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.circuits.netlist import Circuit
from repro.circuits.tseitin import encode_nodes
from repro.cnf.formula import CNFFormula
from repro.runtime.budget import Budget
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.result import SolverStats
from repro.verify.certificate import (MODEL, PROOF, Certificate,
                                      check_unsat_proof)
from repro.verify.drat import FileProofSink


@dataclass
class BMCResult:
    """Outcome of a bounded reachability query.

    ``failure_depth`` is the first time frame (0-based) at which the
    property fails; ``None`` when no violation exists within the bound.
    ``trace`` lists one input vector per frame up to the failure.
    ``budget_exhausted`` marks a sweep cut short by its budget: the
    property is then proved only for ``depths_proved`` frames, a
    partial but sound result.
    """

    failure_depth: Optional[int]
    trace: List[Dict[str, bool]] = field(default_factory=list)
    depths_proved: int = 0
    budget_exhausted: bool = False
    stats: SolverStats = field(default_factory=SolverStats)
    #: Certified sweeps only: one
    #: :class:`repro.verify.certificate.Certificate` per decided
    #: depth, in depth order (a checked target for each UNSAT frame,
    #: an audited model for the failing frame).
    certificates: List = field(default_factory=list)
    #: A certified depth's answer failed the independent check: its
    #: target did not pass, or its model failed the audit.  That
    #: depth and every deeper one do NOT count as proved, no
    #: counterexample is reported, and the diagnostic is in the last
    #: certificate.
    discrepant: bool = False

    @property
    def property_holds(self) -> bool:
        """True when no counterexample was found within the bound."""
        return self.failure_depth is None


class BoundedModelChecker:
    """Frame-by-frame unrolling on one persistent solver.

    Parameters
    ----------
    circuit:
        sequential (or combinational) circuit.
    initial_state:
        DFF name -> value at frame 0 (default: all zeros).
    tracer:
        optional :class:`repro.obs.trace.Tracer`: each sweep becomes a
        ``bmc.check`` span with one ``bmc.depth`` event per frame
        (status plus per-depth conflict/decision effort) and the
        per-depth solver spans nested inside.
    certify:
        certify every depth: the persistent solver streams one proof
        for the sweep, the checker reads it once after the search, an
        UNSAT depth counts as proved only when its target (the negated
        property literal) passed, and the failing frame's model is
        audited against the unrolling.  The first depth that fails
        sets ``discrepant=True``.  A certified checker runs one sweep.
    proof_dir:
        where the sweep's proof file (``bmc.drup``) is kept; ``None``
        uses a cleaned-up temporary.
    """

    def __init__(self, circuit: Circuit,
                 initial_state: Optional[Dict[str, bool]] = None,
                 tracer=None,
                 certify: bool = False,
                 proof_dir: Optional[str] = None):
        circuit.validate()
        self.circuit = circuit
        self.initial_state = {dff: False for dff in circuit.dffs}
        if initial_state:
            self.initial_state.update(initial_state)
        self.solver = CDCLSolver()
        self.tracer = tracer
        self.solver.tracer = tracer
        self.certify = certify
        self.proof_dir = proof_dir
        #: Certified checkers only: the unrolling as this checker
        #: encoded it, clause by clause -- what the proof checker
        #: matches the stream's input steps against, never the
        #: solver's own copy.
        self.formula = CNFFormula() if certify else None
        #: var_of[frame][node]
        self.frames: List[Dict[str, int]] = []

    def _add_frame(self) -> Dict[str, int]:
        """Encode one more time frame and link the DFFs."""
        add_clause = self.solver.add_clause
        if self.formula is not None:        # certified: record, then add
            record = self.formula.add_clause

            def add_clause(literals):
                self.solver.add_clause(record(literals))
        var_of = encode_nodes(
            self.circuit, lambda name: self.solver.new_var(),
            add_clause,
            previous=self.frames[-1] if self.frames else None,
            initial=self.initial_state)
        self.frames.append(var_of)
        return var_of

    def check_output(self, output: str, bad_value: bool = True,
                     max_depth: int = 10,
                     budget: Optional[Budget] = None) -> BMCResult:
        """Safety check: can *output* take *bad_value* within
        ``max_depth`` frames?

        Frames are added lazily; each depth is queried under a single
        assumption literal so the solver (and its recorded clauses)
        persists across depths.  ``budget``'s deadline spans the whole
        sweep -- each depth gets what remains of it -- while its
        counter caps bound each depth's solve call alone.  Exhaustion
        stops the sweep with ``budget_exhausted=True`` and the depths
        proved so far, instead of raising.  A depth the solver could
        not decide is never counted as proved.
        """
        if output not in self.circuit:
            raise ValueError(f"unknown output {output!r}")
        tracer = self.tracer
        if tracer is None:
            return self._check_output(output, bad_value, max_depth,
                                      budget)
        with tracer.span("bmc.check", output=output,
                         bad_value=bad_value,
                         max_depth=max_depth) as end:
            result = self._check_output(output, bad_value, max_depth,
                                        budget)
            end["failure_depth"] = result.failure_depth
            end["depths_proved"] = result.depths_proved
            end["budget_exhausted"] = result.budget_exhausted
            return result

    def _check_output(self, output: str, bad_value: bool,
                      max_depth: int,
                      budget: Optional[Budget]) -> BMCResult:
        if not self.certify:
            return self._sweep(output, bad_value, max_depth, budget)[0]
        if self.frames:
            raise RuntimeError("a certified checker runs one sweep: "
                               "its proof stream starts with the "
                               "first frame")
        sink = FileProofSink(self._proof_path())
        self.solver.proof = sink
        try:
            result, asked, model = self._sweep(output, bad_value,
                                               max_depth, budget)
            sink.close()
            self._certify(result, sink.path, asked, model)
        finally:
            self.solver.proof = None
            sink.close()
            if self.proof_dir is None and os.path.exists(sink.path):
                os.remove(sink.path)
        return result

    def _sweep(self, output: str, bad_value: bool, max_depth: int,
               budget: Optional[Budget]):
        """The depth-by-depth search; returns the result, the property
        literal asked at each depth and the failing frame's model."""
        tracer = self.tracer
        meter = budget.meter() if budget is not None else None
        result = BMCResult(None)
        asked: List[int] = []           # the property literal per depth
        model = None
        for depth in range(max_depth + 1):
            if meter is not None and meter.expired():
                result.budget_exhausted = True
                break
            while len(self.frames) <= depth:
                self._add_frame()
            var = self.frames[depth][output]
            assumption = var if bad_value else -var
            asked.append(assumption)
            self.solver.budget = (meter.remaining_budget()
                                  if meter is not None else None)
            call = self.solver.solve(assumptions=[assumption])
            result.stats.merge(call.stats)
            if tracer is not None:
                # call.stats is already the per-call delta, so these
                # are this depth's own conflicts/decisions.
                tracer.event("bmc.depth", depth=depth,
                             status=call.status.value,
                             conflicts=call.stats.conflicts,
                             decisions=call.stats.decisions)
            if call.is_sat:
                model = call.assignment
                result.failure_depth = depth
                result.trace = [{name: bool(model.value_of(frame[name]))
                                 for name in self.circuit.inputs}
                                for frame in self.frames[:depth + 1]]
                break
            if not call.is_unsat:
                # UNKNOWN: this depth is undecided, not proved.
                result.budget_exhausted = True
                break
            result.depths_proved = depth + 1
        return result, asked, model

    def _proof_path(self) -> str:
        if self.proof_dir is None:
            handle, path = tempfile.mkstemp(suffix=".drup",
                                            prefix="repro-bmc-")
            os.close(handle)
            return path
        os.makedirs(self.proof_dir, exist_ok=True)
        return os.path.join(self.proof_dir, "bmc.drup")

    def _certify(self, result: BMCResult, path: str,
                 asked: List[int], model) -> None:
        """Check the sweep's stream at *path* once, and keep only what
        it certifies.

        UNSAT depth t is proved when the stream's t-th accepted target
        is ``-asked[t]``; the failing frame's *model* must satisfy the
        unrolling and raise the property.  The first depth that fails
        either test sets ``discrepant`` and cuts the result there.
        """
        kept = path if self.proof_dir is not None else None
        expected = [(-lit,) for lit in asked[:result.depths_proved]]
        accepted: List = []
        reason = None
        if expected:
            stream = check_unsat_proof(self.formula, path, self.tracer,
                                       preloaded=0)
            accepted, reason = stream.targets, stream.reason
        for depth, target in enumerate(expected):
            if depth < len(accepted) and accepted[depth] == target:
                result.certificates.append(
                    Certificate(PROOF, valid=True, proof_path=kept))
                continue
            if depth < len(accepted):
                reason = (f"depth {depth}'s target is not its negated "
                          f"property literal")
            result.certificates.append(Certificate(
                PROOF, valid=False, proof_path=kept,
                reason=reason or f"no target for depth {depth}"))
            result.depths_proved = depth
            break
        else:
            if model is None:
                return
            valid = (self.formula.is_satisfied_by(model)
                     and model.satisfies_literal(asked[-1]))
            result.certificates.append(Certificate(
                MODEL, valid=valid,
                reason=None if valid else
                "claimed model does not satisfy the unrolling and "
                "the property literal"))
            if valid:
                return
        result.discrepant = True
        result.failure_depth = None
        result.trace = []


def check_safety(circuit: Circuit, output: str, bad_value: bool = True,
                 max_depth: int = 10,
                 initial_state: Optional[Dict[str, bool]] = None,
                 budget: Optional[Budget] = None,
                 tracer=None,
                 certify: bool = False,
                 proof_dir: Optional[str] = None) -> BMCResult:
    """One-shot bounded safety check (see
    :meth:`BoundedModelChecker.check_output`)."""
    checker = BoundedModelChecker(circuit, initial_state, tracer=tracer,
                                  certify=certify, proof_dir=proof_dir)
    return checker.check_output(output, bad_value, max_depth,
                                budget=budget)


def verify_trace(circuit: Circuit, result: BMCResult, output: str,
                 bad_value: bool = True,
                 initial_state: Optional[Dict[str, bool]] = None) -> bool:
    """Replay a counterexample trace through the simulator.

    Independent validation of the SAT-produced trace: returns True when
    simulation confirms *output* reaches *bad_value* at the reported
    depth.
    """
    from repro.circuits.simulate import simulate_sequence

    if result.failure_depth is None:
        return False
    state = {dff: False for dff in circuit.dffs}
    if initial_state:
        state.update(initial_state)
    frames = simulate_sequence(circuit, result.trace, state)
    final = frames[result.failure_depth]
    return final[output] == bad_value
