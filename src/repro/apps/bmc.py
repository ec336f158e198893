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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.circuits.netlist import Circuit
from repro.circuits.tseitin import encode_nodes, input_trace
from repro.runtime.budget import Budget
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.result import SolverStats


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
    #: depth, in depth order (unreachability proofs for UNSAT frames,
    #: an audited model for the failing frame).
    certificates: List = field(default_factory=list)
    #: A certified depth produced an UNSAT whose proof failed the
    #: independent check; the sweep stopped there and that depth does
    #: NOT count as proved (the diagnostic is in the last certificate).
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
        certify every depth: each frame's query runs as a fresh
        certified solve over the persistent solver's formula, the
        accumulated unrolling (its learned-clause reuse cannot be kept
        -- a depth-t proof must derive from depth-t clauses alone), an
        UNSAT depth only counts as proved once its DRUP proof passes
        the independent checker, and the failing frame's model is
        audited.  A failed check stops the sweep with
        ``discrepant=True``.
    proof_dir:
        where per-depth proof files (``depth{t}.drup``) are kept;
        ``None`` uses cleaned-up temporaries.
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
        #: var_of[frame][node]
        self.frames: List[Dict[str, int]] = []

    def _add_frame(self) -> Dict[str, int]:
        """Encode one more time frame and link the DFFs."""
        var_of = encode_nodes(
            self.circuit, lambda name: self.solver.new_var(),
            self.solver.add_clause,
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
        persists across depths.  ``budget`` spans the whole sweep --
        each depth gets the remaining envelope -- and exhaustion stops
        the sweep with ``budget_exhausted=True`` and the depths proved
        so far, instead of raising.  A depth the solver could not
        decide is never counted as proved.
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
        tracer = self.tracer
        meter = budget.meter() if budget is not None else None
        result = BMCResult(None)
        for depth in range(max_depth + 1):
            if meter is not None and meter.expired():
                result.budget_exhausted = True
                return result
            while len(self.frames) <= depth:
                self._add_frame()
            var = self.frames[depth][output]
            assumption = var if bad_value else -var
            call_budget = (meter.remaining_budget()
                           if meter is not None else None)
            if self.certify:
                call = self._certified_depth(depth, assumption,
                                             call_budget)
                result.certificates.append(call.certificate)
            else:
                self.solver.budget = call_budget
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
                result.failure_depth = depth
                result.trace = input_trace(call.assignment,
                                           self.frames[:depth + 1],
                                           self.circuit.inputs)
                return result
            if not call.is_unsat:
                certificate = call.certificate
                if (certificate is not None
                        and certificate.valid is False):
                    # A depth whose proof failed the check: stop, and
                    # never count this (or deeper) frames as proved.
                    result.discrepant = True
                    return result
                # UNKNOWN: this depth is undecided, not proved.
                result.budget_exhausted = True
                return result
            result.depths_proved = depth + 1
        return result

    def _certified_depth(self, depth: int, assumption: int,
                         budget: Optional[Budget]):
        """One depth as a standalone certified solve.

        The accumulated unrolling (the persistent solver's formula)
        plus the depth's property literal is re-posed as a fresh
        formula, so the streamed DRUP proof derives from exactly the
        clauses it certifies -- the persistent solver's cross-call
        learned clauses would poison the derivation.  UNSAT means
        *this* depth is unreachable; the proof file
        (``depth{t}.drup``) certifies it independently.
        """
        import os

        from repro.verify.certificate import certified_solve

        formula = self.solver.formula.copy()
        formula.add_clause([assumption])
        proof_path = None
        if self.proof_dir is not None:
            os.makedirs(self.proof_dir, exist_ok=True)
            proof_path = os.path.join(self.proof_dir,
                                      f"depth{depth}.drup")
        return certified_solve(formula, proof_path=proof_path,
                               tracer=self.tracer, budget=budget)


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
