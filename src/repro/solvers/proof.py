"""UNSAT proof logging and checking (reverse unit propagation).

The techniques the paper surveys all rest on clause recording: every
learned clause is an implicate derived by resolution.  Logging those
clauses in derivation order yields a DRUP-style proof of UNSAT results
that an *independent* checker can validate:

* a clause C is a **RUP consequence** of a clause set F when unit
  propagation on F plus the unit negations of C's literals derives a
  conflict;
* every clause a CDCL solver learns is a RUP consequence of the
  original clauses plus the previously learned ones;
* the proof ends with the empty clause (RUP conflict from the
  accumulated set alone), certifying unsatisfiability.

:func:`attach_proof_logger` instruments a :class:`CDCLSolver` without
modifying it (the same hook philosophy as the Section 5 layer);
:func:`check_rup_proof` validates the transcript -- the test suite runs
it against every UNSAT answer -- by handing it to the independent
checker in :mod:`repro.verify.checker`, the library's one RUP engine.

.. note::
   The in-memory :class:`Proof` transcript is O(all-learned-clauses)
   in RAM and exists for unit tests and small ablations.  Long or
   production runs should stream instead: :mod:`repro.verify.drat`
   appends add/delete lines to a file with O(1) solver-side memory,
   and :mod:`repro.verify.checker` validates the result with fully
   independent propagation.  Since PR 5 this logger is itself a thin
   adapter over that streaming layer (one instrumentation path, two
   sinks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.cnf.clause import Clause
from repro.cnf.formula import CNFFormula


@dataclass
class Proof:
    """A derivation-ordered list of learned clauses.

    ``complete`` is set when the solve ended UNSATISFIABLE, in which
    case the empty clause must be a RUP consequence of
    ``formula + steps``.
    """

    steps: List[Clause] = field(default_factory=list)
    complete: bool = False

    def __len__(self) -> int:
        return len(self.steps)


class _TranscriptSink:
    """Adapter sink: folds the streaming hooks into a :class:`Proof`.

    ``delete`` is a deliberate no-op -- the in-memory transcript keeps
    every derived clause even after the solver's GC drops it, because
    the transcript's contract is *derivation order*, not database
    state (and :func:`check_rup_proof` never deletes).
    """

    def __init__(self, proof: Proof) -> None:
        self.proof = proof

    def add(self, literals: Sequence[int]) -> None:
        self.proof.steps.append(Clause(literals))

    def delete(self, literals: Sequence[int]) -> None:
        pass

    def conclude(self) -> None:
        self.proof.complete = True

    def close(self) -> None:
        pass


def attach_proof_logger(solver) -> Proof:
    """Instrument *solver* (a CDCLSolver) to log learned clauses.

    Since PR 5 this delegates to
    :func:`repro.verify.drat.attach_proof_stream` with an in-memory
    transcript sink: one instrumentation path feeds both this
    unit-test transcript and the O(1)-memory streaming file sinks.
    Returns the live :class:`Proof`.

    Clauses are integer ids into the solver's flat
    :class:`~repro.solvers.clause_arena.ClauseArena`; the stream
    snapshots the literals at attach time (``arena.lits_of``), so
    later GC compactions -- which renumber ids and recycle buffer
    space -- can never corrupt an already-logged step.
    """
    from repro.verify.drat import attach_proof_stream

    proof = Proof()
    attach_proof_stream(solver, _TranscriptSink(proof))
    return proof


@dataclass
class ProofCheckResult:
    """Outcome of validating a proof."""

    valid: bool
    failed_step: Optional[int] = None     # index of the bad step
    steps_checked: int = 0


def check_rup_proof(formula: CNFFormula, proof: Proof
                    ) -> ProofCheckResult:
    """Validate *proof* against *formula* by reverse unit propagation.

    Checks every step in order and, for a complete proof, that the
    accumulated clause set propagates to conflict outright.  The work
    is done by the independent checker
    (:func:`repro.verify.checker.check_proof_steps`): each step is an
    add event, followed by the empty clause when ``proof.complete``.
    """
    # Local import: repro.verify's package init pulls in the solver
    # stack, which imports this module.
    from repro.verify.checker import check_proof_steps

    events = [("a", tuple(step)) for step in proof.steps]
    if proof.complete:
        events.append(("a", ()))
    outcome = check_proof_steps(formula, events,
                                require_empty=proof.complete)
    if not outcome.valid:
        return ProofCheckResult(False, failed_step=outcome.line - 1,
                                steps_checked=outcome.steps_checked)
    return ProofCheckResult(True, steps_checked=len(proof.steps))


def solve_with_proof(formula: CNFFormula, **cdcl_kwargs):
    """Solve and return ``(result, proof)`` with logging attached."""
    from repro.solvers.cdcl import CDCLSolver

    solver = CDCLSolver(formula, **cdcl_kwargs)
    proof = attach_proof_logger(solver)
    result = solver.solve()
    return result, proof
