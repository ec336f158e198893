"""Certificates: answers the system can defend.

A :class:`Certificate` travels on ``SolverResult.certificate`` and
records *why* an answer should be believed:

* ``kind="model"`` -- SAT, with the model re-evaluated against the
  original formula (the same audit the portfolio supervisor applies
  to worker payloads);
* ``kind="proof"`` -- UNSAT, with a streamed DRUP proof that the
  independent checker (:mod:`repro.verify.checker`) validated;
* ``kind="none"`` -- UNKNOWN, with ``reason`` saying what is missing.

:func:`certify_result` is the one certification rule: it checks the
evidence of one solver result and **demotes** an answer whose evidence
fails to UNKNOWN -- a certified pipeline never reports an answer it
cannot defend.  Every certified entry point routes its results through
it: :func:`certified_solve` (and the apps built on it), the portfolio's
sequential scan and supervised race, and the solve server.  Each proof
check emits a ``verify.check`` trace event (steps, bytes, check time,
checker propagations, verdict) consumed by the ``repro profile``
certification section.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.verify.checker import CheckOutcome, check_proof_file
from repro.verify.drat import FileProofSink

#: Certificate kinds.
MODEL = "model"
PROOF = "proof"
NONE = "none"


@dataclass
class Certificate:
    """Evidence attached to a solver answer (see module docstring)."""

    kind: str
    #: Checker / audit verdict; None when nothing was checked.
    valid: Optional[bool] = None
    proof_path: Optional[str] = None
    #: Proof steps the checker processed (adds + deletes).
    steps: int = 0
    deletions: int = 0
    bytes_written: int = 0
    check_seconds: float = 0.0
    #: Literals the checker's RUP checks assigned (its work, apart
    #: from its speed).
    propagations: int = 0
    #: Why there is no usable certificate (kind="none"), or the
    #: checker diagnostic for an invalid proof.
    reason: Optional[str] = None
    #: An incremental stream's targets the checker accepted, in order
    #: (each refutes one query's assumptions).
    targets: List[Tuple[int, ...]] = field(default_factory=list)

    def summary(self) -> str:
        """One human line for CLI output."""
        if self.kind == MODEL:
            return ("model verified against the formula"
                    if self.valid else
                    f"model INVALID: {self.reason or 'audit failed'}")
        if self.kind == PROOF:
            if self.valid:
                where = f" ({self.proof_path})" if self.proof_path else ""
                return (f"proof verified: {self.steps} steps, "
                        f"{self.bytes_written} bytes, "
                        f"{self.check_seconds:.3f}s check{where}")
            return f"proof INVALID: {self.reason or 'check failed'}"
        return f"no certificate: {self.reason or 'unknown result'}"


def _emit_check_event(tracer, outcome: CheckOutcome, bytes_written: int,
                      seconds: float) -> None:
    if tracer is not None:
        tracer.event("verify.check",
                     steps=outcome.steps_checked,
                     bytes=bytes_written,
                     check_seconds=round(seconds, 6),
                     propagations=outcome.propagations,
                     valid=int(outcome.valid))


def check_unsat_proof(formula, proof_path: str, tracer=None,
                      preloaded: Optional[int] = None) -> Certificate:
    """Run the independent checker over *proof_path* and wrap the
    verdict in a :class:`Certificate` (emitting ``verify.check``).

    With *preloaded* set the file is an incremental stream whose
    solver was built on that many of *formula*'s clauses
    (:func:`repro.verify.checker.check_proof_steps`): it need not
    conclude, and the certificate lists the targets it proved.
    """
    try:
        size = os.path.getsize(proof_path)
    except OSError:
        size = 0
    started = time.perf_counter()
    if preloaded is None:
        outcome = check_proof_file(formula, proof_path)
    else:
        outcome = check_proof_file(formula, proof_path,
                                   require_empty=False,
                                   preloaded=preloaded)
    elapsed = time.perf_counter() - started
    _emit_check_event(tracer, outcome, size, elapsed)
    return Certificate(PROOF, valid=outcome.valid, proof_path=proof_path,
                       steps=outcome.steps_checked,
                       deletions=outcome.deletes,
                       bytes_written=size,
                       check_seconds=elapsed,
                       propagations=outcome.propagations,
                       reason=outcome.error,
                       targets=outcome.targets)


def model_certificate(formula, assignment) -> Certificate:
    """Audit a SAT model against the original formula."""
    ok = formula.is_satisfied_by(assignment)
    return Certificate(MODEL, valid=ok,
                       reason=None if ok else
                       "claimed model does not satisfy the formula")


def certify_result(formula, result, proof_path: Optional[str],
                   tracer=None):
    """Attach evidence to *result* (about the original *formula*), or
    demote it -- the one rule every certified entry point shares:

    * UNSAT must pass the independent checker over *proof_path*;
    * a SAT model must pass the audit against *formula*;
    * UNKNOWN gets a ``none`` certificate stating its reason, unless
      it already carries one (a demoted answer's), so the rule is
      idempotent;
    * failed evidence returns a new UNKNOWN result with the same
      stats, carrying the certificate with ``valid=False``.

    Otherwise returns *result* itself.  The proof file is left alone.
    """
    from repro.solvers.result import SolverResult, Status

    if result.status is Status.UNSATISFIABLE:
        certificate = check_unsat_proof(formula, proof_path or "", tracer)
    elif result.status is Status.SATISFIABLE:
        certificate = model_certificate(formula, result.assignment)
    else:
        if result.certificate is None:
            result.certificate = Certificate(
                NONE, reason="solver returned UNKNOWN (budget exhausted)")
        return result
    if not certificate.valid:
        # Demotion, never a flip: an answer whose evidence fails the
        # check is not an answer, it is a bug report.
        return SolverResult(Status.UNKNOWN, None, result.stats,
                            certificate=certificate)
    result.certificate = certificate
    return result


def certified_solve(formula, proof_path: Optional[str] = None,
                    tracer=None, sink_factory=FileProofSink,
                    prefix=None,
                    **cdcl_kwargs):
    """Solve *formula* with end-to-end certification.

    Streams a DRUP proof while solving and passes the result through
    :func:`certify_result`, so the returned
    :class:`~repro.solvers.result.SolverResult` always carries a
    ``certificate``: an UNSAT proof the checker validated, an audited
    SAT model, or a ``none`` certificate on UNKNOWN -- and an answer
    whose evidence fails is *demoted* to UNKNOWN with the diagnostic
    in ``certificate.reason``.  An UNSAT run's proof file stays at
    *proof_path* when one was given (an invalid one too, for
    post-mortem); a temporary file is cleaned up, and a non-UNSAT
    run's partial proof never survives its sink's ``close``.

    ``prefix(sink)``, when given, writes the lines deriving a reduced
    formula from *formula* into the sink and returns an object whose
    ``formula`` is that reduction (``None`` when it refuted *formula*
    and concluded the sink) and whose ``lift(assignment)`` completes
    a model of it into one of *formula*.  The search solves the
    reduction, and the one stream still verifies against *formula*
    (:func:`repro.cnf.simplify.simplify_with_proof`,
    :meth:`repro.circuits.strash.HashedEncoding.prove`).

    ``sink_factory`` exists for fault injection: tests substitute a
    sink that corrupts the stream to pin the demotion path.
    """
    from repro.solvers.cdcl import CDCLSolver
    from repro.solvers.result import SolverResult, SolverStats, Status

    if cdcl_kwargs.get("learning") is False:
        raise ValueError("certified_solve requires clause learning: "
                         "without recorded clauses there is no proof")
    ephemeral = proof_path is None
    if ephemeral:
        handle, proof_path = tempfile.mkstemp(suffix=".drup",
                                              prefix="repro-proof-")
        os.close(handle)
    sink = sink_factory(proof_path)
    reduced = prefix(sink) if prefix is not None else None
    target = formula if reduced is None else reduced.formula
    if target is None:
        # The prefix refuted the formula; the sink already holds the
        # concluding empty clause.
        sink.close()
        result = SolverResult(Status.UNSATISFIABLE, None, SolverStats())
    else:
        solver = CDCLSolver(target, **cdcl_kwargs)
        solver.tracer = tracer
        solver.proof = sink
        try:
            result = solver.solve()
        finally:
            sink.close()
        if result.status is Status.SATISFIABLE and reduced is not None:
            reduced.lift(result.assignment)

    result = certify_result(formula, result, proof_path, tracer)
    if ephemeral:
        try:
            os.remove(proof_path)
        except OSError:
            pass
        result.certificate.proof_path = None
    return result
