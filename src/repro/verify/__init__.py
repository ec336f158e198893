"""Result certification: streamed UNSAT proofs, an independent
checker, certificates, and a differential fuzzer.

An answer from a SAT engine is only as trustworthy as the engine; this
package makes answers *checkable* instead:

* :mod:`repro.verify.drat` streams DRUP proof lines (clause additions,
  GC deletions, the final empty clause) to a file with O(1)
  solver-side memory;
* :mod:`repro.verify.checker` validates such a proof by forward RUP
  checking with its own unit propagation -- it shares no code with the
  solvers it audits;
* :mod:`repro.verify.certificate` packages the outcome
  (SAT model / UNSAT proof / UNKNOWN reason) as a
  :class:`Certificate`, and its :func:`certify_result` is the one
  demotion contract every certified entry point shares
  (``certified_solve`` and the apps on it, the portfolio's scan and
  race, the solve server): an answer whose evidence fails the check
  is reported UNKNOWN, never believed;
* :mod:`repro.verify.fuzz` hunts for wrong answers: differential
  fuzzing across CDCL / DPLL / recursive-learning with delta-debugged
  minimal reproducers.
"""

from repro.verify.certificate import (
    Certificate,
    certified_solve,
    certify_result,
    check_unsat_proof,
    model_certificate,
)
from repro.verify.checker import (
    CheckOutcome,
    check_proof_file,
    check_proof_lines,
    check_proof_steps,
)
from repro.verify.drat import (
    FileProofSink,
    MemoryProofSink,
    ProofSink,
    attach_proof_stream,
    solve_with_proof_stream,
)
from repro.verify.fuzz import (
    Discrepancy,
    FuzzReport,
    run_fuzz,
    shrink_formula,
)

__all__ = [
    "Certificate",
    "certified_solve",
    "certify_result",
    "check_unsat_proof",
    "model_certificate",
    "CheckOutcome",
    "check_proof_file",
    "check_proof_lines",
    "check_proof_steps",
    "ProofSink",
    "FileProofSink",
    "MemoryProofSink",
    "attach_proof_stream",
    "solve_with_proof_stream",
    "Discrepancy",
    "FuzzReport",
    "run_fuzz",
    "shrink_formula",
]
