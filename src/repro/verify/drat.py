"""DRUP proof sinks: where the CDCL engine writes its derivation.

The paper's clause-recording property (Section 4.1) means an UNSAT run
*is* a proof: every learned clause is a resolution implicate, so
logging the clauses in derivation order -- plus the clauses the GC
deletes, so a checker's propagation stays bounded -- yields a standard
DRUP file any independent tool can validate.

The engine writes the stream itself: a
:class:`~repro.solvers.cdcl.CDCLSolver` whose ``proof`` attribute holds
a :class:`ProofSink` adds every clause it learns, imports or rewrites
and every unit implicate, deletes every clause it collects, and
concludes with the empty clause when a solve without assumptions ends
UNSAT.  Used incrementally (paper Section 6), the same solver also
writes every clause later given to ``add_clause`` as an *input* step
and, when a solve under assumptions ends UNSAT, the negated
assumptions as a *target* step: one stream covers every call, in the
manner of IDRUP (Fazekas, Pollitt, Fleury and Biere, "Certifying
Incremental SAT Solving", LPAR 2024).  Each step is handed over as the
literals stand at that moment, so later compactions -- which renumber
ids and recycle buffer space -- can never corrupt an already-emitted
step.

:class:`FileProofSink` appends the steps to a file through a bounded
buffer (O(1) solver-side memory), and keeps the file only when it
proves something -- the proof concluded, or a target was written: a
derivation that reached neither certifies nothing.
:class:`MemoryProofSink` keeps the steps as events instead --
O(all-learned-clauses) in RAM, so for unit tests, the fuzzer and small
ablations only -- which :func:`repro.verify.checker.check_proof_steps`
validates directly; :func:`solve_with_proof_stream` gives either sink
to a fresh solver.

DRUP line format (checker-facing contract):

* ``l1 l2 ... 0``     -- the learned clause (an *add* step);
* ``d l1 l2 ... 0``   -- a deletion (the clause left the solver's DB);
* ``i l1 l2 ... 0``   -- an *input* step: a clause the caller added
  after the solver was built (IDRUP's input line).  The checker takes
  it only if it is the app's formula's next clause;
* ``u l1 l2 ... 0``   -- a *target* step: the clause refuting one
  query's assumptions, RUP at that point (IDRUP's unsat-core line);
* ``0``               -- the final empty clause, ending an UNSAT proof.

A one-shot solve writes neither ``i`` nor ``u`` lines.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

#: Flush threshold for :class:`FileProofSink`'s line buffer (bytes).
_FLUSH_BYTES = 1 << 16


class ProofSink:
    """Interface every proof sink implements.

    ``add``/``delete``/``input``/``target`` receive raw literal
    sequences in derivation order; ``conclude`` marks the proof
    complete (empty clause); ``close`` releases resources.  All
    counters are maintained here so subclasses only implement
    ``_emit``.
    """

    def __init__(self) -> None:
        self.adds = 0
        self.deletes = 0
        self.inputs = 0
        self.targets = 0
        self.bytes_written = 0
        self.concluded = False
        self.closed = False

    def add(self, literals: Sequence[int]) -> None:
        """Record a learned clause (RUP consequence)."""
        self.adds += 1
        self._emit(_line("", literals))

    def delete(self, literals: Sequence[int]) -> None:
        """Record a clause deletion (GC dropped it)."""
        self.deletes += 1
        self._emit(_line("d ", literals))

    def input(self, literals: Sequence[int]) -> None:
        """Record a clause the caller added between solve calls."""
        self.inputs += 1
        self._emit(_line("i ", literals))

    def target(self, literals: Sequence[int]) -> None:
        """Record the clause refuting a query's assumptions."""
        self.targets += 1
        self._emit(_line("u ", literals))

    def conclude(self) -> None:
        """Record the empty clause: the proof now certifies UNSAT."""
        if not self.concluded:
            self.concluded = True
            self._emit("0\n")

    def close(self) -> None:
        self.closed = True

    @property
    def steps(self) -> int:
        """Total emitted steps (every line, the conclusion included)."""
        return (self.adds + self.deletes + self.inputs + self.targets
                + (1 if self.concluded else 0))

    def _emit(self, line: str) -> None:
        raise NotImplementedError


#: Line prefix of each step kind (``MemoryProofSink.events`` keys).
_PREFIX = {"a": "", "d": "d ", "i": "i ", "u": "u "}


def _line(prefix: str, literals: Sequence[int]) -> str:
    """One proof line: *prefix*, the literals, the terminating 0."""
    body = " ".join(map(str, literals))
    return f"{prefix}{body} 0\n" if body else f"{prefix}0\n"


class FileProofSink(ProofSink):
    """Append proof lines to *path* with O(1) memory.

    Lines are buffered up to ``_FLUSH_BYTES`` and written in batches;
    ``flush``/``close`` force everything to disk, so a checker reading
    the file after ``close`` sees the complete stream.  ``close`` is
    also where the one rule for partial proofs lives: the file
    survives only a run that proved something -- it concluded (UNSAT)
    or wrote a target (a query refuted under assumptions) -- and is
    removed otherwise.
    """

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = path
        self._file = open(path, "w", encoding="ascii")
        self._buffer: List[str] = []
        self._buffered = 0

    def _emit(self, line: str) -> None:
        self.bytes_written += len(line)
        self._buffer.append(line)
        self._buffered += len(line)
        if self._buffered >= _FLUSH_BYTES:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            self._file.write("".join(self._buffer))
            self._buffer.clear()
            self._buffered = 0
        self._file.flush()

    def close(self) -> None:
        if not self.closed:
            self.flush()
            self._file.close()
            super().close()
            if not (self.concluded or self.targets):
                try:
                    os.remove(self.path)
                except OSError:
                    pass

    def __enter__(self) -> "FileProofSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemoryProofSink(ProofSink):
    """Keep the proof in memory -- unit tests and the fuzzer only.

    ``events`` holds ``("a"|"d"|"i"|"u", (lits...))`` tuples in
    emission order (what :func:`repro.verify.checker.check_proof_steps`
    consumes); ``lines()`` renders the equivalent file body.
    """

    def __init__(self) -> None:
        super().__init__()
        self.events: List[Tuple[str, Tuple[int, ...]]] = []

    def add(self, literals: Sequence[int]) -> None:
        self.events.append(("a", tuple(literals)))
        super().add(literals)

    def delete(self, literals: Sequence[int]) -> None:
        self.events.append(("d", tuple(literals)))
        super().delete(literals)

    def input(self, literals: Sequence[int]) -> None:
        self.events.append(("i", tuple(literals)))
        super().input(literals)

    def target(self, literals: Sequence[int]) -> None:
        self.events.append(("u", tuple(literals)))
        super().target(literals)

    def conclude(self) -> None:
        if not self.concluded:
            self.events.append(("a", ()))
        super().conclude()

    def _emit(self, line: str) -> None:
        self.bytes_written += len(line)

    def lines(self) -> str:
        """The proof rendered as DRUP file text."""
        return "".join(_line(_PREFIX[kind], lits)
                       for kind, lits in self.events)


def solve_with_proof_stream(formula, sink: Optional[ProofSink] = None,
                            proof_path: Optional[str] = None,
                            **cdcl_kwargs):
    """Solve *formula* streaming its proof; returns ``(result, sink)``.

    Exactly one of *sink* / *proof_path* selects the destination
    (default: an in-memory sink).  The sink is closed before return,
    so a file proof is immediately checkable -- and, like every
    :class:`FileProofSink`, kept only when the run was UNSAT.
    """
    from repro.solvers.cdcl import CDCLSolver

    if sink is not None and proof_path is not None:
        raise ValueError("pass either sink or proof_path, not both")
    if sink is None:
        sink = (FileProofSink(proof_path) if proof_path is not None
                else MemoryProofSink())
    solver = CDCLSolver(formula, **cdcl_kwargs)
    solver.proof = sink
    try:
        result = solver.solve()
    finally:
        sink.close()
    return result, sink
