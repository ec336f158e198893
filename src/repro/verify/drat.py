"""Streaming DRUP/DRAT proof emission for the CDCL engine.

The paper's clause-recording property (Section 4.1) means an UNSAT run
*is* a proof: every learned clause is a resolution implicate, so
logging the clauses in derivation order -- plus the clauses the GC
deletes, so a checker's propagation stays bounded -- yields a standard
DRUP file any independent tool can validate.

The file sink is O(1) solver-side: each step is formatted and handed
to the sink immediately, and :class:`FileProofSink` appends it to a
file through a bounded buffer.  :class:`MemoryProofSink` keeps the
steps as events instead -- O(all-learned-clauses) in RAM, so for unit
tests, the fuzzer and small ablations only -- which
:func:`repro.verify.checker.check_proof_steps` validates directly;
:func:`solve_with_proof_stream` wires either sink to a fresh solver.

Attachment monkey-patches the solver instance (the engine is never
modified) and uses the engine's ``on_proof_delete`` hook for GC
deletion lines.  Literals are snapshotted at attach time
(``arena.lits_of``), so later compactions -- which renumber ids and
recycle buffer space -- can never corrupt an already-emitted step.

DRUP line format (checker-facing contract):

* ``l1 l2 ... 0``     -- the learned clause (an *add* step);
* ``d l1 l2 ... 0``   -- a deletion (the clause left the solver's DB);
* ``0``               -- the final empty clause, ending an UNSAT proof.
"""

from __future__ import annotations

import io
from typing import List, Optional, Sequence, Tuple

#: Flush threshold for :class:`FileProofSink`'s line buffer (bytes).
_FLUSH_BYTES = 1 << 16


class ProofSink:
    """Interface every proof sink implements.

    ``add``/``delete`` receive raw literal sequences in derivation
    order; ``conclude`` marks the proof complete (empty clause);
    ``close`` releases resources.  All counters are maintained here so
    subclasses only implement ``_emit``.
    """

    def __init__(self) -> None:
        self.adds = 0
        self.deletes = 0
        self.bytes_written = 0
        self.concluded = False
        self.closed = False

    def add(self, literals: Sequence[int]) -> None:
        """Record a learned clause (RUP consequence)."""
        self.adds += 1
        self._emit(self._format(literals, delete=False))

    def delete(self, literals: Sequence[int]) -> None:
        """Record a clause deletion (GC dropped it)."""
        self.deletes += 1
        self._emit(self._format(literals, delete=True))

    def conclude(self) -> None:
        """Record the empty clause: the proof now certifies UNSAT."""
        if not self.concluded:
            self.concluded = True
            self._emit("0\n")

    def close(self) -> None:
        self.closed = True

    @property
    def steps(self) -> int:
        """Total emitted steps (adds + deletes + conclusion)."""
        return self.adds + self.deletes + (1 if self.concluded else 0)

    def _format(self, literals: Sequence[int], delete: bool) -> str:
        body = " ".join(map(str, literals))
        if delete:
            return f"d {body} 0\n" if body else "d 0\n"
        return f"{body} 0\n" if body else "0\n"

    def _emit(self, line: str) -> None:
        raise NotImplementedError


class FileProofSink(ProofSink):
    """Append proof lines to *path* with O(1) memory.

    Lines are buffered up to ``_FLUSH_BYTES`` and written in batches;
    ``flush``/``close`` force everything to disk, so a checker reading
    the file after ``close`` sees the complete stream.
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

    def __enter__(self) -> "FileProofSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemoryProofSink(ProofSink):
    """Keep the proof in memory -- unit tests and the fuzzer only.

    ``events`` holds ``("a"|"d", (lits...))`` tuples in emission order
    (what :func:`repro.verify.checker.check_proof_steps` consumes);
    ``lines()`` renders the equivalent file body.
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

    def conclude(self) -> None:
        if not self.concluded:
            self.events.append(("a", ()))
        super().conclude()

    def _emit(self, line: str) -> None:
        self.bytes_written += len(line)

    def lines(self) -> str:
        """The proof rendered as DRUP file text."""
        out = io.StringIO()
        for kind, lits in self.events:
            body = " ".join(map(str, lits))
            if kind == "d":
                out.write(f"d {body} 0\n" if body else "d 0\n")
            else:
                out.write(f"{body} 0\n" if body else "0\n")
        return out.getvalue()


def attach_proof_stream(solver, sink: ProofSink) -> ProofSink:
    """Stream *solver*'s derivation into *sink* (returns the sink).

    Instruments a :class:`~repro.solvers.cdcl.CDCLSolver` without
    modifying it: learned clauses via ``_attach`` (literals snapshotted
    from the arena at attach time), unit implicates via the
    pending-unit diff around ``_handle_conflict``, GC deletions via the
    engine's ``on_proof_delete`` hook, and the concluding empty clause
    when ``_search`` returns UNSATISFIABLE with no assumptions (an
    assumption-relative UNSAT is not a proof of the formula).  The
    engine's ``on_proof_add`` hook is pointed at ``sink.add`` so the
    inprocessing engine can log strengthened *original* clauses and
    derived units (its learned-clause rewrites already flow through
    the instrumented ``_attach``).
    """
    original_attach = solver._attach
    original_handle = solver._handle_conflict
    original_search = solver._search

    def streaming_attach(cid, learned):
        if learned:
            sink.add(solver.arena.lits_of(cid))
        original_attach(cid, learned)

    def streaming_handle(conflict):
        before = len(solver._pending_units)
        original_handle(conflict)
        for lit in solver._pending_units[before:]:
            sink.add((lit,))

    def streaming_search(assumptions):
        from repro.solvers.result import Status
        status = original_search(assumptions)
        if status is Status.UNSATISFIABLE and not assumptions:
            sink.conclude()
        return status

    def streaming_delete(clauses):
        for lits in clauses:
            sink.delete(lits)

    solver._attach = streaming_attach
    solver._handle_conflict = streaming_handle
    solver._search = streaming_search
    solver.on_proof_delete = streaming_delete
    solver.on_proof_add = sink.add
    return sink


def solve_with_proof_stream(formula, sink: Optional[ProofSink] = None,
                            proof_path: Optional[str] = None,
                            **cdcl_kwargs):
    """Solve *formula* streaming its proof; returns ``(result, sink)``.

    Exactly one of *sink* / *proof_path* selects the destination
    (default: an in-memory sink).  The sink is closed before return,
    so a file proof is immediately checkable.
    """
    from repro.solvers.cdcl import CDCLSolver

    if sink is not None and proof_path is not None:
        raise ValueError("pass either sink or proof_path, not both")
    if sink is None:
        sink = (FileProofSink(proof_path) if proof_path is not None
                else MemoryProofSink())
    solver = CDCLSolver(formula, **cdcl_kwargs)
    attach_proof_stream(solver, sink)
    try:
        result = solver.solve()
    finally:
        sink.close()
    return result, sink
