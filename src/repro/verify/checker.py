"""Independent forward DRUP proof checker.

This module validates the proofs :mod:`repro.verify.drat` emits -- and
it deliberately shares **no code** with the solver stack.  It imports
nothing from ``repro.solvers``: it has its own truth-value array, its
own trail, its own two-watched-literal propagation, its own clause
store.  A checker that reused the solver's BCP would faithfully
reproduce the solver's bugs and certify nothing (see DESIGN.md,
"Certified results").  The *formula* argument is duck-typed: anything
with ``num_vars`` that iterates to literal sequences works.

Checking is forward DRUP:

* an **add** line ``l1 .. lk 0`` is valid iff asserting the negation
  of every literal and unit-propagating over the current clause
  database yields a conflict (the clause is a RUP consequence);
* a **delete** line ``d l1 .. lk 0`` removes one clause with that
  literal set from the database (clauses are matched as sets -- the
  emitter's watched-literal normalization permutes stored order);
* the proof certifies UNSAT when the **empty clause** (a line ``0``)
  is reached, i.e. the database propagates to conflict outright.

An incremental solver's stream (paper Section 6; the IDRUP lines of
:mod:`repro.verify.drat`) adds two kinds:

* an **input** line ``i l1 .. lk 0`` enters a clause the caller added
  between solve calls.  The checker never takes the solver's word for
  it: the line must equal (as a set) the next clause of the app's own
  formula, which the checker reads in order from the clause
  *preloaded* on; the database starts with the clauses before it;
* a **target** line ``u l1 .. lk 0`` is the clause refuting one
  query's assumptions.  It must be RUP against the database at that
  point -- an input added later cannot help it -- and is reported in
  ``CheckOutcome.targets``, in order, for the app to compare with the
  queries it asked.  A target does not enter the database.

Every rejection carries a ``line N:``-prefixed diagnostic so a
corrupted or truncated file is pinpointed, not just refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass
class CheckOutcome:
    """Result of checking one proof against one formula."""

    valid: bool
    steps_checked: int = 0
    adds: int = 0
    deletes: int = 0
    inputs: int = 0
    #: The target clauses that passed their RUP check, in order.
    targets: List[Tuple[int, ...]] = field(default_factory=list)
    #: True when the empty clause was reached (UNSAT certified).
    concluded: bool = False
    #: ``line N:``-prefixed diagnostic when invalid.
    error: Optional[str] = None
    #: 1-based proof line (or step index) of the failure.
    line: Optional[int] = None
    #: Literals assigned by the RUP checks (assumptions included):
    #: the checker's work, independent of how fast it ran.
    propagations: int = 0

    def __bool__(self) -> bool:
        return self.valid


class _ParseError(Exception):
    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def _codes(literals: Iterable[int]) -> List[int]:
    """The distinct literal codes of *literals*, first-seen order."""
    return list(dict.fromkeys(lit + lit if lit > 0 else 1 - lit - lit
                              for lit in literals))


def _key(literals: Iterable[int]) -> Tuple[int, ...]:
    """*literals* as a set: its sorted distinct codes."""
    return tuple(sorted(_codes(literals)))


class _Propagation:
    """Self-contained two-watched-literal unit propagation.

    Literals are stored as non-negative *codes* -- ``2v`` for ``v``,
    ``2v + 1`` for ``-v``, so ``code ^ 1`` is the complement -- and
    every table is a flat list indexed by code:

    * ``_val[code]`` is the literal's truth value (1 true, -1 false,
      0 unassigned), kept for both polarities, so a truth test is one
      list read with no call and no sign arithmetic;
    * ``_bins[code]`` holds ``(other, clause)`` pairs for the binary
      clauses containing the literal: when it becomes false, *other*
      is implied.  They are visited before the long-clause watches;
    * ``_watch[code]`` lists the clauses of three or more literals
      watching it (slots 0 and 1), compacted in place as they are
      visited.

    Code 0 is a permanently false sentinel.  A deleted clause is
    overwritten with ``[0, 0]`` and dropped from a watch or
    implication list the next time propagation meets it (lazy
    sweeping): only the conflict and implication branches, never the
    common satisfied-watch path, test for it.  Root-level assignments
    are persistent (they only grow); RUP checks push assumptions on
    the trail and undo back to the saved mark.
    """

    __slots__ = ("_val", "_trail", "_qhead", "_watch", "_bins",
                 "_by_key", "root_conflict", "num_vars", "propagations")

    def __init__(self, num_vars: int) -> None:
        self.num_vars = 0
        self._val: List[int] = [-1, 0]
        self._trail: List[int] = []
        self._qhead = 0
        self._watch: List[List[List[int]]] = [[], []]
        self._bins: List[List[Tuple[int, List[int]]]] = [[], []]
        #: sorted-code key -> live clauses (deletion matching).
        self._by_key: Dict[Tuple[int, ...], List[List[int]]] = {}
        self.root_conflict = False
        #: Literals assigned by RUP checks (assumptions included).
        self.propagations = 0
        self.grow(num_vars)

    def grow(self, var: int) -> None:
        """Extend every table to cover variables up to *var* (clause
        insertion and RUP checks grow on demand)."""
        if var > self.num_vars:
            extra = 2 * (var - self.num_vars)
            self._val.extend([0] * extra)
            self._watch.extend([] for _ in range(extra))
            self._bins.extend([] for _ in range(extra))
            self.num_vars = var

    # -- clause database ------------------------------------------

    def add_clause(self, literals: Sequence[int]) -> None:
        """Insert a clause and restore the root propagation fixpoint.

        Callers must have RUP-checked the clause first when that
        matters; insertion itself never fails.  Tautologies are stored
        (so they stay deletable) but never watched -- they cannot
        propagate.  An empty or root-falsified clause sets
        ``root_conflict``.
        """
        clause = _codes(literals)
        self._by_key.setdefault(tuple(sorted(clause)), []).append(clause)
        if not clause:
            self.root_conflict = True
            return
        self.grow(max(clause) >> 1)
        codes = set(clause)
        if any(code ^ 1 in codes for code in clause):
            return                      # tautology: inert
        val = self._val
        free = [code for code in clause if val[code] >= 0]
        if not free:
            self.root_conflict = True
            return
        if any(val[code] > 0 for code in free):
            # Satisfied by a persistent root assignment: it can never
            # propagate anything new, so it needs no watches.
            return
        if len(free) == 1:
            unit = free[0]
            val[unit] = 1
            val[unit ^ 1] = -1
            self._trail.append(unit)
            if self.propagate():
                self.root_conflict = True
            return
        if len(clause) == 2:
            first, second = clause
            self._bins[first].append((second, clause))
            self._bins[second].append((first, clause))
            return
        # Watch two non-false literals (slots 0 and 1).
        j = clause.index(free[0])
        clause[0], clause[j] = clause[j], clause[0]
        k = clause.index(free[1], 1)
        clause[1], clause[k] = clause[k], clause[1]
        self._watch[clause[0]].append(clause)
        self._watch[clause[1]].append(clause)

    def delete_clause(self, literals: Sequence[int]) -> bool:
        """Remove one clause matching *literals* as a set; False when
        no live clause matches (watch entries die lazily)."""
        bucket = self._by_key.get(_key(literals))
        if not bucket:
            return False
        bucket.pop()[:] = (0, 0)         # tombstone: swept lazily
        return True

    # -- propagation ----------------------------------------------

    def propagate(self) -> bool:
        """Unit propagation to fixpoint; True on a conflict."""
        val = self._val
        trail = self._trail
        watch = self._watch
        bins = self._bins
        qhead = self._qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1

            implied = bins[false_lit]
            dead = 0
            for other, clause in implied:
                value = val[other]
                if value > 0:
                    continue
                if not clause[0]:       # deleted: sweep below
                    dead += 1
                    continue
                if value:
                    self._qhead = qhead
                    return True
                val[other] = 1
                val[other ^ 1] = -1
                trail.append(other)
            if dead:
                bins[false_lit] = [pair for pair in implied if pair[1][0]]

            watchers = watch[false_lit]
            read = write = 0
            end = len(watchers)
            while read < end:
                clause = watchers[read]
                read += 1
                # Normalize: the false watch sits in slot 1.
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                fval = val[first]
                if fval > 0:
                    watchers[write] = clause
                    write += 1
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if val[lit] >= 0:
                        clause[1] = lit
                        clause[k] = false_lit
                        watch[lit].append(clause)
                        break
                else:
                    if fval:
                        if not first:   # deleted: drop the watch
                            continue
                        del watchers[write:read - 1]
                        self._qhead = qhead
                        return True
                    watchers[write] = clause
                    write += 1
                    val[first] = 1
                    val[first ^ 1] = -1
                    trail.append(first)
            del watchers[write:]
        self._qhead = qhead
        return False

    def rup_check(self, literals: Sequence[int]) -> bool:
        """Is the clause a RUP consequence of the current database?

        Asserts the negation of every literal, propagates, and undoes
        back to the root trail.  A literal already true at root (its
        negation contradicts the database) or a tautologous pair both
        count as the required conflict.  The literals the check
        assigned are added to ``propagations``.
        """
        self.grow(max(map(abs, literals), default=0))
        val = self._val
        trail = self._trail
        mark = len(trail)
        conflict = False
        for lit in literals:
            code = lit + lit if lit > 0 else 1 - lit - lit
            value = val[code]
            if value > 0:
                conflict = True
                break
            if not value:
                val[code] = -1
                val[code ^ 1] = 1
                trail.append(code ^ 1)
        if not conflict:
            conflict = self.propagate()
        self.propagations += len(trail) - mark
        for code in trail[mark:]:
            val[code] = val[code ^ 1] = 0
        del trail[mark:]
        self._qhead = mark
        return conflict


class RupDatabase:
    """Incremental RUP admission over the checker's own propagation.

    Crash-recovery checkpoints (:mod:`repro.runtime.checkpoint`) replay
    learned clauses from a dead attempt into a fresh solver, and those
    imports become the *add prefix* of the resumed attempt's DRUP
    proof.  The forward checker will accept that prefix only if every
    imported clause is RUP with respect to the formula plus the imports
    before it -- exactly what :meth:`admit` enforces, using the same
    engine :func:`check_proof_steps` runs.  A clause that fails here is
    dropped by the importer (it would fail certification later), which
    doubles as a soundness firewall: admitted clauses are genuine
    consequences of the original formula, whatever transformations
    (e.g. inprocessing) the dead attempt had applied when it learned
    them.

    The dependency direction is solver -> checker; the checker still
    imports nothing from the solver stack.
    """

    __slots__ = ("_engine",)

    def __init__(self, formula) -> None:
        self._engine, _ = _load(formula)

    def admit(self, literals: Sequence[int]) -> bool:
        """RUP-check *literals*; on success insert the clause into the
        database (so later candidates may depend on it) and return
        True.  A failed check leaves the database unchanged."""
        engine = self._engine
        lits = list(literals)
        if not engine.root_conflict and not engine.rup_check(lits):
            return False
        engine.add_clause(lits)
        return True


def _parse_proof_line(lineno: int, raw: str
                      ) -> Optional[Tuple[str, List[int]]]:
    """One proof line -> ``(kind, literals)``, *kind* one of ``a``
    (add), ``d``, ``i`` and ``u``; None for a blank line or comment.

    Raises :class:`_ParseError` with a precise diagnostic for
    malformed tokens, a missing terminating 0, or an embedded 0.
    """
    text = raw.strip()
    if not text or text[0] == "c":
        return None
    kind = "a"
    if text[0] in "diu":
        if len(text) > 1 and not text[1].isspace():
            raise _ParseError(lineno, f"malformed token {text.split()[0]!r}")
        kind = text[0]
        text = text[1:]
    nums: List[int] = []
    for token in text.split():
        try:
            nums.append(int(token))
        except ValueError:
            raise _ParseError(lineno, f"malformed literal {token!r}")
    if not nums or nums[-1] != 0:
        raise _ParseError(lineno, "missing terminating 0")
    if 0 in nums[:-1]:
        raise _ParseError(lineno, "literal 0 inside the clause body")
    return kind, nums[:-1]


def _load(formula, preloaded: Optional[int] = None
          ) -> Tuple[_Propagation, Iterator[Sequence[int]]]:
    """An engine holding the first *preloaded* clauses of *formula*
    (all of them when None), at its root fixpoint, and an iterator
    over the rest: the clauses input steps must match, in order."""
    engine = _Propagation(getattr(formula, "num_vars", 0))
    pending = iter(formula)
    for clause in islice(pending, preloaded):
        engine.add_clause(clause)
    return engine, pending


def _check(formula, steps: Iterable[Tuple[int, str, Sequence[int]]],
           require_empty: bool, preloaded: Optional[int]) -> CheckOutcome:
    engine, pending = _load(formula, preloaded)
    outcome = CheckOutcome(valid=False)
    error = None
    last_line = 0
    for last_line, kind, lits in steps:
        if kind == "d":
            if not engine.delete_clause(lits):
                error = "deletion of a clause not in the database"
                break
            outcome.deletes += 1
        elif kind == "i":
            expected = next(pending, None)
            if expected is None or _key(expected) != _key(lits):
                error = "input is not the formula's next clause"
                break
            engine.add_clause(lits)
            outcome.inputs += 1
        else:                           # an add or a target: RUP
            if not engine.root_conflict and not engine.rup_check(lits):
                error = ("target" if kind == "u" else "clause") + \
                    " is not a RUP consequence of the database"
                break
            if kind == "u":
                outcome.targets.append(tuple(lits))
            else:
                engine.add_clause(lits)
                outcome.adds += 1
                if not lits:
                    outcome.concluded = True
        outcome.steps_checked += 1
        if outcome.concluded:
            break                       # UNSAT certified; ignore tail

    if error is None and require_empty and not outcome.concluded:
        error = "proof ends without the empty clause (truncated?)"
    outcome.propagations = engine.propagations
    if error is not None:
        outcome.error = f"line {last_line}: {error}"
        outcome.line = last_line
    else:
        outcome.valid = True
    return outcome


def check_proof_steps(formula, events: Iterable[Tuple[str, Sequence[int]]],
                      require_empty: bool = True,
                      preloaded: Optional[int] = None) -> CheckOutcome:
    """Check in-memory proof *events* (``(kind, literals)`` pairs,
    e.g. :attr:`repro.verify.drat.MemoryProofSink.events`).

    The database starts with *formula*'s first *preloaded* clauses
    (all of them when None, a one-shot proof); the rest may enter
    only through input steps, in order.  An incremental stream passes
    ``require_empty=False`` and reads ``targets``.
    """
    numbered = ((index + 1, kind, lits)
                for index, (kind, lits) in enumerate(events))
    return _check(formula, numbered, require_empty, preloaded)


def check_proof_lines(formula, lines: Iterable[str],
                      require_empty: bool = True,
                      preloaded: Optional[int] = None) -> CheckOutcome:
    """Check an iterable of proof text lines against *formula* (see
    :func:`check_proof_steps`)."""
    def steps():
        for lineno, raw in enumerate(lines, start=1):
            parsed = _parse_proof_line(lineno, raw)
            if parsed is not None:
                yield lineno, parsed[0], parsed[1]
    try:
        return _check(formula, steps(), require_empty, preloaded)
    except _ParseError as exc:
        return CheckOutcome(valid=False, error=str(exc), line=exc.line)


def check_proof_file(formula, path: str,
                     require_empty: bool = True,
                     preloaded: Optional[int] = None) -> CheckOutcome:
    """Check the proof file at *path* against *formula* (see
    :func:`check_proof_steps`).

    A missing or unreadable file is an invalid proof (with the OS
    error as diagnostic), never an exception: certification callers
    must treat it as "cannot defend this answer".
    """
    try:
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            return check_proof_lines(formula, fh, require_empty,
                                     preloaded)
    except OSError as exc:
        return CheckOutcome(valid=False,
                            error=f"unreadable proof file: {exc}")
