"""CNF clauses: the normal form every stored clause takes, and the
:class:`Clause` value class.

A clause is the disjunction of one or more literals (paper Section 2).
A formula stores each clause once, as a tuple of its literals in
*normal form* (:func:`normal_clause`): every literal a non-zero int,
no literal twice, sorted by variable with the positive literal before
the negative one.  :meth:`repro.cnf.formula.CNFFormula.add_clause`
produces it, and every later reader -- the engine's arena, the
heuristics, DIMACS output, the proof stream -- uses the tuple as is.
The module functions below read clauses in that form; :class:`Clause`
wraps the same tuple in a hashable value object with the
resolution-style methods (resolve, subsume, restrict, rename).
"""

from __future__ import annotations

from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.cnf.literals import check_literal, literal_to_str, variable

_INT_ONLY = frozenset((int,))


def normal_clause(literals: Iterable[int]) -> Tuple[int, ...]:
    """The normal form of a clause: its literals validated, duplicates
    dropped, sorted by variable with the positive literal first.

    Raises like :func:`repro.cnf.literals.check_literal` on the first
    literal that is not a non-zero int.  A literal and its complement
    both survive (a tautology stays representable, see
    :func:`is_tautology`); so does the empty clause.
    """
    if type(literals) is not list and type(literals) is not tuple:
        literals = list(literals)
    if not _INT_ONLY.issuperset(map(type, literals)) or 0 in literals:
        for lit in literals:
            check_literal(lit)
    ordered = sorted(literals, key=abs)
    previous = 0
    for lit in ordered:
        if lit == previous or lit == -previous:
            # A repeated variable: drop repeats.  Descending order
            # puts v before -v, and the stable sort by variable keeps
            # it there.
            ordered = sorted(set(literals), reverse=True)
            ordered.sort(key=abs)
            break
        previous = lit
    return tuple(ordered)


def is_tautology(lits: Sequence[int]) -> bool:
    """True when the normal-form clause *lits* holds some literal and
    its complement.  Normal form puts the two next to each other,
    positive first, so one pass over neighbours decides it."""
    previous = 0
    for lit in lits:
        if lit == -previous:
            return True
        previous = lit
    return False


def evaluate_clause(lits: Iterable[int],
                    assignment: Dict[int, bool]) -> Optional[bool]:
    """Evaluate a clause under a (possibly partial) variable->bool
    mapping: ``True`` if some literal is satisfied, ``False`` if every
    literal is falsified, ``None`` when undetermined."""
    undetermined = False
    for lit in lits:
        value = assignment.get(variable(lit))
        if value is None:
            undetermined = True
        elif value == (lit > 0):
            return True
    return None if undetermined else False


def map_literals(lits: Iterable[int],
                 mapping: Dict[int, int]) -> List[int]:
    """Rename variables through *mapping* (identity where missing).

    A mapped-to negative value flips the literal's polarity, which is
    what equivalency reasoning (paper Section 6) needs when replacing
    ``y`` by ``x'``.  The result is not in normal form.
    """
    out = []
    for lit in lits:
        var = variable(lit)
        target = mapping.get(var, var)
        out.append(target if lit > 0 else -target)
    return out


def clause_to_str(lits: Sequence[int], names: dict = None) -> str:
    """Pretty form matching the paper's notation, e.g. ``(x + w')``."""
    if not lits:
        return "()"
    body = " + ".join(literal_to_str(lit, names) for lit in lits)
    return f"({body})"


class Clause:
    """A disjunction of literals, held in normal form.

    Built on :func:`normal_clause`, so a ``Clause`` and the tuple a
    formula stores for the same literals hold the same literals in the
    same order.  Tautologies are representable (``is_tautology``
    reports them) so that encoders can detect and drop them
    explicitly.  The empty clause is representable as well: it is
    unsatisfiable and signals conflict in resolution-style reasoning.
    """

    __slots__ = ("_lits", "_hash")

    def __init__(self, literals: Iterable[int] = ()):
        self._lits = normal_clause(literals)
        self._hash = hash(self._lits)

    @property
    def literals(self) -> tuple:
        """The literals of the clause, in normal form."""
        return self._lits

    def is_empty(self) -> bool:
        """True for the (unsatisfiable) empty clause."""
        return not self._lits

    def is_unit(self) -> bool:
        """True when the clause has exactly one literal."""
        return len(self._lits) == 1

    def is_tautology(self) -> bool:
        """True when the clause contains some literal and its complement."""
        return is_tautology(self._lits)

    def is_binary(self) -> bool:
        """True when the clause has exactly two literals."""
        return len(self._lits) == 2

    def variables(self) -> frozenset:
        """The set of variable indices mentioned by the clause."""
        return frozenset(variable(lit) for lit in self._lits)

    def contains(self, lit: int) -> bool:
        """True when *lit* occurs (with that exact polarity)."""
        return lit in set(self._lits)

    def resolve(self, other: "Clause", var: int) -> "Clause":
        """Return the resolvent of this clause with *other* on *var*.

        One clause must contain ``var`` and the other ``-var``; otherwise
        :class:`ValueError` is raised.  The result may be a tautology.
        """
        if self.contains(var) and other.contains(-var):
            pos, neg = self, other
        elif self.contains(-var) and other.contains(var):
            pos, neg = other, self
        else:
            raise ValueError(f"clauses do not clash on variable {var}")
        merged = [lit for lit in pos._lits if lit != var]
        merged += [lit for lit in neg._lits if lit != -var]
        return Clause(merged)

    def subsumes(self, other: "Clause") -> bool:
        """True when every literal of this clause occurs in *other*.

        A subsuming clause makes the subsumed one redundant.
        """
        return set(self._lits) <= set(other._lits)

    def evaluate(self, assignment: Dict[int, bool]) -> Optional[bool]:
        """Evaluate under a (possibly partial) variable->bool mapping
        (see :func:`evaluate_clause`)."""
        return evaluate_clause(self._lits, assignment)

    def restrict(self, assignment: Dict[int, bool]) -> Optional["Clause"]:
        """Apply *assignment*: drop falsified literals; return ``None``
        when the clause is satisfied outright."""
        kept = []
        for lit in self._lits:
            value = assignment.get(variable(lit))
            if value is None:
                kept.append(lit)
            elif value == (lit > 0):
                return None
        return Clause(kept)

    def map_variables(self, mapping: Dict[int, int]) -> "Clause":
        """Rename variables through *mapping* (see
        :func:`map_literals`)."""
        return Clause(map_literals(self._lits, mapping))

    def __iter__(self) -> Iterator[int]:
        return iter(self._lits)

    def __len__(self) -> int:
        return len(self._lits)

    def __contains__(self, lit: int) -> bool:
        return lit in self._lits

    def __eq__(self, other) -> bool:
        return isinstance(other, Clause) and self._lits == other._lits

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Clause") -> bool:
        return self._lits < other._lits

    def __repr__(self) -> str:
        return f"Clause({list(self._lits)})"

    def to_str(self, names: dict = None) -> str:
        """Pretty form matching the paper's notation, e.g. ``(x + w')``."""
        return clause_to_str(self._lits, names)
