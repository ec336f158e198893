"""Mutable CNF formulas.

A CNF formula on *n* binary variables is the conjunction of *m* clauses
(paper Section 2).  :class:`CNFFormula` is the container passed to every
solver in the library.  It tracks the variable universe (so fresh
auxiliary variables can be allocated during encoding), optional
human-readable variable names (so counterexamples can be reported in
terms of circuit signals), and supports the clause-set view the paper
uses when conjoining per-gate formulas.

Each clause is stored once, as the tuple of its literals in normal
form (:func:`repro.cnf.clause.normal_clause`).  :meth:`add_clause` is
where every clause -- from the DIMACS parser, the service protocol,
the circuit encoders or a persistent solver's ``add_clause`` -- is
validated and put in that form; readers use the tuple as is.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.cnf.assignment import Assignment
from repro.cnf.clause import (clause_to_str, evaluate_clause,
                              map_literals, normal_clause)


class CNFFormula:
    """An ordered, duplicate-preserving collection of clauses.

    Each clause is a tuple of literals in normal form (see
    :meth:`add_clause`).  Duplicate clauses are preserved because
    learned-clause experiments need to distinguish original from
    recorded clauses; deduplication is an explicit preprocessing step
    (:mod:`repro.cnf.simplify`).
    """

    def __init__(self, num_vars: int = 0,
                 clauses: Optional[Iterable] = None):
        if num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        self._num_vars = num_vars
        self._clauses: List[Tuple[int, ...]] = []
        self._names: Dict[int, str] = {}
        if clauses is not None:
            for clause in clauses:
                self.add_clause(clause)

    # ------------------------------------------------------------------
    # Variable management
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Highest variable index in the universe (variables are 1..n)."""
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Number of clauses currently in the formula."""
        return len(self._clauses)

    def new_var(self, name: Optional[str] = None) -> int:
        """Allocate and return a fresh variable index."""
        self._num_vars += 1
        if name is not None:
            self._names[self._num_vars] = name
        return self._num_vars

    def new_vars(self, count: int) -> List[int]:
        """Allocate *count* fresh variables, returning their indices."""
        return [self.new_var() for _ in range(count)]

    def set_name(self, var: int, name: str) -> None:
        """Attach a human-readable name to *var* (for reporting)."""
        if not 1 <= var <= self._num_vars:
            raise ValueError(f"variable {var} outside universe 1..{self._num_vars}")
        self._names[var] = name

    def name_of(self, var: int) -> Optional[str]:
        """The name attached to *var*, or ``None``."""
        return self._names.get(var)

    @property
    def names(self) -> Dict[int, str]:
        """Read-only view of the variable-name mapping."""
        return dict(self._names)

    def variables(self) -> range:
        """The variable universe as a range ``1..num_vars``."""
        return range(1, self._num_vars + 1)

    # ------------------------------------------------------------------
    # Clause management
    # ------------------------------------------------------------------

    def add_clause(self, literals: Iterable[int]) -> Tuple[int, ...]:
        """Append a clause given as any iterable of literals (a list, a
        tuple, a :class:`~repro.cnf.clause.Clause`).

        The one place a clause is checked and put in normal form
        (:func:`~repro.cnf.clause.normal_clause`): literals validated,
        duplicates dropped, sorted by variable with the positive
        literal first.  Tautologies and the empty clause are kept.
        The variable universe grows to cover the clause.  Returns the
        stored tuple.
        """
        lits = normal_clause(literals)
        if lits:
            top = lits[-1]         # normal form: the largest variable
            if top < 0:
                top = -top
            if top > self._num_vars:
                self._num_vars = top
        self._clauses.append(lits)
        return lits

    def add_clauses(self, clauses: Iterable) -> None:
        """Append every clause in *clauses*."""
        for clause in clauses:
            self.add_clause(clause)

    @property
    def clauses(self) -> List[Tuple[int, ...]]:
        """The stored normal-form clause tuples, in insertion order
        (mutating the list directly is discouraged)."""
        return self._clauses

    def clause_set(self) -> frozenset:
        """The formula viewed as a *set* of clauses (paper Section 2:
        the circuit CNF is the set union of per-gate CNFs)."""
        return frozenset(self._clauses)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def evaluate(self, assignment) -> Optional[bool]:
        """Evaluate under an :class:`Assignment` or variable->bool dict.

        Returns ``True`` when every clause is satisfied, ``False`` when
        some clause is falsified, ``None`` otherwise.
        """
        mapping = assignment.as_dict() if isinstance(assignment, Assignment) \
            else dict(assignment)
        result = True
        for clause in self._clauses:
            value = evaluate_clause(clause, mapping)
            if value is False:
                return False
            if value is None:
                result = None
        return result

    def is_satisfied_by(self, assignment) -> bool:
        """True when *assignment* satisfies every clause."""
        return self.evaluate(assignment) is True

    def literal_occurrences(self) -> Dict[int, int]:
        """Count how many clauses each literal occurs in.

        Used by the DLIS and Jeroslow-Wang decision heuristics.
        """
        counts: Dict[int, int] = {}
        for clause in self._clauses:
            for lit in clause:
                counts[lit] = counts.get(lit, 0) + 1
        return counts

    def copy(self) -> "CNFFormula":
        """A shallow copy (clauses are immutable and shared)."""
        out = CNFFormula(self._num_vars)
        out._clauses = list(self._clauses)
        out._names = dict(self._names)
        return out

    def map_variables(self, mapping: Dict[int, int]) -> "CNFFormula":
        """Return a renamed copy (see
        :func:`~repro.cnf.clause.map_literals`)."""
        out = CNFFormula(self._num_vars)
        for clause in self._clauses:
            out.add_clause(map_literals(clause, mapping))
        for var, name in self._names.items():
            target = abs(mapping.get(var, var))
            if target and target <= out._num_vars:
                out._names.setdefault(target, name)
        return out

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(self._clauses)

    def __len__(self) -> int:
        return len(self._clauses)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CNFFormula)
                and self._num_vars == other._num_vars
                and self._clauses == other._clauses)

    def __repr__(self) -> str:
        return (f"CNFFormula(num_vars={self._num_vars}, "
                f"num_clauses={len(self._clauses)})")

    def to_str(self) -> str:
        """Pretty multiline form using the paper's notation."""
        names = self._names or None
        return " . ".join(clause_to_str(c, names) for c in self._clauses)
