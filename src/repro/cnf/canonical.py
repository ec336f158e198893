"""Canonical formula form: compacting renumbering + stable hashing.

Two CNF files that differ only in clause order, in the order of
literals inside a clause, or in gaps left by a sparse variable
numbering describe the same constraint problem.  A shared solver
service that caches results (and the fuzzer's shrunk reproducers,
which want small, dense variable spaces) both need one *canonical*
spelling of a formula:

* :func:`renumber` compacts the variable space to ``1..k`` while
  preserving the relative order of the surviving variables -- the
  transformation the differential fuzzer historically applied inline
  to its reproducers;
* :func:`normal_form` additionally sorts literals inside each clause
  and the clauses themselves (deduplicating literal repeats inside a
  clause, keeping clause multiplicity);
* :func:`canonical_key` hashes that normal form into a stable hex
  digest -- the service-cache key, computed from the
  :class:`CNFFormula` the service parses each submission into.

The key is invariant under clause reordering, literal reordering,
duplicate literals inside a clause, DIMACS formatting noise, and
variable-numbering *gaps*.  It is deliberately **not** invariant under
arbitrary variable permutations or polarity flips: full isomorphism
detection is graph canonization, far too heavy for an admission path
that must answer in microseconds.  Two textually independent
encodings of the same circuit therefore hash differently -- a cache
miss, never a wrong answer.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

from repro.cnf.formula import CNFFormula

#: Hash-format version: bump when the normal form changes so stale
#: persisted keys can never alias fresh ones.
_KEY_VERSION = b"repro-cnf-v1"


def renumber(formula: CNFFormula) -> Tuple[CNFFormula, Dict[int, int]]:
    """Compact *formula*'s variable space to ``1..k``.

    Variables that occur in no clause are dropped; the survivors keep
    their relative order (old var 3 stays below old var 7).  Returns
    ``(renumbered_formula, mapping)`` where ``mapping[old] == new``.
    A formula that is already dense maps through identity (but a new
    formula object is still returned).
    """
    used = sorted({abs(lit) for clause in formula.clauses
                   for lit in clause})
    mapping = {var: new for new, var in enumerate(used, start=1)}
    renamed = CNFFormula(
        num_vars=len(used),
        clauses=[tuple(mapping[abs(lit)] * (1 if lit > 0 else -1)
                       for lit in clause)
                 for clause in formula.clauses])
    return renamed, mapping


def normal_form(formula: CNFFormula) -> List[Tuple[int, ...]]:
    """The sorted-clause normal form of *formula*.

    Literals are sorted inside each clause (by variable, negative
    literal first; the formula already dropped repeats), clauses are
    sorted lexicographically, and variables are compact-renumbered (as
    by :func:`renumber`; renumbering keeps the variable order, so it
    commutes with the sorting) so the numbering is a pure function of
    the clause structure, not of the input's numbering gaps.
    """
    clauses = formula.clauses
    used = sorted({abs(lit) for lits in clauses for lit in lits})
    mapping = {var: new for new, var in enumerate(used, start=1)}
    return sorted(
        tuple(sorted((mapping[lit] if lit > 0 else -mapping[-lit]
                      for lit in lits), key=lambda l: (abs(l), l)))
        for lits in clauses)


def canonical_key(formula: CNFFormula) -> str:
    """Stable hex digest of *formula*'s normal form.

    Equal keys imply identical normal forms (up to SHA-256 collision),
    so a result cached under this key may be replayed for any formula
    that hashes to it.
    """
    clauses = normal_form(formula)
    digest = hashlib.sha256(_KEY_VERSION)
    digest.update(str(len(clauses)).encode("ascii"))
    for clause in clauses:
        digest.update(b"\n")
        digest.update(" ".join(str(lit) for lit in clause)
                      .encode("ascii"))
    return digest.hexdigest()
