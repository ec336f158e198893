"""Conjunctive Normal Form core (paper Section 2).

This package provides the CNF substrate that every solver and every EDA
application in :mod:`repro` builds upon:

* :mod:`repro.cnf.literals` -- DIMACS-style integer literals.
* :mod:`repro.cnf.clause` -- the clause normal form every formula
  stores, and the immutable :class:`Clause` value class.
* :mod:`repro.cnf.formula` -- mutable CNF formulas.
* :mod:`repro.cnf.assignment` -- partial/total variable assignments.
* :mod:`repro.cnf.dimacs` -- DIMACS CNF reader/writer.
* :mod:`repro.cnf.simplify` -- formula-level preprocessing.
* :mod:`repro.cnf.generators` -- synthetic formula families.
* :mod:`repro.cnf.canonical` -- compacting renumbering and the
  stable canonical formula key (service cache, fuzz reproducers).
"""

from repro.cnf.assignment import Assignment
from repro.cnf.canonical import canonical_key, normal_form, renumber
from repro.cnf.clause import Clause
from repro.cnf.formula import CNFFormula
from repro.cnf.literals import lit_from_var, negate, polarity, variable

__all__ = [
    "Assignment",
    "Clause",
    "CNFFormula",
    "canonical_key",
    "lit_from_var",
    "negate",
    "normal_form",
    "polarity",
    "renumber",
    "variable",
]
