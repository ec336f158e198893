"""DIMACS CNF reader and writer.

DIMACS CNF is the standard interchange format used by every SAT solver
the paper cites (GRASP, SATO, rel_sat...).  Supporting it makes the
library's encoders usable with external solvers and lets standard
benchmark files be loaded when available.

Format recap::

    c optional comment lines
    p cnf <num_vars> <num_clauses>
    1 -3 0
    -2 3 0

Clauses are sequences of nonzero literal ints terminated by 0 and may
span multiple lines.
"""

from __future__ import annotations

import io
from typing import List, TextIO, Union

from repro.cnf.formula import CNFFormula


class DimacsError(ValueError):
    """Raised on malformed DIMACS input."""


def parse_dimacs(source: Union[str, TextIO]) -> CNFFormula:
    """Parse DIMACS CNF text (a string or a readable file object).

    Tolerates the common real-world deviations: comments anywhere,
    clauses spanning lines, trailing ``%``/``0`` footer used by the SATLIB
    distribution, and clause counts that disagree with the header (a
    mismatch raises :class:`DimacsError` only when *more* clauses appear
    than declared variables allow, i.e. a literal exceeds ``num_vars``).

    Each clause goes straight to :meth:`CNFFormula.add_clause`, which
    stores it in normal form: repeated literals dropped, literals
    sorted by variable with the positive one first.  Tautologies, unit
    clauses and the empty clause (a bare ``0``) are kept as written.
    """
    if isinstance(source, str):
        source = io.StringIO(source)

    num_vars = None
    declared_clauses = None
    formula = None
    pending: List[int] = []
    ended = False

    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            ended = True
            continue
        if ended:
            # SATLIB files end with "%\n0\n"; ignore the trailing 0.
            if line == "0":
                continue
            raise DimacsError(f"line {line_no}: content after '%' footer")
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {line_no}: bad problem line {line!r}")
            try:
                num_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise DimacsError(f"line {line_no}: non-integer header counts")
            if num_vars < 0 or declared_clauses < 0:
                raise DimacsError(f"line {line_no}: negative header counts")
            formula = CNFFormula(num_vars)
            continue
        if formula is None:
            raise DimacsError(f"line {line_no}: clause before 'p cnf' header")
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError(f"line {line_no}: bad token {token!r}")
            if lit == 0:
                formula.add_clause(pending)
                pending = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(
                        f"line {line_no}: literal {lit} exceeds declared "
                        f"variable count {num_vars}")
                pending.append(lit)

    if formula is None:
        raise DimacsError("no 'p cnf' header found")
    if pending:
        # Some writers omit the final terminator; accept the clause.
        formula.add_clause(pending)
    return formula


def load_dimacs(path: str) -> CNFFormula:
    """Parse the DIMACS CNF file at *path*."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_dimacs(handle)


def write_dimacs(formula: CNFFormula, sink: Union[TextIO, None] = None,
                 comments: Union[List[str], None] = None) -> str:
    """Serialize *formula* to DIMACS CNF; returns the text.

    When *sink* is given the text is also written to it.  Variable names
    are emitted as ``c var <index> <name>`` comments so round-tripping
    through external tools keeps the signal mapping available.
    """
    lines = []
    for comment in comments or []:
        lines.append(f"c {comment}")
    for var, name in sorted(formula.names.items()):
        lines.append(f"c var {var} {name}")
    lines.append(f"p cnf {formula.num_vars} {formula.num_clauses}")
    for clause in formula:
        body = " ".join(str(lit) for lit in clause)
        lines.append(f"{body} 0".strip())
    text = "\n".join(lines) + "\n"
    if sink is not None:
        sink.write(text)
    return text


def save_dimacs(formula: CNFFormula, path: str,
                comments: Union[List[str], None] = None) -> None:
    """Write *formula* to the file at *path* in DIMACS CNF."""
    with open(path, "w", encoding="utf-8") as handle:
        write_dimacs(formula, handle, comments)
