"""Formula-level preprocessing (the paper's ``Preprocess()`` hook, §4.1).

These transformations operate on whole formulas before search.  They are
satisfiability-preserving; ``SimplifyResult`` records the forced
assignments discovered, so a model of the simplified formula can be
extended back to a model of the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cnf.clause import is_tautology
from repro.cnf.formula import CNFFormula
from repro.cnf.literals import variable


@dataclass
class SimplifyResult:
    """Outcome of a preprocessing pass.

    ``formula`` is ``None`` exactly when preprocessing already proved the
    input unsatisfiable (an empty clause was derived).
    """

    formula: Optional[CNFFormula]
    forced: Dict[int, bool] = field(default_factory=dict)
    removed_clauses: int = 0
    removed_literals: int = 0

    @property
    def unsat(self) -> bool:
        """True when preprocessing alone refuted the formula."""
        return self.formula is None


def propagate_units(formula: CNFFormula) -> SimplifyResult:
    """Exhaustive unit propagation (Davis-Putnam rule 1).

    Repeatedly assigns the literal of every unit clause, removing
    satisfied clauses and falsified literals, until fixpoint or conflict.
    """
    forced: Dict[int, bool] = {}
    clauses: List[Optional[List[int]]] = [list(c) for c in formula]
    removed_clauses = 0
    removed_literals = 0

    queue = [c[0] for c in clauses if len(c) == 1]
    while True:
        # Apply currently known forced values to every live clause.
        progress = False
        for lit in queue:
            var, val = variable(lit), lit > 0
            if var in forced:
                if forced[var] != val:
                    return SimplifyResult(None, forced,
                                          removed_clauses, removed_literals)
                continue
            forced[var] = val
            progress = True
        queue = []
        if not progress and forced:
            pass  # fall through to clause rewrite; loop exits when stable
        rewritten = False
        for idx, clause in enumerate(clauses):
            if clause is None:
                continue
            kept = []
            satisfied = False
            for lit in clause:
                value = forced.get(variable(lit))
                if value is None:
                    kept.append(lit)
                elif value == (lit > 0):
                    satisfied = True
                    break
                else:
                    removed_literals += 1
            if satisfied:
                clauses[idx] = None
                removed_clauses += 1
                rewritten = True
                continue
            if len(kept) != len(clause):
                clauses[idx] = kept
                rewritten = True
            if not kept:
                return SimplifyResult(None, forced,
                                      removed_clauses, removed_literals)
            if len(kept) == 1 and variable(kept[0]) not in forced:
                queue.append(kept[0])
        if not queue and not rewritten:
            break

    out = CNFFormula(formula.num_vars)
    for clause in clauses:
        if clause is not None:
            out.add_clause(clause)
    for var, name in formula.names.items():
        out.set_name(var, name)
    return SimplifyResult(out, forced, removed_clauses, removed_literals)


def eliminate_pure_literals(formula: CNFFormula) -> SimplifyResult:
    """Pure-literal elimination (Davis-Putnam affirmative-negative rule).

    A variable occurring with a single polarity can be assigned to
    satisfy all its clauses without loss of satisfiability.
    """
    polarities: Dict[int, Set[bool]] = {}
    for clause in formula:
        for lit in clause:
            polarities.setdefault(variable(lit), set()).add(lit > 0)
    pure = {var: pols.pop() for var, pols in polarities.items()
            if len(pols) == 1}

    forced: Dict[int, bool] = {}
    out = CNFFormula(formula.num_vars)
    removed = 0
    for clause in formula:
        if any(variable(lit) in pure and pure[variable(lit)] == (lit > 0)
               for lit in clause):
            removed += 1
            continue
        out.add_clause(clause)
    for var, val in pure.items():
        forced[var] = val
    for var, name in formula.names.items():
        out.set_name(var, name)
    return SimplifyResult(out, forced, removed, 0)


def remove_tautologies(formula: CNFFormula) -> SimplifyResult:
    """Drop clauses containing a literal and its complement."""
    out = CNFFormula(formula.num_vars)
    removed = 0
    for clause in formula:
        if is_tautology(clause):
            removed += 1
        else:
            out.add_clause(clause)
    for var, name in formula.names.items():
        out.set_name(var, name)
    return SimplifyResult(out, {}, removed, 0)


def remove_duplicates(formula: CNFFormula) -> SimplifyResult:
    """Drop repeated clauses, keeping first occurrences in order."""
    seen: Set[Tuple[int, ...]] = set()
    out = CNFFormula(formula.num_vars)
    removed = 0
    for clause in formula:
        if clause in seen:
            removed += 1
            continue
        seen.add(clause)
        out.add_clause(clause)
    for var, name in formula.names.items():
        out.set_name(var, name)
    return SimplifyResult(out, {}, removed, 0)


def remove_subsumed(formula: CNFFormula) -> SimplifyResult:
    """Drop clauses subsumed by a (strictly shorter or equal) clause.

    Delegates to the signature-based sweep in
    :func:`repro.solvers.kernels.subsumption_pairs` (shared with the
    inprocessing engine, numpy-accelerated when available): candidates
    come from literal-occurrence lists and are pruned by a 64-bit
    signature superset test before the exact subset check.  Exact
    duplicates count as subsumed (the earlier copy survives); kept
    clauses preserve input order.
    """
    # Lazy import: repro.solvers already imports repro.cnf, so a
    # module-level import here would be circular.
    from repro.solvers.kernels import subsumption_pairs

    clauses = formula.clauses
    subsumed = {idx for idx, _ in
                subsumption_pairs([list(c) for c in clauses])}
    out = CNFFormula(formula.num_vars)
    for idx, clause in enumerate(clauses):
        if idx not in subsumed:
            out.add_clause(clause)
    for var, name in formula.names.items():
        out.set_name(var, name)
    return SimplifyResult(out, {}, len(subsumed), 0)


def simplify(formula: CNFFormula, *, units: bool = True,
             pure: bool = True, tautologies: bool = True,
             duplicates: bool = True, subsumption: bool = False
             ) -> SimplifyResult:
    """Run the selected passes to fixpoint (at most a few rounds).

    Matches the paper's generic ``Preprocess()`` step.  Subsumption is
    off by default (cost grows with formula size).
    """
    forced: Dict[int, bool] = {}
    removed_clauses = 0
    removed_literals = 0
    current = formula

    for _ in range(formula.num_vars + 1):
        changed = False
        passes = []
        if tautologies:
            passes.append(remove_tautologies)
        if duplicates:
            passes.append(remove_duplicates)
        if units:
            passes.append(propagate_units)
        if pure:
            passes.append(eliminate_pure_literals)
        if subsumption:
            passes.append(remove_subsumed)
        for run in passes:
            result = run(current)
            removed_clauses += result.removed_clauses
            removed_literals += result.removed_literals
            forced.update(result.forced)
            if result.unsat:
                return SimplifyResult(None, forced,
                                      removed_clauses, removed_literals)
            if (result.formula.num_clauses != current.num_clauses
                    or result.forced):
                changed = True
            current = result.formula
        if not changed:
            break
    return SimplifyResult(current, forced, removed_clauses, removed_literals)


def simplify_with_proof(formula: CNFFormula, sink,
                        *, subsumption: bool = True) -> SimplifyResult:
    """Preprocessing that DRUP-logs every transformation into *sink*.

    Restricted to the RUP-composable passes -- unit propagation,
    tautology / duplicate / subsumption removal -- so the emitted
    lines verify against the *original* formula and any solver proof
    appended afterwards (computed on the reduced formula) stays valid:
    RUP is monotone, and the checker's database after this prefix is
    exactly the reduced formula (plus persistent root assignments).
    Pure-literal elimination is deliberately excluded -- it preserves
    satisfiability but is not a RUP consequence, so it cannot ride a
    DRUP stream.

    Emission order per transformation: derived units are adds (each
    one a UP consequence of the formula plus the units before it);
    a clause stripped of falsified literals is added in its shortened
    form *before* the original is deleted; satisfied, tautological,
    duplicate and subsumed clauses are plain deletions.  When unit
    propagation refutes the formula outright the stream is concluded
    with the empty clause (the contradiction is UP-reachable, so the
    checker's own propagation has already latched a root conflict).

    Returns the usual :class:`SimplifyResult`; ``forced`` holds the
    propagated units for model lifting (``formula`` keeps the original
    ``num_vars``, so variable numbering is unchanged).
    """
    unit_result = propagate_units(formula)
    forced = dict(unit_result.forced)
    for var, value in forced.items():
        sink.add((var if value else -var,))
    if unit_result.unsat:
        sink.conclude()
        return SimplifyResult(None, forced,
                              unit_result.removed_clauses,
                              unit_result.removed_literals)

    removed_clauses = 0
    removed_literals = 0
    survivors: List[Tuple[int, ...]] = []
    seen: Set[Tuple[int, ...]] = set()
    for clause in formula:
        kept: List[int] = []
        satisfied = False
        for lit in clause:
            value = forced.get(variable(lit))
            if value is None:
                kept.append(lit)
            elif value == (lit > 0):
                satisfied = True
                break
        if satisfied or is_tautology(clause):
            sink.delete(list(clause))
            removed_clauses += 1
            continue
        if len(kept) != len(clause):
            sink.add(kept)
            sink.delete(list(clause))
            removed_literals += len(clause) - len(kept)
            clause = tuple(kept)       # a normal-form subsequence
        if clause in seen:
            sink.delete(list(clause))
            removed_clauses += 1
            continue
        seen.add(clause)
        survivors.append(clause)

    if subsumption:
        from repro.solvers.kernels import subsumption_pairs
        subsumed = {idx for idx, _ in
                    subsumption_pairs([list(c) for c in survivors])}
        for idx in subsumed:
            sink.delete(list(survivors[idx]))
        removed_clauses += len(subsumed)
        survivors = [c for idx, c in enumerate(survivors)
                     if idx not in subsumed]

    out = CNFFormula(formula.num_vars)
    for clause in survivors:
        out.add_clause(clause)
    for var, name in formula.names.items():
        out.set_name(var, name)
    return SimplifyResult(out, forced, removed_clauses, removed_literals)
