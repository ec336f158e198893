"""The ``Preprocess()`` step, including equivalency reasoning (§6).

Equivalency reasoning "targets the simplification of CNF formulas ...
its main objective being the identification of equivalency clauses
(x + y')(x' + y), that indicate that x and y must always be assigned
the same value.  Hence, variable y can be replaced by variable x, and
one variable is eliminated."

:func:`equivalency_reduce` finds such pairs (including the negated form
x == y'), builds equivalence classes via union-find
(:func:`equivalence_classes`, shared with the inprocessor's
equivalent-literal pass), rewrites the formula onto class
representatives, and reports the substitution so models can be lifted
back.  :func:`preprocess` chains the standard
passes of :mod:`repro.cnf.simplify` with equivalency reasoning and
optional recursive learning into the paper's generic preprocessing
function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.cnf.assignment import Assignment
from repro.cnf.clause import map_literals
from repro.cnf.formula import CNFFormula
from repro.cnf.literals import variable
from repro.cnf.simplify import SimplifyResult, simplify
from repro.solvers.recursive_learning import preprocess_recursive_learning


@dataclass
class EquivalencyResult:
    """Outcome of equivalency reduction.

    ``substitution`` maps each eliminated variable to the signed
    representative literal it was replaced by (negative = replaced by
    the representative's complement).  ``formula`` is ``None`` when the
    equivalences are contradictory (x == x').
    """

    formula: Optional[CNFFormula]
    substitution: Dict[int, int] = field(default_factory=dict)
    variables_eliminated: int = 0
    clauses_removed: int = 0

    def lift_model(self, model: Assignment) -> Assignment:
        """Extend a model of the reduced formula to the original one."""
        lifted = model.copy()
        for var, target in self.substitution.items():
            rep_value = lifted.value_of(variable(target))
            if rep_value is not None:
                lifted.assign(var, rep_value == (target > 0))
        return lifted


class _UnionFind:
    """Union-find over signed literals: variable classes with parity.

    Each variable maps to (root, sign): sign +1 when equal to the root,
    -1 when equal to the root's complement.
    """

    def __init__(self):
        self.parent: Dict[int, Tuple[int, int]] = {}

    def find(self, var: int) -> Tuple[int, int]:
        if var not in self.parent:
            self.parent[var] = (var, 1)
            return var, 1
        root, sign = self.parent[var]
        if root == var:
            return var, sign
        grand_root, grand_sign = self.find(root)
        self.parent[var] = (grand_root, sign * grand_sign)
        return grand_root, sign * grand_sign

    def union(self, var_a: int, var_b: int, same: bool) -> bool:
        """Merge classes asserting a == b (same) or a == b' (not same).

        Returns False when the assertion contradicts the classes
        (forces x == x').
        """
        root_a, sign_a = self.find(var_a)
        root_b, sign_b = self.find(var_b)
        relation = 1 if same else -1
        if root_a == root_b:
            return sign_a * sign_b == relation
        # Keep the smaller-index root as representative.
        if root_b < root_a:
            root_a, root_b = root_b, root_a
            sign_a, sign_b = sign_b, sign_a
        self.parent[root_b] = (root_a, sign_a * relation * sign_b)
        return True


def _equivalency_pairs(binaries: Iterable[Tuple[int, int]]
                       ) -> Iterator[Tuple[int, int]]:
    """Yield each binary clause (a + b) of *binaries* (sorted literal
    pairs) whose counterpart (a' + b') is present too: together they
    say a == b'.  Pairs come in the set order of *binaries*; that
    order picks the unit the inprocessor derives from a contradiction
    (:mod:`repro.solvers.inprocess`), so it must not change."""
    binary = set(binaries)
    for lit_a, lit_b in binary:
        counterpart = ((-lit_a, -lit_b) if -lit_a <= -lit_b
                       else (-lit_b, -lit_a))
        if counterpart in binary and (lit_a, lit_b) < counterpart:
            yield lit_a, lit_b


def _binaries(formula: CNFFormula) -> Iterator[Tuple[int, int]]:
    """The binary clauses of *formula* as sorted literal pairs."""
    for clause in formula:
        if len(clause) == 2:
            yield tuple(sorted(clause))


def find_equivalences(formula: CNFFormula) -> List[Tuple[int, int, bool]]:
    """Scan for equivalency clause pairs.

    Returns triples ``(a, b, same)``: ``same=True`` from the pair
    (a + b')(a' + b) meaning a == b; ``same=False`` from
    (a + b)(a' + b') meaning a == b'.
    """
    found = []
    for lit_a, lit_b in _equivalency_pairs(_binaries(formula)):
        var_a, var_b = sorted((variable(lit_a), variable(lit_b)))
        found.append((var_a, var_b, (lit_a > 0) != (lit_b > 0)))
    return found


def equivalence_classes(binaries: Iterable[Tuple[int, int]]
                        ) -> Tuple[Dict[int, int], Optional[int]]:
    """The equivalences that *binaries* (sorted literal pairs) define,
    merged into classes with parity -- the core :func:`equivalency_reduce`
    shares with the inprocessor's equivalent-literal pass.

    Returns ``(mapping, None)``: *mapping* sends each variable that is
    not its class's representative (the smallest variable) to the
    signed representative literal.  An equivalence contradicting the
    classes (x == x') returns ``({}, lit)``, *lit* being the first
    literal of that pair.
    """
    classes = _UnionFind()
    for lit_a, lit_b in _equivalency_pairs(binaries):
        if not classes.union(abs(lit_a), abs(lit_b),
                             (lit_a > 0) != (lit_b > 0)):
            return {}, lit_a
    mapping: Dict[int, int] = {}
    for var in list(classes.parent):
        root, sign = classes.find(var)
        if root != var:
            mapping[var] = root * sign
    return mapping, None


def equivalency_reduce(formula: CNFFormula) -> EquivalencyResult:
    """Eliminate variables through equivalency reasoning (§6).

    Repeats until no new equivalency clause pair appears (substitution
    can expose new pairs).
    """
    current = formula.copy()
    substitution: Dict[int, int] = {}
    eliminated = 0
    removed = 0

    for _ in range(formula.num_vars + 1):
        mapping, contradiction = equivalence_classes(_binaries(current))
        if contradiction is not None:
            return EquivalencyResult(None, substitution, eliminated,
                                     removed)
        if not mapping:
            break
        before = current.num_clauses
        rewritten = CNFFormula(current.num_vars)
        for clause in current:
            rewritten.add_clause(map_literals(clause, mapping))
        for var, name in current.names.items():
            rewritten.set_name(var, name)
        # Substitution can turn a clause into a tautology or a copy of
        # another; this pass drops both.
        dedup = simplify(rewritten, units=False, pure=False,
                         tautologies=True, duplicates=True)
        if dedup.unsat:       # cannot happen without units, defensive
            return EquivalencyResult(None, substitution, eliminated,
                                     removed)
        current = dedup.formula
        removed += before - current.num_clauses
        for var, target in mapping.items():
            # Compose with the existing substitution chain.
            substitution[var] = target
            eliminated += 1

    # Flatten substitution chains (y -> x, z -> -y  =>  z -> -x).
    def resolve(target: int) -> int:
        seen = set()
        while variable(target) in substitution \
                and variable(target) not in seen:
            seen.add(variable(target))
            nxt = substitution[variable(target)]
            target = nxt if target > 0 else -nxt
        return target

    substitution = {var: resolve(t) for var, t in substitution.items()}
    return EquivalencyResult(current, substitution, eliminated, removed)


@dataclass
class PreprocessResult:
    """Combined outcome of the full ``Preprocess()`` pipeline."""

    formula: Optional[CNFFormula]
    forced: Dict[int, bool] = field(default_factory=dict)
    substitution: Dict[int, int] = field(default_factory=dict)
    variables_eliminated: int = 0

    @property
    def unsat(self) -> bool:
        """True when preprocessing refuted the formula."""
        return self.formula is None

    def lift_model(self, model: Assignment) -> Assignment:
        """Translate a model of the reduced formula to the original."""
        lifted = model.copy()
        for var, target in self.substitution.items():
            value = lifted.value_of(variable(target))
            if value is not None:
                lifted.assign(var, value == (target > 0))
        for var, value in self.forced.items():
            lifted.assign(var, value)
        return lifted


def preprocess(formula: CNFFormula, *, equivalency: bool = True,
               recursive_learning_depth: int = 0,
               subsumption: bool = False) -> PreprocessResult:
    """The paper's ``Preprocess()``: standard simplification, optional
    equivalency reasoning, optional recursive learning."""
    base: SimplifyResult = simplify(formula, subsumption=subsumption)
    if base.unsat:
        return PreprocessResult(None, base.forced)
    current = base.formula
    forced = dict(base.forced)
    substitution: Dict[int, int] = {}
    eliminated = 0

    if equivalency:
        eq = equivalency_reduce(current)
        if eq.formula is None:
            return PreprocessResult(None, forced, substitution, eliminated)
        current = eq.formula
        substitution.update(eq.substitution)
        eliminated += eq.variables_eliminated

    if recursive_learning_depth > 0:
        strengthened, rl_forced = preprocess_recursive_learning(
            current, recursive_learning_depth)
        if strengthened is None:
            return PreprocessResult(None, forced, substitution, eliminated)
        again = simplify(strengthened)
        if again.unsat:
            return PreprocessResult(None, forced, substitution, eliminated)
        current = again.formula
        forced.update(rl_forced)
        forced.update(again.forced)

    return PreprocessResult(current, forced, substitution, eliminated)
