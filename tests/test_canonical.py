"""Canonical formula form (repro.cnf.canonical).

The canonical key is the service-cache key, so these tests pin
exactly the invariances the cache relies on: clause order, literal
order, duplicate literals and variable-numbering gaps must not change
the key; genuinely different formulas must not collide.
"""

import random

import pytest

from repro.cnf import canonical_key, normal_form, renumber
from repro.cnf.formula import CNFFormula


def _formula(clauses, num_vars):
    return CNFFormula(num_vars=num_vars,
                      clauses=[tuple(c) for c in clauses])


class TestRenumber:
    def test_compacts_gaps_preserving_order(self):
        formula = _formula([(3, -7), (7, 9)], num_vars=9)
        renamed, mapping = renumber(formula)
        assert mapping == {3: 1, 7: 2, 9: 3}
        assert renamed.num_vars == 3
        assert [tuple(c) for c in renamed.clauses] == [(1, -2), (2, 3)]

    def test_dense_formula_maps_identity(self):
        formula = _formula([(1, -2), (2,)], num_vars=2)
        renamed, mapping = renumber(formula)
        assert mapping == {1: 1, 2: 2}
        assert [tuple(c) for c in renamed.clauses] == \
            [tuple(c) for c in formula.clauses]

    def test_unused_trailing_variables_dropped(self):
        formula = _formula([(1,)], num_vars=50)
        renamed, _ = renumber(formula)
        assert renamed.num_vars == 1

    def test_preserves_satisfiability(self):
        rng = random.Random(7)
        from repro.cnf.generators import random_ksat
        from repro.solvers.dpll import solve_dpll
        for trial in range(10):
            base = random_ksat(8, rng.randint(10, 30), k=3,
                               seed=rng.randrange(1 << 20))
            # Punch gaps into the variable space.
            spread = CNFFormula(
                num_vars=base.num_vars * 3,
                clauses=[tuple(lit * 3 for lit in clause)
                         for clause in base.clauses])
            renamed, _ = renumber(spread)
            assert solve_dpll(renamed).status is \
                solve_dpll(base).status


class TestCanonicalKey:
    def test_clause_order_invariant(self):
        a = _formula([(1, 2), (-1, 3), (2, -3)], 3)
        b = _formula([(2, -3), (1, 2), (-1, 3)], 3)
        assert canonical_key(a) == canonical_key(b)

    def test_literal_order_invariant(self):
        a = _formula([(1, 2, -3)], 3)
        b = _formula([(-3, 2, 1)], 3)
        assert canonical_key(a) == canonical_key(b)

    def test_duplicate_literals_invariant(self):
        a = _formula([(1, 2)], 2)
        b = _formula([(1, 2, 2, 1)], 2)
        assert canonical_key(a) == canonical_key(b)

    def test_variable_gap_invariant(self):
        a = _formula([(1, -2)], 2)
        b = _formula([(5, -9)], 9)
        assert canonical_key(a) == canonical_key(b)

    def test_polarity_matters(self):
        assert canonical_key(_formula([(1, 2)], 2)) != \
            canonical_key(_formula([(1, -2)], 2))

    def test_clause_multiplicity_matters(self):
        assert canonical_key(_formula([(1, 2)], 2)) != \
            canonical_key(_formula([(1, 2), (1, 2)], 2))

    def test_different_formulas_differ(self):
        seen = set()
        from repro.cnf.generators import random_ksat
        for seed in range(25):
            formula = random_ksat(10, 30, k=3, seed=seed)
            seen.add(canonical_key(formula))
        assert len(seen) == 25

    def test_normal_form_sorted(self):
        formula = _formula([(9, -5), (5,)], 9)
        assert normal_form(formula) == [(-1, 2), (1,)]

    # Keys persisted in service journals and result caches must stay
    # valid: these digests are frozen, not recomputed.
    PINNED = [
        ([], 0,
         "300ac9a54d53f3a1a86de98473439d8175d900403476888961324261986df6f8"),
        ([()], 3,
         "baa0ae3e5260d5c9893b80b6d5d292326207c496b799d050fd9c6245bbe8e4eb"),
        ([(1,), (-2,)], 2,
         "6f547af2b49faacf34ffcecf756267df230f6c47023797f76a279e0ef25fb202"),
        ([(9, -5, 9), (5,), (-5, 9)], 12,
         "e8a6c769aca9b6082724839617e61b563b6221dcd814dfa90f6dc7486e3454e2"),
        ([(3, -3, 7), (-7,)], 7,
         "a77913c1be28178fdf356b1a4d02d6637973ed3c8fe2cd6f91ceaa37f2b6fc2f"),
        ([(1, 2), (2, 1), (-1, -2)], 2,
         "77d2291acff33ea3a4c6fd8a236c07f4fbc52526347490683eb82d7f8605b73c"),
        ([(4, -8, 15), (-4,), (8, 15), (), (-15, 4, 8, -8)], 20,
         "ed613d38fe6aa92e56e83156ccb8fd74d7409acc4e230ce54fd9f5de0fd1a20d"),
    ]

    @pytest.mark.parametrize("clauses,num_vars,digest", PINNED,
                             ids=["empty", "empty-clause", "units",
                                  "duplicates-gaps", "tautology",
                                  "multiplicity", "mixed"])
    def test_pinned_digests(self, clauses, num_vars, digest):
        assert canonical_key(_formula(clauses, num_vars)) == digest


class TestFuzzerUsesRenumber:
    def test_shrinker_compacts_variables(self):
        from repro.verify.fuzz import shrink_formula
        formula = _formula([(4, 8), (-4, 8), (4, -8), (-4, -8), (2, 6)],
                           num_vars=9)

        def unsat_core_present(candidate):
            # Fires while the 4/8 "xor-ish" block survives.
            lits = {tuple(sorted(c, key=abs)) for c in candidate.clauses}
            return sum(1 for c in lits if len(c) == 2
                       and {abs(l) for l in c} != {2, 6}) >= 4

        shrunk = shrink_formula(formula, unsat_core_present)
        assert shrunk.num_vars == 2
        assert {abs(l) for c in shrunk.clauses for l in c} == {1, 2}
