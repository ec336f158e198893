"""Experiment C6 -- Section 6: equivalency reasoning simplifies CNF
formulas by variable substitution.

Two workload families rich in the (x + y')(x' + y) pattern: explicit
equivalence ladders and adder-architecture miters (every buffered
signal pair is an equivalence).  Expected shape: a substantial
fraction of variables eliminated and verdicts unchanged.  Search
effort on the reduced formula is reported, not asserted: the miter
and ladder16 take fewer decisions after the reduction, ladder8 more.
"""

from repro.circuits.generators import (
    carry_select_adder,
    ripple_carry_adder,
)
from repro.circuits.tseitin import encode_miter
from repro.cnf.generators import equivalence_ladder
from repro.experiments.tables import format_table
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.preprocess import equivalency_reduce, preprocess


#: The deterministic columns of the table; a change that moves the
#: search re-pins them and reports the rows it moved.
EXPECTED = [
    ["ladder8", 16, 8, 4, 11],
    ["ladder16", 32, 16, 12, 6],
    ["rca3-vs-csa3 miter", "-", 32, 80, 49],
]


def test_claim_equivalency(benchmark, show):
    rows = []

    # Family 1: explicit ladders.
    for pairs in (8, 16):
        formula = equivalence_ladder(pairs, seed=pairs)
        reduced = equivalency_reduce(formula)
        baseline = CDCLSolver(formula.copy()).solve()
        if reduced.formula is not None:
            after = CDCLSolver(reduced.formula).solve()
            assert after.is_sat == baseline.is_sat
            decisions = after.stats.decisions
        else:
            assert baseline.is_unsat
            decisions = 0
        rows.append([f"ladder{pairs}", formula.num_vars,
                     reduced.variables_eliminated,
                     baseline.stats.decisions, decisions])

    # Family 2: adder miters (buffers induce equivalences), unhashed.
    miter = encode_miter(ripple_carry_adder(3),
                         carry_select_adder(3)).formula
    plain = CDCLSolver(miter.copy()).solve()
    pre = preprocess(miter, equivalency=True)
    after = CDCLSolver(pre.formula).solve()
    assert plain.is_unsat and after.is_unsat
    rows.append(["rca3-vs-csa3 miter", "-", pre.variables_eliminated,
                 plain.stats.decisions, after.stats.decisions])

    show(format_table(
        ["instance", "vars", "vars eliminated",
         "decisions (plain)", "decisions (after eq-reason)"], rows,
        title="C6 -- equivalency reasoning (Section 6)"))

    assert all(row[2] == "-" or row[2] > 0 for row in rows[:2])
    assert pre.variables_eliminated > 0
    assert rows == EXPECTED

    result = benchmark(equivalency_reduce, equivalence_ladder(16))
    assert result.variables_eliminated >= 16
