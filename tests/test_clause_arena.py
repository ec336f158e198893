"""Clause-arena memory layout and compacting-GC tests (PR 4).

The CDCL clause database lives in a :class:`ClauseArena`: one flat
literal buffer plus parallel metadata arrays, addressed by integer
clause ids.  Deletion is a *compacting* collection -- survivors are
copied to the front and every stored id is rewritten through a remap
-- so these tests pin the contracts that make that safe:

* arena construction, reading and compaction (unit level);
* a collected clause can never come back as a conflict or as an
  antecedent (regression: dangling ids after GC);
* watch lists, binary pairs and antecedent slots only ever hold live
  ids, checked mid-search across forced collections;
* the three deletion policies (keep / size / relevance) agree on
  verdicts across random 3-SAT, pigeonhole and circuit-miter CNFs
  with at least one forced GC mid-search, SAT models re-verified and
  UNSAT answers cross-checked against DPLL;
* incremental solving stays sound across >= 2 compactions (added
  clauses must survive every GC);
* the hot path carries no deleted-clause test at all.
"""

import inspect

import pytest

from conftest import assert_model_satisfies

from repro.circuits.generators import (
    carry_select_adder,
    ripple_carry_adder,
)
from repro.circuits.tseitin import encode_miter
from repro.cnf.generators import pigeonhole, random_ksat_at_ratio
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.clause_arena import ClauseArena
from repro.solvers.dpll import solve_dpll
from repro.solvers.result import Status


class TestClauseArenaUnit:
    def test_add_and_read_back(self):
        arena = ClauseArena()
        a = arena.add([1, -2, 3])
        b = arena.add([-1, 4], learned=True, lbd=2)
        assert (a, b) == (0, 1)
        assert len(arena) == 2
        assert arena.lits_of(a) == [1, -2, 3]
        assert arena.lits_of(b) == [-1, 4]
        assert arena.size(a) == 3 and arena.size(b) == 2
        assert list(arena.iter_ids()) == [0, 1]
        assert arena.learned == [False, True]
        assert arena.lbd == [0, 2]
        assert arena.live_ints() == 5 and arena.peak_lits == 5
        assert arena.fill_ratio() == 1.0

    def test_compact_drops_and_remaps(self):
        arena = ClauseArena()
        ids = [arena.add([k, -(k + 1), k + 2], learned=(k % 2 == 0))
               for k in range(1, 6)]
        arena.activity[ids[3]] = 7.5
        remap = arena.compact({ids[1], ids[4]})
        assert remap == [0, -1, 1, 2, -1]
        assert len(arena) == 3
        # Survivors keep their literals, order and metadata.
        assert arena.lits_of(0) == [1, -2, 3]
        assert arena.lits_of(1) == [3, -4, 5]
        assert arena.lits_of(2) == [4, -5, 6]
        assert arena.activity[2] == 7.5
        assert arena.learned == [False, False, True]
        # The buffer is fully compacted: no dead space, fill < 1.
        assert arena.live_ints() == 9
        assert arena.peak_lits == 15
        assert arena.fill_ratio() == pytest.approx(9 / 15)
        occ = arena.occupancy()
        assert occ["clauses"] == 3 and occ["live_ints"] == 9
        assert occ["peak_ints"] == 15

    def test_compact_empty_drop_is_identity(self):
        arena = ClauseArena()
        arena.add([1, 2])
        arena.add([-1, -2])
        remap = arena.compact(set())
        assert remap == [0, 1]
        assert arena.lits_of(0) == [1, 2]
        assert arena.live_ints() == 4


def _check_live_ids(solver):
    """Every stored clause id must point into the live arena, and the
    watch tables must reference the first two buffer slots of their
    clause -- a dangling id after a compaction fails here."""
    arena = solver.arena
    n = len(arena.off)
    for cid in solver._clauses:
        assert 0 <= cid < n
    for cid in solver._learned:
        assert 0 <= cid < n
        assert arena.learned[cid]
    for watchlist in solver._watches:
        for cid in watchlist:
            assert 0 <= cid < n
            assert arena.size(cid) >= 3
    for pairs in solver._bins:
        for _other, cid in pairs:
            assert 0 <= cid < n
            assert arena.size(cid) == 2
    for var, reason in enumerate(solver._antecedent):
        if type(reason) is int:
            assert 0 <= reason < n
            clause = arena.lits_of(reason)
            assert any(abs(lit) == var for lit in clause)
            if len(clause) >= 3:
                # Long antecedents keep the implied literal at watch
                # position 0 (the watch scheme's invariant); binary
                # antecedents come from the pair lists, which never
                # reorder the buffer -- and are never doomed anyway.
                assert abs(clause[0]) == var


class TestCollectedClauseNeverUsed:
    """Regression: after a compaction, no collected clause may ever be
    returned as a conflict or consulted as an antecedent."""

    @pytest.mark.parametrize("name,formula", [
        ("php-5", pigeonhole(5)),
        ("rksat-60", random_ksat_at_ratio(60, 4.4, 3, seed=11)),
    ])
    def test_conflicts_and_antecedents_stay_live(self, name, formula):
        solver = CDCLSolver(formula, deletion="size", deletion_bound=3,
                            deletion_interval=20)
        original_handle = solver._handle_conflict
        original_reduce = solver._reduce_learned
        conflicts_seen = [0]

        def checking_handle(conflict):
            conflicts_seen[0] += 1
            arena = solver.arena
            assert 0 <= conflict < len(arena.off)
            # A real conflict id: every literal of the clause is
            # currently false.  A dangling id fails this immediately.
            for lit in arena.lits_of(conflict):
                assert solver.value_of_literal(lit) is False
            original_handle(conflict)

        def checking_reduce():
            original_reduce()
            _check_live_ids(solver)

        solver._handle_conflict = checking_handle
        solver._reduce_learned = checking_reduce
        result = solver.solve()

        assert solver.stats.gc_runs >= 1, \
            f"{name}: deletion never forced a collection"
        assert conflicts_seen[0] > 0
        _check_live_ids(solver)
        if result.status is Status.SATISFIABLE:
            assert_model_satisfies(formula, result.assignment)
        else:
            assert result.status is Status.UNSATISFIABLE

    def test_propagate_has_no_deleted_branch(self):
        """The acceptance criterion in person: the hot path carries no
        deleted-clause test (collections rewrite ids eagerly)."""
        source = inspect.getsource(CDCLSolver._propagate)
        assert ".deleted" not in source
        assert "check_deleted" not in source


def _miter_formula(width):
    return encode_miter(ripple_carry_adder(width),
                        carry_select_adder(width)).formula


_POLICIES = [
    dict(deletion="keep"),
    dict(deletion="size", deletion_bound=3, deletion_interval=25),
    dict(deletion="relevance", deletion_bound=2, deletion_interval=25),
]


class TestDeletionPoliciesAgree:
    """keep / size / relevance must agree on every verdict; deletion
    only trades memory for re-derivation work (paper properties 2-3)."""

    @pytest.mark.parametrize("name,formula", [
        ("rksat-sat-50", random_ksat_at_ratio(50, 4.0, 3, seed=5)),
        ("rksat-hard-55", random_ksat_at_ratio(55, 4.3, 3, seed=23)),
        ("rksat-unsat-50", random_ksat_at_ratio(50, 4.6, 3, seed=2)),
        ("php-5", pigeonhole(5)),
        ("miter-adders-3", _miter_formula(3)),
    ])
    def test_policies_agree(self, name, formula):
        verdicts = {}
        gc_runs = {}
        for kwargs in _POLICIES:
            solver = CDCLSolver(formula, **kwargs)
            result = solver.solve()
            assert result.status is not Status.UNKNOWN
            verdicts[kwargs["deletion"]] = result.status
            gc_runs[kwargs["deletion"]] = solver.stats.gc_runs
            if result.status is Status.SATISFIABLE:
                assert_model_satisfies(formula, result.assignment)
        assert len(set(verdicts.values())) == 1, \
            f"{name}: policies disagree: {verdicts}"
        # An independent engine must confirm UNSAT answers.
        if verdicts["keep"] is Status.UNSATISFIABLE:
            assert solve_dpll(formula).status is Status.UNSATISFIABLE
        # The non-keep policies must actually exercise the GC on the
        # conflict-heavy instances; they never GC under "keep".
        assert gc_runs["keep"] == 0
        if name in ("php-5", "rksat-unsat-50", "miter-adders-3"):
            assert gc_runs["size"] >= 1
            assert gc_runs["relevance"] >= 1


class TestIncrementalAcrossCompactions:
    """Clause adds must survive GC across solve calls: the pinned
    acceptance scenario for incremental + arena compaction."""

    def test_incremental_survives_two_gcs(self):
        base = random_ksat_at_ratio(55, 3.8, 3, seed=9)
        extra = random_ksat_at_ratio(55, 1.2, 3, seed=41)
        batches = [list(c) for c in extra]
        third = len(batches) // 3

        inc = CDCLSolver(base, deletion="size", deletion_bound=3,
                         deletion_interval=15)
        reference = base.copy()
        gc_total = 0
        for batch in (batches[:third], batches[third:2 * third],
                      batches[2 * third:]):
            for lits in batch:
                inc.add_clause(lits)
                reference.add_clause(lits)
            result = inc.solve()
            gc_total += result.stats.gc_runs
            fresh = CDCLSolver(reference).solve()
            assert result.status is fresh.status, \
                "incremental verdict diverged from a fresh solve"
            if result.status is Status.SATISFIABLE:
                # The model must satisfy every clause ever added --
                # fails if a GC compaction dropped or mangled one.
                assert_model_satisfies(reference, result.assignment)
        assert gc_total >= 2, \
            f"only {gc_total} collection(s) across the call sequence"
        occupancy = inc.arena_occupancy()
        assert occupancy["gc_runs"] == gc_total
        assert 0.0 < occupancy["fill_ratio"] <= 1.0
        # Original clauses all survive in the arena across every GC.
        assert occupancy["clauses"] >= len(reference.clauses) \
            - sum(1 for c in reference if len(c) == 1)
