"""In-search simplification over the flat clause arena (paper §6).

The paper argues that simplification -- subsumption, equivalency
reasoning, vivification-style re-propagation -- is what keeps real EDA
instances tractable.  This module runs those passes *during* search
(inprocessing): between restarts the :class:`~repro.solvers.cdcl.
CDCLSolver` hands control to an :class:`Inprocessor`, which operates
directly on the arena's flat literal buffer and registries:

* **root simplification** -- delete root-satisfied clauses, strip
  root-falsified literals;
* **equivalent-literal substitution** -- union-find over the binary
  implication pairs (the §6 equivalency-reasoning rule), replacing
  each variable by its class representative;
* **subsumption / self-subsumption** -- signature-pruned sweeps via
  the shared :func:`repro.solvers.kernels.subsumption_pairs` helper
  (optionally numpy-vectorized);
* **clause vivification** -- re-propagate each clause's negated
  literals at throwaway decision levels and shrink the clause when
  propagation conflicts early;
* **bounded variable elimination** -- resolve out low-occurrence
  variables (Davis-Putnam elimination bounded by occurrence count and
  clause growth), with model reconstruction restoring eliminated
  variables in SAT answers.

Every transformation is DRUP-logged into the solver's ``proof`` sink
in **add-before-delete** order: a strengthened clause or resolvent is
emitted as an add (it is a RUP consequence of the database *at that
moment* -- one resolution step, or a reproduced propagation conflict)
before the clause it replaces is emitted as a deletion, so the
independent checker in :mod:`repro.verify.checker` accepts the whole
stream.  Deletions are written by the solver's ``_drop_clauses`` (the
GC protocol), learned rewrites by its ``_attach``; this module writes
only the adds the solver cannot see -- original clauses, resolvents
and root units.

Work is charged to the solver's :class:`~repro.runtime.budget.
BudgetMeter` (candidate checks, resolvent products, and every probe
propagation), so deadlines keep being honoured while inprocessing
runs.  Each run emits a ``cdcl.inprocess`` trace event consumed by
``repro profile``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.solvers import kernels
from repro.solvers.result import Status

#: Pass names, in execution order (keys of ``Inprocessor.pass_totals``).
PASSES = ("root", "equivalence", "subsumption", "vivification", "bve")


def _lit_index(lit: int) -> int:
    return lit + lit if lit > 0 else 1 - lit - lit


@dataclass(frozen=True)
class InprocessConfig:
    """Toggles and budgets for one inprocessing engine.

    Everything is a primitive so portfolio configurations carrying
    these values pickle cleanly across process boundaries.

    Parameters
    ----------
    interval:
        conflicts between inprocessing runs.
    subsumption, self_subsumption, vivification, bve, equivalence:
        per-pass toggles (all on by default; incremental users must
        disable ``bve`` and ``equivalence`` -- see
        :meth:`Inprocessor.check_literals`).
    bve_occurrence_limit:
        only variables with at most this many occurrences per polarity
        are eliminated.
    bve_growth:
        how many clauses an elimination may *add* beyond the ones it
        removes (0 = never grow the database).
    bve_var_budget:
        variables eliminated per run, at most.
    vivify_clause_budget:
        clauses vivified per run, at most (largest first).
    self_subsume_budget:
        candidate checks per self-subsumption sweep, at most.
    """

    interval: int = 2000
    subsumption: bool = True
    self_subsumption: bool = True
    vivification: bool = True
    bve: bool = True
    equivalence: bool = True
    bve_occurrence_limit: int = 8
    bve_growth: int = 0
    bve_var_budget: int = 200
    vivify_clause_budget: int = 300
    self_subsume_budget: int = 100000


class Inprocessor:
    """Periodic in-search simplifier bound to one CDCL solver.

    Created lazily by :class:`~repro.solvers.cdcl.CDCLSolver` when an
    :class:`InprocessConfig` is supplied; :meth:`run` must only be
    called at decision level 0 (the solver calls it right after a
    restart-style backjump).
    """

    def __init__(self, solver, config: InprocessConfig) -> None:
        self.solver = solver
        self.config = config
        #: Which :mod:`repro.solvers.kernels` implementation runs the
        #: bulk loops (recorded on every ``cdcl.inprocess`` event).
        self.kernel = kernels.active_kernel()
        #: Variables removed from the database (BVE / equivalence);
        #: they must never reappear in assumptions or new clauses.
        self.eliminated: Set[int] = set()
        #: Reconstruction stack: ``("equiv", var, rep_lit, None)`` or
        #: ``("bve", var, 0, saved_clause_lits)`` entries, replayed in
        #: reverse by :meth:`extend_model`.
        self._reconstruction: List[Tuple[str, int, int, Optional[List[List[int]]]]] = []
        #: Per-pass counters accumulated across runs, keyed by
        #: :data:`PASSES` name -> dict of removed/strengthened/
        #: reclaimed_lits/units/eliminated (perf-harness reporting).
        self.pass_totals: Dict[str, Dict[str, int]] = {
            name: {"removed": 0, "strengthened": 0,
                   "reclaimed_lits": 0, "units": 0, "eliminated": 0}
            for name in PASSES}
        self.runs = 0
        # Per-run scratch counters.
        self._removed = 0
        self._strengthened = 0
        self._reclaimed = 0
        self._units = 0
        self._elim = 0
        self._refuted = False

    # -- guards --------------------------------------------------------

    def check_literals(self, literals: Sequence[int], what: str) -> None:
        """Reject *literals* touching an eliminated variable.

        Variable elimination and equivalence substitution remove a
        variable from the database for good; a later assumption or
        incremental clause over it would be answered against the wrong
        formula.  Incremental users disable those passes instead
        (``InprocessConfig(bve=False, equivalence=False)``).
        """
        bad = sorted({abs(lit) for lit in literals} & self.eliminated)
        if bad:
            raise RuntimeError(
                f"{what} mention variable(s) {bad} eliminated by "
                f"inprocessing; configure InprocessConfig(bve=False, "
                f"equivalence=False) for incremental/assumption use")

    # -- model reconstruction ------------------------------------------

    def extend_model(self, model) -> None:
        """Restore eliminated variables in a SAT *model* (in place).

        Entries are replayed newest-first, so a representative that
        was itself eliminated later is already restored when an
        earlier entry reads it.  BVE variables take the value that
        satisfies every saved occurrence clause not already satisfied
        by the other literals (the classic Davis-Putnam witness).
        """
        for kind, var, rep, saved in reversed(self._reconstruction):
            if kind == "equiv":
                value = model.value_of(abs(rep))
                if value is None:
                    value = False
                    model.assign(abs(rep), False)
                model.assign(var, value == (rep > 0))
                continue
            value = None
            for clause in saved:
                if any(abs(q) != var and model.literal_value(q) is True
                       for q in clause):
                    continue
                # Only var's own literal can satisfy this clause.
                value = var in clause
            model.assign(var, bool(value) if value is not None else False)

    # -- main entry ----------------------------------------------------

    def run(self, assumptions: Sequence[int] = ()) -> Optional[Status]:
        """One inprocessing round; requires decision level 0.

        Returns ``Status.UNSATISFIABLE`` when simplification refutes
        the formula outright (the solver's ``_root_conflict`` latch is
        set), ``None`` otherwise.
        """
        s = self.solver
        if s._trail_lim or s._root_conflict:
            return Status.UNSATISFIABLE if s._root_conflict else None
        if s._budget_blown():
            return None
        started = time.perf_counter()
        self._removed = self._strengthened = self._reclaimed = 0
        self._units = self._elim = 0
        self._refuted = False
        frozen = {abs(lit) for lit in assumptions}
        config = self.config

        if s._propagate() is not None:
            s._root_conflict = True
            return Status.UNSATISFIABLE

        units_before = self._units
        self._checkpoint("root", self._pass_root_simplify)
        if not self._refuted and config.equivalence:
            self._checkpoint("equivalence", self._pass_equivalence,
                             frozen)
        if not self._refuted and (config.subsumption
                                  or config.self_subsumption):
            self._checkpoint("subsumption", self._pass_subsume)
        if not self._refuted and config.vivification:
            self._checkpoint("vivification", self._pass_vivify)
        if not self._refuted and self._units > units_before:
            # New root facts: re-run the cheap sweep so BVE sees a
            # database free of satisfied clauses and false literals.
            self._checkpoint("root", self._pass_root_simplify)
        if not self._refuted and config.bve:
            self._checkpoint("bve", self._pass_bve, frozen)

        seconds = time.perf_counter() - started
        self.runs += 1
        stats = s.stats
        stats.inprocess_runs += 1
        stats.inprocess_removed_clauses += self._removed
        stats.inprocess_strengthened_clauses += self._strengthened
        stats.inprocess_reclaimed_lits += self._reclaimed
        stats.inprocess_eliminated_vars += self._elim
        stats.inprocess_units += self._units
        if s.tracer is not None:
            s.tracer.event(
                "cdcl.inprocess",
                removed=self._removed,
                strengthened=self._strengthened,
                reclaimed_lits=self._reclaimed,
                eliminated=self._elim,
                units=self._units,
                conflicts=stats.conflicts,
                clauses=len(s.arena),
                seconds=round(seconds, 6),
                kernel=self.kernel)
        if self._refuted:
            s._root_conflict = True
            return Status.UNSATISFIABLE
        return None

    def _checkpoint(self, name: str, task, *args) -> None:
        """Run one pass, folding its counter deltas into
        ``pass_totals[name]``; skipped entirely once the budget is
        blown so deadlines stay honoured."""
        s = self.solver
        if self._refuted or s._budget_blown():
            return
        before = (self._removed, self._strengthened, self._reclaimed,
                  self._units, self._elim)
        task(*args)
        totals = self.pass_totals[name]
        totals["removed"] += self._removed - before[0]
        totals["strengthened"] += self._strengthened - before[1]
        totals["reclaimed_lits"] += self._reclaimed - before[2]
        totals["units"] += self._units - before[3]
        totals["eliminated"] += self._elim - before[4]

    # -- shared mechanics ----------------------------------------------

    def _live_ids(self) -> List[int]:
        s = self.solver
        return list(s._clauses) + list(s._learned)

    def _note_removed(self, cid: int) -> None:
        self._removed += 1
        self._reclaimed += self.solver.arena.size(cid)

    def _emit_add(self, literals: Sequence[int]) -> None:
        proof = self.solver.proof
        if proof is not None:
            proof.add(literals)

    def _add_unit(self, lit: int) -> None:
        """Install a derived root unit: proof add, pending-unit entry,
        enqueue and propagate (a contradiction latches refutation)."""
        s = self.solver
        self._emit_add((lit,))
        s._pending_units.append(lit)
        self._units += 1
        if not s._enqueue(lit, None) or s._propagate() is not None:
            self._refuted = True

    def _replace(self, old_cid: int, new_lits: List[int],
                 doomed: Set[int]) -> None:
        """Replace clause *old_cid* by *new_lits* (a RUP consequence):
        proof-add the new clause, attach it, doom the old one."""
        s = self.solver
        arena = s.arena
        old_size = arena.size(old_cid)
        learned = arena.learned[old_cid]
        doomed.add(old_cid)
        self._strengthened += 1
        self._reclaimed += old_size - len(new_lits)
        if not new_lits:
            self._emit_add(())
            self._refuted = True
            return
        if len(new_lits) == 1:
            self._reclaimed += 1      # the whole clause leaves the arena
            self._strengthened -= 1
            self._removed += 1
            self._add_unit(new_lits[0])
            return
        if learned:
            # The solver's ``_attach`` writes the proof add of a
            # learned clause.
            cid = arena.add(list(new_lits), learned=True,
                            lbd=min(len(new_lits),
                                    arena.lbd[old_cid] or len(new_lits)))
            s._attach(cid, learned=True)
        else:
            self._emit_add(new_lits)
            cid = arena.add(list(new_lits), learned=False)
            s._attach(cid, learned=False)

    def _add_resolvent(self, literals: List[int]) -> Optional[int]:
        """Add a BVE resolvent as an original clause; returns its cid
        (None for units, which go through :meth:`_add_unit`)."""
        s = self.solver
        if len(literals) == 1:
            self._add_unit(literals[0])
            return None
        self._emit_add(literals)
        cid = s.arena.add(list(literals), learned=False)
        s._attach(cid, learned=False)
        return cid

    def _commit(self, doomed: Set[int]) -> None:
        """Apply a pass's deletions: proof-delete, compact, remap,
        rebuild (the GC protocol, shared with ``_reduce_learned``)."""
        if self._refuted:
            # The solver is UNSAT for good; leave the arena as-is (no
            # deletions are emitted after the refutation point).
            doomed.clear()
            return
        if doomed:
            self.solver._drop_clauses(doomed)
            doomed.clear()

    def _detach(self, cid: int) -> None:
        """Remove a length>=3 clause from its two watch lists (so a
        vivification probe cannot propagate through the clause under
        test)."""
        s = self.solver
        arena = s.arena
        base = arena.off[cid]
        s._watches[_lit_index(arena.lits[base])].remove(cid)
        s._watches[_lit_index(arena.lits[base + 1])].remove(cid)

    def _reattach(self, cid: int) -> None:
        s = self.solver
        arena = s.arena
        base = arena.off[cid]
        s._watches[_lit_index(arena.lits[base])].append(cid)
        s._watches[_lit_index(arena.lits[base + 1])].append(cid)

    def _spend(self, cost: int) -> None:
        meter = self.solver._meter
        if meter is not None:
            meter.spend(cost)

    # -- pass: root simplification -------------------------------------

    def _pass_root_simplify(self) -> None:
        """Delete root-satisfied clauses; strip root-false literals.

        Both directions are trivially DRUP-sound: deletion lines are
        always valid, and a clause minus root-false literals is RUP
        (the root units resolve them away).
        """
        s = self.solver
        arena = s.arena
        values = s._values
        doomed: Set[int] = set()
        for cid in self._live_ids():
            lits = arena.lits_of(cid)
            kept: List[int] = []
            satisfied = False
            for lit in lits:
                value = values[lit if lit > 0 else -lit]
                if value is None:
                    kept.append(lit)
                elif value == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                self._note_removed(cid)
                doomed.add(cid)
                continue
            if len(kept) != len(lits):
                self._replace(cid, kept, doomed)
                if self._refuted:
                    return
        self._commit(doomed)

    # -- pass: equivalent-literal substitution -------------------------

    def _pass_equivalence(self, frozen: Set[int]) -> None:
        """Equivalence classes from binary pairs (the helper
        :func:`repro.solvers.preprocess.equivalence_classes` shares
        with the formula-level ``equivalency_reduce``), then
        substitute representatives (paper §6 equivalency reasoning).

        The substituted clause is RUP given the two defining binaries
        (one/two resolution steps), so adds precede the deletions of
        the originals; the defining binaries themselves substitute to
        tautologies and are simply deleted.
        """
        from repro.solvers.preprocess import equivalence_classes

        s = self.solver
        arena = s.arena
        binaries: List[Tuple[int, int]] = []
        for cid in self._live_ids():
            if arena.size(cid) == 2:
                a, b = arena.lits_of(cid)
                binaries.append((a, b) if a <= b else (b, a))
        mapping, contradiction = equivalence_classes(binaries)
        if contradiction is not None:
            # x == x': unit propagation over the equivalence chain
            # refutes either phase, so the unit is RUP.
            self._add_unit(-abs(contradiction))
            return
        for var in list(mapping):
            rep = abs(mapping[var])
            if (var in frozen or rep in frozen
                    or var in self.eliminated or rep in self.eliminated
                    or s._values[var] is not None
                    or s._values[rep] is not None):
                del mapping[var]
        if not mapping:
            return

        doomed: Set[int] = set()
        for cid in self._live_ids():
            lits = arena.lits_of(cid)
            if not any((lit if lit > 0 else -lit) in mapping
                       for lit in lits):
                continue
            new: List[int] = []
            seen: Set[int] = set()
            tautology = False
            for lit in lits:
                rep = mapping.get(lit if lit > 0 else -lit)
                sub = lit if rep is None else (rep if lit > 0 else -rep)
                if -sub in seen:
                    tautology = True
                    break
                if sub not in seen:
                    seen.add(sub)
                    new.append(sub)
            if tautology:
                self._note_removed(cid)
                doomed.add(cid)
                continue
            self._replace(cid, new, doomed)
            if self._refuted:
                return
        for var, rep in mapping.items():
            self._reconstruction.append(("equiv", var, rep, None))
            self.eliminated.add(var)
            self._elim += 1
        self._commit(doomed)

    # -- pass: subsumption / self-subsumption --------------------------

    def _pass_subsume(self) -> None:
        """Signature-based subsumption sweep plus one round of
        self-subsumption strengthening.

        A learned clause that subsumes an original is *promoted* to
        original first: deleting the original is only sound while its
        subsumer cannot itself be garbage-collected.  Strengthening
        (D := D minus ~l when C self-subsumes D on l) is one
        resolution step, hence RUP, emitted add-before-delete.
        """
        s = self.solver
        arena = s.arena
        config = self.config
        live = self._live_ids()
        lits_list = [arena.lits_of(cid) for cid in live]
        doomed: Set[int] = set()

        if config.subsumption:
            pairs = kernels.subsumption_pairs(lits_list,
                                              spend=self._spend)
            learned_ids = set(s._learned)
            for sub_idx, by_idx in pairs:
                sub_cid, by_cid = live[sub_idx], live[by_idx]
                if by_cid in learned_ids and sub_cid not in learned_ids:
                    arena.learned[by_cid] = False
                    s._learned.remove(by_cid)
                    s._clauses.append(by_cid)
                    learned_ids.discard(by_cid)
                self._note_removed(sub_cid)
                doomed.add(sub_cid)

        if config.self_subsumption:
            alive = [i for i, cid in enumerate(live)
                     if cid not in doomed]
            sigs = kernels.bulk_signatures(lits_list)
            sig_array = kernels.as_sig_array(sigs)
            occurrences: Dict[int, List[int]] = {}
            for i in alive:
                for lit in lits_list[i]:
                    occurrences.setdefault(lit, []).append(i)
            checks = config.self_subsume_budget
            dead: Set[int] = set()
            for i in alive:
                if checks <= 0 or self._refuted:
                    break
                if i in dead:
                    continue
                lits = lits_list[i]
                for lit in lits:
                    candidates = occurrences.get(-lit)
                    if not candidates:
                        continue
                    checks -= len(candidates)
                    self._spend(len(candidates))
                    # Signature of C with l's bit dropped: a cheap
                    # necessary-ish filter (bit collisions only ever
                    # admit extra candidates for the exact check).
                    weak = sigs[i] & ~(1 << (lit & 63))
                    rest = [q for q in lits if q != lit]
                    for j in kernels.filter_supersets(
                            weak, candidates, sig_array):
                        if j == i or j in dead:
                            continue
                        target = lits_list[j]
                        if len(target) < len(lits):
                            continue
                        tset = set(target)
                        if all(q in tset for q in rest):
                            new = [q for q in target if q != -lit]
                            self._replace(live[j], new, doomed)
                            dead.add(j)
                            if self._refuted:
                                return
                    if checks <= 0:
                        break
        self._commit(doomed)

    # -- pass: vivification --------------------------------------------

    def _pass_vivify(self) -> None:
        """Shrink clauses by re-propagating their negated literals.

        For clause ``l1 .. lk`` (detached so it cannot propagate
        through itself), assert ``~l1, ~l2, ...`` at throwaway
        decision levels.  If propagation conflicts at step i, or some
        ``li`` is already implied true, the prefix ``l1 .. li`` is a
        RUP clause subsuming the original; if some ``li`` is implied
        false, ``li`` is removable (the shortened clause is RUP via
        the original).  Probe propagations charge the meter like any
        search propagation.
        """
        s = self.solver
        arena = s.arena
        doomed: Set[int] = set()
        candidates = [cid for cid in self._live_ids()
                      if arena.size(cid) >= 3]
        candidates.sort(key=arena.size, reverse=True)
        for cid in candidates[:self.config.vivify_clause_budget]:
            if self._refuted or s._budget_blown():
                break
            lits = arena.lits_of(cid)
            self._detach(cid)
            shrunk: Optional[List[int]] = None
            for i, lit in enumerate(lits):
                value = s.value_of_literal(lit)
                if value is True:
                    shrunk = lits[:i + 1]
                    break
                if value is False:
                    shrunk = lits[:i] + lits[i + 1:]
                    break
                s._trail_lim.append(len(s._trail))
                s._enqueue(-lit, None)
                if s._propagate() is not None:
                    shrunk = lits[:i + 1]
                    break
            s._cancel_until(0)
            if shrunk is None or len(shrunk) >= len(lits):
                self._reattach(cid)
                continue
            self._replace(cid, shrunk, doomed)
        self._commit(doomed)

    # -- pass: bounded variable elimination ----------------------------

    def _pass_bve(self, frozen: Set[int]) -> None:
        """Davis-Putnam elimination of low-occurrence variables.

        For an unassigned, unfrozen variable v within the occurrence
        limit, every pos x neg resolvent over the *original* clauses
        is added (each one resolution step, hence RUP), then every
        clause mentioning v -- original and learned alike -- is
        deleted.  The original occurrences are saved on the
        reconstruction stack for model extension.  Pure variables
        (one polarity absent) eliminate with no resolvents at all.
        """
        s = self.solver
        arena = s.arena
        config = self.config
        limit = config.bve_occurrence_limit
        counts = kernels.occurrence_counts(arena.lits, s._num_vars)
        candidates = []
        for var in range(1, s._num_vars + 1):
            pos, neg = counts[var + var], counts[var + var + 1]
            if pos + neg == 0 or pos > limit or neg > limit:
                continue
            if (var in frozen or var in self.eliminated
                    or s._values[var] is not None):
                continue
            candidates.append((pos + neg, var))
        if not candidates:
            return
        candidates.sort()

        occurrences: Dict[int, Set[int]] = {}
        for cid in self._live_ids():
            for lit in arena.lits_of(cid):
                occurrences.setdefault(lit, set()).add(cid)

        doomed: Set[int] = set()
        eliminated_here = 0
        for _, var in candidates:
            if (eliminated_here >= config.bve_var_budget
                    or self._refuted or s._budget_blown()):
                break
            if s._values[var] is not None:
                continue              # assigned by a unit resolvent
            pos_ids = [c for c in occurrences.get(var, ())
                       if c not in doomed]
            neg_ids = [c for c in occurrences.get(-var, ())
                       if c not in doomed]
            pos_orig = [c for c in pos_ids if not arena.learned[c]]
            neg_orig = [c for c in neg_ids if not arena.learned[c]]
            if len(pos_orig) > limit or len(neg_orig) > limit:
                continue
            self._spend(len(pos_orig) * len(neg_orig) + 1)

            resolvents: List[List[int]] = []
            bound = len(pos_ids) + len(neg_ids) + config.bve_growth
            feasible = True
            for cp in pos_orig:
                plits = [q for q in arena.lits_of(cp) if q != var]
                pset = set(plits)
                for cn in neg_orig:
                    merged = list(plits)
                    mset = set(pset)
                    tautology = False
                    for q in arena.lits_of(cn):
                        if q == -var:
                            continue
                        if -q in mset:
                            tautology = True
                            break
                        if q not in mset:
                            mset.add(q)
                            merged.append(q)
                    if tautology:
                        continue
                    resolvents.append(merged)
                    if len(resolvents) > bound:
                        feasible = False
                        break
                if not feasible:
                    break
            if not feasible:
                continue

            saved = [arena.lits_of(c) for c in pos_orig + neg_orig]
            for merged in resolvents:
                cid = self._add_resolvent(merged)
                if self._refuted:
                    return
                if cid is not None:
                    for q in arena.lits_of(cid):
                        occurrences.setdefault(q, set()).add(cid)
            for c in pos_ids + neg_ids:
                self._note_removed(c)
                doomed.add(c)
            self._reconstruction.append(("bve", var, 0, saved))
            self.eliminated.add(var)
            self._elim += 1
            eliminated_here += 1
        self._commit(doomed)
