"""GRASP-style conflict-driven clause learning (paper Section 4.1).

The engine implements every "key property" the paper lists for modern
backtrack search:

1. **Non-chronological backtracking** -- conflict analysis computes the
   backtrack level from the learned clause, skipping decision levels
   deemed irrelevant (``backtrack_mode="nonchronological"``); the
   chronological mode is retained for the C2 ablation.
2. **Clause recording** -- every conflict records an implicate of the
   function; recorded clauses prune the subsequent search.
3. **Bounded learning** -- large recorded clauses are eventually
   deleted (``deletion="size"``), and *relevance-based learning*
   extends the life of clauses whose unassigned-literal count stays
   small (``deletion="relevance"``), following rel_sat [4].

Propagation uses two watched literals over a **flat, literal-indexed
watch table** (index ``2*var + sign`` -- no dict hashing on the hot
path) with a dedicated **binary-clause fast path**: two-literal
clauses are stored as ``(implied literal, clause id)`` pairs keyed by
the falsified literal and propagated without touching watch positions
at all.  Truth-value tests inside ``_propagate`` are inlined against
the assignment array rather than routed through ``value_of_literal``.

Since PR 4 the clause database itself is a
:class:`~repro.solvers.clause_arena.ClauseArena`: all literals live in
one flat buffer, watch lists and antecedent slots hold **integer
clause ids**, watched-literal normalization is two element swaps
inside the buffer, and learned-database reduction is a **compacting
garbage collection** (survivors copied to the front, every stored id
remapped) -- so no ``deleted``-flag test survives anywhere on the hot
path.  See DESIGN.md ("Clause-DB memory layout") for the layout and
the GC remap protocol.

The engine is also the library's one persistent solver (paper
Section 6, "used iteratively and/or incrementally"): between solve
calls it takes new variables (``new_var``) and clauses
(``add_clause``), keeps its learned clauses, and answers each call
under that call's assumptions, budget and conflict caps, returning
that call's own stats.  It keeps its own formula, which grows with
every added clause and variable: an added clause is put in normal
form there, once, and enters the arena as that stored tuple; the
decision heuristic is seeded from the formula on every call.  One
proof sink covers every call: added clauses become its input steps
and each refuted query's negated assumptions a target step
(:mod:`repro.verify.drat`).

Decisions are delegated to the pluggable heuristics of
:mod:`repro.solvers.heuristics` (heap-backed since PR 1); restarts to
:mod:`repro.solvers.restarts`.  Hook points (``on_assign``,
``on_unassign``, ``decide_override``, ``early_sat_check``) let the
circuit-structure layer of Section 5 ride on top of the unmodified
engine, which is precisely the architectural claim of the paper.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple, Union)

from repro.cnf.assignment import Assignment
from repro.cnf.clause import Clause, is_tautology
from repro.cnf.formula import CNFFormula
from repro.runtime.budget import (Budget, BudgetMeter,
                                  DEFAULT_CHECK_INTERVAL,
                                  process_rss_mb)
from repro.solvers.clause_arena import ClauseArena
from repro.solvers.heuristics import DecisionHeuristic, VSIDSHeuristic
from repro.solvers.restarts import NoRestarts, RestartPolicy
from repro.solvers.result import SolverResult, SolverStats, Status

#: An antecedent slot: ``None`` (decision / unit), an int clause id in
#: the arena, or -- only with learning disabled -- the bare literal
#: list of an unrecorded implicate.
Reason = Union[None, int, Sequence[int]]


def _lit_index(lit: int) -> int:
    """Flat watch-table slot of *lit*: ``2*var`` for positive literals,
    ``2*var + 1`` for negative ones."""
    return lit + lit if lit > 0 else 1 - lit - lit


class CDCLSolver:
    """Conflict-driven SAT solver over a :class:`CNFFormula`.

    Parameters
    ----------
    formula:
        the starting formula (default: an empty one).  It is never
        mutated: the first ``new_var``/``add_clause`` call copies it
        into the engine's own ``formula``, which then grows.  Its
        stored clauses are already in normal form
        (:meth:`CNFFormula.add_clause`), so construction copies each
        one into the arena as is, skipping tautologies (a literal
        next to its complement) and queueing units.
    heuristic:
        branching policy (default VSIDS).
    restart_policy:
        when to restart (default: never).
    backtrack_mode:
        ``"nonchronological"`` (default) or ``"chronological"``.
    conflict_cut:
        ``"1uip"`` (default) or ``"decision"`` (all-decision cut).
    learning:
        record conflict clauses (default True; disable for ablation C3).
    deletion:
        ``"keep"`` (default), ``"size"`` or ``"relevance"``.
    deletion_bound:
        size bound k / relevance bound r for the above.
    deletion_interval:
        conflicts between learned-database collections.
    minimize_learned:
        recursive self-subsumption minimization of recorded clauses
        (drop a literal whose antecedent subgraph is covered by the
        clause itself, level-0 facts and other redundant literals).
        On by default: shorter clauses propagate more and shrink the
        learned database; disable to get the raw first-UIP cut.
    phase_saving:
        re-decide variables with their last assigned polarity.
    max_conflicts, max_decisions:
        effort caps of each solve call, counted from the start of the
        call like ``Budget``'s; reaching either yields
        ``Status.UNKNOWN``.
    budget:
        a :class:`repro.runtime.budget.Budget`: wall-clock deadline,
        per-call counter caps, soft memory ceiling.  Enforced through
        the cooperative checkpoint in ``_propagate`` (amortised, see
        DESIGN.md); exhaustion yields ``Status.UNKNOWN``.
    resume_from:
        a :class:`repro.runtime.checkpoint.SearchCheckpoint` from a
        dead attempt on the *same formula* (warm restart).  Applied
        lazily at the start of the first ``solve`` call, so a ``proof``
        sink set before that call receives the imported units and
        learned clauses as the DRUP add-prefix of the resumed proof, in
        derivation order.  Imports are admitted only when RUP against
        the formula plus prior imports (checker propagation), which
        keeps resumed certificates checkable and the import sound
        whatever state the dead attempt was in; rejects are counted in
        ``stats.checkpoint_dropped_clauses``.
    """

    def __init__(self, formula: Optional[CNFFormula] = None,
                 heuristic: Optional[DecisionHeuristic] = None,
                 restart_policy: Optional[RestartPolicy] = None,
                 backtrack_mode: str = "nonchronological",
                 conflict_cut: str = "1uip",
                 learning: bool = True,
                 deletion: str = "keep",
                 deletion_bound: int = 20,
                 deletion_interval: int = 1000,
                 minimize_learned: bool = True,
                 phase_saving: bool = False,
                 max_conflicts: Optional[int] = None,
                 max_decisions: Optional[int] = None,
                 budget: Optional[Budget] = None,
                 resume_from=None):
        if backtrack_mode not in ("nonchronological", "chronological"):
            raise ValueError(f"bad backtrack_mode {backtrack_mode!r}")
        if conflict_cut not in ("1uip", "decision"):
            raise ValueError(f"bad conflict_cut {conflict_cut!r}")
        if deletion not in ("keep", "size", "relevance"):
            raise ValueError(f"bad deletion policy {deletion!r}")

        #: The formula this engine solves: the caller's until the
        #: first ``new_var``/``add_clause``, then the engine's own copy
        #: (``_owns_formula``), grown by every later call.
        self.formula = formula if formula is not None else CNFFormula()
        self._owns_formula = formula is None
        self.heuristic = heuristic or VSIDSHeuristic()
        self.restart_policy = restart_policy or NoRestarts()
        self.backtrack_mode = backtrack_mode
        self.conflict_cut = conflict_cut
        self.learning = learning
        self.deletion = deletion
        self.deletion_bound = deletion_bound
        self.deletion_interval = deletion_interval
        self.minimize_learned = minimize_learned
        self.phase_saving = phase_saving
        self.max_conflicts = max_conflicts
        self.max_decisions = max_decisions
        self.budget = budget
        #: Cumulative effort over every solve call; each call's
        #: result carries its own share (``SolverStats.since``).
        self.stats = SolverStats()
        #: ``stats`` at the start of the current call: the baseline of
        #: the per-call caps and of the per-call result stats.
        self._call_start = SolverStats()
        self._saved_phase: Dict[int, bool] = {}
        #: Pending warm-restart state; consumed (set to None) by the
        #: first ``_solve`` call, see :meth:`_import_checkpoint`.
        self._resume_from = resume_from
        #: Per-call budget meter; None when neither a budget nor a
        #: checkpoint hook is configured (the hot path then pays one
        #: None-test per propagate call).
        self._meter: Optional[BudgetMeter] = None

        # Hook points for the Section 5 structural layer.
        self.on_assign: Optional[Callable[[int], None]] = None
        self.on_unassign: Optional[Callable[[int], None]] = None
        self.decide_override: Optional[Callable[[], Optional[int]]] = None
        self.early_sat_check: Optional[Callable[[], bool]] = None
        #: Cooperative-checkpoint hook: fired every few thousand
        #: propagations while solving (portfolio worker heartbeats).
        self.on_checkpoint: Optional[Callable[[], None]] = None
        #: Work units between checkpoint probes; ``None`` keeps the
        #: engine default.  Service workers lower it so heartbeats
        #: (and scripted mid-job faults) fire even on small formulas.
        self.checkpoint_interval: Optional[int] = None
        #: Optional :class:`repro.obs.trace.Tracer`.  Spans wrap the
        #: solve call; progress snapshots ride the cooperative
        #: checkpoint above, so attaching a tracer adds NOTHING to the
        #: hot path beyond arming the meter (zero-overhead-when-
        #: disabled contract, see repro.obs.trace).  GC compactions
        #: additionally emit ``cdcl.gc`` events (once per collection,
        #: off the hot path).
        self.tracer = None
        #: Optional :class:`repro.obs.metrics.SearchMetrics`.  Costs
        #: one ``is not None`` test per propagate call / per conflict
        #: when absent; the snapshot lands in ``stats.metrics``.
        self.metrics = None
        #: Optional :class:`repro.verify.drat.ProofSink`: the engine
        #: writes its own DRUP derivation into it, at the points where
        #: it derives or drops a clause -- every learned clause
        #: (``_attach``, which also carries checkpoint imports), every
        #: unit implicate, every collected clause
        #: (``_drop_clauses``), and the empty clause when a solve
        #: without assumptions ends UNSAT.  Used incrementally it also
        #: takes every ``add_clause`` clause as an input step and, when
        #: a solve under assumptions ends UNSAT, their negation as a
        #: target step.  Set it before the first ``add_clause`` or
        #: ``solve`` call: the formula the solver was built on is the
        #: checker's starting database.
        self.proof = None

        self._num_vars = self.formula.num_vars
        n = self._num_vars + 1
        self._values: List[Optional[bool]] = [None] * n
        self._level: List[int] = [0] * n
        self._antecedent: List[Reason] = [None] * n
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        #: Conflict-analysis marker buffer, reused across conflicts
        #: (``_analyze_1uip`` restores it to all-zero before returning).
        self._seen = bytearray(n)
        #: The clause database: one flat literal buffer addressed by
        #: integer clause ids (see repro.solvers.clause_arena).
        self.arena = ClauseArena()
        # Flat literal-indexed tables (slot 2*var+sign, see
        # _lit_index).  _watches holds ids of clauses of length >= 3
        # watched at that literal; _bins holds (implied, clause id)
        # pairs keyed by the literal whose falsification triggers the
        # implication.
        self._watches: List[List[int]] = [[] for _ in range(2 * n)]
        self._bins: List[List[Tuple[int, int]]] = \
            [[] for _ in range(2 * n)]
        self._clauses: List[int] = []
        self._learned: List[int] = []
        self._root_conflict = False
        self._pending_units: List[int] = []

        for clause in self.formula.clauses:
            self._attach_input_clause(clause)

    # ------------------------------------------------------------------
    # Clause management
    # ------------------------------------------------------------------

    def _attach_input_clause(self, lits: Tuple[int, ...]) -> None:
        """Enter one of the formula's stored clauses: *lits* is already
        in normal form (``CNFFormula.add_clause``), so the arena takes
        it as is; tautologies are skipped, units queued for level 0."""
        if len(lits) < 2:
            if lits:
                self._pending_units.append(lits[0])
            else:
                self._root_conflict = True
        elif not is_tautology(lits):
            self._attach(self.arena.add(lits, learned=False),
                         learned=False)

    def _attach(self, cid: int, learned: bool) -> None:
        """Register arena clause *cid* with the watch machinery; a
        learned clause is also the proof's next add step."""
        arena = self.arena
        lits = arena.lits
        base = arena.off[cid]
        end = arena.end[cid]
        if learned:
            self._learned.append(cid)
            if self.proof is not None:
                self.proof.add(lits[base:end])
        else:
            self._clauses.append(cid)
        if end - base == 2:
            a, b = lits[base], lits[base + 1]
            self._bins[_lit_index(a)].append((b, cid))
            self._bins[_lit_index(b)].append((a, cid))
        else:
            self._watches[_lit_index(lits[base])].append(cid)
            self._watches[_lit_index(lits[base + 1])].append(cid)

    def _grown_formula(self) -> CNFFormula:
        """The engine's own formula, copied from the caller's on first
        use so the caller's object is never mutated."""
        if not self._owns_formula:
            self.formula = self.formula.copy()
            self._owns_formula = True
        return self.formula

    def new_var(self) -> int:
        """Allocate a fresh variable for later clauses and assumptions
        (incremental interface); the search tables grow with it, so an
        assumption may name it before any clause does."""
        var = self._grown_formula().new_var()
        self._grow_to(var)
        return var

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause between solve calls (incremental interface).

        Only legal at decision level 0; raises otherwise.  The clause
        joins the engine's formula, which puts it in normal form, and
        then the arena; like every original clause, it survives all
        later GC compactions.  The search tables grow to the formula's
        variable count.  With a ``proof`` sink the normal-form clause
        is also the stream's next input step.
        """
        if self._trail_lim:
            raise RuntimeError("add_clause only allowed at level 0")
        formula = self._grown_formula()
        lits = formula.add_clause(literals)
        if self.proof is not None:
            self.proof.input(lits)
        if formula.num_vars > self._num_vars:
            self._grow_to(formula.num_vars)
        if self._trail and len(lits) > 1:
            lits = self._watchable(lits)
        self._attach_input_clause(lits)

    def _watchable(self, lits: Tuple[int, ...]) -> Tuple[int, ...]:
        """*lits* ordered so a watch can still fire under the root
        assignments earlier calls left on the trail.

        Propagation never revisits a root assignment, so a clause whose
        two watched literals are both false there would never propagate
        or conflict.  Its unassigned literals move to the front; with
        none (every literal false) the formula is refuted at the root.
        A satisfied clause, or one with an unassigned watch, keeps its
        order (a false watch is swapped out when the other one falls).
        """
        values = self._values
        free = []
        for lit in lits:
            value = values[lit if lit > 0 else -lit]
            if value is None:
                free.append(lit)
            elif value == (lit > 0):
                return lits             # satisfied at the root for good
        if not free:
            self._root_conflict = True
            return lits
        if lits[0] in free or lits[1] in free:
            return lits
        return tuple(free) + tuple(lit for lit in lits if lit not in free)

    def _grow_to(self, var: int) -> None:
        extra = var - self._num_vars
        self._values.extend([None] * extra)
        self._level.extend([0] * extra)
        self._antecedent.extend([None] * extra)
        self._watches.extend([] for _ in range(2 * extra))
        self._bins.extend([] for _ in range(2 * extra))
        self._num_vars = var

    def learned_clauses(self) -> List[Clause]:
        """The currently recorded conflict clauses."""
        arena = self.arena
        return [Clause(arena.lits_of(cid)) for cid in self._learned]

    def arena_occupancy(self) -> Dict[str, float]:
        """The arena's memory snapshot plus this solver's GC counters
        (what portfolio workers report in their progress payloads)."""
        snapshot = self.arena.occupancy()
        snapshot["gc_runs"] = self.stats.gc_runs
        snapshot["gc_reclaimed_ints"] = self.stats.gc_reclaimed_ints
        return snapshot

    # ------------------------------------------------------------------
    # Assignment and propagation
    # ------------------------------------------------------------------

    def value_of_literal(self, lit: int) -> Optional[bool]:
        """Current truth value of *lit* (``None`` = unassigned)."""
        value = self._values[abs(lit)]
        if value is None:
            return None
        return value == (lit > 0)

    def value_of(self, var: int) -> Optional[bool]:
        """Current value of variable *var*."""
        return self._values[var]

    @property
    def decision_level(self) -> int:
        """The current decision level d of Figure 2."""
        return len(self._trail_lim)

    def _is_assigned(self, var: int) -> bool:
        return self._values[var] is not None

    def _enqueue(self, lit: int, reason: Reason) -> bool:
        """Assign *lit*; False when it contradicts the current value."""
        current = self.value_of_literal(lit)
        if current is not None:
            return current
        var = abs(lit)
        self._values[var] = lit > 0
        if self.phase_saving:
            self._saved_phase[var] = lit > 0
        self._level[var] = len(self._trail_lim)
        self._antecedent[var] = reason
        self._trail.append(lit)
        if self.on_assign is not None:
            self.on_assign(lit)
        return True

    def _propagate(self) -> Optional[int]:
        """Two-watched-literal BCP; returns the conflicting clause id.

        This is the hottest loop in the library, so everything is
        inlined: truth values come straight from the assignment array,
        watch lists are flat-array slots holding integer clause ids,
        clause literals are read by index arithmetic on the arena's
        one flat buffer (no attribute loads, no per-clause list
        headers), binary clauses take the pair-list fast path, and
        assignments skip ``_enqueue`` (the hooks and phase saving are
        replicated here).  Watched-literal normalization is two
        element swaps inside the buffer.  There is no deleted-clause
        test: collections remove ids from the watch lists eagerly.
        """
        values = self._values
        trail = self._trail
        watches = self._watches
        bins = self._bins
        level = self._level
        antecedent = self._antecedent
        arena = self.arena
        alits = arena.lits
        aoff = arena.off
        aend = arena.end
        saved_phase = self._saved_phase if self.phase_saving else None
        on_assign = self.on_assign
        meter = self._meter
        metrics = self.metrics
        dl = len(self._trail_lim)
        qhead = self._qhead
        propagations = 0

        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            false_lit = -lit
            # Slot of the falsified literal (inlined _lit_index).
            fidx = lit + lit + 1 if lit > 0 else -(lit + lit)

            # --- Binary fast path: stored implications, no watch
            # maintenance, no literal scans.
            for other, cid in bins[fidx]:
                ovar = other if other > 0 else -other
                value = values[ovar]
                if value is None:
                    values[ovar] = other > 0
                    level[ovar] = dl
                    antecedent[ovar] = cid
                    trail.append(other)
                    propagations += 1
                    if saved_phase is not None:
                        saved_phase[ovar] = other > 0
                    if on_assign is not None:
                        on_assign(other)
                elif value != (other > 0):
                    self._qhead = len(trail)
                    self.stats.propagations += propagations
                    if meter is not None:
                        meter.spend(propagations + 1)
                    if metrics is not None:
                        metrics.burst(propagations)
                    return cid

            # --- Long clauses: watched literals with in-place
            # compaction of the watch list.
            watchers = watches[fidx]
            if not watchers:
                continue
            read = write = 0
            end = len(watchers)
            conflict = -1
            while read < end:
                cid = watchers[read]
                read += 1
                base = aoff[cid]
                # Normalize: the false watch sits at slot base+1.
                first = alits[base]
                if first == false_lit:
                    b1 = base + 1
                    first = alits[b1]
                    alits[base] = first
                    alits[b1] = false_lit
                fvar = first if first > 0 else -first
                fval = values[fvar]
                if fval is not None and fval == (first > 0):
                    watchers[write] = cid
                    write += 1
                    continue
                for k in range(base + 2, aend[cid]):
                    lk = alits[k]
                    value = values[lk if lk > 0 else -lk]
                    if value is None or value == (lk > 0):
                        alits[base + 1] = lk
                        alits[k] = false_lit
                        watches[lk + lk if lk > 0
                                else 1 - lk - lk].append(cid)
                        break
                else:
                    watchers[write] = cid
                    write += 1
                    if fval is not None:       # first false: conflict
                        while read < end:
                            watchers[write] = watchers[read]
                            write += 1
                            read += 1
                        conflict = cid
                        break
                    values[fvar] = first > 0
                    level[fvar] = dl
                    antecedent[fvar] = cid
                    trail.append(first)
                    propagations += 1
                    if saved_phase is not None:
                        saved_phase[fvar] = first > 0
                    if on_assign is not None:
                        on_assign(first)
            del watchers[write:]
            if conflict >= 0:
                self._qhead = len(trail)
                self.stats.propagations += propagations
                if meter is not None:
                    meter.spend(propagations + 1)
                if metrics is not None:
                    metrics.burst(propagations)
                return conflict

        self._qhead = qhead
        self.stats.propagations += propagations
        # Cooperative checkpoint: costed at propagations + 1 so even
        # zero-implication bursts eventually trigger the amortised
        # deadline/memory probe and heartbeat.
        if meter is not None:
            meter.spend(propagations + 1)
        if metrics is not None:
            metrics.burst(propagations)
        return None

    def _cancel_until(self, level: int) -> None:
        """Erase(): undo every assignment above *level*."""
        if self.decision_level <= level:
            return
        target = self._trail_lim[level]
        trail = self._trail
        values = self._values
        antecedent = self._antecedent
        on_unassign = self.on_unassign
        if on_unassign is not None:
            for index in range(len(trail) - 1, target - 1, -1):
                on_unassign(trail[index])
        for index in range(target, len(trail)):
            lit = trail[index]
            var = lit if lit > 0 else -lit
            values[var] = None
            antecedent[var] = None
        # One call for the whole undone suffix: the heap-backed
        # heuristics hoist their locals once per backjump instead of
        # paying a method call per variable.
        self.heuristic.on_unassign_batch(trail, target)
        del trail[target:]
        del self._trail_lim[level:]
        self._qhead = target

    # ------------------------------------------------------------------
    # Conflict analysis (Diagnose)
    # ------------------------------------------------------------------

    def _reason_lits(self, reason: Reason) -> Sequence[int]:
        """The literals of an antecedent slot: ``()`` for decisions,
        an arena slice for recorded clause ids, the list itself for
        unrecorded implicates (learning disabled)."""
        if reason is None:
            return ()
        if type(reason) is int:
            arena = self.arena
            return arena.lits[arena.off[reason]:arena.end[reason]]
        return reason

    def _analyze_1uip(self, conflict: int) -> Tuple[List[int], int]:
        """First-UIP conflict analysis.

        Returns the learned clause (asserting literal first) and the
        backtrack level.
        """
        learned: List[int] = [0]          # placeholder for the UIP
        # Persistent marker buffer: the walk below clears every bit it
        # sets (resolved variables as they pop off the trail, clause
        # members before returning), so reuse across conflicts saves an
        # O(num_vars) allocation per conflict.
        seen = self._seen
        if len(seen) <= self._num_vars:
            seen = self._seen = bytearray(self._num_vars + 1)
        level = self._level
        trail = self._trail
        antecedents = self._antecedent
        arena = self.arena
        alits = arena.lits
        aoff = arena.off
        aend = arena.end
        current_level = len(self._trail_lim)
        counter = 0
        lit = None
        base = aoff[conflict]
        reason_lits: Sequence[int] = alits[base:aend[conflict]]
        index = len(trail)

        while True:
            for q in reason_lits:
                if q == lit:
                    continue
                var = q if q > 0 else -q
                if not seen[var]:
                    lv = level[var]
                    if lv > 0:
                        seen[var] = True
                        if lv >= current_level:
                            counter += 1
                        else:
                            learned.append(q)
            while True:
                index -= 1
                lit = trail[index]
                var = lit if lit > 0 else -lit
                if seen[var]:
                    break
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            antecedent = antecedents[var]
            if antecedent is None:
                reason_lits = ()
            elif type(antecedent) is int:
                base = aoff[antecedent]
                reason_lits = alits[base:aend[antecedent]]
            else:
                reason_lits = antecedent
        learned[0] = -lit
        for q in learned[1:]:             # leave the buffer all-zero
            seen[q if q > 0 else -q] = 0

        if self.minimize_learned and len(learned) > 2:
            learned = self._self_subsume(learned)
        if len(learned) == 1:
            return learned, 0
        backtrack = max(level[q if q > 0 else -q] for q in learned[1:])
        # Put a literal of the backtrack level in watch position 1 so
        # the clause stays correctly watched after backjumping.
        for k in range(1, len(learned)):
            if level[abs(learned[k])] == backtrack:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, backtrack

    def _self_subsume(self, learned: List[int]) -> List[int]:
        """Recursive learned-clause minimization (self-subsumption).

        A non-asserting literal q is redundant when every other
        literal of q's antecedent is at level 0, already present in
        the clause, or itself redundant -- the transitive closure of
        the local self-subsumption rule, so each drop is still a chain
        of resolutions against antecedent clauses (the minimized
        clause remains a RUP consequence and proofs stay checkable).
        The implication graph is acyclic (reasons precede their
        implied literal on the trail), so the walk terminates; a
        shared verdict cache keeps the whole clause near-linear, and a
        64-bit level mask prunes branches that reach a decision level
        contributing nothing to the clause (a standard sound
        over-approximation: such branches can never resolve away).
        """
        level = self._level
        antecedents = self._antecedent
        members = {q if q > 0 else -q for q in learned}
        mask = 0
        for q in learned[1:]:
            mask |= 1 << (level[q if q > 0 else -q] & 63)
        #: var -> True (redundant) / False (poison), shared across the
        #: clause's literals so each implication-graph node settles once.
        verdict: Dict[int, bool] = {}
        kept = [learned[0]]
        for q in learned[1:]:
            var = q if q > 0 else -q
            if antecedents[var] is None or \
                    not self._lit_redundant(var, members, mask, verdict):
                kept.append(q)
        return kept

    def _lit_redundant(self, var: int, members: Set[int], mask: int,
                       verdict: Dict[int, bool]) -> bool:
        """Iterative DFS over *var*'s antecedent subgraph: True when
        every path bottoms out in level-0 assignments or clause
        members.  Poison verdicts propagate to the whole stack (an
        irredundant reason literal dooms every ancestor)."""
        level = self._level
        antecedents = self._antecedent
        cached = verdict.get(var)
        if cached is not None:
            return cached
        stack = [(var, iter(self._reason_lits(antecedents[var])))]
        while stack:
            top_var, reasons = stack[-1]
            for r in reasons:
                rvar = r if r > 0 else -r
                if rvar == top_var:
                    continue              # the implied literal itself
                lv = level[rvar]
                if lv == 0 or rvar in members or verdict.get(rvar):
                    continue
                reason = antecedents[rvar]
                if (reason is None or verdict.get(rvar) is False
                        or not (mask >> (lv & 63)) & 1):
                    for pvar, _ in stack:
                        verdict[pvar] = False
                    return False
                stack.append((rvar, iter(self._reason_lits(reason))))
                break
            else:
                verdict[top_var] = True
                stack.pop()
        return True

    def _analyze_decision_cut(self, conflict: int
                              ) -> Tuple[List[int], int]:
        """All-decision conflict cut: resolve back to decision
        variables only (the ablation alternative to 1-UIP)."""
        seen = [False] * (self._num_vars + 1)
        decisions: List[int] = []
        stack = list(self.arena.lits_of(conflict))
        while stack:
            q = stack.pop()
            var = abs(q)
            if seen[var] or self._level[var] == 0:
                continue
            seen[var] = True
            antecedent = self._antecedent[var]
            if antecedent is None:      # decision variable
                value = self._values[var]
                decisions.append(-var if value else var)
            else:
                stack.extend(self._reason_lits(antecedent))

        # Asserting literal: the (negated) current-level decision.
        current = self.decision_level
        learned = sorted(
            decisions, key=lambda q: -self._level[abs(q)])
        assert learned and self._level[abs(learned[0])] == current
        if len(learned) == 1:
            return learned, 0
        backtrack = self._level[abs(learned[1])]
        return learned, backtrack

    def _analyze(self, conflict: int) -> Tuple[List[int], int]:
        if self.conflict_cut == "1uip":
            return self._analyze_1uip(conflict)
        return self._analyze_decision_cut(conflict)

    # ------------------------------------------------------------------
    # Learned-database reduction (compacting GC)
    # ------------------------------------------------------------------

    def _locked_ids(self) -> Set[int]:
        """Every clause id currently serving as an antecedent (one
        O(num_vars) sweep); a locked clause must survive collection."""
        return {reason for reason in self._antecedent
                if type(reason) is int}

    def _drop_clauses(self, doomed: set) -> int:
        """Remove *doomed* learned clauses, none of them locked, as a
        compacting collection; returns the number of buffer ints
        reclaimed.

        This is the GC protocol of ``_reduce_learned``: write the
        doomed clauses' deletion lines to the proof while their ids
        still mean something (checker-side propagation then stays
        bounded), compact the arena, rewrite every stored id --
        registries, antecedent slots -- through the remap, and rebuild
        the watch tables, so the hot path never sees a dead id.
        """
        arena = self.arena
        aoff = arena.off
        aend = arena.end
        alits = arena.lits
        proof = self.proof
        if proof is not None:
            # Before compact(): it recycles the buffer and renumbers
            # ids, after which these cids mean nothing.
            for cid in doomed:
                proof.delete(alits[aoff[cid]:aend[cid]])
        self.stats.deleted_clauses += len(doomed)
        reclaimed = sum(aend[cid] - aoff[cid] for cid in doomed)
        remap = arena.compact(doomed)

        self._clauses = [remap[cid] for cid in self._clauses]
        self._learned = [remap[cid] for cid in self._learned
                         if remap[cid] >= 0]
        antecedent = self._antecedent
        for var in range(len(antecedent)):
            reason = antecedent[var]
            if type(reason) is int:
                antecedent[var] = remap[reason]

        # Rebuild the watch tables from the surviving clauses' first
        # two slots: the buffer copy preserved literal order, so this
        # reproduces exactly the live watch state minus the dead ids.
        n = self._num_vars + 1
        watches: List[List[int]] = [[] for _ in range(2 * n)]
        bins: List[List[Tuple[int, int]]] = [[] for _ in range(2 * n)]
        alits = arena.lits
        aoff = arena.off
        aend = arena.end
        for cid in range(len(aoff)):
            base = aoff[cid]
            if aend[cid] - base == 2:
                a, b = alits[base], alits[base + 1]
                bins[_lit_index(a)].append((b, cid))
                bins[_lit_index(b)].append((a, cid))
            else:
                watches[_lit_index(alits[base])].append(cid)
                watches[_lit_index(alits[base + 1])].append(cid)
        self._watches = watches
        self._bins = bins
        if arena.peak_lits > self.stats.arena_peak_lits:
            self.stats.arena_peak_lits = arena.peak_lits
        return reclaimed

    def _reduce_learned(self) -> None:
        """Apply the configured deletion policy (paper properties 2-3)
        as a compacting collection.

        Doomed clauses are identified by policy, then the arena copies
        the survivors to the front of a fresh buffer and every stored
        clause id -- watch lists, binary pairs, antecedent slots,
        clause registries -- is rewritten through the returned remap.
        The hot path never sees a dead id, so ``_propagate`` carries
        no deleted-clause test at all.
        """
        if self.deletion == "keep":
            return
        arena = self.arena
        aoff = arena.off
        aend = arena.end
        alits = arena.lits
        doomed: set = set()
        locked = self._locked_ids()
        for cid in self._learned:
            size = aend[cid] - aoff[cid]
            if size <= 2 or cid in locked:
                continue
            if self.deletion == "size":
                drop = size > self.deletion_bound
            else:  # relevance-based learning [4]
                unassigned = sum(
                    1 for lit in alits[aoff[cid]:aend[cid]]
                    if self.value_of_literal(lit) is None)
                drop = unassigned > self.deletion_bound
            if drop:
                doomed.add(cid)
        if not doomed:
            return

        reclaimed = self._drop_clauses(doomed)
        stats = self.stats
        stats.gc_runs += 1
        stats.gc_reclaimed_ints += reclaimed
        stats.arena_peak_lits = arena.peak_lits
        if self.tracer is not None:
            self.tracer.event(
                "cdcl.gc",
                reclaimed_ints=reclaimed,
                collected=len(doomed),
                live_ints=arena.live_ints(),
                clauses=len(arena),
                learned_db=len(self._learned),
                fill=round(arena.fill_ratio(), 4))

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _decide(self) -> Optional[int]:
        if self.decide_override is not None:
            lit = self.decide_override()
            if lit is not None:
                return lit
        lit = self.heuristic.decide(self._num_vars, self._is_assigned,
                                    values=self._values)
        if lit is not None and self.phase_saving:
            var = abs(lit)
            saved = self._saved_phase.get(var)
            if saved is not None:
                return var if saved else -var
        return lit

    # ------------------------------------------------------------------
    # Main search loop
    # ------------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> SolverResult:
        """Solve, optionally under *assumptions* (a literal list).

        With assumptions the result is relative to them: UNSATISFIABLE
        means "unsatisfiable under the assumptions"; recorded clauses
        remain valid for later calls (incremental SAT, Section 6).
        The result's stats are this call's effort alone; ``stats``
        keeps the running total.
        """
        tracer = self.tracer
        if tracer is None:
            return self._solve(assumptions)
        with tracer.span("cdcl.solve", num_vars=self._num_vars,
                         num_clauses=len(self._clauses),
                         num_assumptions=len(assumptions)) as end:
            result = self._solve(assumptions)
            end["status"] = result.status.value
            end["decisions"] = result.stats.decisions
            end["conflicts"] = result.stats.conflicts
            end["restarts"] = result.stats.restarts
            end["gc_runs"] = result.stats.gc_runs
            return result

    def _progress_reporter(self, tracer) -> Callable[[], None]:
        """A checkpoint hook emitting counter *deltas* plus the
        instantaneous search state.  Baselines advance only when the
        tracer actually emits (it throttles per-name), so the summed
        deltas in a trace always equal the true totals."""
        stats = self.stats
        arena = self.arena
        last = [stats.decisions, stats.conflicts, stats.propagations,
                stats.learned_clauses]

        def report() -> None:
            if tracer.progress(
                    "cdcl",
                    decisions=stats.decisions - last[0],
                    conflicts=stats.conflicts - last[1],
                    propagations=stats.propagations - last[2],
                    learned=stats.learned_clauses - last[3],
                    decision_level=len(self._trail_lim),
                    learned_db=len(self._learned),
                    trail=len(self._trail),
                    arena_lits=arena.live_ints(),
                    arena_fill=round(arena.fill_ratio(), 4),
                    rss_mb=process_rss_mb()):
                last[0] = stats.decisions
                last[1] = stats.conflicts
                last[2] = stats.propagations
                last[3] = stats.learned_clauses
        return report

    def _arm_meter(self) -> None:
        """Create the per-call meter when a budget, a checkpoint hook
        or a tracer asks for one; leave it None otherwise (the hot
        path then pays a single None-test per propagate call)."""
        tracer = self.tracer
        hook = self.on_checkpoint
        interval = self.checkpoint_interval or DEFAULT_CHECK_INTERVAL
        if tracer is not None:
            reporter = self._progress_reporter(tracer)
            if hook is None:
                hook = reporter
            else:
                user_hook = hook

                def hook() -> None:
                    user_hook()
                    reporter()
            if tracer.checkpoint_interval is not None:
                interval = tracer.checkpoint_interval
        if self.budget is not None or hook is not None:
            self._meter = (self.budget or Budget()).meter(
                baseline=self.stats, on_checkpoint=hook,
                check_interval=interval)
        else:
            self._meter = None

    def _solve(self, assumptions: Sequence[int]) -> SolverResult:
        started = time.perf_counter()
        self._call_start = replace(self.stats)
        self.heuristic.setup(self.formula)
        if self._resume_from is not None:
            checkpoint, self._resume_from = self._resume_from, None
            self._import_checkpoint(checkpoint)
        self._arm_meter()
        try:
            status = self._search(list(assumptions))
        finally:
            self.stats.time_seconds += time.perf_counter() - started
            if self.arena.peak_lits > self.stats.arena_peak_lits:
                self.stats.arena_peak_lits = self.arena.peak_lits
            if self.metrics is not None:
                self.stats.metrics = self.metrics.snapshot()
        if status is Status.UNSATISFIABLE and self.proof is not None:
            # A refutation under assumptions refutes only them: it is
            # a target (their negation, RUP here), not a conclusion.
            if assumptions:
                self.proof.target([-lit for lit in assumptions])
            else:
                self.proof.conclude()
        model = self._model() if status is Status.SATISFIABLE else None
        self._cancel_until(0)
        return SolverResult(status, model,
                            self.stats.since(self._call_start))

    # ------------------------------------------------------------------
    # Crash-recovery checkpoints (repro.runtime.checkpoint)
    # ------------------------------------------------------------------

    def export_checkpoint(self, max_clauses: Optional[int] = None):
        """Snapshot the transferable search state as a
        :class:`repro.runtime.checkpoint.SearchCheckpoint`.

        Safe to call from the cooperative-checkpoint hook (read-only
        against search structures): learned clauses in derivation
        order with LBD/activity (derivation-order *prefix* when capped
        by *max_clauses*), pending unit implicates, saved phases,
        normalized heuristic activities and effort counters.
        """
        from repro.runtime.checkpoint import (DEFAULT_MAX_CLAUSES,
                                              SearchCheckpoint)
        if max_clauses is None:
            max_clauses = DEFAULT_MAX_CLAUSES
        arena = self.arena
        clauses = [(arena.lits_of(cid), int(arena.lbd[cid]),
                    float(arena.activity[cid]))
                   for cid in self._learned[:max_clauses]]
        checkpoint = SearchCheckpoint(
            num_vars=self._num_vars,
            clauses=clauses,
            units=list(self._pending_units),
            phases=dict(self._saved_phase),
            activities=self.heuristic.export_activities(),
            conflicts=self.stats.conflicts,
            restarts=self.stats.restarts)
        self.stats.checkpoint_exports += 1
        if self.tracer is not None:
            self.tracer.event("checkpoint.export",
                              clauses=len(clauses),
                              units=len(checkpoint.units),
                              conflicts=self.stats.conflicts)
        return checkpoint

    def _import_checkpoint(self, checkpoint) -> None:
        """Warm-restart: re-attach a dead attempt's search state.

        Runs at the start of the first solve call, so every admitted
        unit and clause becomes a DRUP add line of ``proof`` -- the
        resumed proof is the imported prefix plus new derivations and
        the forward checker accepts it unchanged.  The RUP admission gate
        (:func:`repro.runtime.checkpoint.filter_rup_imports`) drops
        anything unverifiable; a checkpoint for a different formula
        size is ignored wholesale.
        """
        if checkpoint.num_vars != self._num_vars:
            return
        from repro.runtime.checkpoint import filter_rup_imports
        clauses, units, dropped = filter_rup_imports(self.formula,
                                                     checkpoint)
        stats = self.stats
        stats.warm_resumes += 1
        stats.checkpoint_dropped_clauses += dropped
        proof = self.proof
        pending = set(self._pending_units)
        new_units = 0
        for lit in units:
            if lit in pending:
                continue
            pending.add(lit)
            self._pending_units.append(lit)
            new_units += 1
            if proof is not None:
                proof.add((lit,))
        arena = self.arena
        for lits, lbd, activity in clauses:
            cid = arena.add(list(lits), learned=True, lbd=lbd)
            arena.activity[cid] = activity
            self._attach(cid, learned=True)
        stats.checkpoint_imported_clauses += len(clauses) + new_units
        self._saved_phase.update(checkpoint.phases)
        self.heuristic.absorb_activities(checkpoint.activities)
        if self.tracer is not None:
            self.tracer.event("checkpoint.resume",
                              imported=len(clauses) + new_units,
                              dropped=dropped,
                              units=new_units,
                              phases=len(checkpoint.phases))

    def _model(self) -> Assignment:
        model = Assignment()
        for var in range(1, self._num_vars + 1):
            if self._values[var] is not None:
                model.assign(var, self._values[var])
        return model

    def _budget_blown(self) -> bool:
        stats = self.stats
        start = self._call_start
        if ((self.max_conflicts is not None
             and stats.conflicts - start.conflicts >= self.max_conflicts)
                or (self.max_decisions is not None
                    and stats.decisions - start.decisions
                    >= self.max_decisions)):
            return True
        meter = self._meter
        return meter is not None and meter.blown(stats)

    def _search(self, assumptions: List[int]) -> Status:
        if self._root_conflict:
            return Status.UNSATISFIABLE
        if self._budget_blown():      # e.g. deadline already expired
            return Status.UNKNOWN
        self._cancel_until(0)
        for lit in self._pending_units:
            if not self._enqueue(lit, None):
                self._root_conflict = True
                return Status.UNSATISFIABLE

        conflicts_since_restart = 0
        conflicts_since_reduce = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                conflicts_since_reduce += 1
                if self.decision_level == 0:
                    # A level-0 conflict refutes the formula for good;
                    # remember it so later solve calls stay sound.
                    self._root_conflict = True
                    return Status.UNSATISFIABLE
                if self.decision_level <= self._assumption_depth(
                        assumptions):
                    return Status.UNSATISFIABLE
                self._handle_conflict(conflict)
                if self._budget_blown():
                    return Status.UNKNOWN
                if self.restart_policy.should_restart(
                        conflicts_since_restart):
                    self.stats.restarts += 1
                    self.restart_policy.on_restart()
                    self.heuristic.on_restart()
                    conflicts_since_restart = 0
                    self._cancel_until(0)
                    if self.tracer is not None:
                        self.tracer.event(
                            "cdcl.restart",
                            restarts=self.stats.restarts,
                            conflicts=self.stats.conflicts)
                if conflicts_since_reduce >= self.deletion_interval:
                    conflicts_since_reduce = 0
                    self._reduce_learned()
                continue

            if self.early_sat_check is not None and self.early_sat_check():
                return Status.SATISFIABLE

            decision = self._next_decision(assumptions)
            if decision == "UNSAT":
                return Status.UNSATISFIABLE
            if decision is None:
                return Status.SATISFIABLE
            if self._budget_blown():
                return Status.UNKNOWN
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self.stats.max_decision_level = max(
                self.stats.max_decision_level, self.decision_level)
            self._enqueue(decision, None)

    def _assumption_depth(self, assumptions: List[int]) -> int:
        """How many leading decision levels were opened by assumption
        literals.  A conflict while *every* open level is an assumption
        level refutes the assumptions themselves.

        Assumptions may also enter by propagation (no level of their
        own), so the prefix is computed from the actual decision
        literals on the trail rather than ``len(assumptions)``.
        """
        if not assumptions:
            return 0
        assumption_set = set(assumptions)
        depth = 0
        for level_start in self._trail_lim:
            if self._trail[level_start] in assumption_set:
                depth += 1
            else:
                break
        return depth

    def _next_decision(self, assumptions: List[int]):
        """The next assumption to assert, a heuristic literal, ``None``
        when everything is assigned, or ``"UNSAT"`` when an assumption
        is already falsified."""
        for lit in assumptions:
            value = self.value_of_literal(lit)
            if value is False:
                return "UNSAT"
            if value is None:
                return lit
        return self._decide()

    def _handle_conflict(self, conflict: int) -> None:
        learned_lits, backtrack = self._analyze(conflict)
        self.heuristic.on_conflict(learned_lits)

        if self.backtrack_mode == "chronological":
            target = self.decision_level - 1
        else:
            target = backtrack
            skipped = (self.decision_level - 1) - backtrack
            if skipped > 0:
                self.stats.nonchronological_backtracks += 1
                self.stats.levels_skipped += skipped
        self.stats.backtracks += 1
        lbd = 0
        metrics = self.metrics
        if metrics is not None:
            # LBD (distinct decision levels in the learned clause) must
            # be read before backtracking erases the levels.
            level = self._level
            lbd = len({level[q if q > 0 else -q] for q in learned_lits})
            metrics.on_conflict(self.decision_level - target,
                                len(learned_lits), lbd)
        self._cancel_until(target)

        asserting = learned_lits[0]
        if self.learning and len(learned_lits) > 1:
            cid = self.arena.add(list(learned_lits), learned=True,
                                 lbd=lbd)
            self._attach(cid, learned=True)
            self.stats.learned_clauses += 1
            self._enqueue(asserting, cid)
        elif len(learned_lits) == 1:
            # Unit implicates always persist (they go to level 0).
            self._cancel_until(0)
            self.stats.learned_clauses += 1
            self._pending_units.append(asserting)
            if self.proof is not None:
                self.proof.add((asserting,))
            self._enqueue(asserting, None)
        else:
            # Learning disabled: the derived clause is still a valid
            # implicate, so its bare literal list serves as the
            # (unrecorded) reason for the re-asserted literal; it
            # never enters the arena, is never watched, hence never
            # prunes future search -- the paper's pre-learning
            # baseline.
            self._enqueue(asserting, list(learned_lits))


def solve_cdcl(formula: CNFFormula, **kwargs) -> SolverResult:
    """One-shot CDCL solve of *formula* (kwargs as for
    :class:`CDCLSolver`)."""
    return CDCLSolver(formula, **kwargs).solve()
