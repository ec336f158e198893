"""Optional numpy kernels for simplification hot loops.

The :class:`~repro.solvers.clause_arena.ClauseArena` stores every
literal in one flat int buffer, which is exactly the layout a
vectorized runtime can chew on: per-clause 64-bit signatures are one
``bitwise_or.reduceat`` over the buffer, occurrence counting is one
``bincount``, and subsumption candidate filtering is one masked
compare over a signature array.  This module provides those three
kernels twice -- a numpy implementation and a pure-Python fallback
with identical semantics -- and runs numpy exactly when it imports,
so the package keeps working with stdlib only (``pip install
repro[fast]`` adds the accelerated path).  Nothing imports this module
on the default solve path: only inprocessing, ``simplify`` and the
service's ``STATUS`` capability probe load it (and with it numpy).

Signature semantics (shared contract, covered by the parity tests in
``tests/test_inprocess.py``): bit ``lit & 63`` of a 64-bit word is set
for every literal of the clause.  ``lit & 63`` is identical between
Python ints and two's-complement int64 for negative literals, so both
kernels hash a literal to the same bit.  A clause C can only subsume D
when ``sig(C) & ~sig(D) == 0`` -- the signature test never rejects a
real subsumption, it only prunes candidates before the exact set
inclusion check.

The numpy path wins every inprocessing solve measured (DESIGN.md);
the stdlib path is the only one that runs without numpy.  Callers
that report which implementation ran (the ``cdcl.inprocess`` trace
event, :func:`capability`) read :func:`active_kernel`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

try:  # pragma: no cover - depends on the interpreter
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


def active_kernel() -> str:
    """The implementation the kernels run: ``"numpy"`` when numpy
    imported, ``"python"`` otherwise."""
    return "python" if _np is None else "numpy"


def capability() -> dict:
    """JSON-ready capability probe (perf harness, service
    ``STATUS``)."""
    version = None if _np is None else getattr(_np, "__version__", "?")
    return {"numpy": _np is not None, "numpy_version": version,
            "kernel": active_kernel()}


# ----------------------------------------------------------------------
# Clause signatures
# ----------------------------------------------------------------------

def clause_signature(literals: Sequence[int]) -> int:
    """The 64-bit membership signature of one clause."""
    sig = 0
    for lit in literals:
        sig |= 1 << (lit & 63)
    return sig


def bulk_signatures_flat(flat: Sequence[int], off: Sequence[int],
                         end: Sequence[int]) -> List[int]:
    """Signatures for every clause of a flat arena-style buffer.

    ``flat[off[i]:end[i]]`` is clause *i*; offsets must be ascending
    and contiguous-friendly (the arena guarantees both).  Returns
    plain Python ints in clause order.
    """
    if not off:
        return []
    if _np is not None:
        arr = _np.asarray(flat, dtype=_np.int64)
        vals = _np.left_shift(_np.uint64(1),
                              (arr & 63).astype(_np.uint64))
        sigs = _np.bitwise_or.reduceat(
            vals, _np.asarray(off, dtype=_np.intp))
        return sigs.tolist()
    return [clause_signature(flat[off[i]:end[i]])
            for i in range(len(off))]


def bulk_signatures(clauses: Sequence[Sequence[int]]) -> List[int]:
    """Signatures for a list of literal sequences (flattens internally
    so the numpy path still runs one ``reduceat``)."""
    if not clauses:
        return []
    if _np is not None:
        flat: List[int] = []
        off: List[int] = []
        end: List[int] = []
        for lits in clauses:
            off.append(len(flat))
            flat.extend(lits)
            end.append(len(flat))
        if not flat:        # only empty clauses: no bits set anywhere
            return [0] * len(clauses)
        # reduceat cannot express zero-length slices; empty clauses do
        # not occur in the solver DB, so fall back for that edge.
        if any(not c for c in clauses):
            return [clause_signature(c) for c in clauses]
        return bulk_signatures_flat(flat, off, end)
    return [clause_signature(c) for c in clauses]


# ----------------------------------------------------------------------
# Occurrence counting
# ----------------------------------------------------------------------

def occurrence_counts(flat: Sequence[int], num_vars: int) -> List[int]:
    """Literal occurrence counts over a flat buffer.

    Returns a flat table indexed like the solver's watch slots:
    ``2*var`` counts positive occurrences of ``var``, ``2*var + 1``
    negative ones (length ``2*(num_vars+1)``).
    """
    size = 2 * (num_vars + 1)
    if _np is not None and flat:
        arr = _np.asarray(flat, dtype=_np.int64)
        idx = _np.where(arr > 0, arr + arr, 1 - arr - arr)
        return _np.bincount(idx, minlength=size).tolist()
    counts = [0] * size
    for lit in flat:
        counts[lit + lit if lit > 0 else 1 - lit - lit] += 1
    return counts


# ----------------------------------------------------------------------
# Subsumption candidate filtering
# ----------------------------------------------------------------------

def as_sig_array(sigs: Sequence[int]):
    """Prepare a signature list for repeated :func:`filter_supersets`
    calls (numpy: one uint64 conversion up front)."""
    if _np is not None:
        return _np.asarray(sigs, dtype=_np.uint64)
    return list(sigs)


def filter_supersets(sig: int, candidates: Sequence[int],
                     sig_array) -> List[int]:
    """The *candidates* (indices into *sig_array*) whose signature is
    a bit-superset of *sig* -- the cheap pre-filter before an exact
    set-inclusion check."""
    if not candidates:
        return []
    if _np is not None:
        cand = _np.asarray(candidates, dtype=_np.intp)
        vals = sig_array[cand]
        mask = (_np.uint64(sig) & ~vals) == 0
        return cand[mask].tolist()
    return [i for i in candidates if sig & ~sig_array[i] == 0]


def filter_subsets(sig: int, candidates: Sequence[int],
                   sig_array) -> List[int]:
    """The *candidates* (indices into *sig_array*) whose signature is
    a bit-subset of *sig* -- the pre-filter for "which of these could
    subsume a clause with signature *sig*" (the mirror of
    :func:`filter_supersets`)."""
    if not candidates:
        return []
    if _np is not None:
        cand = _np.asarray(candidates, dtype=_np.intp)
        vals = sig_array[cand]
        mask = (vals & ~_np.uint64(sig)) == 0
        return cand[mask].tolist()
    return [i for i in candidates if sig_array[i] & ~sig == 0]


# ----------------------------------------------------------------------
# Signature-based subsumption sweep (shared by cnf.simplify and the
# inprocessing engine -- one implementation, two call sites)
# ----------------------------------------------------------------------

def subsumption_pairs(clauses: Sequence[Sequence[int]],
                      spend: Optional[Callable[[int], None]] = None
                      ) -> List[Tuple[int, int]]:
    """Find subsumed clauses: ``(subsumed_index, subsuming_index)``.

    Clauses are processed shortest-first; a clause subsumed by an
    earlier-kept one is reported (at most once) and never itself kept
    as a subsumer -- its subsumer already covers anything it would.
    Exact duplicates therefore report the later copy as subsumed by
    the earlier.  Candidate generation walks the occurrence lists of
    the clause's literals (any subset shares every literal), pruned by
    the 64-bit signature filter; *spend* (when given) is charged one
    unit per candidate signature examined, so callers can meter the
    sweep against a budget.
    """
    n = len(clauses)
    if n < 2:
        return []
    sigs = bulk_signatures(clauses)
    sig_array = as_sig_array(sigs)
    order = sorted(range(n), key=lambda i: (len(clauses[i]), i))
    occurrences = {}
    pairs: List[Tuple[int, int]] = []
    for idx in order:
        lits = clauses[idx]
        candidates = set()
        for lit in lits:
            candidates.update(occurrences.get(lit, ()))
        winner = -1
        if candidates:
            if spend is not None:
                spend(len(candidates))
            litset = set(lits)
            for j in filter_subsets(sigs[idx], sorted(candidates),
                                    sig_array):
                if all(q in litset for q in clauses[j]):
                    winner = j
                    break
        if winner >= 0:
            pairs.append((idx, winner))
            continue
        for lit in lits:
            occurrences.setdefault(lit, []).append(idx)
    return pairs
