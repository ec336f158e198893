"""Serializable CDCL search-state checkpoints (crash recovery).

A supervised portfolio worker or service attempt that dies mid-solve
takes its learned clauses with it; the retry restarts cold and
re-derives everything (DESIGN.md, "Crash recovery").  This module
defines the transferable part of a CDCL attempt's search state:

* :class:`SearchCheckpoint` -- learned clauses in derivation order
  (with LBD and arena activity), pending unit implicates, saved
  phases, heuristic activities, and the restart/conflict counters of
  the attempt that exported it;
* a checksummed wire format (:meth:`SearchCheckpoint.serialize` /
  :func:`load_checkpoint`): a magic+digest header over a canonical
  JSON body, so a truncated or corrupted blob is *rejected by the
  loader* -- consumers fall back to a cold restart, they never crash;
* :func:`filter_rup_imports` -- the proof-validity gate: imported
  clauses are admitted only if RUP with respect to the formula plus
  the imports before them (checked with the independent checker's own
  propagation), which is precisely the condition under which the
  resumed attempt's DRUP proof (imported prefix + new derivations)
  passes the forward checker unchanged.

What is deliberately NOT checkpointed: the trail and assignment stack
(rebuilt by propagation), watch lists and antecedents (rebuilt by
attach), the budget meter, and the inprocessor's
model-reconstruction stack.  Only state that is (a) expensive to
re-derive and (b) sound to replay against the *original* formula
crosses the process boundary; everything else is reconstructed from
the formula itself.  See DESIGN.md, "Checkpoint proof validity".
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Wire-format magic; bump the digit on incompatible payload changes
#: (the loader rejects unknown versions -- old blobs demote to cold
#: restarts instead of being misread).
CHECKPOINT_MAGIC = b"repro-ckpt1"

#: Default cap on exported learned clauses.  The *prefix* of the
#: derivation order is kept when trimming: later clauses may be RUP
#: only thanks to earlier ones, so dropping from the tail never
#: weakens the importability of what remains.
DEFAULT_MAX_CLAUSES = 512

#: Default cap on the serialized blob a worker piggybacks on its
#: progress pipe.  Export degrades (fewer clauses), then skips the
#: send entirely, rather than flooding the channel.
DEFAULT_MAX_BLOB_BYTES = 1 << 18


class CheckpointError(ValueError):
    """A checkpoint blob failed checksum or structural validation."""


@dataclass
class SearchCheckpoint:
    """The transferable search state of one CDCL attempt.

    ``clauses`` holds ``(literals, lbd, activity)`` triples in
    *derivation order* -- the order the attempt attached them, which
    is the order a resumed attempt re-attaches them and the order
    their add lines appear in the resumed proof's prefix.
    """

    num_vars: int = 0
    clauses: List[Tuple[List[int], int, float]] = field(
        default_factory=list)
    #: Unit implicates (pending root-level assignments), derivation
    #: order.  Input units reappear here; the importer deduplicates.
    units: List[int] = field(default_factory=list)
    #: var -> last assigned polarity (phase saving).
    phases: Dict[int, bool] = field(default_factory=dict)
    #: literal -> heuristic activity, normalized so max == 1.0 (scale
    #: invariant; keeps fresh bumps competitive after a resume).
    activities: Dict[int, float] = field(default_factory=dict)
    #: Effort counters of the exporting attempt (reporting/accounting
    #: only -- a resumed attempt starts its own counters at zero).
    conflicts: int = 0
    restarts: int = 0

    # -- serialization --------------------------------------------

    def _payload(self) -> Dict[str, Any]:
        return {
            "num_vars": self.num_vars,
            "clauses": [[list(lits), lbd, act]
                        for lits, lbd, act in self.clauses],
            "units": list(self.units),
            "phases": {str(var): bool(pol)
                       for var, pol in self.phases.items()},
            "activities": {str(lit): float(score)
                           for lit, score in self.activities.items()},
            "conflicts": self.conflicts,
            "restarts": self.restarts,
        }

    def serialize(self) -> bytes:
        """Checksummed wire form: ``magic digest body``.

        The digest covers the canonical (sorted, compact) JSON body,
        so any bit flip or truncation fails :func:`load_checkpoint`.
        """
        body = json.dumps(self._payload(), sort_keys=True,
                          separators=(",", ":")).encode("ascii")
        digest = hashlib.sha256(body).hexdigest()[:16].encode("ascii")
        return CHECKPOINT_MAGIC + b" " + digest + b" " + body

    def serialize_bounded(
            self, max_bytes: int = DEFAULT_MAX_BLOB_BYTES
    ) -> Optional[bytes]:
        """Serialize, shedding learned clauses from the *tail* of the
        derivation order until the blob fits *max_bytes*; None when
        even a clause-free checkpoint is too large (give up and skip
        this export rather than block the pipe)."""
        keep = len(self.clauses)
        while True:
            candidate = self if keep == len(self.clauses) \
                else self.trimmed(keep)
            blob = candidate.serialize()
            if len(blob) <= max_bytes:
                return blob
            if keep == 0:
                return None
            keep //= 2

    def trimmed(self, max_clauses: int) -> "SearchCheckpoint":
        """A copy keeping at most the first *max_clauses* learned
        clauses (derivation-order prefix, see DEFAULT_MAX_CLAUSES)."""
        return SearchCheckpoint(
            num_vars=self.num_vars,
            clauses=list(self.clauses[:max_clauses]),
            units=list(self.units),
            phases=dict(self.phases),
            activities=dict(self.activities),
            conflicts=self.conflicts,
            restarts=self.restarts)


def _require_int(value: Any, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise CheckpointError(f"{what} must be an int")
    return value


def _parse_lits(value: Any, what: str) -> List[int]:
    if not isinstance(value, list) or not value:
        raise CheckpointError(f"{what} must be a non-empty list")
    lits: List[int] = []
    for lit in value:
        if _require_int(lit, f"{what} literal") == 0:
            raise CheckpointError(f"{what} contains literal 0")
        lits.append(lit)
    if len(set(lits)) != len(lits):
        raise CheckpointError(f"{what} repeats a literal")
    return lits


def load_checkpoint(blob: bytes) -> SearchCheckpoint:
    """Parse a :meth:`SearchCheckpoint.serialize` blob, raising
    :class:`CheckpointError` on *any* corruption: bad magic, digest
    mismatch (truncation, bit flips), malformed JSON, or a payload
    that fails structural validation.  Callers on the retry path use
    :func:`try_load_checkpoint` and treat None as "restart cold"."""
    if not isinstance(blob, (bytes, bytearray)):
        raise CheckpointError("checkpoint blob must be bytes")
    parts = bytes(blob).split(b" ", 2)
    if len(parts) != 3 or parts[0] != CHECKPOINT_MAGIC:
        raise CheckpointError("bad checkpoint magic")
    digest, body = parts[1], parts[2]
    expected = hashlib.sha256(body).hexdigest()[:16].encode("ascii")
    if digest != expected:
        raise CheckpointError("checkpoint digest mismatch")
    try:
        payload = json.loads(body.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unparseable checkpoint body: {exc}")
    if not isinstance(payload, dict):
        raise CheckpointError("checkpoint body is not an object")

    num_vars = _require_int(payload.get("num_vars"), "num_vars")
    if num_vars < 0:
        raise CheckpointError("num_vars must be >= 0")
    raw_clauses = payload.get("clauses")
    if not isinstance(raw_clauses, list):
        raise CheckpointError("clauses must be a list")
    clauses: List[Tuple[List[int], int, float]] = []
    for entry in raw_clauses:
        if not isinstance(entry, list) or len(entry) != 3:
            raise CheckpointError("clause entry must be [lits, lbd, act]")
        lits = _parse_lits(entry[0], "clause")
        lbd = _require_int(entry[1], "lbd")
        if lbd < 0:
            raise CheckpointError("lbd must be >= 0")
        act = entry[2]
        if isinstance(act, bool) or not isinstance(act, (int, float)):
            raise CheckpointError("activity must be a number")
        clauses.append((lits, lbd, float(act)))
    raw_units = payload.get("units")
    if not isinstance(raw_units, list):
        raise CheckpointError("units must be a list")
    units = [u for u in raw_units
             if _require_int(u, "unit") != 0] if raw_units else []
    if len(units) != len(raw_units):
        raise CheckpointError("units contains literal 0")
    raw_phases = payload.get("phases")
    if not isinstance(raw_phases, dict):
        raise CheckpointError("phases must be an object")
    phases: Dict[int, bool] = {}
    for key, pol in raw_phases.items():
        try:
            var = int(key)
        except ValueError:
            raise CheckpointError(f"bad phase variable {key!r}")
        if var <= 0 or not isinstance(pol, bool):
            raise CheckpointError("phases map positive vars to bools")
        phases[var] = pol
    raw_acts = payload.get("activities")
    if not isinstance(raw_acts, dict):
        raise CheckpointError("activities must be an object")
    activities: Dict[int, float] = {}
    for key, score in raw_acts.items():
        try:
            lit = int(key)
        except ValueError:
            raise CheckpointError(f"bad activity literal {key!r}")
        if lit == 0 or isinstance(score, bool) \
                or not isinstance(score, (int, float)):
            raise CheckpointError("activities map literals to numbers")
        activities[lit] = float(score)
    conflicts = _require_int(payload.get("conflicts"), "conflicts")
    restarts = _require_int(payload.get("restarts"), "restarts")
    if conflicts < 0 or restarts < 0:
        raise CheckpointError("counters must be >= 0")
    return SearchCheckpoint(num_vars=num_vars, clauses=clauses,
                            units=units, phases=phases,
                            activities=activities,
                            conflicts=conflicts, restarts=restarts)


def try_load_checkpoint(blob: Optional[bytes]) -> \
        Optional[SearchCheckpoint]:
    """:func:`load_checkpoint`, but None (cold restart) on any
    corruption instead of an exception -- the retry-path contract."""
    if blob is None:
        return None
    try:
        return load_checkpoint(blob)
    except CheckpointError:
        return None


def filter_rup_imports(
        formula, checkpoint: SearchCheckpoint
) -> Tuple[List[Tuple[List[int], int, float]], List[int], int]:
    """Split a checkpoint's clauses into importable and dropped.

    Returns ``(clauses, units, dropped)`` where each admitted clause /
    unit is RUP with respect to *formula* plus the admissions before
    it (checked with the independent checker's propagation, see
    :class:`repro.verify.checker.RupDatabase`).  Clauses referencing
    variables beyond ``formula.num_vars`` are dropped too.  Dropping
    cascades naturally: a clause whose support was dropped fails its
    own check.
    """
    # Local import: repro.verify's package init pulls in the solver
    # stack, which imports this module.
    from repro.verify.checker import RupDatabase

    database = RupDatabase(formula)
    num_vars = getattr(formula, "num_vars", checkpoint.num_vars)
    clauses: List[Tuple[List[int], int, float]] = []
    units: List[int] = []
    dropped = 0
    for lits, lbd, act in checkpoint.clauses:
        if any(abs(lit) > num_vars for lit in lits) \
                or not database.admit(lits):
            dropped += 1
            continue
        if len(lits) == 1:
            units.append(lits[0])
        else:
            clauses.append((lits, lbd, act))
    for lit in checkpoint.units:
        if abs(lit) > num_vars or not database.admit([lit]):
            dropped += 1
            continue
        units.append(lit)
    return clauses, units, dropped
