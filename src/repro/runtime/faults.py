"""Deterministic fault injection for portfolio and service workers.

The supervisor's recovery paths (crash respawn, hang detection,
garbage rejection) are unreachable in a healthy run, so CI could never
exercise them.  A :class:`FaultPlan` (or its service twin
:class:`ServiceFaultPlan`) travels to each worker process (it is a
frozen, picklable value object) and tells the worker runtime
(:mod:`repro.runtime.attempt`) to misbehave in a prescribed,
reproducible way:

* **crash** -- die via ``os._exit`` with no result, as a segfaulting
  or OOM-killed engine would;
* **hang** -- spin forever without heartbeating, as a livelocked or
  deadlocked engine would;
* **garbage** -- report a malformed payload (wrong shape, bogus
  status name), as a corrupted engine would; the service plan's
  ``poisons`` schedule the same fault;
* **kill_midjob** -- at the ``kill_after_checkpoints``-th cooperative
  checkpoint push one progress snapshot and one search checkpoint,
  then die with exit code 23, so the caller demonstrably holds
  partial state and can warm the retry;
* **false_unsat** -- report a well-formed UNSATISFIABLE verdict
  without having solved (and so without a proof), as a buggy engine
  would.  Under a certifying supervisor (``proof_dir`` set) this must
  be caught by the proof check and degraded to ``DISCREPANT``; an
  uncertified race has no defence against it, which is the point.

Faults are keyed by ``(worker index, attempt)`` so a plan can say
"worker 2 crashes on its first two attempts, then behaves", which is
exactly the shape supervisor tests need: forced failures followed by a
verifiable recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

#: Worker fault kinds returned by :meth:`FaultPlan.action` and
#: :meth:`ServiceFaultPlan.action`; the worker runtime
#: (:mod:`repro.runtime.attempt`) carries them out.
CRASH = "crash"
HANG = "hang"
GARBAGE = "garbage"           # malformed payload on the result pipe
FALSE_UNSAT = "false_unsat"   # portfolio only: a well-formed lie
KILL_MIDJOB = "kill_midjob"   # die after making observable progress

#: Crash-recovery fault kinds (PR 10).  ``corrupt_checkpoint`` is a
#: *modifier*, not an action: the worker solves normally but flips
#: bytes in every checkpoint blob it piggybacks, so the consumer's
#: checksummed loader must reject them and the next respawn must fall
#: back to a cold restart.  ``server_kill`` is server-side: the
#: process dies via ``os._exit`` right after journaling a job's
#: accepted submission -- the deterministic stand-in for a SIGKILL
#: mid-batch that journal replay must recover from.
CORRUPT_CHECKPOINT = "corrupt_checkpoint"
SERVER_KILL = "server_kill"

#: Exit code of a scripted ``server_kill`` (distinct from worker
#: crash 17 and mid-job kill 23 so test harnesses can tell them
#: apart).
SERVER_KILL_EXIT = 29


def corrupt_blob(blob: bytes) -> bytes:
    """Deterministically corrupt *blob* (checkpoint wire bytes): the
    last byte is bit-flipped, which breaks the body digest without
    changing the length -- the subtlest corruption the loader must
    still catch."""
    if not blob:
        return blob
    return blob[:-1] + bytes([blob[-1] ^ 0xFF])


@dataclass(frozen=True)
class FaultPlan:
    """Scripted misbehaviour per (worker index, attempt).

    Parameters
    ----------
    crashes:
        worker index -> number of leading attempts that crash.
        ``{1: 2}`` crashes worker 1 on attempts 0 and 1; attempt 2
        runs normally.
    hangs:
        worker indices that hang on **every** attempt (a hung worker
        is terminated, not respawned, so one entry is enough).
    garbage:
        worker index -> number of leading attempts that return a
        corrupt payload instead of solving.
    false_unsat:
        worker index -> number of leading attempts that claim
        UNSATISFIABLE without solving (and without writing a proof).
    kills:
        worker index -> leading attempts that die *mid-job*, after
        ``kill_after_checkpoints`` cooperative checkpoints -- so the
        supervisor has already received progress (and piggybacked
        checkpoints) when the worker dies, which is what warm-restart
        respawn tests need.
    corrupt_checkpoints:
        worker index -> leading attempts whose piggybacked checkpoint
        blobs are corrupted before sending (the respawn must demote to
        a cold restart, never crash).
    kill_after_checkpoints:
        checkpoints a ``kills`` attempt survives before dying.
    """

    crashes: Dict[int, int] = field(default_factory=dict)
    hangs: FrozenSet[int] = field(default_factory=frozenset)
    garbage: Dict[int, int] = field(default_factory=dict)
    false_unsat: Dict[int, int] = field(default_factory=dict)
    kills: Dict[int, int] = field(default_factory=dict)
    corrupt_checkpoints: Dict[int, int] = field(default_factory=dict)
    kill_after_checkpoints: int = 2

    def __post_init__(self):
        # Normalize so equal plans compare/pickle identically.
        object.__setattr__(self, "crashes", dict(self.crashes))
        object.__setattr__(self, "hangs", frozenset(self.hangs))
        object.__setattr__(self, "garbage", dict(self.garbage))
        object.__setattr__(self, "false_unsat", dict(self.false_unsat))
        object.__setattr__(self, "kills", dict(self.kills))
        object.__setattr__(self, "corrupt_checkpoints",
                           dict(self.corrupt_checkpoints))

    def action(self, index: int, attempt: int) -> Optional[str]:
        """The scripted fault for this (worker, attempt), or None."""
        if index in self.hangs:
            return HANG
        if attempt < self.crashes.get(index, 0):
            return CRASH
        if attempt < self.kills.get(index, 0):
            return KILL_MIDJOB
        if attempt < self.garbage.get(index, 0):
            return GARBAGE
        if attempt < self.false_unsat.get(index, 0):
            return FALSE_UNSAT
        return None

    def corrupts_checkpoint(self, index: int, attempt: int) -> bool:
        """Should this attempt corrupt its checkpoint blobs?"""
        return attempt < self.corrupt_checkpoints.get(index, 0)

    @classmethod
    def crash_all_once(cls, num_workers: int) -> "FaultPlan":
        """Every worker crashes on its first attempt, then recovers --
        the canonical supervisor-respawn scenario."""
        return cls(crashes={index: 1 for index in range(num_workers)})

    @classmethod
    def hang_all(cls, num_workers: int) -> "FaultPlan":
        """Every worker hangs -- the canonical deadline scenario."""
        return cls(hangs=frozenset(range(num_workers)))


@dataclass(frozen=True)
class ServiceFaultPlan:
    """Scripted misbehaviour for the solve service, keyed by
    ``(job id, attempt)`` -- the service twin of :class:`FaultPlan`.

    The service's recovery surface is wider than the portfolio's:
    besides crash-at-start and hang, a worker can die *mid-job* after
    heartbeating and reporting progress (exercising partial-result
    degradation), a payload can arrive poisoned, and a response can be
    deliberately delayed server-side (exercising client deadlines).
    All counts are "number of leading attempts", so ``{"job-3": 1}``
    fails job-3's first attempt and lets its retry succeed.

    Parameters
    ----------
    crashes:
        job id -> leading attempts that die at solve start.
    kills:
        job id -> leading attempts that die mid-job, after
        ``kill_after_checkpoints`` cooperative checkpoints (so the
        server has seen heartbeats and progress snapshots first).
    hangs:
        job id -> leading attempts that spin without heartbeating.
    poisons:
        job id -> leading attempts that send a malformed payload.
    delays:
        job id -> seconds the *server* stalls before replying
        (applies to every attempt; models a slow result path).
    kill_after_checkpoints:
        checkpoints a ``kills`` attempt survives before dying.
    corrupt_checkpoints:
        job id -> leading attempts whose piggybacked checkpoint blobs
        are corrupted before sending; the retry must fall back to a
        cold restart without losing the job.
    server_kills:
        job id -> nonzero means the *server process* dies via
        ``os._exit(SERVER_KILL_EXIT)`` immediately after journaling
        the job's accepted submission (deterministic SIGKILL
        mid-batch; exercises journal replay on restart).
    """

    crashes: Dict[str, int] = field(default_factory=dict)
    kills: Dict[str, int] = field(default_factory=dict)
    hangs: Dict[str, int] = field(default_factory=dict)
    poisons: Dict[str, int] = field(default_factory=dict)
    delays: Dict[str, float] = field(default_factory=dict)
    kill_after_checkpoints: int = 2
    corrupt_checkpoints: Dict[str, int] = field(default_factory=dict)
    server_kills: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("crashes", "kills", "hangs", "poisons", "delays",
                     "corrupt_checkpoints", "server_kills"):
            object.__setattr__(self, name, dict(getattr(self, name)))

    def action(self, job_id: str, attempt: int) -> Optional[str]:
        """The scripted worker fault for this (job, attempt), or None.

        ``delays`` are not returned here -- they are a server-side
        response action, read via :meth:`delay`.
        """
        if attempt < self.crashes.get(job_id, 0):
            return CRASH
        if attempt < self.kills.get(job_id, 0):
            return KILL_MIDJOB
        if attempt < self.hangs.get(job_id, 0):
            return HANG
        if attempt < self.poisons.get(job_id, 0):
            return GARBAGE
        return None

    def delay(self, job_id: str) -> float:
        """Seconds the server should stall before replying to *job*."""
        return self.delays.get(job_id, 0.0)

    def corrupts_checkpoint(self, job_id: str, attempt: int) -> bool:
        """Should this attempt corrupt its checkpoint blobs?"""
        return attempt < self.corrupt_checkpoints.get(job_id, 0)

    def kills_server(self, job_id: str) -> bool:
        """Should the server die after journaling *job*'s admission?"""
        return self.server_kills.get(job_id, 0) > 0

    @classmethod
    def from_dict(cls, payload: Dict) -> "ServiceFaultPlan":
        """Build a plan from a JSON-shaped dict (CLI ``--fault-plan``).

        Unknown keys raise: a chaos plan that silently drops actions
        would make CI green for the wrong reason.
        """
        known = {"crashes", "kills", "hangs", "poisons", "delays",
                 "kill_after_checkpoints", "corrupt_checkpoints",
                 "server_kills"}
        extra = set(payload) - known
        if extra:
            raise ValueError(f"unknown ServiceFaultPlan keys "
                             f"{sorted(extra)}")
        return cls(**payload)
