"""One worker attempt: spawn, feed, audit and reap a solve process.

Both process-level callers of the engine -- the portfolio
:class:`~repro.runtime.supervisor.Supervisor` (one slot per
configuration, respawned with perturbed seeds) and the solve service's
:class:`~repro.service.server.SolveServer` (one job, retried warm) --
run each solve attempt through this module.  It is the only code that
knows how a worker is started, what it sends, which payloads are
believed and when a silent worker counts as dead.  What differs
between the callers on purpose (retry scheduling, the UNSAT policy,
what progress is used for) stays with them.

The formula is the caller's own :class:`CNFFormula`, carried on the
:class:`AttemptSpec`: a worker started by ``fork`` (CPython's default
start method on Linux before 3.14) inherits it with the rest of the
spec, and one started by ``spawn`` receives it pickled.  The worker
solves it, and the payload audit holds every SAT claim to
:meth:`CNFFormula.is_satisfied_by` on that same object -- the rule of
:func:`~repro.verify.certificate.model_certificate` -- so a model
either satisfies every clause or is not believed.

Pipe format, one private pipe per attempt, ``key`` being the slot
index (portfolio) or the job id (service):

* ``("progress", key, attempt, elapsed, stats, extras)`` -- a live
  snapshot: *stats* is :meth:`SolverStats.as_dict` with the arena
  high-water mark synced, *extras* holds readings with no stats field
  (``arena_fill``);
* ``("checkpoint", key, attempt, blob)`` -- a size-bounded,
  checksummed search state (:mod:`repro.runtime.checkpoint`) that the
  caller keeps to warm the next attempt.  Its content is checked only
  by the next attempt's loader, so a corrupt blob demotes that
  attempt to a cold start instead of failing it;
* ``("result", key, attempt, status, model, stats)`` -- the terminal
  payload; *status* is a :class:`Status` name, *model* ``{var: bool}``
  or None.

Liveness: a worker is *crashed* once its process has been dead for
``_DEATH_GRACE`` seconds (its last payload may still sit in the pipe
when death is first observed) and *hung* once its heartbeat, written
at every cooperative checkpoint, is older than the caller's hang
timeout.

Scripted faults come from a :class:`~repro.runtime.faults.FaultPlan`
or :class:`~repro.runtime.faults.ServiceFaultPlan`, resolved through
their shared ``action``/``corrupts_checkpoint``/
``kill_after_checkpoints``.  ``kill_midjob`` counts cooperative
checkpoints: at the n-th one the worker pushes one progress snapshot
and one checkpoint, then exits with code 23.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.cnf.formula import CNFFormula
from repro.runtime.budget import Budget
from repro.runtime.checkpoint import try_load_checkpoint
from repro.runtime.faults import (CRASH, FALSE_UNSAT, GARBAGE, HANG,
                                  KILL_MIDJOB, FaultPlan, ServiceFaultPlan,
                                  corrupt_blob)
from repro.solvers.result import SolverStats, Status

#: Seconds between first seeing a worker dead and declaring it
#: crashed: its final payload may still be buffered in its pipe.
_DEATH_GRACE = 0.25

#: Largest believed checkpoint blob.  Workers bound their exports
#: (``serialize_bounded``), so anything bigger is a misbehaving sender.
_MAX_CHECKPOINT_BLOB = 1 << 20

#: Tag of an audited payload that failed the audit.
MALFORMED = "malformed"

Key = Union[int, str]


@dataclass(frozen=True)
class AttemptSpec:
    """Everything one worker attempt needs, fixed at spawn time.

    ``key`` is the slot index or the job id; ``config`` builds the
    engine (``build_solver``, as
    :class:`~repro.solvers.portfolio.PortfolioConfig` does).
    ``check_interval`` (work units between cooperative checkpoints;
    None keeps the engine default), ``metrics`` (attach a
    :class:`~repro.obs.metrics.SearchMetrics`) and ``trace_path`` (a
    per-attempt JSONL trace stamped with ``job``/``attempt``) are set
    by the service, whose jobs are often small and observed per job;
    the portfolio leaves them off.
    """

    key: Key
    attempt: int
    formula: CNFFormula
    config: Any
    budget: Optional[Budget] = None
    fault_plan: Optional[Union[FaultPlan, ServiceFaultPlan]] = None
    progress_interval: Optional[float] = None
    proof_path: Optional[str] = None
    resume_blob: Optional[bytes] = None
    check_interval: Optional[int] = None
    metrics: bool = False
    trace_path: Optional[str] = None


def worker_main(spec: AttemptSpec, heartbeat, channel) -> None:
    """Entry point of one worker process (module level: picklable).

    Runs the scripted fault, or builds the solver -- warm from
    ``spec.resume_blob`` when that loads -- and solves, heartbeating
    into *heartbeat* and sending the payloads of the module docstring
    over *channel*.  A non-UNSAT outcome leaves no proof file (see
    :class:`repro.verify.drat.FileProofSink`).
    """
    key, attempt, plan = spec.key, spec.attempt, spec.fault_plan
    action = None if plan is None else plan.action(key, attempt)
    if action == CRASH:
        # _exit: no finally blocks, no pipe flushing -- as a native
        # crash or an OOM kill would end the process.
        os._exit(17)
    if action == HANG:
        while True:           # pragma: no cover - killed externally
            time.sleep(0.05)
    if action == GARBAGE:
        # Wrong shape AND a bogus status name: must fail the audit,
        # never parse as a verdict.
        channel.send(("garbage", key, "NOT_A_STATUS"))
        channel.close()
        return
    if action == FALSE_UNSAT:
        # A well-formed lie: only a proof audit can reject it.
        channel.send(("result", key, attempt, "UNSATISFIABLE", None, {}))
        channel.close()
        return
    kill_after = (plan.kill_after_checkpoints if action == KILL_MIDJOB
                  else None)
    corrupting = plan is not None and plan.corrupts_checkpoint(key,
                                                               attempt)

    started = heartbeat.value = time.monotonic()
    resume_from = try_load_checkpoint(spec.resume_blob)
    build_kwargs = {} if resume_from is None \
        else {"resume_from": resume_from}
    solver = spec.config.build_solver(spec.formula, budget=spec.budget,
                                      **build_kwargs)
    solver.checkpoint_interval = spec.check_interval
    if spec.metrics:
        from repro.obs.metrics import SearchMetrics
        solver.metrics = SearchMetrics()
    tracer = None
    if spec.trace_path is not None:
        from repro.obs.trace import JsonlSink, Tracer
        # Context attempts are 1-based, matching the protocol's
        # progress frames and the server's service.retry events.
        tracer = Tracer(JsonlSink(spec.trace_path),
                        context={"job": key, "attempt": attempt + 1})
        tracer.emit_meta()
        solver.tracer = tracer
    if spec.proof_path is not None:
        from repro.verify.drat import FileProofSink
        solver.proof = FileProofSink(spec.proof_path)

    def send_snapshot(now: float) -> None:
        arena = solver.arena
        # The engine syncs the high-water mark only at GC and at solve
        # end; live snapshots report it too.
        solver.stats.arena_peak_lits = arena.peak_lits
        if solver.metrics is not None:
            solver.stats.metrics = solver.metrics.snapshot()
        blob = solver.export_checkpoint().serialize_bounded()
        if blob is not None and corrupting:
            blob = corrupt_blob(blob)
        try:
            channel.send(("progress", key, attempt, now - started,
                          solver.stats.as_dict(),
                          {"arena_fill": round(arena.fill_ratio(), 4)}))
            if blob is not None:
                channel.send(("checkpoint", key, attempt, blob))
        except (BrokenPipeError, OSError):
            pass              # caller gone; keep solving regardless

    interval = spec.progress_interval
    last_sent = started
    ticks = 0

    def on_checkpoint() -> None:
        nonlocal last_sent, ticks
        now = time.monotonic()
        heartbeat.value = now
        ticks += 1
        if kill_after is not None and ticks >= kill_after:
            # Scripted mid-job death, after the caller demonstrably
            # holds partial state and a checkpoint to warm the retry.
            send_snapshot(now)
            os._exit(23)
        if interval is not None and now - last_sent >= interval:
            last_sent = now
            send_snapshot(now)

    solver.on_checkpoint = on_checkpoint
    result = solver.solve()
    if solver.proof is not None:
        solver.proof.close()
    heartbeat.value = time.monotonic()
    if tracer is not None:
        tracer.close()
    model: Optional[Dict[int, bool]] = None
    if result.assignment is not None:
        model = {var: result.assignment.value_of(var)
                 for var in result.assignment.assigned_variables()}
    channel.send(("result", key, attempt, result.status.name, model,
                  result.stats.as_dict()))
    channel.close()


def audit_payload(payload, key: Key, attempt: int,
                  formula: CNFFormula) -> Tuple:
    """Check one pipe payload from the worker of (*key*, *attempt*).

    Returns the payload with its stats reduced to known
    :class:`SolverStats` fields (wrong-typed values dropped), its
    extras to numeric readings, its status parsed to :class:`Status`
    and its blob to ``bytes`` -- or ``(MALFORMED,)`` for anything
    else: a wrong shape, tag, key or attempt, a negative or non-number
    elapsed, non-dict stats or extras, an oversized or non-bytes blob,
    an unknown status, a model that is not ``{var > 0: bool}``, or a
    SAT claim whose model does not satisfy every clause of *formula*
    (:meth:`CNFFormula.is_satisfied_by`, the rule of
    :func:`repro.verify.certificate.model_certificate`).
    """
    bad = (MALFORMED,)
    if (not isinstance(payload, tuple) or len(payload) < 4
            or type(payload[1]) is not type(key) or payload[1] != key
            or type(payload[2]) is not int or payload[2] != attempt):
        return bad
    tag = payload[0]
    if tag == "progress" and len(payload) == 6:
        elapsed, stats, extras = payload[3:]
        if (type(elapsed) not in (int, float) or not elapsed >= 0
                or not isinstance(stats, dict)
                or not isinstance(extras, dict)):
            return bad
        return (tag, key, attempt, float(elapsed),
                SolverStats.from_dict(stats).as_dict(),
                {name: value for name, value in extras.items()
                 if type(name) is str and type(value) in (int, float)})
    if tag == "checkpoint" and len(payload) == 4:
        blob = payload[3]
        if (not isinstance(blob, (bytes, bytearray))
                or len(blob) > _MAX_CHECKPOINT_BLOB):
            return bad
        return (tag, key, attempt, bytes(blob))
    if tag == "result" and len(payload) == 6:
        status_name, model, stats = payload[3:]
        if (not isinstance(status_name, str)
                or status_name not in Status.__members__
                or not isinstance(stats, dict)):
            return bad
        if model is not None and (not isinstance(model, dict) or not all(
                type(var) is int and var > 0 and type(value) is bool
                for var, value in model.items())):
            return bad
        status = Status[status_name]
        if status is Status.SATISFIABLE and (
                model is None or not formula.is_satisfied_by(model)):
            return bad
        return (tag, key, attempt, status, model,
                SolverStats.from_dict(stats).as_dict())
    return bad


class WorkerAttempt:
    """The caller's handle on one spawned attempt.

    Construction forks the worker with a private pipe (the caller
    keeps ``conn``, the read end, for
    :func:`multiprocessing.connection.wait`; it is None once the
    worker hung up) and a lock-free heartbeat cell: a worker killed
    mid-write must not leave a held lock behind for the caller's
    reads.  Per-attempt pipes, never a shared queue, so a kill can
    only ever tear the victim's own channel.

    An attempt that never delivers a ``result`` (killed, crashed,
    hung, cut off or cancelled) leaves no proof file: :meth:`stop`
    removes ``spec.proof_path``, which a worker that dies mid-solve
    never closes.  The proof of an attempt that delivered a result
    stays for the caller to check.
    """

    def __init__(self, spec: AttemptSpec):
        ctx = multiprocessing.get_context()
        self.key = spec.key
        self.attempt = spec.attempt
        self._formula = spec.formula
        self._proof_path = spec.proof_path
        self._delivered = False
        self._died_at: Optional[float] = None
        self._stopped = False
        self.heartbeat = ctx.Value("d", time.monotonic(), lock=False)
        reader, writer = ctx.Pipe(duplex=False)
        self.conn = reader
        self.process = ctx.Process(target=worker_main,
                                   args=(spec, self.heartbeat, writer),
                                   daemon=True)
        self.process.start()
        writer.close()        # keep only the worker's end open there

    def drain(self) -> List[Tuple]:
        """Every payload waiting in the pipe, audited in arrival order.

        A payload that fails :func:`audit_payload` ends the list as
        ``(MALFORMED,)``: its sender has lost all trust, so it is
        terminated and its pipe is never read again.
        """
        messages: List[Tuple] = []
        conn = self.conn
        if conn is None:
            return messages
        done = False
        try:
            while not done and conn.poll(0):
                message = audit_payload(conn.recv(), self.key,
                                        self.attempt, self._formula)
                messages.append(message)
                if message[0] == "result":
                    self._delivered = True
                elif message[0] == MALFORMED:
                    self.process.terminate()
                    done = True
        except (EOFError, OSError):
            # Sender gone and channel drained; liveness() decides
            # between a crash and a clean exit.
            done = True
        if done:
            conn.close()
            self.conn = None
        return messages

    def liveness(self, now: float,
                 hang_timeout: Optional[float]) -> Optional[str]:
        """``"crash"`` once the process has been dead for the grace
        period, ``"hang"`` once its heartbeat is older than
        *hang_timeout* (None disables), else None."""
        if not self.process.is_alive():
            if self._died_at is None:
                self._died_at = now
            elif now - self._died_at >= _DEATH_GRACE:
                return "crash"
            return None
        self._died_at = None
        if (hang_timeout is not None
                and now - self.heartbeat.value > hang_timeout):
            return "hang"
        return None

    def stop(self) -> None:
        """Terminate (kill if need be), reap and close; idempotent.
        Removes the proof file unless a result was delivered."""
        if self._stopped:
            return
        self._stopped = True
        process = self.process
        if process.is_alive():
            process.terminate()
        process.join(timeout=5.0)
        if process.is_alive():        # pragma: no cover
            process.kill()
            process.join(timeout=5.0)
        process.close()
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self._proof_path is not None and not self._delivered:
            try:
                os.remove(self._proof_path)
            except FileNotFoundError:
                pass          # the worker died before opening it
