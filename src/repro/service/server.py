"""The asyncio solve server: fair admission, supervised workers,
retry with inherited budgets, graceful degradation and drain.

One :class:`SolveServer` owns the tenant queues, the result cache and
a pool of at most ``max_workers`` concurrently running solve
processes.  The control plane is a single asyncio event loop; the
data plane is one process per job *attempt*, run through the
worker-attempt runtime the portfolio supervisor also uses
(:mod:`repro.runtime.attempt`: a private result pipe, one payload
audit, a heartbeat cell and one liveness rule) but without blocking:
the loop drains pipes between ``await asyncio.sleep(poll_interval)``
ticks, so a hundred waiting clients cost nothing while two workers
solve.  A job keeps the one :class:`~repro.cnf.formula.CNFFormula`
that ``parse_submit`` made of its submission: the cache key is its
``canonical_key``, every attempt's worker solves it, and the answer
is audited and certified against it.

The failure contract, end to end:

* every accepted job receives exactly one terminal response --
  result, or an explicit rejection; a crash, hang or poisoned payload
  mid-job never strands the client;
* a retried attempt runs under ``Budget.remaining_after(elapsed,
  spent=...)`` of the *original* envelope -- wall clock shrinks by
  time already burned and counter caps shrink by the effort prior
  attempts demonstrably spent (their last progress snapshots), so
  retries can never exceed what the caller asked for;
* retry backoff is bounded-exponential with deterministic per-job
  jitter (seeded from the job id, so chaos runs replay exactly);
* when every attempt fails, the response is a *structured partial
  result*: status UNKNOWN, ``degraded`` true with the failure kind,
  and the last progress snapshot the dying worker reported;
* certified jobs (``certify``) go through the certification rule
  every certified entry point shares
  (:func:`repro.verify.certificate.certify_result`): UNSAT must pass
  the independent DRUP check and SAT the model audit, and a failed
  check *demotes* the answer to UNKNOWN with ``degraded_reason =
  "certification"`` -- the service never forwards an answer it
  cannot defend;
* shutdown drains: queued and running jobs finish within
  ``grace_seconds``, stragglers are cancelled with a terminal
  degraded response, and new submissions are rejected with
  ``SHUTTING_DOWN`` throughout;
* retried attempts warm-start: workers piggyback checksummed search
  checkpoints (:mod:`repro.runtime.checkpoint`) on their progress
  pipe, the server keeps the latest blob per job and seeds the next
  attempt's worker from it -- a corrupt blob is rejected by the
  worker's loader and that attempt simply starts cold;
* with ``journal`` set, accepted submissions and terminal results are
  written ahead to an append-only JSONL file
  (:mod:`repro.service.journal`); a restarted server replays it,
  re-enqueueing accepted-but-unfinished jobs and re-serving terminal
  ones idempotently through the ``query`` op, so even a SIGKILL'd
  server loses no accepted job and flips no released verdict.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import shutil
import tempfile
import time
from typing import Any, Dict, Optional

from repro.cnf.assignment import Assignment
from repro.cnf.canonical import canonical_key
from repro.runtime.attempt import AttemptSpec, WorkerAttempt
from repro.runtime.budget import Budget
from repro.runtime.faults import SERVER_KILL_EXIT, ServiceFaultPlan
from repro.service.admission import (
    ServiceConfig,
    TenantQueues,
    estimate_hardness,
)
from repro.service.cache import ResultCache
from repro.service.journal import JobJournal, replay_journal
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    BAD_REQUEST,
    NOT_FOUND,
    REJECTED_OVERLOAD,
    SHUTTING_DOWN,
    ProtocolError,
    SubmitRequest,
    encode_message,
    decode_message,
    parse_submit,
)
from repro.solvers.portfolio import PortfolioConfig
from repro.solvers.result import SolverResult, SolverStats, Status
from repro.verify.certificate import certify_result

#: The engine configuration of every job: ``PortfolioConfig``'s
#: defaults search exactly like ``CDCLSolver(formula)``.  A retried
#: attempt runs its ``perturbed`` variant, like a portfolio respawn.
_ENGINE = PortfolioConfig(name="service")


class _Attempt:
    """Outcome of one supervised worker attempt."""

    __slots__ = ("kind", "status", "model", "stats", "partial",
                 "proof_path")

    def __init__(self, kind: str, status: Optional[Status] = None,
                 model: Optional[Dict[int, bool]] = None,
                 stats: Optional[Dict[str, Any]] = None,
                 partial: Optional[Dict[str, Any]] = None,
                 proof_path: Optional[str] = None):
        self.kind = kind          # result | crash | hang | poison |
        self.status = status                        # deadline
        self.model = model
        self.stats = stats
        self.partial = partial
        self.proof_path = proof_path


class _Job:
    """Server-side state of one accepted submission."""

    __slots__ = ("request", "key", "future", "submitted_at",
                 "dispatched_at", "worker", "task", "partial",
                 "send_frame", "stream_seq", "last_frame_at",
                 "last_frame_totals", "last_checkpoint", "recovered")

    def __init__(self, request: SubmitRequest, key,
                 future: "asyncio.Future"):
        self.request = request
        self.key = key
        self.future = future
        self.submitted_at = time.monotonic()
        self.dispatched_at: Optional[float] = None
        self.worker: Optional[WorkerAttempt] = None  # running now
        self.task: Optional["asyncio.Task"] = None
        self.partial: Optional[Dict[str, Any]] = None
        # Streaming state (set only for stream:true jobs on a
        # transport that can push frames).
        self.send_frame = None           # async callable or None
        self.stream_seq = 0
        self.last_frame_at: Optional[float] = None
        # (attempt, elapsed, propagations) of the last relayed frame,
        # the baseline for the propagations/s delta.
        self.last_frame_totals = (0, 0.0, 0)
        # Latest checkpoint blob piggybacked by any attempt's worker;
        # seeds the next retry attempt (warm restart).  Stored as-is:
        # the next worker's checksummed loader is the trust boundary.
        self.last_checkpoint: Optional[bytes] = None
        # True when this job was re-enqueued by journal replay (its
        # future has no submitting client awaiting it).
        self.recovered = False


class SolveServer:
    """See the module docstring for the full contract.

    Every job runs the engine defaults (the search of
    ``CDCLSolver(formula)``; retries run a perturbed variant).  A
    certified job's terminal body carries its certificate as the
    wire dict ``{"kind", "valid", "steps", "reason"}``.

    Parameters
    ----------
    config:
        :class:`~repro.service.admission.ServiceConfig` tunables.
    fault_plan:
        scripted chaos (:class:`repro.runtime.faults.ServiceFaultPlan`)
        keyed by job id -- crash/kill/hang/poison execute inside the
        worker, delays stall the server's response.
    tracer:
        optional :class:`repro.obs.trace.Tracer`; the service emits
        ``service.submit`` / ``service.reject`` / ``service.dispatch``
        / ``service.retry`` / ``service.progress`` /
        ``service.result`` / ``service.metrics`` /
        ``service.shutdown`` events.
    worker_trace_dir:
        optional directory; when set, every worker attempt writes its
        own JSONL trace there (``<job prefix>-<id digest>-a<attempt>
        .jsonl``), stamped with ``job``/``attempt`` context so
        ``repro profile`` can merge them with the server's trace.
    journal:
        optional path to the append-only JSONL job journal.  Accepted
        submissions and terminal results are written ahead; on
        ``start()`` an existing journal is replayed -- pending jobs
        re-enqueue, terminal ones are re-served idempotently via the
        ``query`` op, and the result cache is re-seeded so cached
        replays stay byte-identical across restarts.
    """

    def __init__(self, config: Optional[ServiceConfig] = None, *,
                 fault_plan: Optional[ServiceFaultPlan] = None,
                 tracer=None, worker_trace_dir: Optional[str] = None,
                 journal: Optional[str] = None):
        self.config = config or ServiceConfig()
        self.fault_plan = fault_plan
        self.tracer = tracer
        self.worker_trace_dir = worker_trace_dir
        self.metrics = ServiceMetrics()
        self._queues = TenantQueues(self.config.queue_depth, self.config)
        self._cache = ResultCache(self.config.cache_size)
        self._active: Dict[str, _Job] = {}
        self._pending_ids: set = set()
        self._slots = asyncio.Semaphore(self.config.max_workers)
        self._wake = asyncio.Event()
        self._draining = False
        self._closed = False
        self._dispatcher: Optional["asyncio.Task"] = None
        self._proof_dir: Optional[str] = None
        self._jobs_done = 0
        self._jobs_rejected = 0
        self._retries = 0
        self._cancelled = 0
        self._started_at = time.monotonic()
        # Crash recovery: durable journal + replayed state.
        self._journal = JobJournal(journal) if journal else None
        self._journal_replayed = journal is None
        self._terminal: Dict[str, Dict[str, Any]] = {}
        self._by_id: Dict[str, _Job] = {}
        self._recovered = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Arm the dispatcher (idempotent; requires a running loop).

        With a journal configured, the first call also replays it:
        futures need a running loop, so recovery cannot happen in
        ``__init__``.  ``handle_message`` awaits ``start()`` before
        dispatching any op, so a ``query`` arriving right after a
        restart deterministically sees the recovered state.
        """
        if self._dispatcher is None:
            self._dispatcher = asyncio.create_task(self._dispatch_loop())
        if not self._journal_replayed:
            self._journal_replayed = True
            self._recover_from_journal()

    def _recover_from_journal(self) -> None:
        """Replay the journal: re-serve terminal jobs, re-seed the
        cache, re-enqueue accepted-but-unfinished jobs."""
        replay = replay_journal(self._journal.path)
        self._terminal.update(replay.terminal)
        reseeded = 0
        for job_id, response in replay.terminal.items():
            raw = replay.requests.get(job_id)
            body = response.get("body")
            if raw is None or not isinstance(body, dict):
                continue
            try:
                request = parse_submit(raw)
            except ProtocolError:
                continue
            if (request.use_cache
                    and body.get("status") in ("SATISFIABLE",
                                               "UNSATISFIABLE")
                    and not body.get("degraded")):
                key = (canonical_key(request.formula), request.certify)
                self._cache.put(key, body)
                reseeded += 1
        for job_id, raw in replay.pending.items():
            try:
                request = parse_submit(raw)
            except ProtocolError:
                continue
            job = _Job(request, (canonical_key(request.formula),
                                 request.certify),
                       asyncio.get_running_loop().create_future())
            job.recovered = True
            if not self._queues.push(request.tenant, job):
                continue          # queue full; stays pending on disk
            self._pending_ids.add(job_id)
            self._by_id[job_id] = job
            self._recovered += 1
        if self._recovered:
            self._wake.set()
        if self.tracer is not None:
            self.tracer.event("service.journal_replay",
                              records=replay.records,
                              corrupt=replay.corrupt,
                              terminal=len(replay.terminal),
                              recovered=self._recovered,
                              cache_reseeded=reseeded)

    async def shutdown(self,
                       grace: Optional[float] = None) -> Dict[str, Any]:
        """Drain and stop: new submissions are rejected immediately,
        queued and running jobs get ``grace`` seconds to finish, and
        stragglers are cancelled with a terminal degraded response."""
        self._draining = True
        grace = self.config.grace_seconds if grace is None else grace
        deadline = time.monotonic() + grace
        while ((self._active or len(self._queues))
               and time.monotonic() < deadline):
            self._wake.set()
            await asyncio.sleep(self.config.poll_interval)
        cancelled = 0
        # Queued-but-never-dispatched stragglers: reject explicitly.
        while True:
            job = self._queues.next_job()
            if job is None:
                break
            cancelled += 1
            self._pending_ids.discard(job.request.job_id)
            if not job.future.done():
                job.future.set_result(self._rejection(
                    job.request.job_id, SHUTTING_DOWN,
                    "server drained before this job was dispatched",
                    tenant=job.request.tenant))
        # Running stragglers: cancel; _run_job resolves their futures
        # with a degraded terminal body.
        for job in list(self._active.values()):
            if job.task is not None and not job.task.done():
                cancelled += 1
                job.task.cancel()
        waited = time.monotonic()
        while self._active and time.monotonic() - waited < 5.0:
            await asyncio.sleep(self.config.poll_interval)
        self._closed = True
        self._wake.set()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        if self._proof_dir is not None:
            shutil.rmtree(self._proof_dir, ignore_errors=True)
            self._proof_dir = None
        if self._journal is not None:
            self._journal.close()
        if self.tracer is not None:
            self.tracer.event("service.shutdown",
                              drained=self._jobs_done,
                              cancelled=cancelled)
        return {"kind": "shutdown", "drained": self._jobs_done,
                "cancelled": cancelled}

    # -- request handling ----------------------------------------------

    async def handle_message(self, payload: Dict[str, Any],
                             send_frame=None) -> Dict[str, Any]:
        """Serve one decoded request; always returns a response dict.

        This is the transport-independent core: the TCP handler and
        the in-process test client both call it.  *send_frame* is an
        optional async callable the transport provides for pushing
        non-terminal ``progress`` frames; without one, ``stream:
        true`` submissions run normally, just unstreamed.
        """
        await self.start()
        op = payload.get("op")
        request_id = payload.get("id")
        if op == "ping":
            return {"kind": "pong", "id": request_id}
        if op == "status":
            return self._status_response(request_id)
        if op == "metrics":
            return self._metrics_response(request_id)
        if op == "shutdown":
            report = await self.shutdown(payload.get("grace"))
            report["id"] = request_id
            return report
        if op == "submit":
            return await self._handle_submit(payload, send_frame)
        if op == "query":
            return await self._handle_query(payload, send_frame)
        return {"kind": "error", "id": request_id, "code": BAD_REQUEST,
                "reason": f"unknown op {op!r}"}

    async def _handle_submit(self, payload: Dict[str, Any],
                             send_frame=None) -> Dict[str, Any]:
        try:
            request = parse_submit(payload)
        except ProtocolError as exc:
            return {"kind": "error", "id": payload.get("id"),
                    "code": BAD_REQUEST, "reason": str(exc)}
        if self.tracer is not None:
            self.tracer.event("service.submit", job=request.job_id,
                              tenant=request.tenant,
                              vars=request.formula.num_vars,
                              clauses=request.formula.num_clauses,
                              certify=int(request.certify))
        self.metrics.record_submit(request.tenant)
        stored = self._terminal.get(request.job_id)
        if stored is not None:
            # Idempotent re-serve: this id already reached a terminal
            # verdict (possibly before a restart, via the journal).
            return dict(stored)
        if self._draining:
            return self._rejection(request.job_id, SHUTTING_DOWN,
                                   "server is draining",
                                   tenant=request.tenant)

        key = (canonical_key(request.formula), request.certify)
        if request.use_cache:
            body = self._cache.get(key)
            if body is not None:
                self._emit_result(request, body, cached=True,
                                  wall=0.0)
                await self._apply_delay(request.job_id)
                return {"kind": "result", "id": request.job_id,
                        "cached": True, "body": body}

        if request.job_id in self._pending_ids:
            return {"kind": "error", "id": request.job_id,
                    "code": BAD_REQUEST,
                    "reason": "a job with this id is already pending"}
        hardness = estimate_hardness(request.formula.num_vars,
                                     request.formula.num_clauses)
        if (self.config.max_hardness is not None
                and hardness > self.config.max_hardness):
            return self._rejection(
                request.job_id, REJECTED_OVERLOAD,
                f"estimated hardness {hardness:.0f} exceeds the "
                f"admission ceiling {self.config.max_hardness:.0f}",
                tenant=request.tenant)

        job = _Job(request, key,
                   asyncio.get_running_loop().create_future())
        if request.stream and send_frame is not None:
            job.send_frame = send_frame
        if not self._queues.push(request.tenant, job):
            return self._rejection(
                request.job_id, REJECTED_OVERLOAD,
                f"tenant {request.tenant!r} queue is full "
                f"({self.config.queue_depth} deep)",
                tenant=request.tenant)
        self._pending_ids.add(request.job_id)
        self._by_id[request.job_id] = job
        if self._journal is not None:
            # Write-ahead: the job is accepted (admission passed,
            # queued) -- journal it before any work happens, so a
            # server death from here on cannot lose it.
            self._journal.record_submitted(request.job_id,
                                           dict(request.raw))
            self.metrics.record_journal_record("submitted")
        if (self.fault_plan is not None
                and self.fault_plan.kills_server(request.job_id)):
            # Scripted SIGKILL stand-in: die right after journaling
            # the admission -- the window journal replay must cover.
            os._exit(SERVER_KILL_EXIT)
        self._wake.set()
        response = await job.future
        await self._apply_delay(request.job_id)
        return response

    async def _handle_query(self, payload: Dict[str, Any],
                            send_frame=None) -> Dict[str, Any]:
        """The ``query`` (reattach) op: recover a job's verdict by id.

        Terminal jobs -- including ones finished before a restart and
        recovered from the journal -- answer immediately with the
        stored response.  Queued or running jobs block on the same
        future the submitter would be awaiting (an asyncio future
        tolerates any number of awaiters); with ``stream: true`` on a
        pushing transport the caller also re-joins the progress
        stream.  Never re-runs anything.
        """
        job_id = payload.get("id")
        if not isinstance(job_id, str) or not job_id:
            return {"kind": "error", "id": None, "code": BAD_REQUEST,
                    "reason": "'id' must be a non-empty string"}
        if self.tracer is not None:
            self.tracer.event("service.query", job=job_id)
        stored = self._terminal.get(job_id)
        if stored is not None:
            return dict(stored)
        job = self._by_id.get(job_id)
        if job is not None:
            if payload.get("stream") is True and send_frame is not None:
                job.send_frame = send_frame
            response = await job.future
            await self._apply_delay(job_id)
            return response
        return {"kind": "error", "id": job_id, "code": NOT_FOUND,
                "reason": f"no terminal, running or journaled job "
                          f"with id {job_id!r}"}

    def _rejection(self, job_id: Optional[str], code: str,
                   reason: str, tenant: str = "default"
                   ) -> Dict[str, Any]:
        self._jobs_rejected += 1
        self.metrics.record_reject(tenant, code)
        if self.tracer is not None:
            self.tracer.event("service.reject", job=job_id or "?",
                              tenant=tenant, code=code, reason=reason)
        return {"kind": "rejected", "id": job_id, "code": code,
                "reason": reason}

    async def _apply_delay(self, job_id: str) -> None:
        if self.fault_plan is None:
            return
        delay = self.fault_plan.delay(job_id)
        if delay > 0:
            await asyncio.sleep(delay)

    def _status_response(self,
                         request_id: Optional[str]) -> Dict[str, Any]:
        now = time.monotonic()
        active = []
        for job in self._active.values():
            entry = {"id": job.request.job_id,
                     "tenant": job.request.tenant,
                     "running_seconds": round(
                         now - (job.dispatched_at or now), 3)}
            if job.worker is not None:
                entry["heartbeat_age"] = round(
                    now - job.worker.heartbeat.value, 3)
            active.append(entry)
        journal: Dict[str, Any] = {
            "enabled": self._journal is not None,
            "recovered": self._recovered,
            "terminal": len(self._terminal)}
        if self._journal is not None:
            journal["path"] = self._journal.path
            journal["records_written"] = self._journal.records_written
            journal["write_errors"] = self._journal.write_errors
        from repro.solvers.kernels import capability
        return {"kind": "status", "id": request_id,
                "journal": journal,
                "draining": self._draining,
                "kernels": capability(),
                "uptime_seconds": round(now - self._started_at, 3),
                "queues": self._queues.depths(),
                "deficits": self._queues.deficits(),
                "queued": len(self._queues),
                "workers": {"max": self.config.max_workers,
                            "busy": len(self._active)},
                "active": active,
                "cache": self._cache.stats(),
                "jobs": {"done": self._jobs_done,
                         "rejected": self._jobs_rejected,
                         "retries": self._retries,
                         "cancelled": self._cancelled}}

    def _metrics_response(self,
                          request_id: Optional[str]) -> Dict[str, Any]:
        """The ``metrics`` op: refresh point-in-time gauges, render
        the merged snapshot as Prometheus exposition text."""
        from repro.obs.export import render_prometheus
        self.metrics.set_queues(self._queues.depths(),
                                self._queues.deficits())
        self.metrics.set_workers(len(self._active),
                                 self.config.max_workers)
        self.metrics.set_cache(self._cache.stats())
        self.metrics.set_journal(
            self._recovered, len(self._terminal),
            0 if self._journal is None
            else self._journal.write_errors)
        snapshot = self.metrics.snapshot()
        text = render_prometheus(snapshot)
        if self.tracer is not None:
            self.tracer.event("service.metrics",
                              families=len(snapshot),
                              bytes=len(text))
        return {"kind": "metrics", "id": request_id, "text": text}

    # -- dispatch ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self._closed:
                return
            while len(self._queues):
                await self._slots.acquire()
                job = self._queues.next_job()
                if job is None:
                    self._slots.release()
                    break
                job.dispatched_at = time.monotonic()
                self._active[job.request.job_id] = job
                self.metrics.record_queue_wait(
                    job.request.tenant,
                    job.dispatched_at - job.submitted_at)
                if self.tracer is not None:
                    self.tracer.event(
                        "service.dispatch", job=job.request.job_id,
                        tenant=job.request.tenant,
                        queued_seconds=round(
                            job.dispatched_at - job.submitted_at, 4))
                job.task = asyncio.create_task(self._run_job(job))

    async def _run_job(self, job: _Job) -> None:
        request = job.request
        try:
            body = await self._execute(job)
        except asyncio.CancelledError:
            self._cancelled += 1
            body = self._failure_body(job, "shutdown",
                                      attempts=1)
        except Exception as exc:      # pragma: no cover - last resort
            body = self._failure_body(job, f"internal: {exc}",
                                      attempts=1)
        finally:
            self._slots.release()
            self._active.pop(request.job_id, None)
            self._pending_ids.discard(request.job_id)
            self._wake.set()
        self._jobs_done += 1
        if (request.use_cache
                and body["status"] in ("SATISFIABLE", "UNSATISFIABLE")
                and not body["degraded"]):
            self._cache.put(job.key, body)
        self._emit_result(request, body,
                          cached=False,
                          wall=time.monotonic() - job.submitted_at)
        response = {"kind": "result", "id": request.job_id,
                    "cached": False, "body": body}
        if (self._journal is not None
                and body.get("degraded_reason") != "shutdown"):
            # Write-ahead of release.  A shutdown-cancelled job is
            # deliberately NOT journaled terminal: a restart with the
            # same journal should re-run it, not replay the
            # cancellation.
            self._journal.record_result(request.job_id, response)
            self.metrics.record_journal_record("result")
        # Terminal store precedes the _by_id pop so a concurrent
        # query never finds neither.
        self._terminal[request.job_id] = response
        self._by_id.pop(request.job_id, None)
        if not job.future.done():
            job.future.set_result(response)

    def _emit_result(self, request: SubmitRequest,
                     body: Dict[str, Any], cached: bool,
                     wall: float) -> None:
        self.metrics.record_result(request.tenant, body["status"],
                                   wall, cached)
        if not cached:
            # Roll the worker's search-shape histograms into the
            # service-wide solver aggregate (a cached replay carries
            # a copy of metrics already absorbed once).
            stats = body.get("stats") or {}
            self.metrics.absorb_solver_metrics(stats.get("metrics"))
        if self.tracer is not None:
            self.tracer.event(
                "service.result", job=request.job_id,
                tenant=request.tenant, status=body["status"],
                attempts=body["attempts"], cached=int(cached),
                degraded=int(body["degraded"]),
                wall_seconds=round(wall, 4))

    # -- job execution -------------------------------------------------

    async def _execute(self, job: _Job) -> Dict[str, Any]:
        """The retry loop: attempts under a shrinking budget."""
        config = self.config
        request = job.request
        total = Budget(
            wall_seconds=(request.deadline
                          if request.deadline is not None
                          else config.default_deadline),
            max_conflicts=request.max_conflicts)
        started = time.monotonic()
        spent: Optional[SolverStats] = None
        failure = "budget"
        jitter = random.Random(f"{request.job_id}-backoff")
        for attempt in range(config.max_attempts):
            budget = total.remaining_after(time.monotonic() - started,
                                           spent=spent)
            if budget.exhausted:
                failure = "budget"
                break
            outcome = await self._run_attempt(job, attempt, budget)
            if outcome.partial is not None:
                job.partial = outcome.partial
                burned = SolverStats.from_dict(outcome.partial["stats"])
                if spent is None:
                    spent = burned
                else:
                    spent.merge(burned)
            if outcome.kind == "result":
                return self._result_body(job, attempt + 1, outcome)
            failure = outcome.kind
            if outcome.kind == "deadline":
                break
            if attempt + 1 >= config.max_attempts:
                break
            self._retries += 1
            # A retry is "warm" when a checkpoint blob is waiting to
            # seed the next attempt (whether it validates is the
            # worker loader's call -- a corrupt blob demotes to cold
            # inside the worker without a further signal).
            self.metrics.record_retry(
                request.tenant, warm=job.last_checkpoint is not None)
            delay = min(config.backoff_cap,
                        config.backoff_seconds * (2 ** attempt))
            delay *= 1.0 + 0.5 * jitter.random()
            if total.wall_seconds is not None:
                remaining = (total.wall_seconds
                             - (time.monotonic() - started))
                delay = max(0.0, min(delay, remaining))
            if self.tracer is not None:
                self.tracer.event("service.retry",
                                  job=request.job_id,
                                  attempt=attempt + 1,
                                  failure=failure,
                                  backoff_seconds=round(delay, 4))
            await asyncio.sleep(delay)
        attempts = min(config.max_attempts,
                       max(1, attempt + (0 if failure == "budget"
                                         else 1)))
        return self._failure_body(job, failure, attempts=attempts)

    async def _run_attempt(self, job: _Job, attempt: int,
                           budget: Budget) -> _Attempt:
        """Spawn and supervise one worker process, without blocking
        the event loop."""
        config = self.config
        request = job.request
        proof_path = None
        if request.certify:
            proof_path = os.path.join(
                self._ensure_proof_dir(),
                f"job{abs(hash(request.job_id))}-a{attempt}.drup")
        trace_path = None
        if self.worker_trace_dir is not None:
            os.makedirs(self.worker_trace_dir, exist_ok=True)
            # A readable prefix of the id plus a digest of all of it:
            # ids that read alike after the cut must not share a file,
            # since the worker's sink truncates it.
            job_id = request.job_id
            readable = "".join(
                c if c.isascii() and (c.isalnum() or c in "-_") else "_"
                for c in job_id[:40])
            digest = hashlib.sha256(
                job_id.encode("utf-8", "surrogatepass")).hexdigest()[:16]
            trace_path = os.path.join(
                self.worker_trace_dir,
                f"{readable}-{digest}-a{attempt}.jsonl")
        worker = WorkerAttempt(AttemptSpec(
            key=request.job_id, attempt=attempt, formula=request.formula,
            config=_ENGINE.perturbed(attempt), budget=budget,
            fault_plan=self.fault_plan,
            progress_interval=config.progress_interval,
            proof_path=proof_path, resume_blob=job.last_checkpoint,
            check_interval=config.worker_check_interval, metrics=True,
            trace_path=trace_path))
        job.worker = worker
        started = time.monotonic()
        deadline = (None if budget.wall_seconds is None
                    else started + budget.wall_seconds
                    + config.poll_interval)
        partial: Optional[Dict[str, Any]] = None
        try:
            while True:
                now = time.monotonic()
                for message in worker.drain():
                    tag = message[0]
                    if tag == "checkpoint":
                        job.last_checkpoint = message[3]
                        self.metrics.record_checkpoint(request.tenant)
                    elif tag == "progress":
                        _, _, number, elapsed, stats, extras = message
                        partial = {"attempt": number,
                                   "elapsed": round(elapsed, 4),
                                   "stats": stats, "extras": extras}
                        await self._stream_progress(job, partial)
                    elif tag == "result":
                        _, _, _, status, model, stats = message
                        return _Attempt("result", status=status,
                                        model=model, stats=stats,
                                        partial=partial,
                                        proof_path=proof_path)
                    else:
                        return _Attempt("poison", partial=partial)
                if deadline is not None and now >= deadline:
                    return _Attempt("deadline", partial=partial)
                fate = worker.liveness(now, config.hang_timeout)
                if fate is not None:
                    return _Attempt(fate, partial=partial)
                await asyncio.sleep(config.poll_interval)
        finally:
            job.worker = None
            worker.stop()

    async def _stream_progress(self, job: _Job,
                               progress: Dict[str, Any]) -> None:
        """Relay one audited worker snapshot as a ``progress`` frame
        (throttled to ``config.stream_interval`` per job)."""
        if job.send_frame is None:
            return
        now = time.monotonic()
        if (job.last_frame_at is not None
                and now - job.last_frame_at
                < self.config.stream_interval):
            return
        job.last_frame_at = now
        stats = progress.get("stats") or {}
        attempt = progress["attempt"]
        elapsed = progress["elapsed"]
        propagations = stats.get("propagations") or 0
        last_attempt, last_elapsed, last_props = job.last_frame_totals
        if last_attempt == attempt and elapsed > last_elapsed:
            rate = ((propagations - last_props)
                    / (elapsed - last_elapsed))
        elif elapsed > 0:
            rate = propagations / elapsed
        else:
            rate = 0.0
        job.last_frame_totals = (attempt, elapsed, propagations)
        snapshot = {
            "conflicts": stats.get("conflicts") or 0,
            "decisions": stats.get("decisions") or 0,
            "propagations": propagations,
            "restarts": stats.get("restarts") or 0,
            "propagations_per_sec": round(max(rate, 0.0), 1),
        }
        extras = progress.get("extras") or {}
        fill = extras.get("arena_fill")
        if isinstance(fill, (int, float)) \
                and not isinstance(fill, bool):
            snapshot["arena_fill"] = fill
        frame = {"kind": "progress", "id": job.request.job_id,
                 "seq": job.stream_seq, "attempt": attempt + 1,
                 "elapsed": elapsed, "snapshot": snapshot}
        job.stream_seq += 1
        self.metrics.record_progress_frame(job.request.tenant)
        if self.tracer is not None:
            self.tracer.event(
                "service.progress", job=job.request.job_id,
                tenant=job.request.tenant, attempt=attempt + 1,
                seq=frame["seq"], elapsed=elapsed,
                conflicts=snapshot["conflicts"],
                propagations=propagations)
        try:
            await job.send_frame(frame)
        except (ConnectionError, OSError):
            job.send_frame = None   # client gone; stop relaying

    # -- terminal bodies -----------------------------------------------

    def _result_body(self, job: _Job, attempts: int,
                     outcome: _Attempt) -> Dict[str, Any]:
        request = job.request
        status = outcome.status
        certificate = None
        if request.certify:
            model = (Assignment(dict(outcome.model))
                     if status is Status.SATISFIABLE else None)
            result = certify_result(request.formula,
                                    SolverResult(status, model),
                                    outcome.proof_path, self.tracer)
            status = result.status
            cert = result.certificate
            certificate = {"kind": cert.kind, "valid": cert.valid,
                           "steps": cert.steps, "reason": cert.reason}
        if outcome.proof_path is not None:
            try:
                os.remove(outcome.proof_path)
            except OSError:
                pass
        degraded = status is Status.UNKNOWN
        reason = None
        if degraded:
            # A demotion, not a flip: the claimed answer failed its
            # check.  Otherwise the worker ran out of budget.
            reason = ("certification" if outcome.status is not status
                      else "budget")
        model_lits = None
        if status is Status.SATISFIABLE:
            model_lits = [var if value else -var
                          for var, value in sorted(
                              outcome.model.items())]
        return {"status": status.name,
                "model": model_lits,
                "stats": outcome.stats,
                "attempts": attempts,
                "degraded": degraded,
                "degraded_reason": reason,
                "partial": None,
                "certificate": certificate}

    def _failure_body(self, job: _Job, reason: str,
                      attempts: int) -> Dict[str, Any]:
        """The graceful-degradation terminal: UNKNOWN plus the last
        progress snapshot the failing worker managed to report."""
        return {"status": Status.UNKNOWN.name,
                "model": None,
                "stats": (job.partial or {}).get("stats"),
                "attempts": attempts,
                "degraded": True,
                "degraded_reason": reason,
                "partial": job.partial,
                "certificate": None}

    def _ensure_proof_dir(self) -> str:
        if self._proof_dir is None:
            self._proof_dir = tempfile.mkdtemp(prefix="repro-service-")
        return self._proof_dir

    # -- TCP transport -------------------------------------------------

    async def serve_tcp(self, host: str = "127.0.0.1",
                        port: int = 0) -> "asyncio.AbstractServer":
        """Bind a TCP endpoint speaking the NDJSON protocol.

        Returns the asyncio server (its first socket carries the
        bound port when ``port=0``); the caller owns its lifetime.
        A ``shutdown`` request drains the solve pool but the TCP
        listener is closed by the caller (``run_server`` does both).
        """
        await self.start()
        return await asyncio.start_server(self._handle_connection,
                                          host, port)

    async def _handle_connection(self, reader, writer) -> None:
        lock = asyncio.Lock()
        pending: set = set()

        async def send_frame(frame: Dict[str, Any]) -> None:
            # Non-terminal progress frames share the response lock so
            # pipelined writers never interleave mid-line.
            async with lock:
                writer.write(encode_message(frame))
                await writer.drain()

        async def respond(payload: Dict[str, Any]) -> None:
            response = await self.handle_message(payload, send_frame)
            async with lock:
                try:
                    writer.write(encode_message(response))
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    payload = decode_message(line)
                except ProtocolError as exc:
                    await respond_error(writer, lock, str(exc))
                    continue
                # Each request runs in its own task so submissions
                # pipeline over one connection; clients match
                # responses by id.
                task = asyncio.create_task(respond(payload))
                pending.add(task)
                task.add_done_callback(pending.discard)
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def respond_error(writer, lock: "asyncio.Lock",
                        reason: str) -> None:
    """Write one BAD_REQUEST line for an undecodable request."""
    async with lock:
        try:
            writer.write(encode_message(
                {"kind": "error", "id": None, "code": BAD_REQUEST,
                 "reason": reason}))
            await writer.drain()
        except (ConnectionError, OSError):
            pass


async def run_server(config: Optional[ServiceConfig] = None,
                     host: str = "127.0.0.1", port: int = 9123, *,
                     fault_plan: Optional[ServiceFaultPlan] = None,
                     tracer=None, worker_trace_dir: Optional[str] = None,
                     journal: Optional[str] = None,
                     ready=None) -> None:
    """Run a TCP solve server until a ``shutdown`` request arrives.

    ``ready`` (optional callable) receives the bound ``(host, port)``
    once listening -- the CLI prints it, tests grab the ephemeral
    port.  ``journal`` enables the durable job journal (replayed on
    startup; see :class:`SolveServer`).
    """
    server = SolveServer(config, fault_plan=fault_plan, tracer=tracer,
                         worker_trace_dir=worker_trace_dir,
                         journal=journal)
    tcp = await server.serve_tcp(host, port)
    bound = tcp.sockets[0].getsockname()[:2]
    if ready is not None:
        ready(bound)
    try:
        while not server._closed:
            await asyncio.sleep(server.config.poll_interval)
    finally:
        tcp.close()
        await tcp.wait_closed()
