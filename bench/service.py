"""service-mixed workload: ``repro serve`` under open- and closed-loop load.

The server runs as a subprocess (``--workers 2 --queue-depth 64`` on an
ephemeral port).  One client process speaks the NDJSON protocol over
two connections -- no more than the two cores of the reference
machine.  Two phases run back to back:

* phase B, closed loop: two connections with four jobs outstanding
  each, for a fixed job count -- the server's capacity;
* phase A, open loop: jobs are sent on a fixed schedule
  (:data:`corpus.SERVICE_RATE` req/s over three tenants), and each job
  is timed from when it was *due*, so a stall also charges the jobs
  queued behind it; the generator's own lateness is reported.

Job ids carry a per-run nonce: resubmitting an existing id replays the
stored response in milliseconds and would fake a speedup.  Every
answer is audited client-side after the load ends: SAT models against
the formula, UNSAT verdicts re-derived with ``certified_solve``,
certified jobs must carry a valid certificate, and resubmissions must
repeat their original's verdict.
"""

from __future__ import annotations

import asyncio
import collections
import glob
import json
import os
import secrets
import selectors
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List

import calibrate
from spans import LAYER_NAMES
from stats import group_by, merged_counters, percentile, quantile_hd

SERVE_ARGS = ("--workers", "2", "--queue-depth", "64")
#: Outstanding jobs per connection in the closed loop.
CLOSED_LOOP_DEPTH = 4
#: One drive of the load (a phase or both) ends after this long; a job
#: still without a response then counts as failed.  Bounds a run
#: against a hung server.
DRIVE_TIMEOUT = 70.0
START_TIMEOUT = 30.0
#: The service's times swing by this power of the calibration kernels'
#: (:func:`calibrate.scale`), less than the batch workloads' 1.2: much
#: of a job's time goes to the operating system (fork, page faults,
#: pipes, sockets) and to the server's fixed 20 ms poll ticks, which
#: slow less with the host's neighbours than interpreter work.  Fitted
#: over 30 runs in three ten-run sets on the reference machine: 0.82
#: for the median latency, 0.92 for the closed-loop wall, 0.97-1.03
#: for CPU within a set, 0.78-0.85 across sets (correlation 0.72-0.96).
POWER = 0.9


class Server:
    """A ``repro serve`` subprocess on an ephemeral local port."""

    def __init__(self, root: str, workdir: str, label: str,
                 traced: bool = False):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.trace_path = (os.path.join(workdir, f"{label}.trace.jsonl")
                           if traced else None)
        cmd = [sys.executable, "-m", "repro", "serve", "--host",
               "127.0.0.1", "--port", "0", *SERVE_ARGS]
        if traced:
            cmd += ["--trace", self.trace_path]
        self._log = open(os.path.join(workdir, f"{label}.log"), "w")
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(START_TIMEOUT):
                raise RuntimeError("repro serve did not start")
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            raise RuntimeError(f"repro serve: unexpected {line!r}")
        return int(line.rsplit(":", 1)[1])

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request on a fresh connection (control ops)."""
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=START_TIMEOUT) as sock:
            sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
            with sock.makefile("rb") as stream:
                return json.loads(stream.readline())

    def cpu_seconds(self) -> float:
        """User+system CPU of the server plus its reaped workers."""
        with open(f"/proc/{self.proc.pid}/stat", "r") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = sum(int(value) for value in fields[11:15])
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", "r") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Drain-shutdown the server and wait for it; kill on timeout."""
        try:
            if self.proc.poll() is None and getattr(self, "port", None):
                self.request({"op": "shutdown", "id": "shutdown",
                              "grace": 5.0})
            self.proc.wait(timeout=START_TIMEOUT)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._log.close()


def start_server(root: str, workdir: str, label: str,
                 traced: bool = False) -> Server:
    """Start a server and wait until it answers ``ping``."""
    server = Server(root, workdir, label, traced)
    if server.request({"op": "ping", "id": "ping"}).get("kind") != "pong":
        server.stop()
        raise RuntimeError("repro serve did not answer ping")
    return server


class Load:
    """The load generator's connections; responses matched by id."""

    def __init__(self, port: int, nonce: str, deadline: float):
        self.port = port
        self.nonce = nonce
        self.deadline = deadline
        self.conns: List[Any] = []
        self._readers: List[asyncio.Task] = []
        self._pending: Dict[str, asyncio.Future] = {}

    async def open(self, count: int) -> None:
        for _ in range(count):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           self.port)
            self.conns.append(writer)
            self._readers.append(asyncio.create_task(self._read(reader)))

    async def _read(self, reader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            received = time.perf_counter()
            message = json.loads(line)
            future = self._pending.pop(message.get("id"), None)
            if future is not None and not future.done():
                future.set_result((received, message, len(line)))

    async def submit(self, job, conn: int, due: float) -> Dict[str, Any]:
        """Send *job*; its latency runs from *due* to the response."""
        job_id = f"{self.nonce}-{job.name}"
        future = asyncio.get_running_loop().create_future()
        self._pending[job_id] = future
        payload = {"op": "submit", "id": job_id,
                   "tenant": job.params["tenant"], "dimacs": job.text,
                   "certify": job.params["certify"], "use_cache": True}
        sent = time.perf_counter()
        writer = self.conns[conn]
        writer.write((json.dumps(payload) + "\n").encode("utf-8"))
        await writer.drain()
        record = {"inst": job.name, "family": job.family,
                  "phase": job.params["phase"], "late_s": sent - due,
                  "response": None}
        try:
            received, message, size = await asyncio.wait_for(
                future, max(0.0, self.deadline - time.perf_counter()))
        except asyncio.TimeoutError:
            self._pending.pop(job_id, None)
            return record
        record.update(latency_s=received - due, response=message,
                      bytes=size)
        return record

    async def close(self) -> None:
        for writer in self.conns:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)


async def open_loop(load: Load, jobs) -> List[Dict[str, Any]]:
    start = time.perf_counter() + 0.05
    tasks = []
    for job in jobs:
        due = start + job.params["due"]
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(
            load.submit(job, job.params["conn"], due)))
    return list(await asyncio.gather(*tasks))


async def closed_loop(load: Load, jobs) -> List[Dict[str, Any]]:
    queue = collections.deque(jobs)
    records: List[Dict[str, Any]] = []

    async def client(conn: int) -> None:
        while queue:
            job = queue.popleft()
            records.append(await load.submit(job, conn,
                                             time.perf_counter()))

    await asyncio.gather(*(client(conn) for conn in range(len(load.conns))
                           for _ in range(CLOSED_LOOP_DEPTH)))
    return records


def _drive(server: Server, jobs, phases: str, nonce: str
           ) -> Dict[str, Any]:
    """Run *phases* ("B", "A" or "BA", in that order) against *server*.

    Per phase it records the window and the CPU the server and its
    workers spent in it (every worker is reaped before its job's
    response is sent).
    """
    out: Dict[str, Any] = {"records": []}

    async def main() -> None:
        load = Load(server.port, nonce,
                    time.perf_counter() + DRIVE_TIMEOUT)
        await load.open(2)
        try:
            for phase in phases:
                batch = [j for j in jobs if j.params["phase"] == phase]
                cpu0, started = server.cpu_seconds(), time.perf_counter()
                loop = open_loop if phase == "A" else closed_loop
                out["records"] += await loop(load, batch)
                out[phase] = {"window": (started, time.perf_counter()),
                              "cpu_s": server.cpu_seconds() - cpu0,
                              "jobs": len(batch)}
            if "A" in phases:
                # Blocking is fine here: no job is in flight.
                out["scrape"] = server.request(
                    {"op": "metrics", "id": "metrics"}).get("text", "")
        finally:
            await load.close()

    asyncio.run(main())
    out["peak_rss_mb"] = server.peak_rss_mb()
    out["status"] = server.request({"op": "status", "id": "status"})
    return out


def run(root: str, workdir: str, jobs, server: Server,
        traced: bool) -> Dict[str, Any]:
    """Measure *jobs* against the started *server* (which this stops).

    Untraced: phase B then phase A on *server*.  Traced: phase B on
    the untraced *server* (the overhead baseline), then both phases on
    a second server started with ``--trace``.
    """
    nonce = secrets.token_hex(4)
    try:
        if traced:
            baseline = _drive(server, jobs, "B", nonce)
        else:
            measured = _drive(server, jobs, "BA", nonce)
    finally:
        server.stop()
    if traced:
        server = start_server(root, workdir, "traced", traced=True)
        try:
            measured = _drive(server, jobs, "BA", nonce)
        finally:
            server.stop()
        measured["trace"] = _trace_layers(
            server.trace_path,
            [r for r in measured["records"] if r["phase"] == "A"])
        measured["baseline"] = baseline
    records = measured["records"] + (baseline["records"] if traced else [])
    measured.update(attempts=records, failures=audit(records, jobs))
    with open(os.path.join(workdir, "records.json"), "w",
              encoding="utf-8") as handle:
        json.dump([{key: r.get(key) for key in
                    ("inst", "phase", "latency_s", "late_s", "verdict",
                     "cached", "ok")} for r in records], handle)
    return measured


def _trace_layers(trace_path: str,
                  records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Decomposition of the open-loop (phase A) client latency from
    the server and worker traces (``read_traces`` +
    ``build_job_timelines``); the closed loop queues by design."""
    from repro.obs.profile import build_job_timelines, read_traces
    paths = [trace_path] + sorted(glob.glob(trace_path + ".workers/*"))
    events, _problems = read_traces(paths)
    timelines = build_job_timelines(events)
    layers = {"queue": 0.0, "solve": 0.0, "check": 0.0, "service": 0.0,
              "harness": 0.0}
    proof = {"steps": 0, "bytes": 0}
    for event in events:
        if event.get("name") == "verify.check":
            layers["check"] += float(event["attrs"]["check_seconds"])
            proof["steps"] += event["attrs"]["steps"]
            proof["bytes"] += event["attrs"]["bytes"]
    server_wall = 0.0
    for record in records:
        response = record["response"]
        if response is None:
            continue
        latency = record["latency_s"]
        entry = timelines.get(response.get("id"), {})
        result = entry.get("result") or {}
        wall = result.get("wall_seconds") or 0.0
        queued = entry.get("queued_seconds") or 0.0
        solve = sum(a["duration"] or 0.0 for a in entry.get("attempts", []))
        layers["queue"] += queued
        layers["solve"] += solve
        server_wall += wall - queued - solve
        layers["harness"] += max(latency - wall, 0.0)
    layers["service"] = max(server_wall - layers["check"], 0.0)
    return {"layers": layers, "proof": proof}


def audit(records: List[Dict[str, Any]], jobs) -> List[Dict[str, Any]]:
    """Check every response; returns failures and sets ``record['ok']``."""
    from repro.cnf.assignment import Assignment
    from repro.cnf.canonical import canonical_key
    from repro.cnf.dimacs import parse_dimacs
    from repro.verify.certificate import certified_solve
    by_name = {job.name: job for job in jobs}
    formulas: Dict[str, Any] = {}
    verdicts: Dict[str, str] = {}
    failures: List[Dict[str, Any]] = []
    unsat: Dict[str, List[Dict[str, Any]]] = {}

    def fail(record, reason):
        record["ok"] = False
        failures.append({"inst": record["inst"], "phase": record["phase"],
                         "reason": reason})

    for record in records:
        record["ok"] = True
        job = by_name[record["inst"]]
        response = record["response"]
        if response is None:
            fail(record, "no response")
            continue
        if response.get("kind") != "result":
            fail(record, f"{response.get('kind')} "
                         f"[{response.get('code')}]")
            continue
        body = response["body"]
        status = body.get("status")
        record["verdict"] = status
        record["cached"] = bool(response.get("cached"))
        if status not in ("SATISFIABLE", "UNSATISFIABLE") \
                or body.get("degraded"):
            fail(record, f"{status} ({body.get('degraded_reason')})")
            continue
        if job.name not in formulas:
            formulas[job.name] = parse_dimacs(job.text)
        formula = formulas[job.name]
        if job.params["certify"]:
            cert = body.get("certificate") or {}
            if not cert.get("valid"):
                fail(record, "certify job without a valid certificate")
        original = job.params.get("of")
        if original is not None:
            expected = verdicts.get(original)
            if expected is not None and expected != status:
                fail(record, f"resubmission answered {status}, "
                             f"original {expected}")
        else:
            verdicts[job.name] = status
        if status == "SATISFIABLE":
            model = Assignment.from_literals(body.get("model") or [])
            if not formula.is_satisfied_by(model):
                fail(record, "model fails the client-side audit")
        else:
            unsat.setdefault(canonical_key(formula), []).append(record)
    for group in unsat.values():
        formula = formulas[group[0]["inst"]]
        result = certified_solve(formula)
        if not (result.is_unsat and result.certificate.valid):
            for record in group:
                fail(record, "UNSAT answer not re-derived with a proof")
    return failures


def queue_wait_quantiles(text: str) -> Dict[str, float]:
    """p50/p95 of the queue-wait histogram in a metrics scrape,
    summed over tenants and interpolated inside buckets."""
    from repro.service.top import parse_exposition
    buckets: Dict[float, float] = {}
    for labels, value in parse_exposition(text).get(
            "service_queue_wait_seconds_bucket", []):
        bound = float(labels["le"])          # float("+Inf") is inf
        buckets[bound] = buckets.get(bound, 0.0) + value
    if not buckets:
        return {"p50": 0.0, "p95": 0.0}
    bounds = sorted(buckets)
    total = buckets[bounds[-1]]
    out = {}
    for label, q in (("p50", 0.50), ("p95", 0.95)):
        target = q * total
        low, below = 0.0, 0.0
        for bound in bounds:
            count = buckets[bound]
            if count >= target:
                if bound == float("inf"):
                    out[label] = low
                else:
                    width = count - below
                    frac = (target - below) / width if width else 1.0
                    out[label] = low + (bound - low) * frac
                break
            low, below = bound, count
    return out


def summarize(record: Dict[str, Any], traced: bool,
              samples) -> Dict[str, Any]:
    """End-to-end, per-layer and detail numbers of one service run.

    ``wall_s`` is the closed loop's (phase B) time to serve its fixed
    job count, ``cpu_s`` what the server and its workers spent over
    both phases, and the latency percentiles come from the open loop
    (phase A), the load a user runs the server at: Harrell-Davis
    estimates (:func:`stats.quantile_hd`), since latencies bunch at
    multiples of the server's 20 ms poll tick; p90 is the highest with
    at least ten samples beyond it (12 of 120 at 16 s).  Times are scaled to
    reference-machine seconds by the calibration *samples* of their
    phase (:mod:`calibrate`); raw values are kept in the detail.
    """
    records = record["records"]
    answered = [r for r in records if r["response"] is not None]
    phase_a = [r["latency_s"] for r in answered if r["phase"] == "A"]
    fresh = [r for r in answered if r["response"].get("kind") == "result"
             and not r["response"].get("cached")]
    bodies = [r["response"]["body"] for r in fresh]
    solve = [b["stats"]["time_seconds"] for b in bodies if b.get("stats")]
    counters = merged_counters(b["stats"] for b in bodies if b.get("stats"))
    results = [r for r in answered if r["response"].get("kind") == "result"]
    status = record["status"]
    closed = record["B"]
    closed_wall = closed["window"][1] - closed["window"][0]
    scales = {phase: calibrate.scale(samples, *record[phase]["window"],
                                     power=POWER)
              for phase in "AB"}
    detail = {
        "latency_samples": len(phase_a),
        "jobs_per_s": closed["jobs"] / closed_wall,
        "speed_scale.A": scales["A"],
        "speed_scale.B": scales["B"],
        "raw.wall_s": closed_wall,
        "raw.cpu_s.A": record["A"]["cpu_s"],
        "raw.cpu_s.B": closed["cpu_s"],
        "raw.latency_s.p50": quantile_hd(phase_a, 0.50),
        "raw.latency_s.p90": quantile_hd(phase_a, 0.90),
        "raw.latency_s.p95": quantile_hd(phase_a, 0.95),
        "gen.late_s.max": max(r["late_s"] for r in records
                              if r["phase"] == "A"),
        "svc.solve_s.p50": percentile(solve, 50) if solve else 0.0,
        "svc.response_bytes.p50": percentile(
            [r["bytes"] for r in answered], 50),
        "svc.cache_hit_frac": (sum(1 for r in results if r["cached"])
                               / len(results)) if results else 0.0,
        "svc.rejected": sum(1 for r in answered
                            if r["response"].get("kind") == "rejected"),
        "svc.retries": status.get("jobs", {}).get("retries", 0),
    }
    if record.get("scrape"):
        waits = queue_wait_quantiles(record["scrape"])
        detail["svc.queue_wait_s.p50"] = waits["p50"]
        detail["svc.queue_wait_s.p95"] = waits["p95"]
    for family, group in group_by(
            [r for r in answered if r["phase"] == "A"], "family").items():
        latencies = [r["latency_s"] for r in group]
        detail[f"latency_s.{family}.p50"] = percentile(latencies, 50)
        detail[f"latency_s.{family}.max"] = max(latencies)
    detail.update(counters)
    out: Dict[str, Any] = {"detail": detail}
    if not traced:
        out["end_to_end"] = {
            "wall_s": closed_wall * scales["B"],
            "cpu_s": sum(record[phase]["cpu_s"] * scales[phase]
                         for phase in "AB"),
            "peak_rss_mb": record["peak_rss_mb"],
            "latency_s.p50": detail["raw.latency_s.p50"] * scales["A"],
            "latency_s.p90": detail["raw.latency_s.p90"] * scales["A"]}
        return out
    trace = record["trace"]
    layers = trace["layers"]
    total = sum(layers.values())
    solve_s = sum(solve)
    baseline = record["baseline"]["B"]["window"]
    per_layer = {f"layer.{name}.share": layers.get(name, 0.0) / total
                 for name in LAYER_NAMES}
    per_layer.update(counters)
    per_layer.update({
        "cdcl.solve_s": solve_s,
        "cdcl.props_per_s": counters["cdcl.propagations"] / solve_s,
        "parse.mb_per_s": 0.0,
        "proof.steps": trace["proof"]["steps"],
        "proof.bytes": trace["proof"]["bytes"],
        "check.steps_per_s": (trace["proof"]["steps"] / layers["check"]
                              if layers["check"] else 0.0),
        "atpg.faults": 0,
        "atpg.sat_calls": 0,
        "atpg.sim_dropped_frac": 0.0,
        "bmc.depths": 0,
        "svc.cache_hit_frac": detail["svc.cache_hit_frac"],
        "svc.rejected": detail["svc.rejected"],
        "svc.retries": detail["svc.retries"],
        # Traced over untraced closed loop, each at the reference speed.
        "trace.overhead": (
            closed_wall * scales["B"]
            / ((baseline[1] - baseline[0])
               * calibrate.scale(samples, *baseline, power=POWER))),
    })
    out["per_layer"] = per_layer
    return out
