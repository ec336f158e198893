"""The fault-tolerant solve service (repro.service).

Covers the wire protocol, admission control (bounded tenant queues,
weighted round-robin, hardness shedding), the result cache, the retry
loop with inherited budgets, graceful degradation under scripted
worker faults, certification demotion, drain-based shutdown, STATUS
introspection, the TCP transport, and (marked slow) a chaos run
mixing crash/hang/delay faults across a batch of concurrent jobs.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest

from repro.cnf.generators import pigeonhole, random_ksat
from repro.runtime.faults import (
    CRASH,
    GARBAGE,
    HANG,
    KILL_MIDJOB,
    ServiceFaultPlan,
)
from repro.service import (
    BAD_REQUEST,
    InProcessClient,
    ProtocolError,
    REJECTED_OVERLOAD,
    ResultCache,
    SHUTTING_DOWN,
    ServiceClient,
    ServiceConfig,
    SolveServer,
    TenantQueues,
    decode_message,
    encode_message,
    estimate_hardness,
    parse_submit,
)
from repro.service.server import run_server
from repro.solvers.cdcl import CDCLSolver


def clause_payload(formula):
    return {"clauses": [list(c) for c in formula.clauses],
            "num_vars": formula.num_vars}


def fast_config(**overrides) -> ServiceConfig:
    defaults = dict(max_workers=2, queue_depth=8, hang_timeout=0.6,
                    default_deadline=15.0, backoff_seconds=0.01,
                    poll_interval=0.01, progress_interval=0.0,
                    worker_check_interval=16, grace_seconds=5.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


# ----------------------------------------------------------------------
# Unit layers
# ----------------------------------------------------------------------

class TestServiceFaultPlan:
    def test_action_precedence_and_leading_attempts(self):
        plan = ServiceFaultPlan(crashes={"j": 1}, kills={"j": 2},
                                hangs={"j": 3}, poisons={"j": 4})
        # crash wins attempt 0; each later family covers the next.
        assert plan.action("j", 0) == CRASH
        assert plan.action("j", 1) == KILL_MIDJOB
        assert plan.action("j", 2) == HANG
        assert plan.action("j", 3) == GARBAGE
        assert plan.action("j", 4) is None
        assert plan.action("other", 0) is None

    def test_delay_is_server_side_not_an_action(self):
        plan = ServiceFaultPlan(delays={"j": 0.25})
        assert plan.action("j", 0) is None
        assert plan.delay("j") == 0.25
        assert plan.delay("other") == 0.0

    def test_from_dict_roundtrip(self):
        plan = ServiceFaultPlan.from_dict(
            {"crashes": {"a": 1}, "delays": {"b": 0.5},
             "kill_after_checkpoints": 7})
        assert plan.action("a", 0) == CRASH
        assert plan.kill_after_checkpoints == 7

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            ServiceFaultPlan.from_dict({"crashs": {"a": 1}})


class TestEstimateHardness:
    def test_scales_with_size(self):
        assert estimate_hardness(200, 852) > estimate_hardness(20, 85)

    def test_phase_transition_is_hardest(self):
        at = estimate_hardness(100, 426)
        assert at > estimate_hardness(100, 100)    # under-constrained
        assert at > estimate_hardness(100, 900)    # over-constrained

    def test_empty_formula_scores_zero(self):
        assert estimate_hardness(0, 0) == 0.0


class TestTenantQueues:
    def test_bounded_per_tenant(self):
        queues = TenantQueues(2, ServiceConfig())
        assert queues.push("a", 1) and queues.push("a", 2)
        assert not queues.push("a", 3)         # a's queue is full
        assert queues.push("b", 4)             # b unaffected
        assert queues.depths() == {"a": 2, "b": 1}
        assert len(queues) == 3

    def test_fifo_within_a_tenant(self):
        queues = TenantQueues(8, ServiceConfig())
        for job in (1, 2, 3):
            queues.push("a", job)
        assert [queues.next_job() for _ in range(3)] == [1, 2, 3]
        assert queues.next_job() is None

    def test_weighted_round_robin(self):
        config = ServiceConfig(tenant_weights={"a": 2.0})
        queues = TenantQueues(8, config)
        for index in range(4):
            queues.push("a", f"a{index}")
            queues.push("b", f"b{index}")
        first_six = [queues.next_job() for _ in range(6)]
        # Weight 2 vs 1: tenant a receives two slots per b slot.
        assert sum(1 for job in first_six
                   if job.startswith("a")) == 4
        assert sum(1 for job in first_six
                   if job.startswith("b")) == 2

    def test_idle_tenant_forfeits_deficit(self):
        config = ServiceConfig(tenant_weights={"a": 5.0})
        queues = TenantQueues(8, config)
        queues.push("a", "a0")
        assert queues.next_job() == "a0"
        # a drained; its banked deficit must not let it burst later.
        queues.push("b", "b0")
        queues.push("a", "a1")
        assert queues.next_job() in ("a1", "b0")
        assert queues.next_job() in ("a1", "b0")
        assert queues.next_job() is None


class TestResultCache:
    def test_hit_miss_and_rate(self):
        cache = ResultCache(4)
        assert cache.get(("k", False)) is None
        cache.put(("k", False), {"status": "SATISFIABLE"})
        assert cache.get(("k", False)) == {"status": "SATISFIABLE"}
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_certify_flag_is_part_of_the_key(self):
        cache = ResultCache(4)
        cache.put(("k", False), {"plain": True})
        assert cache.get(("k", True)) is None

    def test_lru_eviction(self):
        cache = ResultCache(2)
        cache.put(("a", False), {"a": 1})
        cache.put(("b", False), {"b": 1})
        cache.get(("a", False))               # refresh a
        cache.put(("c", False), {"c": 1})     # evicts b
        assert cache.get(("b", False)) is None
        assert cache.get(("a", False)) is not None
        assert cache.evictions == 1

    def test_zero_capacity_disables(self):
        cache = ResultCache(0)
        cache.put(("a", False), {"a": 1})
        assert cache.get(("a", False)) is None


class TestProtocol:
    def test_roundtrip(self):
        payload = {"op": "submit", "id": "j", "clauses": [[1, -2]],
                   "num_vars": 2}
        assert decode_message(encode_message(payload)) == payload

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_message(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2]\n")

    def test_parse_submit_from_dimacs(self):
        request = parse_submit({"op": "submit", "id": "j",
                                "dimacs": "p cnf 2 1\n1 -2 0\n"})
        assert request.clause_lits == [(1, -2)]
        assert request.num_vars == 2
        assert request.tenant == "default"
        assert request.use_cache is True

    def test_parse_submit_validates(self):
        base = {"op": "submit", "id": "j"}
        for bad in (
                base,                                   # no formula
                {**base, "clauses": [[0]], "num_vars": 1},
                {**base, "clauses": [[5]], "num_vars": 2},
                {**base, "clauses": "x", "num_vars": 2},
                {**base, "dimacs": "p cnf 1 1\n1 0\n",
                 "deadline": -1},
                {**base, "dimacs": "p cnf 1 1\n1 0\n",
                 "max_conflicts": 1.5},
                {**base, "dimacs": "p cnf 1 1\n1 0\n",
                 "certify": "yes"},
                {"op": "submit", "id": "",
                 "dimacs": "p cnf 1 1\n1 0\n"},
        ):
            with pytest.raises(ProtocolError):
                parse_submit(bad)


# ----------------------------------------------------------------------
# Integration: the in-process service
# ----------------------------------------------------------------------

class TestInProcessService:
    def test_sat_unsat_and_model(self):
        sat = random_ksat(16, 48, seed=2)
        with InProcessClient(fast_config()) as client:
            response = client.submit("sat", **clause_payload(sat))
            body = response["body"]
            assert body["status"] == "SATISFIABLE"
            model = {abs(lit): lit > 0 for lit in body["model"]}
            for var in range(1, sat.num_vars + 1):
                model.setdefault(var, False)
            assert sat.evaluate(model) is True
            unsat = client.submit("unsat",
                                  **clause_payload(pigeonhole(4)))
            assert unsat["body"]["status"] == "UNSATISFIABLE"
            assert unsat["body"]["degraded"] is False

    def test_cache_hit_replays_byte_identical_body(self):
        formula = random_ksat(14, 42, seed=5)
        with InProcessClient(fast_config()) as client:
            first = client.submit("j1", **clause_payload(formula))
            second = client.submit("j2", **clause_payload(formula))
            assert first["cached"] is False
            assert second["cached"] is True
            assert (json.dumps(first["body"], sort_keys=True)
                    == json.dumps(second["body"], sort_keys=True))
            # Permuted clauses and literals canonicalize to the same
            # key: still a hit.
            permuted = {"clauses": [sorted(c, reverse=True) for c in
                                    reversed(clause_payload(
                                        formula)["clauses"])],
                        "num_vars": formula.num_vars}
            third = client.submit("j3", **permuted)
            assert third["cached"] is True

    def test_certified_unsat_carries_checked_proof(self):
        with InProcessClient(fast_config()) as client:
            response = client.submit("cert",
                                     **clause_payload(pigeonhole(4)),
                                     certify=True)
            body = response["body"]
            assert body["status"] == "UNSATISFIABLE"
            assert body["certificate"]["kind"] == "proof"
            assert body["certificate"]["valid"] is True
            assert body["certificate"]["steps"] > 0

    def test_bad_requests_get_errors_not_hangs(self):
        with InProcessClient(fast_config()) as client:
            missing = client.request({"op": "submit", "id": "x"})
            assert missing["kind"] == "error"
            assert missing["code"] == BAD_REQUEST
            unknown = client.request({"op": "frobnicate", "id": "x"})
            assert unknown["kind"] == "error"
            assert client.ping()["kind"] == "pong"

    def test_status_reports_queues_workers_cache(self):
        formula = random_ksat(12, 36, seed=1)
        with InProcessClient(fast_config()) as client:
            client.submit("s1", **clause_payload(formula))
            client.submit("s2", **clause_payload(formula))
            status = client.status()
            assert status["kind"] == "status"
            assert status["jobs"]["done"] == 1
            assert status["cache"]["hits"] == 1
            assert status["workers"]["max"] == 2
            assert status["draining"] is False

    def test_shutdown_drains_then_rejects(self):
        formula = random_ksat(12, 36, seed=4)
        client = InProcessClient(fast_config())
        try:
            client.submit("before", **clause_payload(formula))
            report = client.shutdown(grace=2.0)
            assert report["kind"] == "shutdown"
            assert report["drained"] == 1
            late = client.request({"op": "submit", "id": "late",
                                   **clause_payload(formula)})
            assert late["kind"] == "rejected"
            assert late["code"] == SHUTTING_DOWN
        finally:
            client.close()


class TestAdmissionControl:
    def test_hardness_shedding(self):
        formula = random_ksat(30, 90, seed=0)
        with InProcessClient(fast_config(max_hardness=5.0)) as client:
            response = client.submit("huge", **clause_payload(formula))
            assert response["kind"] == "rejected"
            assert response["code"] == REJECTED_OVERLOAD
            assert "hardness" in response["reason"]

    def test_queue_overflow_sheds_and_drain_terminates_all(self):
        formula = random_ksat(20, 60, seed=7)
        payload = clause_payload(formula)
        plan = ServiceFaultPlan(hangs={"blocker": 1})
        config = fast_config(max_workers=1, queue_depth=1,
                             hang_timeout=30.0)

        async def scenario():
            server = SolveServer(config, fault_plan=plan)
            await server.start()

            def submit(job_id):
                return server.handle_message(
                    {"op": "submit", "id": job_id,
                     "use_cache": False, **payload})

            blocker = asyncio.create_task(submit("blocker"))
            await asyncio.sleep(0.3)       # dispatched, now hanging
            queued = asyncio.create_task(submit("queued"))
            await asyncio.sleep(0.1)       # sits in the tenant queue
            shed = await submit("shed")
            status = server._status_response(None)
            await server.shutdown(grace=0.0)
            return (await blocker), (await queued), shed, status

        blocked, queued, shed, status = asyncio.run(scenario())
        # The queue was full: explicit overload rejection.
        assert shed["kind"] == "rejected"
        assert shed["code"] == REJECTED_OVERLOAD
        assert "queue" in shed["reason"]
        assert status["queues"] == {"default": 1}
        assert status["workers"]["busy"] == 1
        # Drain terminated everything with a terminal answer: the
        # hung runner degraded, the queued job explicitly rejected.
        assert blocked["kind"] == "result"
        assert blocked["body"]["status"] == "UNKNOWN"
        assert blocked["body"]["degraded"] is True
        assert queued["kind"] == "rejected"
        assert queued["code"] == SHUTTING_DOWN


class TestFaultTolerance:
    def test_crash_once_recovers_with_same_verdict(self):
        formula = random_ksat(20, 60, seed=3)
        reference = CDCLSolver(formula).solve().status.name
        plan = ServiceFaultPlan(crashes={"c": 1})
        with InProcessClient(fast_config(),
                             fault_plan=plan) as client:
            response = client.submit("c", **clause_payload(formula),
                                     use_cache=False)
            body = response["body"]
            assert body["status"] == reference
            assert body["attempts"] == 2
            assert body["degraded"] is False

    def test_poison_payload_is_rejected_and_retried(self):
        formula = random_ksat(20, 60, seed=9)
        plan = ServiceFaultPlan(poisons={"p": 1})
        with InProcessClient(fast_config(),
                             fault_plan=plan) as client:
            body = client.submit("p", **clause_payload(formula),
                                 use_cache=False)["body"]
            assert body["status"] in ("SATISFIABLE", "UNSATISFIABLE")
            assert body["attempts"] == 2

    def test_hang_is_detected_and_retried(self):
        formula = random_ksat(20, 60, seed=11)
        plan = ServiceFaultPlan(hangs={"h": 1})
        with InProcessClient(fast_config(hang_timeout=0.3),
                             fault_plan=plan) as client:
            body = client.submit("h", **clause_payload(formula),
                                 use_cache=False)["body"]
            assert body["status"] in ("SATISFIABLE", "UNSATISFIABLE")
            assert body["attempts"] == 2

    def test_all_attempts_crashing_degrades_gracefully(self):
        formula = random_ksat(20, 60, seed=13)
        plan = ServiceFaultPlan(crashes={"cc": 99})
        with InProcessClient(fast_config(max_attempts=3),
                             fault_plan=plan) as client:
            body = client.submit("cc", **clause_payload(formula),
                                 use_cache=False)["body"]
            assert body["status"] == "UNKNOWN"
            assert body["degraded"] is True
            assert body["degraded_reason"] == "crash"
            assert body["attempts"] == 3

    def test_kill_midjob_leaves_partial_snapshot(self):
        formula = random_ksat(40, 160, seed=3)
        plan = ServiceFaultPlan(kills={"kk": 99},
                                kill_after_checkpoints=3)
        with InProcessClient(fast_config(max_workers=1),
                             fault_plan=plan) as client:
            body = client.submit("kk", **clause_payload(formula),
                                 use_cache=False)["body"]
            assert body["status"] == "UNKNOWN"
            assert body["degraded"] is True
            # The structured partial result: the last progress
            # snapshot the dying worker reported.
            assert body["partial"] is not None
            assert body["partial"]["stats"]["propagations"] >= 0
            assert body["stats"] == body["partial"]["stats"]

    def test_degraded_results_are_not_cached(self):
        formula = random_ksat(20, 60, seed=13)
        plan = ServiceFaultPlan(crashes={"d1": 99, "d2": 99})
        with InProcessClient(fast_config(),
                             fault_plan=plan) as client:
            first = client.submit("d1", **clause_payload(formula))
            second = client.submit("d2", **clause_payload(formula))
            assert first["body"]["status"] == "UNKNOWN"
            assert second["cached"] is False

    def test_budget_exhaustion_is_unknown_not_an_error(self):
        with InProcessClient(fast_config()) as client:
            body = client.submit("b", **clause_payload(pigeonhole(6)),
                                 max_conflicts=5,
                                 use_cache=False)["body"]
            assert body["status"] == "UNKNOWN"
            assert body["degraded_reason"] in ("budget", "deadline")

    def test_delayed_response_fault(self):
        import time
        formula = random_ksat(12, 36, seed=6)
        plan = ServiceFaultPlan(delays={"slow": 0.3})
        with InProcessClient(fast_config(),
                             fault_plan=plan) as client:
            started = time.monotonic()
            body = client.submit("slow", **clause_payload(formula),
                                 use_cache=False)["body"]
            assert time.monotonic() - started >= 0.3
            assert body["status"] in ("SATISFIABLE", "UNSATISFIABLE")


class TestEngineDefaults:
    """A job searches exactly like ``CDCLSolver(formula)``: the
    service runs the engine defaults, not a configuration of its
    own."""

    @pytest.mark.parametrize("formula", [
        pigeonhole(5), random_ksat(60, 250, seed=3),
        random_ksat(60, 270, seed=8)], ids=["php5", "rk60-s3", "rk60-s8"])
    def test_job_counters_match_the_engine(self, formula):
        from repro.solvers.portfolio import PortfolioConfig

        expected = CDCLSolver(formula).solve()
        configured = PortfolioConfig(name="defaults").build_solver(
            formula).solve()
        with InProcessClient(fast_config()) as client:
            body = client.submit("job", **clause_payload(formula),
                                 use_cache=False)["body"]
        assert body["status"] == expected.status.name
        assert body["attempts"] == 1
        for counter in ("conflicts", "decisions", "propagations"):
            assert body["stats"][counter] == \
                getattr(expected.stats, counter), counter
            assert getattr(configured.stats, counter) == \
                getattr(expected.stats, counter), counter


class TestCertificationDemotion:
    def test_failed_proof_check_demotes_never_flips(self, monkeypatch):
        from repro.verify.checker import CheckOutcome

        monkeypatch.setattr(
            "repro.verify.certificate.check_proof_file",
            lambda formula, path: CheckOutcome(
                valid=False, error="forced failure"))
        with InProcessClient(fast_config()) as client:
            response = client.submit("demoted",
                                     **clause_payload(pigeonhole(4)),
                                     certify=True)
            body = response["body"]
            assert body["status"] == "UNKNOWN"
            assert body["degraded"] is True
            assert body["degraded_reason"] == "certification"
            assert body["certificate"]["valid"] is False
            # A demoted answer must not poison the cache.
            again = client.submit("again",
                                  **clause_payload(pigeonhole(4)),
                                  certify=True)
            assert again["cached"] is False


class TestServiceTrace:
    def test_events_validate_against_the_schema(self):
        from repro.obs import ListSink, Tracer
        from repro.obs.trace import validate_event

        sink = ListSink()
        tracer = Tracer(sink)
        formula = random_ksat(14, 42, seed=8)
        config = fast_config(max_hardness=5.0)
        with InProcessClient(config, tracer=tracer) as client:
            easy = random_ksat(8, 20, seed=1)
            client.submit("ok", **clause_payload(easy))
            client.submit("ok2", **clause_payload(easy))   # cache hit
            client.submit("shed", **clause_payload(formula))
        problems = [p for event in sink.events
                    for p in validate_event(event)]
        assert problems == []
        names = [event["name"] for event in sink.events]
        assert names.count("service.result") == 2
        assert "service.reject" in names
        assert "service.shutdown" in names


# ----------------------------------------------------------------------
# TCP transport
# ----------------------------------------------------------------------

class _TcpServer:
    """A run_server() on a background thread, for client tests."""

    def __init__(self, config, fault_plan=None):
        self.port = None
        ready = threading.Event()

        def _note(bound):
            self.port = bound[1]
            ready.set()

        self.thread = threading.Thread(
            target=lambda: asyncio.run(
                run_server(config, port=0, fault_plan=fault_plan,
                           ready=_note)),
            daemon=True)
        self.thread.start()
        assert ready.wait(10.0), "server did not come up"


class TestTcpTransport:
    def test_full_session_over_sockets(self):
        formula = random_ksat(14, 42, seed=10)
        harness = _TcpServer(fast_config())
        client = ServiceClient(port=harness.port)
        try:
            assert client.ping()["kind"] == "pong"
            response = client.submit("tcp-job",
                                     **clause_payload(formula))
            assert response["kind"] == "result"
            assert response["body"]["status"] in ("SATISFIABLE",
                                                  "UNSATISFIABLE")
            assert client.status()["jobs"]["done"] == 1
            report = client.shutdown(grace=2.0)
            assert report["kind"] == "shutdown"
        finally:
            client.close()
        harness.thread.join(10.0)
        assert not harness.thread.is_alive()

    def test_pipelined_submissions_match_by_id(self):
        sat = random_ksat(12, 30, seed=2)
        unsat = pigeonhole(4)
        harness = _TcpServer(fast_config())
        sock = socket.create_connection(("127.0.0.1", harness.port),
                                        timeout=30.0)
        try:
            # Two submissions written back-to-back before any read:
            # the connection handler runs them concurrently and the
            # responses carry their ids.
            sock.sendall(encode_message(
                {"op": "submit", "id": "a", "use_cache": False,
                 **clause_payload(sat)}))
            sock.sendall(encode_message(
                {"op": "submit", "id": "b", "use_cache": False,
                 **clause_payload(unsat)}))
            reader = sock.makefile("rb")
            responses = {}
            for _ in range(2):
                response = decode_message(reader.readline())
                responses[response["id"]] = response["body"]
            assert responses["a"]["status"] == "SATISFIABLE"
            assert responses["b"]["status"] == "UNSATISFIABLE"
            sock.sendall(encode_message({"op": "shutdown",
                                         "id": "down"}))
            assert decode_message(
                reader.readline())["kind"] == "shutdown"
        finally:
            sock.close()
        harness.thread.join(10.0)


# ----------------------------------------------------------------------
# Chaos: the service under a mixed fault storm
# ----------------------------------------------------------------------

@pytest.mark.slow
class TestChaos:
    def test_fault_storm_no_lost_clients_no_flips(self):
        """20+ concurrent jobs under crash/kill/hang/poison/delay
        faults: every client receives a terminal response, decisive
        verdicts never flip against a sequential re-solve, and
        resubmission replays byte-identical cached bodies."""
        jobs = []
        for index in range(22):
            formula = random_ksat(14, 3 * 14 + (index % 5), seed=index)
            jobs.append((f"job-{index}", formula))
        reference = {job_id: CDCLSolver(formula).solve().status.name
                     for job_id, formula in jobs}
        plan = ServiceFaultPlan(
            crashes={"job-1": 1, "job-7": 1, "job-13": 1},
            kills={"job-3": 1, "job-17": 1},
            hangs={"job-5": 1},
            poisons={"job-9": 1, "job-19": 1},
            delays={"job-11": 0.2},
            kill_after_checkpoints=2)
        config = fast_config(max_workers=4, queue_depth=32,
                             hang_timeout=0.4, default_deadline=20.0)

        async def storm():
            server = SolveServer(config, fault_plan=plan)
            await server.start()

            def submit(job_id, formula):
                return server.handle_message(
                    {"op": "submit", "id": job_id,
                     **clause_payload(formula)})

            first = await asyncio.gather(
                *(submit(job_id, formula)
                  for job_id, formula in jobs))
            second = await asyncio.gather(
                *(submit(job_id + "-replay", formula)
                  for job_id, formula in jobs))
            status = server._status_response(None)
            await server.shutdown(grace=2.0)
            return first, second, status

        first, second, status = asyncio.run(storm())

        terminal = {"result", "rejected"}
        for response in first + second:
            assert response["kind"] in terminal, response
        by_id = {response["id"]: response for response in first}
        for job_id, formula in jobs:
            response = by_id[job_id]
            assert response["kind"] == "result"
            status_name = response["body"]["status"]
            # Degraded UNKNOWNs are allowed; decisive answers must
            # agree with the sequential reference solver.
            if status_name in ("SATISFIABLE", "UNSATISFIABLE"):
                assert status_name == reference[job_id], job_id
        # Faulted jobs recovered through retries, not silence.
        assert by_id["job-1"]["body"]["attempts"] >= 2
        # Round two: every decisive first-round body replays
        # byte-identically from the cache.
        replay = {response["id"]: response for response in second}
        for job_id, formula in jobs:
            original = by_id[job_id]
            replayed = replay[job_id + "-replay"]
            if (original["body"]["status"] in ("SATISFIABLE",
                                               "UNSATISFIABLE")
                    and not original["body"]["degraded"]):
                assert replayed["cached"] is True
                assert (json.dumps(original["body"], sort_keys=True)
                        == json.dumps(replayed["body"],
                                      sort_keys=True))
        # The full cache-stats surface STATUS now exposes: totals are
        # internally consistent even after a fault storm.
        cache = status["cache"]
        assert set(cache) == {"size", "capacity", "hits", "misses",
                              "evictions", "hit_rate"}
        assert cache["hits"] >= 15
        assert cache["misses"] >= len(jobs)   # every first solve missed
        assert 0 <= cache["size"] <= cache["capacity"]
        assert cache["evictions"] >= 0
        lookups = cache["hits"] + cache["misses"]
        assert abs(cache["hit_rate"] - cache["hits"] / lookups) < 1e-3
        assert status["jobs"]["retries"] >= 5


# ----------------------------------------------------------------------
# Observability: streamed progress, metrics exposition, repro top
# ----------------------------------------------------------------------

class TestProgressFrameSchema:
    def frame(self, **override):
        frame = {"kind": "progress", "id": "j", "seq": 0,
                 "attempt": 1, "elapsed": 0.5,
                 "snapshot": {"conflicts": 10, "decisions": 20,
                              "propagations": 300, "restarts": 1,
                              "propagations_per_sec": 600.0,
                              "arena_fill": 0.4}}
        frame.update(override)
        return frame

    def test_valid_frame_passes(self):
        from repro.service import validate_progress_frame
        assert validate_progress_frame(self.frame()) == []

    def test_optional_readings_may_be_absent(self):
        from repro.service import validate_progress_frame
        frame = self.frame(snapshot={"conflicts": 0, "decisions": 0,
                                     "propagations": 0,
                                     "restarts": 0})
        assert validate_progress_frame(frame) == []

    def test_mutations_rejected(self):
        from repro.service import validate_progress_frame
        snapshot = self.frame()["snapshot"]
        mutations = [
            "not a dict",
            self.frame(kind="result"),
            self.frame(id=""),
            self.frame(seq=-1),
            self.frame(seq=True),
            self.frame(attempt=0),
            self.frame(elapsed=-0.1),
            self.frame(elapsed="fast"),
            self.frame(snapshot=None),
            self.frame(snapshot={**snapshot, "conflicts": -1}),
            self.frame(snapshot={**snapshot, "propagations": 1.5}),
            self.frame(snapshot={k: v for k, v in snapshot.items()
                                 if k != "restarts"}),
            self.frame(snapshot={**snapshot, "arena_fill": "full"}),
        ]
        for mutated in mutations:
            assert validate_progress_frame(mutated) != [], mutated


class TestStreamedProgress:
    def stream_config(self, **overrides):
        return fast_config(stream_interval=0.0, **overrides)

    def collect(self, client, job_id, formula, **kwargs):
        timeline = []
        response = client.submit(
            job_id, **clause_payload(formula), stream=True,
            on_progress=lambda f: timeline.append(("frame", f)),
            **kwargs)
        timeline.append(("terminal", response))
        return timeline, response

    def test_streamed_job_yields_valid_frames_before_result(self):
        from repro.service import validate_progress_frame
        with InProcessClient(self.stream_config()) as client:
            timeline, response = self.collect(
                client, "ph", pigeonhole(6), use_cache=False)
        frames = [f for kind, f in timeline if kind == "frame"]
        assert frames, "no progress frames for a non-trivial job"
        assert timeline[-1][0] == "terminal"
        # Every frame precedes the terminal response and validates.
        assert all(kind == "frame" for kind, _ in timeline[:-1])
        for frame in frames:
            assert validate_progress_frame(frame) == [], frame
            assert frame["id"] == "ph"
        assert response["body"]["status"] == "UNSATISFIABLE"

    def test_seq_monotonic_and_counters_nondecreasing(self):
        with InProcessClient(self.stream_config()) as client:
            timeline, _ = self.collect(client, "ph", pigeonhole(6),
                                       use_cache=False)
        frames = [f for kind, f in timeline if kind == "frame"]
        assert [f["seq"] for f in frames] == list(range(len(frames)))
        for attr in ("conflicts", "propagations"):
            values = [f["snapshot"][attr] for f in frames
                      if f["attempt"] == frames[-1]["attempt"]]
            assert values == sorted(values)

    def test_unstreamed_submit_sees_no_frames(self):
        frames = []
        with InProcessClient(self.stream_config()) as client:
            response = client.submit(
                "plain", **clause_payload(pigeonhole(6)),
                use_cache=False, on_progress=frames.append)
        assert response["kind"] == "result"
        assert frames == []

    def test_throttle_limits_relay_rate(self):
        # A coarse stream_interval must relay far fewer frames than
        # the worker produced (whose own interval is 0.0 here).
        with InProcessClient(self.stream_config()) as client:
            eager, _ = self.collect(client, "a", pigeonhole(6),
                                    use_cache=False)
        with InProcessClient(
                fast_config(stream_interval=3600.0)) as client:
            throttled, _ = self.collect(client, "b", pigeonhole(6),
                                        use_cache=False)
        eager_frames = sum(1 for kind, _ in eager if kind == "frame")
        throttled_frames = sum(1 for kind, _ in throttled
                               if kind == "frame")
        # The first frame always relays; after that the server
        # withholds until stream_interval has passed.
        assert 1 <= throttled_frames <= 2
        assert eager_frames > throttled_frames

    def test_parse_submit_stream_flag(self):
        request = parse_submit({"op": "submit", "id": "j",
                                "dimacs": "p cnf 1 1\n1 0\n",
                                "stream": True})
        assert request.stream is True
        assert parse_submit({"op": "submit", "id": "j",
                             "dimacs": "p cnf 1 1\n1 0\n"}).stream \
            is False
        with pytest.raises(ProtocolError):
            parse_submit({"op": "submit", "id": "j",
                          "dimacs": "p cnf 1 1\n1 0\n",
                          "stream": "yes"})


class TestMetricsExposition:
    def scrape(self, client):
        response = client.metrics()
        assert response["kind"] == "metrics"
        return response["text"]

    def test_scrape_lints_and_carries_tenant_series(self):
        from repro.obs import lint_exposition
        from repro.service.top import parse_exposition
        formula = random_ksat(14, 42, seed=21)
        with InProcessClient(fast_config(max_hardness=5000.0)) \
                as client:
            client.submit("m1", **clause_payload(formula),
                          tenant="acme")
            client.submit("m2", **clause_payload(formula),
                          tenant="acme")            # cache hit
            client.submit("m3", **clause_payload(
                random_ksat(30, 90, seed=22)), tenant="big")
            text = self.scrape(client)
        assert lint_exposition(text) == []
        series = parse_exposition(text)
        latency = {labels["tenant"]: value for labels, value in
                   series["service_solve_latency_seconds_count"]}
        assert latency["acme"] == 2.0
        assert latency["big"] == 1.0
        # parse_exposition returns [({}, value)] for label-free series.
        assert series["service_cache_hits_total"][0][1] == 1.0
        assert series["service_cache_hit_rate"][0][1] > 0.0
        assert series["service_workers_max"][0][1] == 2.0

    def test_rejects_counted_by_code(self):
        from repro.service.top import parse_exposition
        formula = random_ksat(30, 90, seed=0)
        with InProcessClient(fast_config(max_hardness=5.0)) as client:
            shed = client.submit("huge", **clause_payload(formula))
            assert shed["kind"] == "rejected"
            text = self.scrape(client)
        series = parse_exposition(text)
        rejects = {(labels["tenant"], labels["code"]): value
                   for labels, value in
                   series["service_rejects_total"]}
        assert rejects[("default", REJECTED_OVERLOAD)] == 1.0

    def test_worker_search_metrics_absorbed_into_solver_aggregate(
            self):
        from repro.service.top import parse_exposition
        # Pigeonhole guarantees conflicts, so the learned-clause
        # histograms cannot come back empty.
        with InProcessClient(fast_config()) as client:
            client.submit("s1", **clause_payload(pigeonhole(5)),
                          use_cache=False)
            text = self.scrape(client)
        series = parse_exposition(text)
        # SearchMetrics histograms ride home in the result stats and
        # merge into solver_-prefixed families.
        assert series["solver_propagation_burst_count"][0][1] > 0
        assert series["solver_learned_clause_size_count"][0][1] > 0

    def test_progress_frames_counted(self):
        from repro.service.top import parse_exposition
        config = fast_config(stream_interval=0.0)
        with InProcessClient(config) as client:
            client.submit("ph", **clause_payload(pigeonhole(6)),
                          use_cache=False, stream=True,
                          on_progress=lambda f: None)
            text = self.scrape(client)
        series = parse_exposition(text)
        assert series["service_progress_frames_total"][0][1] >= 1.0

    def test_status_reports_wdrr_deficits(self):
        with InProcessClient(fast_config()) as client:
            client.submit("d", **clause_payload(
                random_ksat(12, 36, seed=3)))
            status = client.status()
        assert isinstance(status["deficits"], dict)


class TestObservabilityTraceEvents:
    def test_progress_and_metrics_events_validate(self):
        from repro.obs import ListSink, Tracer
        from repro.obs.trace import validate_event

        sink = ListSink()
        config = fast_config(stream_interval=0.0)
        with InProcessClient(config, tracer=Tracer(sink)) as client:
            client.submit("ph", **clause_payload(pigeonhole(6)),
                          use_cache=False, stream=True,
                          on_progress=lambda f: None)
            client.metrics()
        problems = [p for event in sink.events
                    for p in validate_event(event)]
        assert problems == []
        names = [event["name"] for event in sink.events]
        assert "service.progress" in names
        assert "service.metrics" in names
        progress = next(e for e in sink.events
                        if e["name"] == "service.progress")
        assert progress["attrs"]["job"] == "ph"
        assert progress["attrs"]["attempt"] >= 1
        metrics_event = next(e for e in sink.events
                             if e["name"] == "service.metrics")
        assert metrics_event["attrs"]["bytes"] > 0
        assert metrics_event["attrs"]["families"] > 0


class TestWorkerTraceCorrelation:
    def test_profile_merges_server_and_worker_traces(self, tmp_path):
        from repro.obs import JsonlSink, Tracer, profile_traces

        server_path = str(tmp_path / "server.jsonl")
        worker_dir = str(tmp_path / "workers")
        tracer = Tracer(JsonlSink(server_path))
        tracer.emit_meta()
        formula = random_ksat(20, 85, seed=6)

        async def scenario():
            server = SolveServer(fast_config(), tracer=tracer,
                                 worker_trace_dir=worker_dir)
            await server.start()
            response = await server.handle_message(
                {"op": "submit", "id": "traced", "use_cache": False,
                 **clause_payload(formula)})
            await server.shutdown(grace=2.0)
            return response

        response = asyncio.run(scenario())
        tracer.close()
        assert response["kind"] == "result"
        import glob
        import os
        worker_files = sorted(glob.glob(
            os.path.join(worker_dir, "*.jsonl")))
        assert worker_files, "worker wrote no trace file"
        text, problems = profile_traces([server_path] + worker_files)
        assert problems == []
        assert "job timelines (server/worker correlated):" in text
        assert "traced" in text
        assert "attempt 1: solve" in text
        basename = os.path.basename(worker_files[0])
        assert f"[{basename}]" in text

    def test_alike_job_ids_keep_separate_traces(self, tmp_path):
        """Ids that read alike after the file-name cut (a dot vs an
        underscore, or equal first 80 characters) must not share one
        trace file: the later attempt would erase the earlier job's
        trace."""
        import os

        worker_dir = str(tmp_path / "workers")
        ids = ["job.1", "job_1", "x" * 80 + "a", "x" * 80 + "b"]
        formula = random_ksat(20, 85, seed=6)

        async def scenario():
            server = SolveServer(fast_config(),
                                 worker_trace_dir=worker_dir)
            await server.start()
            for job_id in ids:
                response = await server.handle_message(
                    {"op": "submit", "id": job_id, "use_cache": False,
                     **clause_payload(formula)})
                assert response["kind"] == "result", response
            await server.shutdown(grace=2.0)

        asyncio.run(scenario())
        jobs = []
        for name in sorted(os.listdir(worker_dir)):
            with open(os.path.join(worker_dir, name)) as handle:
                meta = [event for event in map(json.loads, handle)
                        if event["name"] == "trace.meta"]
            assert len(meta) == 1, name
            jobs.append(meta[0]["attrs"]["job"])
        # A retried attempt adds a file; every job keeps its own.
        assert set(jobs) == set(ids)


class TestTopDashboard:
    STATUS = {"kind": "status", "draining": False,
              "uptime_seconds": 125.0,
              "queues": {"acme": 2}, "deficits": {"acme": 1.5},
              "queued": 2,
              "workers": {"max": 4, "busy": 3},
              "active": [{"id": "job-9", "tenant": "acme",
                          "running_seconds": 3.25,
                          "heartbeat_age": 0.1}],
              "cache": {"size": 5, "capacity": 256, "hits": 3,
                        "misses": 7, "evictions": 0,
                        "hit_rate": 0.3},
              "jobs": {"done": 10, "rejected": 1, "retries": 2,
                       "cancelled": 0}}
    METRICS = ("# TYPE service_solve_latency_seconds histogram\n"
               'service_solve_latency_seconds_sum{tenant="acme"} 4\n'
               'service_solve_latency_seconds_count{tenant="acme"}'
               " 8\n")

    def test_parse_exposition(self):
        from repro.service.top import parse_exposition
        series = parse_exposition(self.METRICS)
        assert series[
            "service_solve_latency_seconds_count"] == \
            [({"tenant": "acme"}, 8.0)]
        # Comments and garbage are skipped, not fatal.
        assert parse_exposition("# a comment\nnot a sample\n") == {}

    def test_render_dashboard_sections(self):
        from repro.service.top import render_dashboard
        text = render_dashboard(self.STATUS, self.METRICS,
                                throughput=1.25)
        assert "serving" in text
        assert "workers 3/4 busy" in text
        assert "1.25 jobs/s" in text
        assert "10 done, 1 rejected, 2 retries" in text
        assert "3 hits (30%)" in text
        assert "acme" in text
        assert "0.500" in text          # 4s / 8 solves average
        assert "job-9" in text
        assert "heartbeat 0.1s ago" in text

    def test_render_without_metrics_or_activity(self):
        from repro.service.top import render_dashboard
        status = dict(self.STATUS, active=[], queues={}, deficits={},
                      draining=True)
        text = render_dashboard(status)
        assert "DRAINING" in text
        assert "active jobs: none" in text

    def test_run_top_polls_and_returns(self):
        import io
        from repro.service.top import run_top
        with InProcessClient(fast_config()) as client:
            client.submit("t", **clause_payload(
                random_ksat(12, 36, seed=9)))
            out = io.StringIO()
            code = run_top(client, interval=0.0, iterations=2,
                           clear=False, out=out)
        assert code == 0
        rendered = out.getvalue()
        assert rendered.count("repro top --") == 2
        assert "1 done" in rendered

    def test_run_top_reports_lost_connection(self):
        import io

        from repro.service.top import run_top

        class DeadClient:
            def status(self):
                raise ConnectionError("gone")

            def metrics(self):
                raise ConnectionError("gone")

        out = io.StringIO()
        assert run_top(DeadClient(), iterations=1, clear=False,
                       out=out) == 3
        assert "connection lost" in out.getvalue()
