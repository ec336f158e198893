"""The shared worker-attempt runtime (repro.runtime.attempt).

The payload audit is table-driven: every malformed row must be
rejected for both key kinds the callers use (the portfolio's int slot
index and the service's str job id), and well-formed rows must parse
with unknown stats keys dropped.  The process handle is exercised end
to end on a tiny formula: a healthy attempt, a crash, a hang and a
malformed sender.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.runtime.attempt import (
    MALFORMED,
    AttemptSpec,
    WorkerAttempt,
    audit_payload,
)
from repro.runtime.faults import FaultPlan, ServiceFaultPlan
from repro.solvers.portfolio import PortfolioConfig
from repro.solvers.result import Status

CLAUSES = [(1, 2), (-1, 2), (-2, 3)]
ATTEMPT = 1
MIB = 1 << 20


def malformed_rows(key, other_key):
    """(label, payload) pairs the audit must reject for *key*."""
    good_model = {1: True, 2: True, 3: True}
    return [
        ("list, not tuple", ["progress", key, ATTEMPT, 0.1, {}, {}]),
        ("None", None),
        ("bare string", "result"),
        ("progress arity 5", ("progress", key, ATTEMPT, 0.1, {})),
        ("checkpoint arity 3", ("checkpoint", key, ATTEMPT)),
        ("checkpoint arity 5",
         ("checkpoint", key, ATTEMPT, b"blob", b"blob")),
        ("result arity 7",
         ("result", key, ATTEMPT, "UNSATISFIABLE", None, {}, {})),
        ("unknown tag",
         ("verdict", key, ATTEMPT, "UNSATISFIABLE", None, {})),
        ("garbage fault", ("garbage", key, "NOT_A_STATUS")),
        ("mismatched key",
         ("result", other_key, ATTEMPT, "UNSATISFIABLE", None, {})),
        ("key of the wrong type",
         ("result", str(key) if isinstance(key, int) else 0, ATTEMPT,
          "UNSATISFIABLE", None, {})),
        ("bool key", ("result", False, ATTEMPT, "UNSATISFIABLE", None,
                      {})),
        ("bool attempt",
         ("result", key, True, "UNSATISFIABLE", None, {})),
        ("negative attempt",
         ("result", key, -1, "UNSATISFIABLE", None, {})),
        ("other attempt",
         ("result", key, ATTEMPT + 1, "UNSATISFIABLE", None, {})),
        ("negative elapsed", ("progress", key, ATTEMPT, -0.5, {}, {})),
        ("bool elapsed", ("progress", key, ATTEMPT, True, {}, {})),
        ("NaN elapsed",
         ("progress", key, ATTEMPT, float("nan"), {}, {})),
        ("string elapsed", ("progress", key, ATTEMPT, "1s", {}, {})),
        ("progress stats not a dict",
         ("progress", key, ATTEMPT, 0.1, [1, 2], {})),
        ("progress extras not a dict",
         ("progress", key, ATTEMPT, 0.1, {}, None)),
        ("result stats not a dict",
         ("result", key, ATTEMPT, "UNSATISFIABLE", None, None)),
        ("blob not bytes", ("checkpoint", key, ATTEMPT, "repro-ckpt1")),
        ("blob over 1 MiB",
         ("checkpoint", key, ATTEMPT, b"x" * (MIB + 1))),
        ("unknown status", ("result", key, ATTEMPT, "MAYBE", None, {})),
        ("unhashable status",
         ("result", key, ATTEMPT, ["SATISFIABLE"], None, {})),
        ("non-bool model value",
         ("result", key, ATTEMPT, "SATISFIABLE",
          {1: 1, 2: True, 3: True}, {})),
        ("non-int model key",
         ("result", key, ATTEMPT, "SATISFIABLE",
          {"1": True, 2: True, 3: True}, {})),
        ("variable 0 in the model",
         ("result", key, ATTEMPT, "SATISFIABLE",
          {0: True, **good_model}, {})),
        ("model not a dict",
         ("result", key, ATTEMPT, "SATISFIABLE", [1, 2, 3], {})),
        ("SAT without a model",
         ("result", key, ATTEMPT, "SATISFIABLE", None, {})),
        ("SAT model falsifies a clause",
         ("result", key, ATTEMPT, "SATISFIABLE",
          {1: False, 2: False, 3: False}, {})),
        ("old untagged result",
         (key, ATTEMPT, "UNSATISFIABLE", None, {})),
    ]


KEYS = [(0, 1), ("job-7", "job-8")]


@pytest.mark.parametrize("key,other_key", KEYS)
def test_malformed_payloads_rejected(key, other_key):
    for label, payload in malformed_rows(key, other_key):
        assert audit_payload(payload, key, ATTEMPT, CLAUSES) \
            == (MALFORMED,), label


@pytest.mark.parametrize("key,other_key", KEYS)
def test_well_formed_payloads_parse(key, other_key):
    stats = {"conflicts": 3, "decisions": 5, "not_a_field": 9,
             "propagations": "many"}
    progress = audit_payload(
        ("progress", key, ATTEMPT, 0, stats,
         {"arena_fill": 0.5, "label": "x", 7: 1.0, "flag": True}),
        key, ATTEMPT, CLAUSES)
    tag, got_key, attempt, elapsed, clean, extras = progress
    assert (tag, got_key, attempt) == ("progress", key, ATTEMPT)
    assert elapsed == 0.0 and isinstance(elapsed, float)
    assert clean["conflicts"] == 3 and clean["decisions"] == 5
    assert clean["propagations"] == 0          # wrong type dropped
    assert "not_a_field" not in clean
    assert extras == {"arena_fill": 0.5}

    for blob in (b"abc", bytearray(b"abc"), b"x" * MIB):
        message = audit_payload(("checkpoint", key, ATTEMPT, blob),
                                key, ATTEMPT, CLAUSES)
        assert message == ("checkpoint", key, ATTEMPT, bytes(blob))
        assert type(message[3]) is bytes

    model = {1: True, 2: True, 3: True}
    sat = audit_payload(("result", key, ATTEMPT, "SATISFIABLE", model,
                         stats), key, ATTEMPT, CLAUSES)
    assert sat[:5] == ("result", key, ATTEMPT, Status.SATISFIABLE,
                       model)
    assert "not_a_field" not in sat[5]
    # A partial model leaving a clause undecided is accepted.
    partial = audit_payload(("result", key, ATTEMPT, "SATISFIABLE",
                             {2: True, 3: True}, {}),
                            key, ATTEMPT, CLAUSES)
    assert partial[3] is Status.SATISFIABLE
    for name in ("UNSATISFIABLE", "UNKNOWN"):
        message = audit_payload(("result", key, ATTEMPT, name, None, {}),
                                key, ATTEMPT, CLAUSES)
        assert message[3] is Status[name]


# ----------------------------------------------------------------------
# The process handle
# ----------------------------------------------------------------------

def _spec(key, plan=None, **overrides):
    fields = dict(key=key, attempt=0, clause_lits=list(CLAUSES),
                  num_vars=3, config=PortfolioConfig(name="plain"),
                  fault_plan=plan)
    fields.update(overrides)
    return AttemptSpec(**fields)


def _run(worker, hang_timeout=None, limit=10.0):
    """Drain until a terminal message or liveness verdict."""
    messages = []
    deadline = time.monotonic() + limit
    while time.monotonic() < deadline:
        for message in worker.drain():
            messages.append(message)
            if message[0] in ("result", MALFORMED):
                return messages, None
        fate = worker.liveness(time.monotonic(), hang_timeout)
        if fate is not None:
            return messages, fate
        time.sleep(0.01)
    raise AssertionError("attempt neither finished nor failed")


def _no_orphans() -> bool:
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return False


class TestWorkerAttempt:
    def test_healthy_attempt_reports_a_checked_result(self):
        worker = WorkerAttempt(_spec("job-a", progress_interval=0.0,
                                     check_interval=1))
        try:
            messages, fate = _run(worker)
        finally:
            worker.stop()
            worker.stop()                     # idempotent
        assert fate is None
        tags = [message[0] for message in messages]
        assert tags[:2] == ["progress", "checkpoint"]
        # Live snapshots carry the synced arena high-water mark.
        assert messages[0][4]["arena_peak_lits"] > 0
        assert "arena_fill" in messages[0][5]
        assert messages[-1][:4] == ("result", "job-a", 0,
                                    Status.SATISFIABLE)
        assert _no_orphans()

    def test_crash_is_reported_after_the_grace_period(self):
        plan = FaultPlan(crashes={0: 1})
        worker = WorkerAttempt(_spec(0, plan))
        try:
            messages, fate = _run(worker, hang_timeout=5.0)
        finally:
            worker.stop()
        assert (messages, fate) == ([], "crash")
        assert _no_orphans()

    def test_hang_is_reported_after_heartbeat_silence(self):
        plan = ServiceFaultPlan(hangs={"job-h": 1})
        worker = WorkerAttempt(_spec("job-h", plan))
        try:
            messages, fate = _run(worker, hang_timeout=0.3)
        finally:
            worker.stop()
        assert (messages, fate) == ([], "hang")
        assert _no_orphans()

    def test_malformed_sender_is_cut_off(self):
        plan = ServiceFaultPlan(poisons={"job-p": 1})
        worker = WorkerAttempt(_spec("job-p", plan))
        try:
            messages, fate = _run(worker)
            assert messages == [(MALFORMED,)]
            assert worker.conn is None        # never read again
            assert worker.drain() == []
        finally:
            worker.stop()
        assert _no_orphans()
