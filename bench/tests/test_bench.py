"""Tests of the benchmark itself: ``pytest bench/tests``.

They live outside the program's tier-1 ``testpaths`` and cover corpus
determinism, metric emission, failure accounting, span arithmetic and
the ``--smoke`` entry point.
"""

import json
import os
import subprocess
import sys
import time

import pytest

import batch
import calibrate
import compare
import corpus
import service
import spans
import stats

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
          encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_same_seed_same_hash_other_seed_other_hash(workload):
    first = corpus.build(workload, 1, smoke=True, seconds=2.0)
    again = corpus.build(workload, 1, smoke=True, seconds=2.0)
    other = corpus.build(workload, 2, smoke=True, seconds=2.0)
    assert [i.sha256 for i in first] == [i.sha256 for i in again]
    assert corpus.corpus_hash(first) == corpus.corpus_hash(again)
    assert corpus.corpus_hash(first) != corpus.corpus_hash(other)


def test_corpus_workloads_match_benchmark_json():
    assert tuple(WORKLOAD_NAMES) == corpus.WORKLOADS


def test_corpus_list_prints_every_instance(capsys):
    corpus.main(["--workload", "unsat-certified", "--seed", "3",
                 "--smoke", "--list"])
    out = capsys.readouterr().out
    instances = corpus.build("unsat-certified", 3, smoke=True)
    for inst in instances:
        assert inst.name in out and inst.sha256 in out
    assert corpus.corpus_hash(instances) in out


def _last_json(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_run_is_fast_correct_and_emits_every_metric():
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {f"{w}/{m['name']}": m["unit"] for w in WORKLOAD_NAMES
                for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_emits_every_per_layer_metric():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke",
                           "--trace", "1"], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = _last_json(proc.stdout)["metrics"]
    expected = {f"{w}/{m['name']}": m["unit"] for w in WORKLOAD_NAMES
                for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for workload in WORKLOAD_NAMES:
        shares = sum(metrics[f"{workload}/layer.{name}.share"]["value"]
                     for name in spans.LAYER_NAMES)
        assert shares == pytest.approx(1.0)
        assert metrics[f"{workload}/trace.overhead"]["value"] > 0


def _sat_entries(tmp_path):
    instances = corpus.build("sat-mixed", 0, smoke=True)[:1]
    manifest = corpus.write(instances, str(tmp_path))
    with open(manifest, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("injected", ["UNSATISFIABLE", "SATISFIABLE"])
def test_injected_wrong_answer_counts_as_failed(tmp_path, monkeypatch,
                                                injected):
    from repro.cnf.assignment import Assignment
    from repro.solvers.cdcl import CDCLSolver
    from repro.solvers.result import SolverResult, SolverStats, Status

    def wrong(self, assumptions=()):
        if injected == "SATISFIABLE":   # a model that is not one
            model = Assignment({v: False for v in
                                range(1, self.formula.num_vars + 1)})
            return SolverResult(Status.SATISFIABLE, model, SolverStats())
        return SolverResult(Status.UNSATISFIABLE, None, SolverStats())

    monkeypatch.setattr(CDCLSolver, "solve", wrong)
    entries = _sat_entries(tmp_path)
    for entry in entries:
        # No known verdict: the wrong UNSAT must be caught by its
        # re-derivation with certified_solve after the timed window.
        entry["expect"] = None
    record = batch.run("sat-mixed", entries, 0.0, traced=False)
    assert record["ops"] and not any(op["ok"] for op in record["ops"])
    reasons = " ".join(f["reason"] for f in record["failures"])
    assert ("audit" if injected == "SATISFIABLE" else "re-derived") in reasons


def test_wrong_verdict_against_known_answer_counts_as_failed(tmp_path,
                                                             monkeypatch):
    from repro.solvers.cdcl import CDCLSolver
    from repro.solvers.result import SolverResult, SolverStats, Status
    monkeypatch.setattr(CDCLSolver, "solve", lambda self, assumptions=():
                        SolverResult(Status.UNSATISFIABLE, None,
                                     SolverStats()))
    record = batch.run("sat-mixed", _sat_entries(tmp_path), 0.0,
                       traced=False)
    assert not any(op["ok"] for op in record["ops"])
    assert "wrong verdict UNSAT, expected SAT" in record["failures"][0][
        "reason"]


def test_correct_answers_count_as_passed(tmp_path):
    record = batch.run("sat-mixed", _sat_entries(tmp_path), 0.0,
                       traced=False)
    assert record["failures"] == []
    assert all(op["ok"] for op in record["ops"])


def test_rejection_and_missing_response_count_as_failed():
    from repro.cnf.dimacs import parse_dimacs
    from repro.solvers.cdcl import CDCLSolver
    jobs = [j for j in corpus.build("service-mixed", 0, smoke=True,
                                    seconds=2.0)
            if j.family == "job-fresh"][:3]
    result = CDCLSolver(parse_dimacs(jobs[0].text)).solve()
    model = (result.assignment.to_literals() if result.is_sat else None)
    good = {"kind": "result", "id": "n-0", "cached": False,
            "body": {"status": result.status.name, "model": model,
                     "degraded": False, "certificate": None,
                     "stats": result.stats.as_dict()}}
    rejected = {"kind": "rejected", "id": "n-1",
                "code": "REJECTED_OVERLOAD", "reason": "queue full"}
    records = [{"inst": job.name, "phase": "A", "late_s": 0.0,
                "response": response}
               for job, response in zip(jobs, (good, rejected, None))]
    failures = service.audit(records, jobs)
    assert [r["ok"] for r in records] == [True, False, False]
    assert "REJECTED_OVERLOAD" in failures[0]["reason"]
    assert failures[1]["reason"] == "no response"


def test_self_time_subtracts_children_and_merges_overlaps():
    recorded = [
        {"id": 1, "name": "bench.op", "start": 0.0, "end": 10.0,
         "parent": None},
        {"id": 2, "name": "dimacs.parse", "start": 0.0, "end": 2.0,
         "parent": 1},
        {"id": 3, "name": "verify.certified_solve", "start": 2.0,
         "end": 9.0, "parent": 1},
        {"id": 4, "name": "cdcl.solve", "start": 2.5, "end": 6.0,
         "parent": 3},
        {"id": 5, "name": "verify.check", "start": 6.0, "end": 8.5,
         "parent": 3},
        {"id": 6, "name": "inner.unmapped", "start": 3.0, "end": 4.0,
         "parent": 4},
    ]
    own = spans.self_times(recorded)
    assert own == pytest.approx({"bench.op": 1.0, "dimacs.parse": 2.0,
                                 "verify.certified_solve": 1.0,
                                 "cdcl.solve": 2.5, "verify.check": 2.5,
                                 "inner.unmapped": 1.0})
    layers = spans.layer_times(recorded)
    assert layers["solve"] == pytest.approx(3.5)   # unmapped is transparent
    assert layers["build"] == pytest.approx(1.0)
    assert layers["harness"] == pytest.approx(1.0)
    assert sum(layers.values()) == pytest.approx(10.0)

    overlapping = [
        {"id": 1, "name": "bench.op", "start": 0.0, "end": 10.0,
         "parent": None},
        {"id": 2, "name": "cdcl.solve", "start": 1.0, "end": 4.0,
         "parent": 1},
        {"id": 3, "name": "cdcl.solve", "start": 3.0, "end": 6.0,
         "parent": 1},
        {"id": 4, "name": "cdcl.solve", "start": 9.0, "end": 12.0,
         "parent": 1},
    ]
    # Children cover [1, 6] and [9, 10] of [0, 10]: 6 s, counted once.
    assert spans.self_times(overlapping)["bench.op"] == pytest.approx(4.0)


def test_collect_pairs_spans_and_synthesizes_check_spans():
    from repro.obs import ListSink, Tracer
    tracer = Tracer(ListSink())
    with tracer.span("bench.op", inst="php-3"):
        with tracer.span("cdcl.solve"):
            pass
        tracer.event("verify.check", steps=3, bytes=10,
                     check_seconds=0.0, valid=1)
    recorded = spans.collect(tracer.sink.events)
    names = sorted(span["name"] for span in recorded)
    assert names == ["bench.op", "cdcl.solve", "verify.check"]
    assert all(span["attrs"]["inst"] == "php-3" for span in recorded)
    op = next(s for s in recorded if s["name"] == "bench.op")
    check = next(s for s in recorded if s["name"] == "verify.check")
    assert check["parent"] == op["id"]


def test_harrell_davis_quantile():
    assert stats.quantile_hd([3.0], 0.5) == 3.0
    assert stats.quantile_hd([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    # Two clusters split 50/50: the median sits between them and moves
    # a little, not a whole gap, when one sample changes sides.
    low, high = [0.04] * 50, [0.06] * 50
    both = stats.quantile_hd(low + high, 0.5)
    assert 0.045 < both < 0.055
    shifted = stats.quantile_hd(low[1:] + high + [0.06], 0.5)
    assert 0 < shifted - both < 0.003
    tail = stats.quantile_hd(list(range(100)), 0.95)
    assert 92 < tail < 96


def test_calibration_scale_and_busy_time():
    # (start, end, compute_s, memory_s): the host runs at half the
    # reference speed inside [0, 1] and at the reference speed after.
    ref = calibrate.REFERENCE_S
    slow = [(t / 10, t / 10 + 0.01, 2 * ref, 2 * ref) for t in range(10)]
    fast = [(1 + t / 10, 1 + t / 10 + 0.01, ref, ref) for t in range(10)]
    samples = slow + fast
    assert calibrate.scale(samples, 0.0, 1.0) == pytest.approx(
        0.5 ** calibrate.POWER)
    assert calibrate.scale(samples, 1.0, 2.0) == pytest.approx(1.0)
    # Too short a window takes the nearest samples.
    assert calibrate.scale(samples, 1.45, 1.46) == pytest.approx(1.0)
    # Each sample costs 2*2*ref of CPU; one straddles the end by half.
    assert calibrate.busy(slow, 0.0, 0.905) == pytest.approx(
        9.5 * 4 * ref)


def test_compare_verdicts():
    assert compare.verdict([10.0] * 4, [13.0] * 4, "lower",
                           0.1)["label"] == "REGRESSION"
    assert compare.verdict([10.0, 10.1, 9.9, 10.0], [10.05] * 4, "lower",
                           0.1)["label"] == "ok"
    assert compare.verdict([10.0, 10.1, 9.9, 10.0], [10.8] * 4, "lower",
                           0.1)["label"] == "worse"
    assert compare.verdict([10.0] * 4, [8.0] * 4, "lower",
                           0.1)["label"] == "better"
    noisy = [5.0, 10.0, 15.0, 20.0]
    assert compare.verdict(noisy, [12.0, 13.0, 14.0, 15.0], "lower",
                           0.1)["label"] == "unresolved"
    assert compare.verdict([10.0] * 4, [13.0] * 4, "higher",
                           0.1)["label"] == "better"
