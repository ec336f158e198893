"""Unit tests for repro.obs.trace: tracer, sinks, schema validation,
and solver-side emission (CDCL / DPLL / local search spans and
progress snapshots)."""

import json

import pytest

from repro.cnf.generators import pigeonhole, random_ksat_at_ratio
from repro.obs import (
    JsonlSink,
    ListSink,
    NullSink,
    Tracer,
    validate_event,
    validate_trace_file,
)
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.dpll import DPLLSolver
from repro.solvers.local_search import solve_gsat, solve_walksat


def assert_valid(events):
    problems = [p for e in events for p in validate_event(e)]
    assert problems == [], problems


class TestTracer:
    def test_span_nesting_and_parent_ids(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with tracer.span("outer", a=1):
            with tracer.span("inner"):
                tracer.event("tick", n=3)
        events = sink.events
        assert_valid(events)
        kinds = [e["kind"] for e in events]
        assert kinds == ["span_begin", "span_begin", "event",
                         "span_end", "span_end"]
        outer_begin, inner_begin, tick, inner_end, outer_end = events
        assert outer_begin["parent"] is None
        assert inner_begin["parent"] == outer_begin["span"]
        assert tick["span"] == inner_begin["span"]
        assert inner_end["span"] == inner_begin["span"]
        assert outer_end["attrs"]["duration"] >= 0

    def test_span_end_attrs_carry_outcome(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with tracer.span("solve") as end:
            end["status"] = "SAT"
        assert sink.events[-1]["attrs"]["status"] == "SAT"
        assert "duration" in sink.events[-1]["attrs"]

    def test_span_end_emitted_on_exception(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert sink.events[-1]["kind"] == "span_end"
        assert_valid(sink.events)

    def test_progress_throttling_per_name(self):
        sink = ListSink()
        tracer = Tracer(sink, progress_interval=3600.0)
        assert tracer.progress("a", n=1) is True
        assert tracer.progress("a", n=2) is False
        assert tracer.progress("b", n=1) is True
        names = [e["name"] for e in sink.events]
        assert names == ["a", "b"]

    def test_progress_interval_zero_keeps_everything(self):
        sink = ListSink()
        tracer = Tracer(sink, progress_interval=0.0)
        for n in range(5):
            assert tracer.progress("a", n=n) is True
        assert len(sink.events) == 5

    def test_negative_progress_interval_rejected(self):
        with pytest.raises(ValueError):
            Tracer(ListSink(), progress_interval=-1.0)

    def test_null_sink_swallows(self):
        tracer = Tracer(NullSink())
        with tracer.span("s"):
            tracer.event("e")
        tracer.close()


class TestValidateEvent:
    def base(self, **override):
        event = {"ts": 0.5, "kind": "event", "name": "x",
                 "span": None, "attrs": {}}
        event.update(override)
        return event

    def test_valid(self):
        assert validate_event(self.base()) == []

    def test_non_dict(self):
        assert validate_event([1, 2]) != []

    def test_unknown_key(self):
        assert validate_event(self.base(extra=1)) != []

    def test_missing_key(self):
        event = self.base()
        del event["ts"]
        assert validate_event(event) != []

    def test_bad_kind(self):
        assert validate_event(self.base(kind="weird")) != []

    def test_bool_ts_rejected(self):
        assert validate_event(self.base(ts=True)) != []

    def test_negative_ts_rejected(self):
        assert validate_event(self.base(ts=-0.1)) != []

    def test_empty_name_rejected(self):
        assert validate_event(self.base(name="")) != []

    def test_non_scalar_attr_rejected(self):
        assert validate_event(self.base(attrs={"k": [1]})) != []

    def test_parent_only_on_span_begin(self):
        assert validate_event(self.base(parent=None)) != []
        begin = self.base(kind="span_begin", span=0, parent=None)
        assert validate_event(begin) == []

    def test_span_begin_requires_span_id(self):
        begin = self.base(kind="span_begin", parent=None)
        assert validate_event(begin) != []

    def test_span_end_requires_duration(self):
        end = self.base(kind="span_end", span=0)
        assert validate_event(end) != []
        end["attrs"] = {"duration": 0.25}
        assert validate_event(end) == []


class TestJsonlSink:
    def test_round_trip_and_file_validation(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(JsonlSink(path), progress_interval=0.0)
        with tracer.span("solve", n=3):
            tracer.event("restart", count=1)
            tracer.progress("cdcl", decisions=10)
        tracer.close()
        count, problems = validate_trace_file(path)
        assert count == 4
        assert problems == []
        with open(path, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert [e["kind"] for e in lines] == \
            ["span_begin", "event", "progress", "span_end"]

    def test_close_idempotent(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        sink.emit({"ts": 0, "kind": "event", "name": "x",
                   "span": None, "attrs": {}})
        sink.close()
        sink.close()
        sink.emit({"ts": 1})        # silently dropped after close

    def test_invalid_file_reported(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"ts": 1}\n')
            handle.write("not json\n")
        count, problems = validate_trace_file(path)
        assert count == 2
        assert len(problems) >= 2


class _CountingFile:
    """A text-file stand-in that counts flush calls."""

    def __init__(self):
        self.chunks = []
        self.flushes = 0

    def write(self, data):
        self.chunks.append(data)

    def flush(self):
        self.flushes += 1

    def close(self):
        pass


class TestJsonlSinkBuffering:
    EVENT = {"ts": 0.0, "kind": "event", "name": "x", "span": None,
             "attrs": {}}

    def test_default_flushes_every_line(self):
        target = _CountingFile()
        sink = JsonlSink(target)
        for _ in range(3):
            sink.emit(dict(self.EVENT))
        assert target.flushes == 3

    def test_buffered_skips_per_line_flush(self):
        target = _CountingFile()
        sink = JsonlSink(target, buffered=True)
        for _ in range(3):
            sink.emit(dict(self.EVENT))
        assert target.flushes == 0
        sink.flush()
        assert target.flushes == 1

    def test_buffered_path_target_round_trips(self, tmp_path):
        path = str(tmp_path / "buffered.jsonl")
        sink = JsonlSink(path, buffered=True)
        for n in range(10):
            sink.emit({**self.EVENT, "attrs": {"n": n}})
        sink.close()
        count, problems = validate_trace_file(path)
        assert count == 10
        assert problems == []


class TestJsonlSinkRotation:
    def emit_n(self, sink, n):
        for index in range(n):
            sink.emit({"ts": float(index), "kind": "event",
                       "name": "tick", "span": None,
                       "attrs": {"n": index}})

    def test_rotates_at_size_cap(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path, max_bytes=512)
        self.emit_n(sink, 40)
        sink.close()
        assert sink.rotations >= 1
        import os
        assert os.path.exists(path + ".1")
        assert os.path.getsize(path) <= 512
        assert os.path.getsize(path + ".1") <= 512

    def test_rotated_halves_both_parse_and_keep_the_tail(self,
                                                         tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path, max_bytes=400)
        self.emit_n(sink, 30)
        sink.close()
        # Older generations are dropped by design; the live file and
        # one predecessor remain, both valid, ending at the newest
        # event.
        total = 0
        for part in (path + ".1", path):
            count, problems = validate_trace_file(part)
            assert problems == []
            total += count
        assert 0 < total <= 30
        with open(path, "r", encoding="utf-8") as handle:
            last = json.loads(handle.readlines()[-1])
        assert last["attrs"]["n"] == 29

    def test_single_oversized_line_still_written(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path, max_bytes=16)
        sink.emit({"ts": 0.0, "kind": "event", "name": "big" * 20,
                   "span": None, "attrs": {}})
        sink.close()
        count, problems = validate_trace_file(path)
        assert count == 1 and problems == []

    def test_no_cap_never_rotates(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        self.emit_n(sink, 50)
        sink.close()
        import os
        assert sink.rotations == 0
        assert not os.path.exists(path + ".1")

    def test_bad_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(str(tmp_path / "t.jsonl"), max_bytes=0)

    def test_rotation_requires_a_path_target(self):
        with pytest.raises(ValueError):
            JsonlSink(_CountingFile(), max_bytes=1024)


class TestTracerContext:
    def test_context_stamped_on_every_event(self):
        sink = ListSink()
        tracer = Tracer(sink, context={"job": "j1", "attempt": 1})
        with tracer.span("cdcl.solve"):
            tracer.event("tick", n=3)
        assert_valid(sink.events)
        for event in sink.events:
            assert event["attrs"]["job"] == "j1"
            assert event["attrs"]["attempt"] == 1

    def test_explicit_attrs_beat_context(self):
        sink = ListSink()
        tracer = Tracer(sink, context={"job": "ctx"})
        tracer.event("tick", job="explicit")
        assert sink.events[0]["attrs"]["job"] == "explicit"

    def test_no_context_adds_nothing(self):
        sink = ListSink()
        Tracer(sink).event("tick")
        assert sink.events[0]["attrs"] == {}

    def test_emit_meta_validates_and_carries_epoch(self):
        sink = ListSink()
        tracer = Tracer(sink, context={"job": "j"})
        tracer.emit_meta()
        assert_valid(sink.events)
        meta = sink.events[0]
        assert meta["name"] == "trace.meta"
        assert abs(meta["attrs"]["epoch_unix"]
                   - tracer.epoch_unix) < 1e-3
        assert meta["attrs"]["job"] == "j"

    def test_service_observability_events_validate(self):
        sink = ListSink()
        tracer = Tracer(sink)
        tracer.event("service.progress", job="j", tenant="t",
                     attempt=1, seq=0, elapsed=0.5, conflicts=10,
                     propagations=100)
        tracer.event("service.metrics", families=12, bytes=4096)
        assert_valid(sink.events)
        # Dropping a required attr must fail validation.
        broken = dict(sink.events[0])
        broken["attrs"] = {k: v for k, v in broken["attrs"].items()
                           if k != "seq"}
        assert validate_event(broken) != []


class TestSolverEmission:
    def test_cdcl_spans_progress_and_restarts(self):
        formula = pigeonhole(5)
        sink = ListSink()
        solver = CDCLSolver(formula)
        solver.tracer = Tracer(sink, progress_interval=0.0,
                               checkpoint_interval=64)
        result = solver.solve()
        assert result.is_unsat
        assert_valid(sink.events)
        kinds = {}
        for event in sink.events:
            kinds.setdefault(event["kind"], []).append(event)
        assert [e["name"] for e in kinds["span_begin"]] == ["cdcl.solve"]
        end = kinds["span_end"][0]
        assert end["attrs"]["status"] == "UNSATISFIABLE"
        assert end["attrs"]["conflicts"] == result.stats.conflicts
        assert kinds["progress"], "no progress snapshots emitted"
        restart_events = [e for e in kinds.get("event", [])
                          if e["name"] == "cdcl.restart"]
        assert len(restart_events) == result.stats.restarts

    def test_cdcl_progress_deltas_sum_below_totals(self):
        formula = pigeonhole(5)
        sink = ListSink()
        solver = CDCLSolver(formula)
        solver.tracer = Tracer(sink, progress_interval=0.0,
                               checkpoint_interval=64)
        result = solver.solve()
        for attr in ("decisions", "conflicts", "propagations"):
            summed = sum(e["attrs"][attr] for e in sink.events
                         if e["kind"] == "progress")
            assert summed <= getattr(result.stats, attr)

    def test_cdcl_result_unchanged_by_tracer(self):
        formula = random_ksat_at_ratio(40, ratio=4.2, seed=3)
        plain = CDCLSolver(formula).solve()
        traced_solver = CDCLSolver(formula)
        traced_solver.tracer = Tracer(ListSink(), progress_interval=0.0,
                                      checkpoint_interval=64)
        traced = traced_solver.solve()
        assert traced.status == plain.status
        assert traced.stats.conflicts == plain.stats.conflicts
        assert traced.stats.decisions == plain.stats.decisions

    def test_no_tracer_means_no_meter(self):
        solver = CDCLSolver(pigeonhole(3))
        assert solver._arm_meter() is None

    def test_dpll_span_and_progress(self):
        formula = pigeonhole(4)
        sink = ListSink()
        solver = DPLLSolver(formula)
        solver.tracer = Tracer(sink, progress_interval=0.0,
                               checkpoint_interval=16)
        result = solver.solve()
        assert result.is_unsat
        assert_valid(sink.events)
        names = {e["name"] for e in sink.events}
        assert "dpll.solve" in names
        assert any(e["kind"] == "progress" for e in sink.events)

    @pytest.mark.parametrize("solve", [solve_gsat, solve_walksat])
    def test_local_search_span_and_tries(self, solve):
        formula = random_ksat_at_ratio(20, ratio=3.0, seed=1)
        sink = ListSink()
        tracer = Tracer(sink, progress_interval=0.0,
                        checkpoint_interval=32)
        result = solve(formula, max_flips=300, max_tries=3, seed=5,
                       tracer=tracer)
        assert_valid(sink.events)
        spans = [e for e in sink.events if e["kind"] == "span_begin"]
        assert len(spans) == 1
        assert spans[0]["name"].endswith(".solve")
        tries = [e for e in sink.events if e["kind"] == "event"]
        assert len(tries) >= 1

    def test_recursive_learning_span(self):
        from repro.solvers.recursive_learning import recursive_learn
        formula = random_ksat_at_ratio(15, ratio=4.0, seed=6)
        sink = ListSink()
        traced = recursive_learn(formula, depth=1,
                                 tracer=Tracer(sink))
        plain = recursive_learn(formula, depth=1)
        assert_valid(sink.events)
        spans = [e for e in sink.events if e["kind"] == "span_begin"]
        assert [e["name"] for e in spans] == ["recursive_learning.pass"]
        assert traced.necessary == plain.necessary

    def test_incremental_solver_traces_each_call(self):
        solver = CDCLSolver()
        x, y = solver.new_var(), solver.new_var()
        solver.add_clause([x, y])
        sink = ListSink()
        solver.tracer = Tracer(sink)
        assert solver.solve().is_sat
        assert solver.solve(assumptions=[-x]).is_sat
        spans = [e for e in sink.events if e["kind"] == "span_begin"]
        assert len(spans) == 2
        assert_valid(sink.events)

    @pytest.mark.parametrize("solve", [solve_gsat, solve_walksat])
    def test_local_search_rng_unchanged_by_tracer(self, solve):
        formula = random_ksat_at_ratio(25, ratio=4.0, seed=2)
        plain = solve(formula, max_flips=200, max_tries=2, seed=9)
        traced = solve(formula, max_flips=200, max_tries=2, seed=9,
                       tracer=Tracer(ListSink(), progress_interval=0.0,
                                     checkpoint_interval=32))
        assert traced.status == plain.status
        assert traced.stats.flips == plain.stats.flips
        assert traced.stats.tries == plain.stats.tries
