"""Unit tests for repro.obs.metrics and its CDCL integration
(SolverStats.metrics, incremental deltas, merge paths)."""

import json

import pytest

from repro.cnf.generators import pigeonhole, random_ksat_at_ratio
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SearchMetrics,
    merge_snapshots,
)
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.result import SolverStats


class TestPrimitives:
    def test_counter(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.snapshot() == {"type": "counter", "value": 5}

    def test_gauge_last_value_wins(self):
        gauge = Gauge()
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.snapshot() == {"type": "gauge", "value": 1.5}

    def test_histogram_bucketing(self):
        hist = Histogram(bounds=(1, 4, 16))
        for value in (0, 1, 2, 4, 5, 100):
            hist.observe(value)
        snap = hist.snapshot()
        # <=1: {0,1}; <=4: {2,4}; <=16: {5}; overflow: {100}
        assert snap["buckets"] == [2, 2, 1, 1]
        assert snap["count"] == 6
        assert snap["sum"] == 112.0
        assert snap["min"] == 0
        assert snap["max"] == 100

    def test_histogram_empty_snapshot(self):
        snap = Histogram(bounds=(1, 2)).snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None

    @pytest.mark.parametrize("bounds", [(), (2, 1), (1, 1, 2)])
    def test_histogram_rejects_bad_bounds(self, bounds):
        with pytest.raises(ValueError):
            Histogram(bounds=bounds)

    def test_snapshots_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(7)
        json.dumps(registry.snapshot())


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        assert list(registry.snapshot()) == ["a", "b"]


class TestMergeSnapshots:
    def test_counters_sum_gauges_take_second(self):
        merged = merge_snapshots(
            {"c": {"type": "counter", "value": 2},
             "g": {"type": "gauge", "value": 1.0}},
            {"c": {"type": "counter", "value": 3},
             "g": {"type": "gauge", "value": 9.0}})
        assert merged["c"]["value"] == 5
        assert merged["g"]["value"] == 9.0

    def test_histograms_accumulate(self):
        a = Histogram(bounds=(1, 4))
        b = Histogram(bounds=(1, 4))
        a.observe(1)
        b.observe(100)
        merged = merge_snapshots({"h": a.snapshot()},
                                 {"h": b.snapshot()})["h"]
        assert merged["count"] == 2
        assert merged["buckets"] == [1, 0, 1]
        assert merged["min"] == 1 and merged["max"] == 100

    def test_incompatible_bounds_keep_moments_drop_shape(self):
        a = Histogram(bounds=(1, 4))
        b = Histogram(bounds=(2, 8))
        a.observe(3)
        b.observe(5)
        merged = merge_snapshots({"h": a.snapshot()},
                                 {"h": b.snapshot()})["h"]
        assert merged["count"] == 2
        assert merged["sum"] == 8.0
        assert "buckets" not in merged and "bounds" not in merged

    def test_one_sided_metrics_pass_through(self):
        merged = merge_snapshots({"only_mine": {"type": "counter",
                                                "value": 1}},
                                 {"only_theirs": {"type": "counter",
                                                  "value": 2}})
        assert merged["only_mine"]["value"] == 1
        assert merged["only_theirs"]["value"] == 2

    def test_inputs_not_mutated(self):
        mine = {"c": {"type": "counter", "value": 1}}
        theirs = {"c": {"type": "counter", "value": 2}}
        merge_snapshots(mine, theirs)
        assert mine["c"]["value"] == 1
        assert theirs["c"]["value"] == 2


class TestCDCLIntegration:
    def solve_with_metrics(self, formula):
        solver = CDCLSolver(formula)
        solver.metrics = SearchMetrics()
        return solver.solve()

    def test_stats_metrics_populated(self):
        result = self.solve_with_metrics(pigeonhole(4))
        assert result.is_unsat
        metrics = result.stats.metrics
        assert set(metrics) == {"propagation_burst", "backjump_distance",
                                "learned_clause_size",
                                "learned_clause_lbd"}
        json.dumps(metrics)

    def test_conflict_histograms_match_counters(self):
        result = self.solve_with_metrics(pigeonhole(4))
        metrics = result.stats.metrics
        conflicts = result.stats.conflicts
        # The terminal level-0 conflict ends the search without being
        # analyzed, so the histograms may see one fewer observation
        # than the conflict counter.
        for name in ("backjump_distance", "learned_clause_size",
                     "learned_clause_lbd"):
            assert conflicts - 1 <= metrics[name]["count"] <= conflicts
        # LBD counts distinct decision levels, never more than the
        # clause has literals.
        assert metrics["learned_clause_lbd"]["max"] <= \
            metrics["learned_clause_size"]["max"]

    def test_burst_sum_close_to_propagations(self):
        result = self.solve_with_metrics(
            random_ksat_at_ratio(30, ratio=4.2, seed=4))
        burst = result.stats.metrics["propagation_burst"]
        assert burst["sum"] == result.stats.propagations

    def test_no_metrics_attached_leaves_stats_none(self):
        result = CDCLSolver(pigeonhole(3)).solve()
        assert result.stats.metrics is None

    def test_search_result_unchanged_by_metrics(self):
        formula = random_ksat_at_ratio(40, ratio=4.2, seed=7)
        plain = CDCLSolver(formula).solve()
        metered = self.solve_with_metrics(formula)
        assert metered.status == plain.status
        assert metered.stats.conflicts == plain.stats.conflicts
        assert metered.stats.decisions == plain.stats.decisions


class TestStatsMergePaths:
    def test_solver_stats_merge_combines_metrics(self):
        a = SolverStats(conflicts=1)
        a.metrics = {"c": {"type": "counter", "value": 2}}
        b = SolverStats(conflicts=2)
        b.metrics = {"c": {"type": "counter", "value": 3}}
        a.merge(b)
        assert a.conflicts == 3
        assert a.metrics["c"]["value"] == 5

    def test_merge_adopts_metrics_when_mine_missing(self):
        a = SolverStats()
        b = SolverStats()
        b.metrics = {"c": {"type": "counter", "value": 3}}
        a.merge(b)
        assert a.metrics["c"]["value"] == 3

    def test_incremental_delta_keeps_metrics(self):
        solver = CDCLSolver()
        x, y = solver.new_var(), solver.new_var()
        solver.add_clause([x, y])
        solver.add_clause([-x, y])
        solver.metrics = SearchMetrics()
        result = solver.solve()
        assert result.is_sat
        assert result.stats.metrics is not None
