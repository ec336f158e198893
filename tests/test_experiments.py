"""Unit tests for repro.experiments (tables, workloads, runner)."""

import pytest

from conftest import brute_force_status

from repro.experiments.runner import (
    RUN_HEADERS,
    RunRecord,
    run_matrix,
    run_solver,
    timed,
)
from repro.experiments.tables import format_table
from repro.experiments.workloads import (
    equivalence_pairs,
    figure4_condition,
    figure4_formula,
    medium_circuit_suite,
    sat_formula_suite,
    small_circuit_suite,
    unsat_formula_suite,
)


class TestTables:
    def test_alignment_and_content(self):
        text = format_table(["name", "value"],
                            [["alpha", 1], ["b", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "alpha" in lines[3]

    def test_float_formatting(self):
        text = format_table(["x"], [[3.14159265]])
        assert "3.142" in text

    def test_none_rendered_as_dash(self):
        text = format_table(["x"], [[None]])
        assert "-" in text.splitlines()[-1]

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text


class TestWorkloads:
    def test_figure4_formula_clauses(self):
        formula = figure4_formula()
        rendered = formula.to_str()
        assert "(u + w' + x)" in rendered
        assert "(x + y')" in rendered
        assert "(w + y + z')" in rendered

    def test_figure4_condition(self):
        condition = figure4_condition()
        assert condition == {5: True, 1: False}

    def test_circuit_suites_validate(self):
        for circuit in small_circuit_suite() + medium_circuit_suite():
            circuit.validate()

    def test_equivalence_pairs_interfaces_match(self):
        for left, right in equivalence_pairs():
            assert left.inputs == right.inputs
            assert len(left.outputs) == len(right.outputs)

    def test_unsat_suite_is_unsat(self):
        from repro.solvers.cdcl import solve_cdcl
        for name, formula in unsat_formula_suite():
            assert solve_cdcl(formula).is_unsat, name

    def test_sat_suite_mostly_sat(self):
        from repro.solvers.cdcl import solve_cdcl
        outcomes = [solve_cdcl(formula).is_sat
                    for _, formula in sat_formula_suite(20, count=4)]
        assert sum(outcomes) >= 3


class TestRunner:
    @pytest.mark.parametrize("config", [
        "dpll", "cdcl", "cdcl-chrono", "cdcl-nolearn",
        "cdcl-decisioncut", "cdcl-size5", "cdcl-rel3",
        "cdcl-restart10", "cdcl-luby8", "cdcl-h:dlis", "walksat",
        "gsat",
    ])
    def test_configs_sound_on_small_instance(self, config,
                                             tiny_sat_formula,
                                             tiny_unsat_formula):
        sat_result = run_solver(config, tiny_sat_formula, seed=0)
        assert not sat_result.is_unsat
        unsat_result = run_solver(config, tiny_unsat_formula, seed=0)
        assert not unsat_result.is_sat

    def test_unknown_config_rejected(self, tiny_sat_formula):
        with pytest.raises(ValueError):
            run_solver("zchaff", tiny_sat_formula)
        with pytest.raises(ValueError):
            run_solver("cdcl-frob", tiny_sat_formula)

    def test_run_matrix_shape(self, tiny_sat_formula):
        records = run_matrix(["dpll", "cdcl"],
                             [("tiny", tiny_sat_formula)])
        assert len(records) == 2
        assert {r.config for r in records} == {"dpll", "cdcl"}
        assert all(len(r.row()) == len(RUN_HEADERS) for r in records)

    def test_record_from_result(self, tiny_unsat_formula):
        result = run_solver("cdcl", tiny_unsat_formula)
        record = RunRecord.from_result("cdcl", "t", result)
        assert record.status == "UNSATISFIABLE"
        assert record.seconds >= 0

    def test_local_search_record_carries_flips(self, tiny_unsat_formula):
        record, = run_matrix(["walksat"], [("t", tiny_unsat_formula)],
                             max_conflicts=50)
        assert record.status == "UNKNOWN"
        assert record.flips > 0
        assert record.row()[RUN_HEADERS.index("flips")] == record.flips

    def test_timed(self):
        seconds, value = timed(sum, [1, 2, 3])
        assert value == 6
        assert seconds >= 0
