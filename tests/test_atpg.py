"""Unit tests for repro.apps.atpg (Section 3)."""

import pytest

from repro.apps.atpg import (
    ATPGEngine,
    ATPGReport,
    FaultResult,
    TestOutcome,
    solve_fault,
)
from repro.circuits.faults import (
    StuckAtFault,
    detects,
    full_fault_list,
    inject_fault,
)
from repro.circuits.gates import GateType
from repro.circuits.library import c17, half_adder, redundant_or_chain
from repro.circuits.generators import (
    alu,
    array_multiplier,
    mux_tree,
    random_circuit,
)
from repro.circuits.netlist import Circuit
from repro.circuits.tseitin import encode_miter
from repro.solvers.cdcl import CDCLSolver


def _dead_gate_circuit() -> Circuit:
    """A gate feeding no output: its faults' fanout reaches no
    primary output."""
    circuit = Circuit()
    circuit.add_input("a")
    circuit.add_gate("dead", GateType.NOT, ["a"])
    circuit.add_gate("y", GateType.BUFFER, ["a"])
    circuit.set_output("y")
    return circuit


class TestSolveFault:
    def test_detectable_fault_yields_vector(self):
        circuit = half_adder()
        result = solve_fault(circuit, StuckAtFault("carry", True))
        assert result.outcome is TestOutcome.DETECTED
        vector = {k: bool(v) for k, v in result.vector.items()}
        assert detects(circuit, StuckAtFault("carry", True), vector)

    def test_redundant_fault_proved(self):
        circuit = redundant_or_chain()
        result = solve_fault(circuit, StuckAtFault("ab", False))
        assert result.outcome is TestOutcome.REDUNDANT

    def test_input_fault(self):
        circuit = half_adder()
        fault = StuckAtFault("a", False)
        result = solve_fault(circuit, fault)
        assert result.outcome is TestOutcome.DETECTED
        vector = {k: bool(v) for k, v in result.vector.items()}
        assert detects(circuit, fault, vector)

    def test_circuit_method_partial_cube(self):
        circuit = c17()
        fault = StuckAtFault("G10", True)
        result = solve_fault(circuit, fault, method="circuit")
        assert result.outcome is TestOutcome.DETECTED
        # The cube (don't-cares filled arbitrarily) must detect.
        for fill in (False, True):
            vector = {k: (fill if v is None else bool(v))
                      for k, v in result.vector.items()}
            assert detects(circuit, fault, vector)

    def test_sequential_rejected(self):
        from repro.circuits.generators import binary_counter
        with pytest.raises(ValueError):
            solve_fault(binary_counter(2), StuckAtFault("en", True))

    def test_all_c17_faults_testable(self):
        """c17 is known fully testable: every stuck-at fault has a
        test."""
        circuit = c17()
        for fault in full_fault_list(circuit):
            result = solve_fault(circuit, fault)
            assert result.outcome is TestOutcome.DETECTED, fault


class TestFaultCones:
    """``solve_fault`` encodes each fault on its cones; the answers
    must be the whole-circuit miter's."""

    @pytest.mark.parametrize("method", ["cdcl", "portfolio"])
    def test_fault_reaching_no_output_is_redundant(self, method):
        result = solve_fault(_dead_gate_circuit(),
                             StuckAtFault("dead", True), method=method)
        assert result.outcome is TestOutcome.REDUNDANT

    @pytest.mark.parametrize("method", ["cdcl", "portfolio"])
    def test_fault_reaching_no_output_is_certified(self, method,
                                                   tmp_path):
        result = solve_fault(_dead_gate_circuit(),
                             StuckAtFault("dead", False), method=method,
                             certify=True, proof_dir=str(tmp_path))
        assert result.outcome is TestOutcome.REDUNDANT
        assert result.certificate.kind == "proof"
        assert result.certificate.valid, result.certificate.reason

    @pytest.mark.parametrize("factory", [
        c17, lambda: alu(3), lambda: mux_tree(3),
        lambda: array_multiplier(3), redundant_or_chain,
        lambda: random_circuit(6, 25, seed=4),
    ], ids=["c17", "alu3", "mux3", "mul3", "redundant-or", "rand6x25"])
    def test_cone_formula_agrees_with_whole_miter(self, factory):
        circuit = factory()
        for fault in full_fault_list(circuit):
            result = solve_fault(circuit, fault)
            miter = encode_miter(circuit, inject_fault(circuit, fault))
            expected = CDCLSolver(miter.formula).solve()
            if expected.is_sat:
                assert result.outcome is TestOutcome.DETECTED, fault
                assert detects(circuit, fault, result.vector), fault
            else:
                assert expected.is_unsat
                assert result.outcome is TestOutcome.REDUNDANT, fault


class TestATPGEngine:
    def test_full_coverage_on_c17(self):
        report = ATPGEngine(c17()).run()
        assert report.fault_coverage == 1.0
        assert report.count(TestOutcome.REDUNDANT) == 0

    def test_vectors_detect_their_faults(self):
        circuit = c17()
        engine = ATPGEngine(circuit, fault_dropping=False)
        report = engine.run()
        detected = [r for r in report.results
                    if r.outcome is TestOutcome.DETECTED]
        assert len(detected) == len(report.vectors)
        for result, vector in zip(detected, report.vectors):
            assert detects(circuit, result.fault, vector)

    def test_fault_dropping_reduces_sat_calls(self):
        circuit = c17()
        dropped = ATPGEngine(circuit, fault_dropping=True).run()
        assert dropped.count(TestOutcome.DETECTED_BY_SIMULATION) > 0
        assert len(dropped.vectors) < len(full_fault_list(circuit))
        assert dropped.fault_coverage == 1.0

    def test_collapse_shrinks_fault_list(self):
        engine = ATPGEngine(c17(), collapse=True)
        assert len(engine.fault_list()) < len(full_fault_list(c17()))

    def test_redundancy_reported(self):
        report = ATPGEngine(redundant_or_chain()).run()
        assert report.count(TestOutcome.REDUNDANT) >= 1
        assert report.fault_coverage == 1.0   # redundant counts covered

    def test_sequential_rejected(self):
        from repro.circuits.generators import binary_counter
        with pytest.raises(ValueError):
            ATPGEngine(binary_counter(2))

    def test_explicit_fault_subset(self):
        circuit = c17()
        faults = [StuckAtFault("G10", False), StuckAtFault("G10", True)]
        report = ATPGEngine(circuit).run(faults)
        assert len(report.results) == 2

    def test_report_helpers(self):
        report = ATPGReport(results=[
            FaultResult(StuckAtFault("x", True), TestOutcome.DETECTED),
            FaultResult(StuckAtFault("x", False), TestOutcome.ABORTED),
        ])
        assert report.count(TestOutcome.DETECTED) == 1
        assert report.fault_coverage == 0.5
        assert ATPGReport().fault_coverage == 1.0


class TestFaultDroppingDecisions:
    """Which faults are dropped, not just how many: checked against
    the serial reference :func:`repro.circuits.faults.detects`."""

    @pytest.mark.parametrize("collapse", [False, True],
                             ids=["full", "collapsed"])
    @pytest.mark.parametrize("factory", [
        c17, lambda: alu(3), lambda: mux_tree(3),
        lambda: array_multiplier(3), redundant_or_chain,
    ], ids=["c17", "alu3", "mux3", "mul3", "redundant-or"])
    def test_dropped_exactly_when_an_earlier_vector_detects(
            self, factory, collapse):
        circuit = factory()
        report = ATPGEngine(circuit, collapse=collapse).run()
        vectors = iter(report.vectors)
        earlier = []
        for result in report.results:
            covered = any(detects(circuit, result.fault, vector)
                          for vector in earlier)
            if result.outcome is TestOutcome.DETECTED_BY_SIMULATION:
                assert covered, result.fault
                continue
            # SAT targeted it: no earlier vector may detect it.
            assert not covered, result.fault
            if result.outcome is TestOutcome.DETECTED:
                vector = next(vectors)
                assert detects(circuit, result.fault, vector)
                earlier.append(vector)
        assert next(vectors, None) is None


class TestMethodValidation:
    """An unknown method, or a method that cannot honour ``certify``,
    is refused up front instead of silently running another path."""

    fault = StuckAtFault("G10", False)

    @pytest.mark.parametrize("method", ["bogus", "incremental"])
    def test_solve_fault_rejects(self, method):
        with pytest.raises(ValueError, match="unknown ATPG method"):
            solve_fault(c17(), self.fault, method=method)

    def test_engine_rejects_unknown_method(self):
        # A retired method name is refused like any other.
        for method in ("bogus", "incremental"):
            for certify in (False, True):
                with pytest.raises(ValueError,
                                   match="unknown ATPG method"):
                    ATPGEngine(c17(), method=method, certify=certify)

    @pytest.mark.parametrize("method", ["cdcl", "portfolio", "circuit"])
    def test_engine_accepts_known_methods(self, method):
        assert ATPGEngine(c17(), method=method).method == method
