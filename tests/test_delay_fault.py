"""Unit tests for repro.apps.delay_fault (path delay faults, [7])."""

import pytest

from repro.apps.delay_fault import (
    DelayFaultATPG,
    PathDelayFault,
    PathTestability,
    enumerate_path_faults,
    validate_test,
)
from repro.circuits.gates import GateType
from repro.circuits.generators import ripple_carry_adder
from repro.circuits.library import c17, half_adder
from repro.circuits.netlist import Circuit


def false_path_circuit():
    """The p2->p3->y path needs a=1 and a=0 at once: untestable."""
    circuit = Circuit("falsepath")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_gate("p1", GateType.BUFFER, ["b"])
    circuit.add_gate("p2", GateType.BUFFER, ["p1"])
    circuit.add_gate("p3", GateType.AND, ["p2", "a"])
    circuit.add_gate("na", GateType.NOT, ["a"])
    circuit.add_gate("y", GateType.AND, ["p3", "na"])
    circuit.set_output("y")
    return circuit


class TestPathDelayFault:
    def test_str(self):
        fault = PathDelayFault(("a", "g", "y"), rising=False)
        assert str(fault) == "F:a->g->y"

    def test_enumerate_both_transitions(self):
        faults = enumerate_path_faults(half_adder(), max_paths=2)
        assert len(faults) == 4
        assert {f.rising for f in faults} == {False, True}


class TestTestGeneration:
    def test_testable_path_on_half_adder(self):
        engine = DelayFaultATPG(half_adder())
        fault = PathDelayFault(("a", "carry"), rising=True)
        result = engine.test_path(fault)
        assert result.status is PathTestability.TESTABLE
        assert validate_test(half_adder(), fault, result.vector_pair)
        vector1, vector2 = result.vector_pair
        assert vector1["a"] is False and vector2["a"] is True
        assert vector2["b"] is True          # side input non-controlling

    def test_falling_transition(self):
        engine = DelayFaultATPG(half_adder())
        fault = PathDelayFault(("a", "carry"), rising=False)
        result = engine.test_path(fault)
        assert result.status is PathTestability.TESTABLE
        vector1, vector2 = result.vector_pair
        assert vector1["a"] is True and vector2["a"] is False

    def test_false_path_untestable(self):
        circuit = false_path_circuit()
        engine = DelayFaultATPG(circuit)
        fault = PathDelayFault(("b", "p1", "p2", "p3", "y"),
                               rising=True)
        result = engine.test_path(fault)
        assert result.status is PathTestability.UNTESTABLE

    def test_robust_implies_nonrobust(self):
        """Any robustly testable path is non-robustly testable."""
        circuit = c17()
        faults = enumerate_path_faults(circuit, max_paths=10)
        robust = DelayFaultATPG(circuit, robust=True)
        nonrobust = DelayFaultATPG(circuit, robust=False)
        for fault in faults:
            robust_result = robust.test_path(fault)
            if robust_result.status is PathTestability.TESTABLE:
                assert nonrobust.test_path(fault).status is \
                    PathTestability.TESTABLE

    def test_all_c17_paths(self):
        circuit = c17()
        engine = DelayFaultATPG(circuit)
        results = engine.run(enumerate_path_faults(circuit,
                                                   max_paths=20))
        assert results
        for result in results:
            assert result.status is not PathTestability.ABORTED
            if result.status is PathTestability.TESTABLE:
                assert validate_test(circuit, result.fault,
                                     result.vector_pair)

    def test_adder_carry_chain_testable(self):
        circuit = ripple_carry_adder(3)
        engine = DelayFaultATPG(circuit)
        faults = enumerate_path_faults(circuit, max_paths=4,
                                       min_length=circuit.depth())
        testable = [engine.test_path(f) for f in faults]
        assert any(r.status is PathTestability.TESTABLE
                   for r in testable)
        for result in testable:
            if result.status is PathTestability.TESTABLE:
                assert validate_test(circuit, result.fault,
                                     result.vector_pair)

    def test_incremental_reuse(self):
        """The shared solver accumulates clauses across paths."""
        circuit = c17()
        engine = DelayFaultATPG(circuit)
        solver = engine.solver
        faults = enumerate_path_faults(circuit, max_paths=10)
        results = engine.run(faults)
        assert len(results) == len(faults)
        # One engine served every path: its running totals are the
        # sums of the per-path calls.
        assert engine.solver is solver
        assert solver.stats.decisions == \
            sum(r.stats.decisions for r in results) > 0
        assert solver.stats.propagations == \
            sum(r.stats.propagations for r in results)


class TestValidation:
    def test_bad_path_rejected(self):
        engine = DelayFaultATPG(half_adder())
        with pytest.raises(ValueError):
            engine.test_path(PathDelayFault(("a",)))
        with pytest.raises(ValueError):
            engine.test_path(PathDelayFault(("a", "b")))  # b not a gate

    def test_disconnected_path_rejected(self):
        circuit = c17()
        engine = DelayFaultATPG(circuit)
        with pytest.raises(ValueError):
            engine.test_path(PathDelayFault(("G1", "G11")))

    def test_sequential_rejected(self):
        from repro.circuits.generators import binary_counter
        with pytest.raises(ValueError):
            DelayFaultATPG(binary_counter(2))

    def test_validate_test_rejects_wrong_pair(self):
        circuit = half_adder()
        fault = PathDelayFault(("a", "carry"), rising=True)
        bad_pair = ({"a": True, "b": True}, {"a": True, "b": True})
        assert not validate_test(circuit, fault, bad_pair)
