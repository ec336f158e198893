"""Unit tests for repro.circuits.parallel_sim."""

import random

import pytest

from repro.circuits.faults import (
    StuckAtFault,
    detects,
    fault_simulate,
    full_fault_list,
)
from repro.circuits.gates import GateType
from repro.circuits.generators import (
    alu,
    binary_counter,
    ripple_carry_adder,
)
from repro.circuits.library import c17, half_adder
from repro.circuits.netlist import Circuit
from repro.circuits.parallel_sim import (
    fault_parallel_detects,
    pack_vectors,
    parallel_fault_simulate,
    random_pattern_coverage,
    simulate_parallel,
    unpack_word,
)
from repro.circuits.simulate import simulate


def random_vectors(circuit, count, seed=0):
    rng = random.Random(seed)
    return [{name: rng.random() < 0.5 for name in circuit.inputs}
            for _ in range(count)]


class TestPacking:
    def test_pack_unpack_roundtrip(self):
        circuit = half_adder()
        vectors = random_vectors(circuit, 10, seed=1)
        words = pack_vectors(circuit, vectors)
        for name in circuit.inputs:
            assert unpack_word(words[name], 10) == \
                [v[name] for v in vectors]


class TestParallelSimulation:
    @pytest.mark.parametrize("factory,count", [
        (half_adder, 4), (c17, 40), (lambda: ripple_carry_adder(4), 70),
        (lambda: alu(2), 100),
    ])
    def test_matches_scalar_simulation(self, factory, count):
        circuit = factory()
        vectors = random_vectors(circuit, count, seed=3)
        words = simulate_parallel(circuit,
                                  pack_vectors(circuit, vectors), count)
        for index, vector in enumerate(vectors):
            scalar = simulate(circuit, vector)
            for name in circuit.topological_order():
                assert bool((words[name] >> index) & 1) == \
                    scalar[name], (name, index)

    def test_fault_injection_matches(self):
        circuit = c17()
        vectors = random_vectors(circuit, 16, seed=4)
        fault = {"G10": True}
        words = simulate_parallel(circuit,
                                  pack_vectors(circuit, vectors), 16,
                                  faults=fault)
        for index, vector in enumerate(vectors):
            scalar = simulate(circuit, vector, faults=fault)
            for output in circuit.outputs:
                assert bool((words[output] >> index) & 1) == \
                    scalar[output]

    def test_constants(self):
        from repro.circuits.gates import GateType
        from repro.circuits.netlist import Circuit
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_const("one", True)
        circuit.add_gate("y", GateType.AND, ["a", "one"])
        circuit.set_output("y")
        words = simulate_parallel(
            circuit, {"a": 0b1010}, 4)
        assert words["one"] == 0b1111
        assert words["y"] == 0b1010


class TestParallelFaultSimulation:
    def test_agrees_with_serial(self):
        circuit = c17()
        faults = full_fault_list(circuit)
        vectors = random_vectors(circuit, 12, seed=5)
        serial = fault_simulate(circuit, faults, vectors)
        parallel = parallel_fault_simulate(circuit, faults, vectors)
        assert serial == parallel

    def test_empty_block(self):
        circuit = half_adder()
        result = parallel_fault_simulate(
            circuit, [StuckAtFault("sum", True)], [])
        assert result[StuckAtFault("sum", True)] is None

    def test_first_detection_index(self):
        circuit = half_adder()
        vectors = [{"a": True, "b": True},       # carry/sa1 masked
                   {"a": False, "b": False}]     # detects carry/sa1
        result = parallel_fault_simulate(
            circuit, [StuckAtFault("carry", True)], vectors)
        assert result[StuckAtFault("carry", True)] == 1


def const_driver_and_fanout_output():
    """A CONST1 driver, and a primary output that also feeds gates."""
    circuit = Circuit("const_po")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_const("one", True)
    circuit.add_gate("n1", GateType.AND, ["a", "one"])
    circuit.add_gate("n2", GateType.XOR, ["n1", "b"])
    circuit.add_gate("y", GateType.NOR, ["n1", "n2"])
    circuit.set_output("n1")
    circuit.set_output("y")
    return circuit


def serial_flags(circuit, faults, vector):
    return [detects(circuit, fault, vector) for fault in faults]


class TestFaultParallelDetects:
    """The fault-parallel kernel against the serial reference
    :func:`repro.circuits.faults.detects`: results must be equal."""

    @pytest.mark.parametrize("factory", [
        c17, lambda: alu(2), lambda: ripple_carry_adder(3),
        const_driver_and_fanout_output,
    ], ids=["c17", "alu2", "rca3", "const-po-fanout"])
    def test_matches_serial_reference(self, factory):
        circuit = factory()
        faults = full_fault_list(circuit)
        flags_seen = set()
        for vector in random_vectors(circuit, 12, seed=6):
            flags = fault_parallel_detects(circuit, faults, vector)
            assert flags == serial_flags(circuit, faults, vector)
            flags_seen.update(flags)
        assert flags_seen == {False, True}

    def test_empty_fault_list(self):
        circuit = c17()
        vector = random_vectors(circuit, 1)[0]
        assert fault_parallel_detects(circuit, [], vector) == []

    def test_both_stuck_values_on_one_node(self):
        circuit = const_driver_and_fanout_output()
        for vector in random_vectors(circuit, 4, seed=7):
            good = simulate(circuit, vector)
            for node in ("a", "n1", "n2", "y"):
                faults = [StuckAtFault(node, False),
                          StuckAtFault(node, True)]
                flags = fault_parallel_detects(circuit, faults, vector)
                assert flags == serial_flags(circuit, faults, vector)
                # Stuck at its own value the node changes nothing.
                assert not flags[int(good[node])]

    def test_duplicated_fault(self):
        circuit = alu(2)
        faults = full_fault_list(circuit)[:6]
        faults = faults + faults[::2]
        for vector in random_vectors(circuit, 6, seed=8):
            flags = fault_parallel_detects(circuit, faults, vector)
            assert flags == serial_flags(circuit, faults, vector)
            assert flags[6:] == flags[0:6:2]

    @pytest.mark.parametrize("factory", [
        c17, lambda: alu(2), const_driver_and_fanout_output,
    ], ids=["c17", "alu2", "const-po-fanout"])
    def test_primary_input_and_output_faults(self, factory):
        circuit = factory()
        faults = [StuckAtFault(name, value)
                  for name in circuit.inputs + circuit.outputs
                  for value in (False, True)]
        for vector in random_vectors(circuit, 8, seed=9):
            flags = fault_parallel_detects(circuit, faults, vector)
            assert flags == serial_flags(circuit, faults, vector)
            good = simulate(circuit, vector)
            # A primary-output fault is detected iff it flips the PO.
            for fault, flag in zip(faults, flags):
                if fault.node in circuit.outputs:
                    assert flag == (good[fault.node] != fault.value)

    def test_missing_input_raises_key_error(self):
        circuit = c17()
        vector = random_vectors(circuit, 1)[0]
        del vector[circuit.inputs[2]]
        with pytest.raises(KeyError):
            simulate(circuit, vector)
        with pytest.raises(KeyError):
            fault_parallel_detects(circuit, full_fault_list(circuit),
                                   vector)
        with pytest.raises(KeyError):
            fault_parallel_detects(circuit, [], vector)

    def test_sequential_circuit_rejected(self):
        circuit = binary_counter(2)
        vector = {name: False for name in circuit.inputs}
        with pytest.raises(ValueError):
            fault_parallel_detects(circuit, [], vector)


class TestRandomPatternCoverage:
    def test_c17_random_coverage_high(self):
        circuit = c17()
        faults = full_fault_list(circuit)
        detection, coverage = random_pattern_coverage(circuit, faults,
                                                      num_patterns=64,
                                                      seed=0)
        assert coverage >= 0.9       # c17 is random-pattern testable

    def test_redundant_fault_never_detected(self):
        from repro.circuits.library import redundant_or_chain
        circuit = redundant_or_chain()
        faults = [StuckAtFault("ab", False)]
        detection, coverage = random_pattern_coverage(circuit, faults,
                                                      num_patterns=128,
                                                      seed=1)
        assert coverage == 0.0
        assert detection[faults[0]] is None

    def test_deterministic(self):
        circuit = c17()
        faults = full_fault_list(circuit)
        first = random_pattern_coverage(circuit, faults, seed=7)
        second = random_pattern_coverage(circuit, faults, seed=7)
        assert first == second
