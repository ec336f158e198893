"""Unit tests for repro.apps.equivalence (Section 3)."""

import pytest

from conftest import half_adder_sum

from repro.apps.equivalence import check_equivalence, mutate_circuit
from repro.circuits.gates import GateType
from repro.circuits.generators import (
    binary_counter,
    carry_select_adder,
    parity_tree,
    random_circuit,
    ripple_carry_adder,
)
from repro.circuits.library import c17, half_adder
from repro.circuits.netlist import Circuit
from repro.circuits.simulate import output_values, simulate


class TestEquivalentPairs:
    def test_identical_circuits(self):
        report = check_equivalence(c17(), c17())
        assert report.equivalent is True
        assert report.counterexample is None

    @pytest.mark.parametrize("width,block", [(3, 1), (4, 2)])
    def test_adder_architectures(self, width, block):
        report = check_equivalence(ripple_carry_adder(width),
                                   carry_select_adder(width, block))
        assert report.equivalent is True

    def test_preprocessing_eliminates_variables(self):
        """Miters are equivalence-rich: the Section 6 pass must
        eliminate variables without changing the verdict."""
        left = ripple_carry_adder(3)
        right = carry_select_adder(3)
        plain = check_equivalence(left, right, simulation_vectors=0)
        preprocessed = check_equivalence(left, right,
                                         simulation_vectors=0,
                                         use_preprocessing=True)
        assert plain.equivalent is True
        assert preprocessed.equivalent is True
        assert preprocessed.variables_eliminated > 0


class TestInequivalentPairs:
    def test_mutated_circuit_caught(self):
        circuit = c17()
        mutated = mutate_circuit(circuit, seed=1)
        report = check_equivalence(circuit, mutated,
                                   simulation_vectors=0)
        assert report.equivalent is False
        vector = report.counterexample
        left = output_values(circuit, simulate(circuit, vector))
        right = output_values(mutated, simulate(mutated, vector))
        assert list(left.values()) != list(right.values())

    def test_simulation_prefilter_catches_easy_bugs(self):
        circuit = parity_tree(6)
        mutated = mutate_circuit(circuit, seed=0)
        report = check_equivalence(circuit, mutated,
                                   simulation_vectors=64)
        assert report.equivalent is False
        # Parity bugs flip ~half the outputs: simulation finds them.
        assert report.refuted_by_simulation

    def test_counterexample_with_preprocessing_valid(self):
        circuit = half_adder()
        mutated = mutate_circuit(circuit, seed=3)
        report = check_equivalence(circuit, mutated,
                                   simulation_vectors=0,
                                   use_preprocessing=True)
        assert report.equivalent is False
        vector = report.counterexample
        left = output_values(circuit, simulate(circuit, vector))
        right = output_values(mutated, simulate(mutated, vector))
        assert list(left.values()) != list(right.values())

    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuit_mutations(self, seed):
        circuit = random_circuit(5, 15, seed=seed)
        mutated = mutate_circuit(circuit, seed=seed)
        report = check_equivalence(circuit, mutated)
        # A gate swap may coincidentally preserve the function; when
        # reported inequivalent the counterexample must be genuine.
        if report.equivalent is False and report.counterexample:
            vector = report.counterexample
            left = output_values(circuit, simulate(circuit, vector))
            right = output_values(mutated, simulate(mutated, vector))
            assert list(left.values()) != list(right.values())


class TestInterfaces:
    @pytest.mark.parametrize("vectors", [0, 32])
    def test_sequential_rejected_before_simulating(self, vectors):
        """One frame with free latches is no equivalence check; the
        simulator would not know the latches' state either."""
        with pytest.raises(ValueError, match="combinational"):
            check_equivalence(binary_counter(2), binary_counter(2),
                              simulation_vectors=vectors)

    @pytest.mark.parametrize("vectors", [0, 32])
    def test_output_count_mismatch_rejected(self, vectors):
        """The simulation prefilter must not report the shared
        output's agreement as a counterexample."""
        with pytest.raises(ValueError, match="equally many outputs"):
            check_equivalence(half_adder(), half_adder_sum(),
                              simulation_vectors=vectors)

    @pytest.mark.parametrize("vectors", [0, 32])
    def test_input_mismatch_rejected(self, vectors):
        with pytest.raises(ValueError, match="input name lists"):
            check_equivalence(c17(), ripple_carry_adder(3),
                              simulation_vectors=vectors)

    def test_output_less_pair_equivalent(self):
        """Nothing to compare: the miter output is a constant 0."""
        left = Circuit("sink")
        left.add_input("a")
        left.add_gate("na", GateType.NOT, ["a"])
        report = check_equivalence(left, left.copy())
        assert report.equivalent is True


class TestMutateCircuit:
    def test_interface_preserved(self):
        circuit = c17()
        mutated = mutate_circuit(circuit, seed=0)
        assert mutated.inputs == circuit.inputs
        assert mutated.outputs == circuit.outputs
        mutated.validate()

    def test_exactly_one_gate_changed(self):
        circuit = c17()
        mutated = mutate_circuit(circuit, seed=0)
        changed = [node.name for node in circuit
                   if node.is_gate and
                   mutated.node(node.name).gate_type != node.gate_type]
        assert len(changed) == 1

    def test_no_mutable_gate(self):
        from repro.circuits.netlist import Circuit
        circuit = Circuit()
        circuit.add_input("a")
        circuit.set_output("a")
        with pytest.raises(ValueError):
            mutate_circuit(circuit)
