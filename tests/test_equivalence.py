"""Unit tests for repro.apps.equivalence (Section 3)."""

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import half_adder_sum

from repro.apps.equivalence import check_equivalence, mutate_circuit
from repro.circuits import strash
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
from repro.circuits.simulate import (
    exhaustive_truth_table,
    output_values,
    simulate,
)
from repro.circuits.tseitin import encode_miter
from repro.verify.checker import check_proof_file


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


class TestHashedMiter:
    """The search runs on the structurally hashed miter; its verdicts
    and certificates must still be about the unhashed one."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(inputs=st.integers(2, 6), gates=st.integers(1, 30),
           seed=st.integers(0, 10 ** 6), mutant=st.booleans())
    def test_verdicts_and_proofs_match_the_circuits(self, inputs, gates,
                                                    seed, mutant):
        left = random_circuit(inputs, gates, seed=seed)
        right = (mutate_circuit(left, seed=seed) if mutant
                 else random_circuit(inputs, gates, seed=seed))
        truth = exhaustive_truth_table(left) == \
            exhaustive_truth_table(right)
        report = check_equivalence(left, right, simulation_vectors=0)
        assert report.equivalent is truth
        if not truth:
            vector = report.counterexample
            assert list(output_values(left, simulate(left, vector))
                        .values()) != \
                list(output_values(right, simulate(right, vector))
                     .values())
        with tempfile.TemporaryDirectory() as proof_dir:
            certified = check_equivalence(left, right,
                                          simulation_vectors=0,
                                          certify=True,
                                          proof_dir=proof_dir)
            assert certified.equivalent is truth
            assert certified.certificate.valid
            if truth:
                outcome = check_proof_file(
                    encode_miter(left, right).formula,
                    certified.certificate.proof_path)
                assert outcome.valid, outcome.error

    def test_wrong_merge_is_demoted(self, monkeypatch, tmp_path):
        """A hashing bug that merges an OR into an AND over the same
        fanins makes a different pair look equivalent; the certified
        check must refuse to vouch for it."""
        left, right = Circuit("and"), Circuit("or")
        for circuit, gate_type in ((left, GateType.AND),
                                   (right, GateType.OR)):
            circuit.add_input("a")
            circuit.add_input("b")
            circuit.add_gate("y", gate_type, ["a", "b"])
            circuit.set_output("y")
        hash_circuit = strash._hash

        def or_read_as_and(circuit):
            rewritten = Circuit(circuit.name)
            for node in circuit:
                if node.is_input:
                    rewritten.add_input(node.name)
                else:
                    rewritten.add_gate(
                        node.name,
                        GateType.AND if node.gate_type is GateType.OR
                        else node.gate_type, node.fanins)
            for output in circuit.outputs:
                rewritten.set_output(output)
            return hash_circuit(rewritten)

        monkeypatch.setattr(strash, "_hash", or_read_as_and)
        assert check_equivalence(left, right,
                                 simulation_vectors=0).equivalent
        report = check_equivalence(left, right, simulation_vectors=0,
                                   certify=True,
                                   proof_dir=str(tmp_path))
        assert report.equivalent is None
        assert not report.budget_exhausted
        assert report.certificate.valid is False
        assert report.certificate.reason.startswith("line ")


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
