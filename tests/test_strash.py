"""Unit tests for repro.circuits.strash (structural hashing)."""

import pytest

from repro.apps.equivalence import check_equivalence, mutate_circuit
from repro.circuits.bench_format import parse_bench
from repro.circuits.gates import GateType
from repro.circuits.generators import (
    array_multiplier,
    binary_counter,
    ripple_carry_adder,
)
from repro.circuits.library import c17
from repro.circuits.netlist import Circuit
from repro.circuits.simulate import (
    exhaustive_truth_table,
    simulate_sequence,
)
from repro.circuits.strash import structural_hash
from repro.circuits.tseitin import build_miter

#: g2 duplicates g1 and feeds q, which the walk visits first.
DFF_MERGED_DATA = """\
INPUT(a)
OUTPUT(o)
q = DFF(g2)
g1 = AND(q, a)
g2 = AND(a, q)
o = OR(g1, g2)
"""


class TestMerging:
    def test_duplicate_gate_merged(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("g1", GateType.AND, ["a", "b"])
        circuit.add_gate("g2", GateType.AND, ["a", "b"])   # duplicate
        circuit.add_gate("y", GateType.OR, ["g1", "g2"])
        circuit.set_output("y")
        hashed = structural_hash(circuit)
        assert hashed.num_gates() < circuit.num_gates()
        assert exhaustive_truth_table(hashed) == \
            exhaustive_truth_table(circuit)

    def test_commutative_normalization(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("g1", GateType.AND, ["a", "b"])
        circuit.add_gate("g2", GateType.AND, ["b", "a"])   # swapped
        circuit.add_gate("y", GateType.XOR, ["g1", "g2"])
        circuit.set_output("y")
        hashed = structural_hash(circuit)
        # g1 == g2, so y = XOR(g1, g1): one AND survives.
        assert sum(1 for n in hashed
                   if n.gate_type is GateType.AND) == 1

    def test_buffers_spliced(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("buf", GateType.BUFFER, ["a"])
        circuit.add_gate("y", GateType.NOT, ["buf"])
        circuit.set_output("y")
        hashed = structural_hash(circuit)
        assert "buf" not in hashed
        assert hashed.node("y").fanins == ("a",)

    def test_output_names_preserved(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g1", GateType.NOT, ["a"])
        circuit.add_gate("g2", GateType.NOT, ["a"])   # dup, an output
        circuit.set_output("g1")
        circuit.set_output("g2")
        hashed = structural_hash(circuit)
        assert hashed.outputs == ["g1", "g2"]
        table = exhaustive_truth_table(hashed)
        assert table[(True,)] == (False, False)

    def test_constants_merged(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_const("z1", False)
        circuit.add_const("z2", False)
        circuit.add_gate("y", GateType.OR, ["a", "z1", "z2"])
        circuit.set_output("y")
        hashed = structural_hash(circuit)
        consts = [n for n in hashed
                  if n.gate_type is GateType.CONST0]
        assert len(consts) == 1

    def test_dffs_not_merged(self):
        circuit = binary_counter(2)
        hashed = structural_hash(circuit)
        assert hashed.dffs == circuit.dffs
        hashed.validate()

    def test_dff_data_input_merged_later(self):
        """A DFF is a source, so its data input is walked after it; a
        data input that merges then must not leave the DFF naming a
        node the hashed netlist dropped."""
        circuit = parse_bench(DFF_MERGED_DATA)
        circuit.validate()
        hashed = structural_hash(circuit)
        hashed.validate()
        assert hashed.node("q").fanins == ("g1",)
        vectors = [{"a": value} for value in (True, True, False, True)]
        for start in (False, True):
            traces = [[(frame["q"], frame["o"]) for frame in
                       simulate_sequence(netlist, vectors, {"q": start})]
                      for netlist in (circuit, hashed)]
            assert traces[0] == traces[1]

    def test_idempotent_on_clean_circuits(self):
        circuit = c17()
        assert structural_hash(circuit).num_gates() == circuit.num_gates()


class TestFunctionPreservation:
    @pytest.mark.parametrize("factory", [
        lambda: c17(),
        lambda: ripple_carry_adder(3),
        lambda: array_multiplier(2),
    ])
    def test_truth_table_unchanged(self, factory):
        circuit = factory()
        hashed = structural_hash(circuit)
        assert exhaustive_truth_table(hashed) == \
            exhaustive_truth_table(circuit)

    def test_identical_pair_miter_collapses(self):
        """The flagship effect: an identical-pair miter loses its
        duplicated halves entirely."""
        miter, _ = build_miter(c17(), c17())
        hashed = structural_hash(miter)
        # Both copies merge; only the XOR/OR comparison skeleton and
        # one circuit copy remain.
        assert hashed.num_gates() < miter.num_gates() * 0.7


class TestCECIntegration:
    def test_strash_cec_equivalent_pair(self):
        report = check_equivalence(ripple_carry_adder(3),
                                   ripple_carry_adder(3),
                                   simulation_vectors=0)
        assert report.equivalent is True
        # Identical circuits: search should be almost free.
        assert report.stats.conflicts < 50

    def test_strash_cec_counterexample_still_valid(self):
        from repro.circuits.simulate import output_values, simulate
        circuit = c17()
        mutated = mutate_circuit(circuit, seed=2)
        report = check_equivalence(circuit, mutated,
                                   simulation_vectors=0)
        if report.equivalent is False:
            vector = report.counterexample
            left = output_values(circuit, simulate(circuit, vector))
            right = output_values(mutated, simulate(mutated, vector))
            assert list(left.values()) != list(right.values())

    def test_strash_agrees_with_plain(self):
        """The hashed search's verdict is the truth table's."""
        for seed in range(3):
            circuit = c17()
            mutated = mutate_circuit(circuit, seed=seed)
            hashed = check_equivalence(circuit, mutated,
                                       simulation_vectors=0)
            assert hashed.equivalent == (
                exhaustive_truth_table(circuit)
                == exhaustive_truth_table(mutated))
