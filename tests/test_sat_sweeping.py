"""Unit tests for repro.apps.sat_sweeping."""

import pytest

from repro.apps.equivalence import check_equivalence, mutate_circuit
from repro.apps.sat_sweeping import (
    SATSweeper,
    check_equivalence_sweeping,
    sweep_circuit,
)
from repro.circuits.gates import GateType
from repro.circuits.generators import (
    carry_select_adder,
    random_circuit,
    ripple_carry_adder,
)
from repro.circuits.library import c17
from repro.circuits.netlist import Circuit
from repro.circuits.simulate import exhaustive_truth_table


def duplicated_logic():
    circuit = Circuit("dup")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_gate("g1", GateType.AND, ["a", "b"])
    circuit.add_gate("g2", GateType.AND, ["b", "a"])
    circuit.add_gate("g3", GateType.NAND, ["a", "b"])
    circuit.add_gate("y", GateType.OR, ["g1", "g2"])
    circuit.add_gate("z", GateType.XOR, ["g3", "y"])
    circuit.set_output("z")
    return circuit


class TestSweeping:
    def test_duplicates_found_and_proved(self):
        circuit = duplicated_logic()
        sweeper = SATSweeper(circuit)
        report = sweeper.run()
        merged = {(name, rep) for name, rep, _ in report.classes}
        assert ("g2", "g1") in merged
        polarity = {name: same for name, _, same in report.classes}
        assert polarity["g2"] is True
        assert polarity["g3"] is False     # antivalence via XNOR query

    def test_merge_preserves_function(self):
        circuit = duplicated_logic()
        merged, report = sweep_circuit(circuit)
        assert merged.num_gates() < circuit.num_gates()
        assert exhaustive_truth_table(merged) == \
            exhaustive_truth_table(circuit)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuits_function_preserved(self, seed):
        circuit = random_circuit(4, 14, seed=seed)
        merged, report = sweep_circuit(circuit, patterns=32, seed=seed)
        assert exhaustive_truth_table(merged) == \
            exhaustive_truth_table(circuit)

    def test_no_false_merges_on_clean_circuit(self):
        """c17 has no internal equivalences: nothing merges and the
        random-pattern phase filters candidates cheaply."""
        merged, report = sweep_circuit(c17())
        assert report.merged_nodes == 0
        assert merged.num_gates() == c17().num_gates()

    def test_refinement_counter(self):
        """With very few patterns, false candidates appear and must be
        refuted -- refinements get recorded."""
        circuit = random_circuit(5, 20, seed=2)
        sweeper = SATSweeper(circuit, patterns=1, seed=0)
        report = sweeper.run()
        # With one pattern nearly everything collides initially.
        assert report.sat_calls > 0

    def test_sequential_rejected(self):
        from repro.circuits.generators import binary_counter
        with pytest.raises(ValueError):
            SATSweeper(binary_counter(2))


class TestSweepingCEC:
    def test_adder_pair_equivalent(self):
        equivalent, report = check_equivalence_sweeping(
            ripple_carry_adder(3), carry_select_adder(3))
        assert equivalent is True
        assert report.merged_nodes > 0     # cross-circuit merges

    def test_mutated_pair_not_equivalent(self):
        equivalent, _ = check_equivalence_sweeping(
            c17(), mutate_circuit(c17(), seed=1))
        assert equivalent is False

    def test_report_sums_every_query(self, monkeypatch):
        """The sweep's stats are its one solver's effort: the pair
        queries and the final per-output queries."""
        import repro.apps.sat_sweeping as sweeping

        built = []

        class Recorded(SATSweeper):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(sweeping, "SATSweeper", Recorded)
        equivalent, report = check_equivalence_sweeping(
            ripple_carry_adder(3), carry_select_adder(3))
        assert equivalent is True
        (sweeper,) = built
        total = sweeper.solver.stats
        assert report.stats.conflicts > 0
        assert ((report.stats.conflicts, report.stats.decisions,
                 report.stats.propagations)
                == (total.conflicts, total.decisions,
                    total.propagations))

    def test_agrees_with_plain_cec(self):
        for seed in range(3):
            circuit = random_circuit(4, 12, seed=seed)
            mutated = mutate_circuit(circuit, seed=seed)
            plain = check_equivalence(circuit, mutated,
                                      simulation_vectors=0)
            swept, _ = check_equivalence_sweeping(circuit, mutated)
            assert swept == plain.equivalent, seed
