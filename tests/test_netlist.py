"""Unit tests for repro.circuits.netlist."""

import pytest

from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit, CircuitError, Node


def simple_circuit():
    circuit = Circuit("simple")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_gate("g1", GateType.AND, ["a", "b"])
    circuit.add_gate("g2", GateType.NOT, ["g1"])
    circuit.set_output("g2")
    return circuit


class TestConstruction:
    def test_basic_counts(self):
        circuit = simple_circuit()
        assert circuit.inputs == ["a", "b"]
        assert circuit.outputs == ["g2"]
        assert circuit.num_gates() == 2
        assert len(circuit) == 4

    def test_duplicate_name_rejected(self):
        circuit = simple_circuit()
        with pytest.raises(CircuitError):
            circuit.add_input("a")

    def test_unknown_fanin_rejected(self):
        circuit = Circuit()
        with pytest.raises(CircuitError):
            circuit.add_gate("g", GateType.NOT, ["missing"])

    def test_unknown_output_rejected(self):
        with pytest.raises(CircuitError):
            simple_circuit().set_output("nope")

    def test_add_gate_rejects_nongate_types(self):
        circuit = Circuit()
        with pytest.raises(CircuitError):
            circuit.add_gate("x", GateType.INPUT, [])

    def test_const_nodes(self):
        circuit = Circuit()
        circuit.add_const("zero", False)
        circuit.add_const("one", True)
        assert circuit.node("zero").gate_type is GateType.CONST0
        assert circuit.node("one").gate_type is GateType.CONST1

    def test_set_output_idempotent(self):
        circuit = simple_circuit()
        circuit.set_output("g2")
        assert circuit.outputs == ["g2"]


class TestNode:
    def test_predicates(self):
        assert Node("a", GateType.INPUT).is_input
        assert Node("q", GateType.DFF, ("a",)).is_state
        assert Node("g", GateType.AND, ("a", "b")).is_gate

    def test_frozen(self):
        node = Node("a", GateType.INPUT)
        with pytest.raises(AttributeError):
            node.name = "b"


class TestStructure:
    def test_fanin_fanout(self):
        circuit = simple_circuit()
        assert circuit.fanin("g1") == ("a", "b")
        assert circuit.fanout("a") == ["g1"]
        assert circuit.fanout("g1") == ["g2"]
        assert circuit.fanout("g2") == []

    def test_topological_order(self):
        order = simple_circuit().topological_order()
        assert order.index("a") < order.index("g1") < order.index("g2")

    def test_levelize(self):
        levels = simple_circuit().levelize()
        assert levels == {"a": 0, "b": 0, "g1": 1, "g2": 2}

    def test_depth(self):
        assert simple_circuit().depth() == 2

    def test_transitive_fanin(self):
        circuit = simple_circuit()
        assert circuit.transitive_fanin(["g2"]) == {"a", "b", "g1", "g2"}
        assert circuit.transitive_fanin(["g1"]) == {"a", "b", "g1"}

    def test_transitive_fanout(self):
        circuit = simple_circuit()
        assert circuit.transitive_fanout(["a"]) == {"a", "g1", "g2"}

    def test_gate_names_topological(self):
        assert simple_circuit().gate_names() == ["g1", "g2"]


class TestSequential:
    def test_dff_forward_reference(self):
        circuit = Circuit()
        circuit.add_input("d")
        circuit.add_dff("q")
        circuit.add_gate("nq", GateType.NOT, ["q"])
        circuit.connect_dff("q", "nq")       # feedback through the DFF
        circuit.set_output("nq")
        circuit.validate()
        assert circuit.is_sequential()
        assert circuit.dffs == ["q"]

    def test_unconnected_dff_fails_validation(self):
        circuit = Circuit()
        circuit.add_dff("q")
        with pytest.raises(CircuitError):
            circuit.validate()

    def test_connect_dff_on_non_dff(self):
        circuit = simple_circuit()
        with pytest.raises(CircuitError):
            circuit.connect_dff("g1", "a")


def _circuit_panel():
    """Every library and generator circuit, plus their ``.bench``
    round-trips (in file order and with the definitions reversed, so
    the parser must resolve forward references), a fault injection
    and, for the combinational ones, a self-miter."""
    from repro.circuits import generators as gen
    from repro.circuits import library as lib
    from repro.circuits.bench_format import parse_bench, write_bench
    from repro.circuits.faults import StuckAtFault, inject_fault
    from repro.circuits.tseitin import build_miter

    base = [
        lib.figure1_circuit(), lib.figure3_circuit(), lib.c17(),
        lib.half_adder(), lib.majority3(), lib.redundant_or_chain(),
        lib.two_level_example(), gen.ripple_carry_adder(4),
        gen.carry_select_adder(4), gen.array_multiplier(3),
        gen.parity_tree(5), gen.comparator(4), gen.mux_tree(3),
        gen.random_circuit(6, 25, seed=3), gen.alu(3),
        gen.binary_counter(3), gen.binary_counter(3, with_reset=True),
        gen.shift_register(4),
    ]
    panel = list(base)
    for circuit in base:
        text = write_bench(circuit)
        panel.append(parse_bench(text))
        lines = text.splitlines()
        header = [line for line in lines if "=" not in line]
        body = [line for line in lines if "=" in line]
        panel.append(parse_bench("\n".join(header + body[::-1])))
        panel.append(inject_fault(
            circuit, StuckAtFault(circuit.gate_names()[0], True)))
        if not circuit.is_sequential():
            panel.append(build_miter(circuit, circuit.copy())[0])
    return panel


class TestTopologicalOrder:
    def test_fanins_precede_every_gate(self):
        for circuit in _circuit_panel():
            order = circuit.topological_order()
            assert sorted(order) == sorted(circuit.nodes), circuit.name
            position = {name: index for index, name in enumerate(order)}
            for name in order:
                node = circuit.node(name)
                if node.is_gate:
                    assert all(position[fanin] < position[name]
                               for fanin in node.fanins), \
                        (circuit.name, name)

    def test_returns_a_copy(self):
        circuit = simple_circuit()
        circuit.topological_order().append("ghost")
        assert circuit.topological_order() == ["a", "b", "g1", "g2"]


class TestTransforms:
    def test_copy_independent(self):
        circuit = simple_circuit()
        duplicate = circuit.copy()
        duplicate.add_input("c")
        assert "c" not in circuit

    def test_renamed(self):
        renamed = simple_circuit().renamed("p_")
        assert renamed.inputs == ["p_a", "p_b"]
        assert renamed.outputs == ["p_g2"]
        assert renamed.fanin("p_g1") == ("p_a", "p_b")
        renamed.validate()

    def test_renamed_preserves_structure(self):
        original = simple_circuit()
        renamed = original.renamed("x_")
        assert renamed.depth() == original.depth()
        assert renamed.num_gates() == original.num_gates()

    def test_stats(self):
        stats = simple_circuit().stats()
        assert stats["inputs"] == 2
        assert stats["gates"] == 2
        assert stats["depth"] == 2
        assert stats["type_AND"] == 1

    def test_repr(self):
        assert "simple" in repr(simple_circuit())
