"""Unit tests for repro.circuits.tseitin (paper Section 2, Figure 1)."""

import hashlib
import itertools

import pytest

from conftest import brute_force_models, brute_force_status

from repro.apps.equivalence import mutate_circuit
from repro.circuits.gates import GateType
from repro.circuits.generators import (
    array_multiplier,
    binary_counter,
    carry_select_adder,
    ripple_carry_adder,
)
from repro.circuits.library import c17, figure1_circuit, half_adder
from repro.circuits.netlist import Circuit
from repro.circuits.simulate import simulate
from repro.circuits.tseitin import (
    add_objective,
    build_miter,
    encode_circuit,
    encode_miter,
    encode_with_objective,
)
from repro.cnf.dimacs import write_dimacs


class TestEncodeCircuit:
    def test_variables_cover_all_nodes(self):
        circuit = half_adder()
        encoding = encode_circuit(circuit)
        assert set(encoding.var_of) == {"a", "b", "sum", "carry"}
        assert encoding.formula.num_vars == 4

    def test_names_propagated(self):
        encoding = encode_circuit(half_adder())
        names = {encoding.formula.name_of(var)
                 for var in encoding.var_of.values()}
        assert names == {"a", "b", "sum", "carry"}

    def test_models_are_exactly_consistent_assignments(self):
        """Paper Section 2: the circuit CNF denotes the valid
        input-output assignments -- checked exhaustively."""
        circuit = half_adder()
        encoding = encode_circuit(circuit)
        models = {tuple(sorted(m.items()))
                  for m in brute_force_models(encoding.formula)}
        expected = set()
        for a, b in itertools.product([False, True], repeat=2):
            values = simulate(circuit, {"a": a, "b": b})
            model = {encoding.var_of[name]: value
                     for name, value in values.items()}
            expected.add(tuple(sorted(model.items())))
        assert models == expected

    def test_literal_helper(self):
        encoding = encode_circuit(half_adder())
        assert encoding.literal("a", True) == encoding.var_of["a"]
        assert encoding.literal("a", False) == -encoding.var_of["a"]

    def test_shared_formula_composition(self):
        from repro.cnf.formula import CNFFormula
        shared = CNFFormula()
        first = encode_circuit(half_adder(), shared, var_prefix="l_")
        second = encode_circuit(half_adder(), shared, var_prefix="r_")
        assert set(first.var_of.values()).isdisjoint(
            second.var_of.values())

    def test_sequential_state_as_inputs(self):
        circuit = Circuit()
        circuit.add_input("d")
        circuit.add_dff("q", "d")
        circuit.add_gate("g", GateType.NOT, ["q"])
        circuit.set_output("g")
        encoding = encode_circuit(circuit)
        # q is unconstrained (pseudo-input): both values satisfiable.
        formula0 = encoding.formula.copy()
        formula0.add_clause([encoding.literal("q", False)])
        formula1 = encoding.formula.copy()
        formula1.add_clause([encoding.literal("q", True)])
        assert brute_force_status(formula0) == "SAT"
        assert brute_force_status(formula1) == "SAT"


class TestObjectives:
    def test_figure1_with_property(self):
        """Figure 1's 'with property z = 0' construction."""
        encoding = encode_with_objective(figure1_circuit(), {"z": False})
        assert brute_force_status(encoding.formula) == "SAT"

    def test_unreachable_objective_unsat(self):
        # z = AND(w1, w2) with w1 = AND(a,b), x = NOT(w1), w2 = OR(x,c):
        # force z=1 and a=0 -> contradiction.
        encoding = encode_with_objective(figure1_circuit(),
                                         {"z": True, "a": False})
        assert brute_force_status(encoding.formula) == "UNSAT"

    def test_add_objective_appends_units(self):
        encoding = encode_circuit(figure1_circuit())
        before = encoding.formula.num_clauses
        add_objective(encoding, {"z": False, "a": True})
        assert encoding.formula.num_clauses == before + 2

    def test_input_vector_extraction(self):
        from repro.solvers.cdcl import solve_cdcl
        encoding = encode_with_objective(figure1_circuit(), {"z": True})
        result = solve_cdcl(encoding.formula)
        assert result.is_sat
        vector = encoding.input_vector(result.assignment)
        values = simulate(figure1_circuit(),
                          {k: bool(v) for k, v in vector.items()})
        assert values["z"] is True


class TestMiter:
    def test_equivalent_pair_unsat(self):
        encoding = encode_miter(half_adder(), half_adder())
        assert brute_force_status(encoding.formula, max_vars=20) == "UNSAT"

    def test_different_pair_sat(self):
        twisted = Circuit("twisted")
        twisted.add_input("a")
        twisted.add_input("b")
        twisted.add_gate("sum", GateType.XNOR, ["a", "b"])  # wrong gate
        twisted.add_gate("carry", GateType.AND, ["a", "b"])
        twisted.set_output("sum")
        twisted.set_output("carry")
        encoding = encode_miter(half_adder(), twisted)
        assert brute_force_status(encoding.formula, max_vars=20) == "SAT"

    def test_miter_structure(self):
        miter, xors = build_miter(half_adder(), half_adder())
        assert miter.outputs == ["miter_out"]
        assert len(xors) == 2
        assert miter.inputs == ["a", "b"]

    def test_mismatched_inputs_rejected(self):
        other = Circuit()
        other.add_input("x")
        other.add_gate("g", GateType.BUFFER, ["x"])
        other.set_output("g")
        with pytest.raises(ValueError):
            build_miter(half_adder(), other)

    def test_single_output_miter(self):
        single = Circuit("single")
        single.add_input("a")
        single.add_gate("y", GateType.NOT, ["a"])
        single.set_output("y")
        miter, xors = build_miter(single, single)
        assert len(xors) == 1
        miter.validate()

    def test_output_less_miter_is_constant_zero(self):
        """Nothing can differ: the rule add_difference applies."""
        sink = Circuit("sink")
        sink.add_input("a")
        sink.add_gate("na", GateType.NOT, ["a"])
        miter, xors = build_miter(sink, sink)
        assert xors == []
        assert miter.node("miter_out").gate_type is GateType.CONST0
        assert miter.outputs == ["miter_out"]
        encoding = encode_miter(sink, sink)
        assert brute_force_status(encoding.formula, max_vars=20) == "UNSAT"


class TestSequentialMiter:
    def test_product_machine(self):
        """Each machine's DFFs keep their prefixed names and read
        their own prefixed data inputs; the inputs stay shared."""
        left, right = binary_counter(2), binary_counter(3)
        miter, _ = build_miter(left, right)
        miter.validate()
        assert miter.inputs == left.inputs
        assert miter.dffs == ([f"a_{dff}" for dff in left.dffs]
                              + [f"b_{dff}" for dff in right.dffs])
        for prefix, machine in (("a_", left), ("b_", right)):
            for dff in machine.dffs:
                assert miter.fanin(prefix + dff) == tuple(
                    prefix + fanin for fanin in machine.fanin(dff))
        for name in left.inputs:
            assert miter.fanin(f"a_{name}") == (name,)
            assert miter.fanin(f"b_{name}") == (name,)


@pytest.mark.parametrize("pair, digest", [
    (lambda: (c17(), c17()),
     "a45e67aef37e3f78a788f9188a0debb477243f62744f1ac2faee55feaabc23e4"),
    (lambda: (ripple_carry_adder(8), carry_select_adder(8)),
     "d28be065b032e0d13062e2e386647450bdd530e6210f3aae17a1cfbf8ded67fc"),
    (lambda: (array_multiplier(3), mutate_circuit(array_multiplier(3))),
     "6e7c54241149f67faa1c8d09bb6b625387628a3030264e254360bc5701b0b7c6"),
], ids=["c17", "rca8-csa8", "mul3-mut"])
def test_combinational_miter_bytes_pinned(pair, digest):
    """The sha256 of each combinational miter's DIMACS text, measured
    before the miter accepted sequential circuits: the benchmark's
    miter instances and its independent ATPG cross-check are built by
    encode_miter, so its bytes must not move."""
    text = write_dimacs(encode_miter(*pair()).formula)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
