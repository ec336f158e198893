"""Property-based tests for the extension subsystems.

Hypothesis-driven invariants over the BDD package, the pseudo-Boolean
encodings, the cardinality constraints, the .bench round trip, the
fault model, and proof logging -- complementing tests/test_properties.py
which covers the CNF/solver core.
"""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import brute_force_status

from repro.bdd.manager import BDDManager
from repro.circuits.bench_format import parse_bench, write_bench
from repro.circuits.faults import (
    StuckAtFault,
    detects,
    full_fault_list,
    inject_fault,
)
from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit
from repro.circuits.parallel_sim import fault_parallel_detects
from repro.circuits.simulate import exhaustive_truth_table, simulate
from repro.cnf.cardinality import at_most_k
from repro.cnf.formula import CNFFormula
from repro.cnf.pseudo_boolean import evaluate_terms, pb_at_most
from repro.verify import check_proof_steps, solve_with_proof_stream

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def small_circuits(draw, max_inputs=4, max_gates=7):
    num_inputs = draw(st.integers(1, max_inputs))
    num_gates = draw(st.integers(1, max_gates))
    circuit = Circuit("prop")
    pool = [circuit.add_input(f"i{k}") for k in range(num_inputs)]
    kinds = [GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
             GateType.XOR, GateType.XNOR, GateType.NOT,
             GateType.BUFFER]
    for index in range(num_gates):
        kind = draw(st.sampled_from(kinds))
        if kind in (GateType.NOT, GateType.BUFFER):
            fanins = [draw(st.sampled_from(pool))]
        else:
            size = draw(st.integers(min(2, len(pool)),
                                    min(3, len(pool))))
            fanins = draw(st.lists(st.sampled_from(pool),
                                   min_size=size, max_size=size,
                                   unique=True))
        pool.append(circuit.add_gate(f"g{index}", kind, fanins))
    circuit.set_output(pool[-1])
    return circuit


class TestBDDProperties:
    @SETTINGS
    @given(small_circuits())
    def test_bdd_matches_truth_table(self, circuit):
        from repro.bdd.circuit import build_output_bdds
        manager = BDDManager(len(circuit.inputs))
        nodes = build_output_bdds(circuit, manager)
        output = circuit.outputs[0]
        for key, outputs in exhaustive_truth_table(circuit).items():
            model = {i + 1: value for i, value in enumerate(key)}
            assert manager.evaluate(nodes[output], model) == outputs[0]

    @SETTINGS
    @given(small_circuits())
    def test_bdd_count_matches_enumeration(self, circuit):
        from repro.bdd.circuit import build_output_bdds
        manager = BDDManager(len(circuit.inputs))
        nodes = build_output_bdds(circuit, manager)
        output = circuit.outputs[0]
        expected = sum(1 for outputs in
                       exhaustive_truth_table(circuit).values()
                       if outputs[0])
        assert manager.count_solutions(nodes[output],
                                       len(circuit.inputs)) == expected

    @SETTINGS
    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 4)),
                    min_size=1, max_size=6))
    def test_demorgan(self, spec):
        manager = BDDManager(4)
        operands = [manager.var(v) if positive else manager.nvar(v)
                    for positive, v in spec]
        left = manager.apply_not(manager.apply_many("AND", operands))
        right = manager.apply_many(
            "OR", [manager.apply_not(op) for op in operands])
        assert left is right          # canonicity makes this a pointer


class TestPBProperties:
    @SETTINGS
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=5),
           st.integers(0, 12))
    def test_pb_at_most_exact_semantics(self, weights, bound):
        n = len(weights)
        terms = [(w, i + 1) for i, w in enumerate(weights)]
        formula = CNFFormula(n)
        pb_at_most(formula, terms, bound)
        for bits in itertools.product([False, True], repeat=n):
            model = {v: bits[v - 1] for v in range(1, n + 1)}
            total = evaluate_terms(terms, model)
            # Project: is the base model extendable to the auxiliaries?
            extendable = _extendable(formula, model, n)
            assert extendable == (total <= bound), (weights, bound,
                                                    bits)

    @SETTINGS
    @given(st.lists(st.integers(1, 1), min_size=1, max_size=6),
           st.integers(0, 6))
    def test_unit_weights_match_cardinality(self, weights, bound):
        """With unit weights, PB and the sequential counter agree."""
        n = len(weights)
        lits = list(range(1, n + 1))
        pb_formula = CNFFormula(n)
        pb_at_most(pb_formula, [(1, l) for l in lits], bound)
        card_formula = CNFFormula(n)
        at_most_k(card_formula, lits, bound)
        for bits in itertools.product([False, True], repeat=n):
            model = {v: bits[v - 1] for v in range(1, n + 1)}
            assert _extendable(pb_formula, model, n) == \
                _extendable(card_formula, model, n)


def _extendable(formula, base_model, base_vars):
    """Can *base_model* over 1..base_vars extend to the auxiliaries?

    Decided with the (independently validated) CDCL solver under unit
    assumptions for the base variables.
    """
    from repro.solvers.cdcl import CDCLSolver

    probe = formula.copy()
    for var in range(1, base_vars + 1):
        probe.add_clause([var if base_model[var] else -var])
    return CDCLSolver(probe).solve().is_sat


class TestCircuitRoundTrips:
    @SETTINGS
    @given(small_circuits())
    def test_bench_roundtrip_preserves_function(self, circuit):
        again = parse_bench(write_bench(circuit))
        assert exhaustive_truth_table(again) == \
            exhaustive_truth_table(circuit)

    @SETTINGS
    @given(small_circuits(), st.integers(0, 1000))
    def test_injected_fault_simulation_consistency(self, circuit,
                                                   seed_bits):
        """inject_fault and simulate(faults=...) agree on outputs."""
        node_names = [n.name for n in circuit
                      if n.is_gate or n.is_input]
        fault = StuckAtFault(node_names[seed_bits % len(node_names)],
                             bool(seed_bits & 1))
        faulty = inject_fault(circuit, fault)
        vector = {name: bool((seed_bits >> i) & 1)
                  for i, name in enumerate(circuit.inputs)}
        via_circuit = simulate(faulty, vector)
        via_injection = simulate(circuit, vector,
                                 faults={fault.node: fault.value})
        for good_out, new_out in zip(circuit.outputs, faulty.outputs):
            assert via_circuit[new_out] == via_injection[good_out]

    @SETTINGS
    @given(small_circuits(), st.data())
    def test_fault_parallel_kernel_matches_serial_detects(self, circuit,
                                                          data):
        vector = {name: data.draw(st.booleans(), label=name)
                  for name in circuit.inputs}
        faults = full_fault_list(circuit)
        assert fault_parallel_detects(circuit, faults, vector) == \
            [detects(circuit, fault, vector) for fault in faults]


class TestProofProperties:
    @SETTINGS
    @given(st.integers(0, 100))
    def test_every_unsat_proof_checks(self, seed):
        from repro.cnf.generators import random_ksat_at_ratio
        formula = random_ksat_at_ratio(7, ratio=6.0, seed=seed)
        if brute_force_status(formula) != "UNSAT":
            return
        result, sink = solve_with_proof_stream(formula)
        assert result.is_unsat
        assert check_proof_steps(formula, sink.events).valid
