"""Experiment T1 -- regenerate paper Table 1 (CNF formulas of gates).

For every simple gate type, print the CNF formula produced by
:func:`gate_cnf_clauses` in the paper's notation and verify, by
exhaustive enumeration, that the clause set characterizes exactly the
gate's valid input-output assignments.  The benchmark measures the
encoding cost for a mid-size netlist.
"""

import itertools

from repro.circuits.gates import (
    GateType,
    evaluate_gate,
    gate_cnf_clauses,
)
from repro.circuits.generators import random_circuit
from repro.circuits.tseitin import encode_circuit
from repro.cnf.clause import Clause
from repro.experiments.tables import format_table

GATES = [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
         GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUFFER]

#: The printed table, byte for byte; a change that moves a row re-pins
#: it and reports the rows it moved.
EXPECTED = [
    ["x = AND(w1, w2)", "(w1 + x') . (w2 + x') . (w1' + w2' + x)"],
    ["x = NAND(w1, w2)", "(w1 + x) . (w2 + x) . (w1' + w2' + x')"],
    ["x = OR(w1, w2)", "(w1' + x) . (w2' + x) . (w1 + w2 + x')"],
    ["x = NOR(w1, w2)", "(w1' + x') . (w2' + x') . (w1 + w2 + x)"],
    ["x = XOR(w1, w2)",
     "(w1 + w2 + x') . (w1 + w2' + x) . (w1' + w2 + x) . (w1' + w2' + x')"],
    ["x = XNOR(w1, w2)",
     "(w1 + w2 + x) . (w1 + w2' + x') . (w1' + w2 + x') . (w1' + w2' + x)"],
    ["x = NOT(w1)", "(w1 + x) . (w1' + x')"],
    ["x = BUFFER(w1)", "(w1' + x) . (w1 + x')"],
]


def regenerate_table1():
    names = {1: "w1", 2: "w2", 3: "x"}
    rows = []
    for gate in GATES:
        fanin = 1 if gate in (GateType.NOT, GateType.BUFFER) else 2
        inputs = list(range(1, fanin + 1))
        clauses = gate_cnf_clauses(gate, fanin + 1, inputs)
        names_local = dict(names)
        names_local[fanin + 1] = "x"
        formula = " . ".join(Clause(c).to_str(names_local)
                             for c in clauses)
        arglist = ", ".join(f"w{i}" for i in inputs)
        rows.append([f"x = {gate.value}({arglist})", formula])

        # Semantic check: CNF models == gate truth table.
        for bits in itertools.product([False, True], repeat=fanin + 1):
            model = {var: bits[var - 1] for var in range(1, fanin + 2)}
            valid = evaluate_gate(gate, list(bits[:fanin])) is bits[fanin]
            satisfied = all(
                any(model[abs(lit)] == (lit > 0) for lit in clause)
                for clause in clauses)
            assert satisfied == valid, (gate, bits)
    return rows


def test_table1_gate_cnf(benchmark, show):
    rows = regenerate_table1()
    show(format_table(["Gate function", "CNF formula (Table 1)"], rows,
                      title="Paper Table 1 -- CNF formulas for "
                            "simple gates (verified exhaustively)"))
    assert rows == EXPECTED
    circuit = random_circuit(10, 120, seed=0)
    encoding = benchmark(encode_circuit, circuit)
    assert encoding.formula.num_clauses > 120
