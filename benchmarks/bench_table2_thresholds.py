"""Experiment T2 -- regenerate paper Table 2 (justification thresholds).

Prints the threshold values u0(x)/u1(x) on suitably assigned inputs
required for justifying node values, per gate type, and checks the
paper's statement that u0, u1 are always in {1, |FI(x)|}.  The
benchmark measures threshold installation for a whole netlist (the
setup cost of the Section 5 layer).
"""

from repro.circuits.gates import GateType, justification_thresholds
from repro.circuits.generators import random_circuit
from repro.circuits.tseitin import encode_circuit
from repro.experiments.tables import format_table
from repro.solvers.circuit_sat import JustificationLayer

GATES = [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
         GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUFFER]

#: The printed table (fan-in 3); a change that moves a row re-pins it
#: and reports the rows it moved.
EXPECTED = [
    ["x = AND(w1..w3)", "1", "|FI(x)|"],
    ["x = NAND(w1..w3)", "|FI(x)|", "1"],
    ["x = OR(w1..w3)", "|FI(x)|", "1"],
    ["x = NOR(w1..w3)", "1", "|FI(x)|"],
    ["x = XOR(w1..w3)", "|FI(x)|", "|FI(x)|"],
    ["x = XNOR(w1..w3)", "|FI(x)|", "|FI(x)|"],
    ["x = NOT(w1..w1)", "1", "1"],
    ["x = BUFFER(w1..w1)", "1", "1"],
]


def regenerate_table2(fanin: int = 3):
    rows = []
    for gate in GATES:
        n = 1 if gate in (GateType.NOT, GateType.BUFFER) else fanin
        u0, u1 = justification_thresholds(gate, n)
        assert u0 in (1, n) and u1 in (1, n)

        def render(u):
            return "|FI(x)|" if u == n and n != 1 else str(u)

        rows.append([f"x = {gate.value}(w1..w{n})", render(u0),
                     render(u1)])
    return rows


def test_table2_thresholds(benchmark, show):
    rows = regenerate_table2()
    show(format_table(["Gate", "u0(x)", "u1(x)"], rows,
                      title="Paper Table 2 -- thresholds on assigned "
                            "inputs for justification"))
    assert rows == EXPECTED

    circuit = random_circuit(10, 150, seed=1)
    encoding = encode_circuit(circuit)

    def install_layer():
        return JustificationLayer(circuit, encoding)

    layer = benchmark(install_layer)
    assert len(layer.u0) == sum(1 for node in circuit
                                if node.is_gate and node.fanins)
