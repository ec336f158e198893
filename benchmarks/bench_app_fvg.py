"""Experiment A7 -- functional vector generation (§3, [13]).

Coverage-directed vector generation to full toggle coverage.
Expected shape: a handful of vectors covers hundreds of goals; random
warmup discharges most goals so few SAT calls remain; unreachable
goals (constant nodes) are proved, not endlessly retried.
"""

from repro.apps.fvg import generate_vectors, toggle_goals
from repro.circuits.gates import GateType
from repro.circuits.generators import (
    random_circuit,
    ripple_carry_adder,
)
from repro.circuits.library import c17
from repro.circuits.netlist import Circuit
from repro.experiments.tables import format_table

#: The whole table; a change that moves the search re-pins it and
#: reports the rows it moved.
EXPECTED = [
    ["c17", 22, 6, 0, 0, "100.0%"],
    ["rca3", 52, 8, 1, 0, "100.0%"],
    ["rand6x20", 52, 6, 16, 14, "100.0%"],
    ["const_node", 10, 2, 1, 1, "100.0%"],
]


def constant_node_circuit():
    circuit = Circuit("const_node")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_gate("na", GateType.NOT, ["a"])
    circuit.add_gate("dead", GateType.AND, ["a", "na"])   # constant 0
    circuit.add_gate("y", GateType.OR, ["dead", "b"])
    circuit.set_output("y")
    return circuit


def test_app_fvg(benchmark, show):
    rows = []
    for circuit in (c17(), ripple_carry_adder(3),
                    random_circuit(6, 20, seed=1),
                    constant_node_circuit()):
        goals = toggle_goals(circuit)
        report = generate_vectors(circuit, seed=0)
        rows.append([circuit.name, len(goals), len(report.vectors),
                     report.sat_calls, len(report.unreachable),
                     f"{report.coverage(len(goals)):.1%}"])
        assert report.coverage(len(goals)) == 1.0
        assert not report.aborted
    show(format_table(
        ["circuit", "toggle goals", "vectors", "SAT calls",
         "unreachable", "coverage"], rows,
        title="A7 -- coverage-directed functional vector generation"))

    assert rows == EXPECTED
    # The constant node is proved unreachable, not aborted.
    assert rows[-1][4] == 1

    report = benchmark(generate_vectors, c17())
    assert report.coverage(len(toggle_goals(c17()))) == 1.0
