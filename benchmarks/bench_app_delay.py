"""Experiment A3 -- SAT-based circuit delay computation (Section 3).

For each circuit, compare the topological delay with the longest
*statically sensitizable* path found by the SAT queries.  Expected
shape: they agree on adders/c17 (no false paths) and diverge on the
constructed false-path circuit, where SAT proves the topologically
critical path can never be exercised.
"""

from repro.apps.delay import compute_delay
from repro.circuits.gates import GateType
from repro.circuits.generators import ripple_carry_adder
from repro.circuits.library import c17
from repro.circuits.netlist import Circuit
from repro.experiments.tables import format_table

#: The whole table; a change that moves the search re-pins it and
#: reports the rows it moved.
EXPECTED = [
    ["c17", 3, 3, 0, "no"],
    ["rca3", 8, 8, 0, "no"],
    ["rca5", 12, 12, 0, "no"],
    ["falsepath", 4, 2, 1, "yes"],
]


def false_path_circuit():
    circuit = Circuit("falsepath")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_gate("p1", GateType.BUFFER, ["b"])
    circuit.add_gate("p2", GateType.BUFFER, ["p1"])
    circuit.add_gate("p3", GateType.AND, ["p2", "a"])
    circuit.add_gate("na", GateType.NOT, ["a"])
    circuit.add_gate("y", GateType.AND, ["p3", "na"])
    circuit.set_output("y")
    return circuit


def test_app_delay(benchmark, show):
    rows = []
    for circuit in (c17(), ripple_carry_adder(3), ripple_carry_adder(5),
                    false_path_circuit()):
        report = compute_delay(circuit)
        rows.append([circuit.name, report.topological_delay,
                     report.sensitizable_delay,
                     report.false_paths_examined,
                     "yes" if report.has_false_critical_path else "no"])
    show(format_table(
        ["circuit", "topological delay", "sensitizable delay",
         "false paths skipped", "critical path false?"], rows,
        title="A3 -- delay computation via path sensitization"))

    assert rows == EXPECTED
    by_name = {row[0]: row for row in rows}
    # Adders and c17: topological == sensitizable (no false paths).
    assert by_name["c17"][1] == by_name["c17"][2]
    assert by_name["rca5"][1] == by_name["rca5"][2]
    # The constructed circuit: strictly smaller true delay.
    assert by_name["falsepath"][2] < by_name["falsepath"][1]

    report = benchmark(compute_delay, ripple_carry_adder(3))
    assert report.sensitizable_delay is not None
