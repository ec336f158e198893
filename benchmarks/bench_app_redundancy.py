"""Experiment A8 -- redundancy identification and removal (§3, [17]).

Circuits seeded with provably redundant logic: the SAT engine must
prove each planted redundancy (UNSAT ATPG instance), remove it, and
certify the optimized circuit equivalent.  Expected shape: netlists
shrink to the irredundant core and the irredundant control (c17)
stays untouched.
"""

from repro.apps.redundancy import find_redundancies, optimize
from repro.circuits.gates import GateType
from repro.circuits.library import c17, redundant_or_chain
from repro.circuits.netlist import Circuit
from repro.experiments.tables import format_table

#: The whole table; a change that moves the search re-pins it and
#: reports the rows it moved.
EXPECTED = [
    ["redundant_or", 2, 1, 1, 1, True],
    ["absorb2", 3, 1, 2, 3, True],
    ["consensus", 5, 4, 1, 1, True],
    ["c17", 6, 6, 0, 0, True],
]


def doubly_redundant():
    """y = OR(a, AND(a,b), AND(a,c)): two absorbed terms."""
    circuit = Circuit("absorb2")
    for name in ("a", "b", "c"):
        circuit.add_input(name)
    circuit.add_gate("ab", GateType.AND, ["a", "b"])
    circuit.add_gate("ac", GateType.AND, ["a", "c"])
    circuit.add_gate("y", GateType.OR, ["a", "ab", "ac"])
    circuit.set_output("y")
    return circuit


def consensus_redundant():
    """f = ab + a'c + bc: the consensus term bc is redundant."""
    circuit = Circuit("consensus")
    for name in ("a", "b", "c"):
        circuit.add_input(name)
    circuit.add_gate("na", GateType.NOT, ["a"])
    circuit.add_gate("ab", GateType.AND, ["a", "b"])
    circuit.add_gate("nac", GateType.AND, ["na", "c"])
    circuit.add_gate("bc", GateType.AND, ["b", "c"])
    circuit.add_gate("f", GateType.OR, ["ab", "nac", "bc"])
    circuit.set_output("f")
    return circuit


def test_app_redundancy(benchmark, show):
    rows = []
    for circuit in (redundant_or_chain(), doubly_redundant(),
                    consensus_redundant(), c17()):
        optimized, report = optimize(circuit)
        rows.append([circuit.name, report.original_gates,
                     report.optimized_gates, report.removals,
                     len(report.redundant_faults), report.equivalent])
        assert report.equivalent is not False
        assert find_redundancies(optimized) == []
    show(format_table(
        ["circuit", "gates before", "gates after", "removals",
         "redundant faults proved", "equivalence certified"], rows,
        title="A8 -- redundancy identification & removal "
              "(RID-GRASP flow)"))

    assert rows == EXPECTED
    by_name = {row[0]: row for row in rows}
    assert by_name["redundant_or"][2] < by_name["redundant_or"][1]
    assert by_name["consensus"][2] < by_name["consensus"][1]
    assert by_name["c17"][3] == 0       # irredundant control

    redundancies = benchmark(find_redundancies, consensus_redundant())
    assert redundancies
