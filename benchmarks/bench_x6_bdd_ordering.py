"""Experiment X6 (extension) -- BDD variable-ordering sensitivity.

Background for the paper's SAT-vs-BDD framing: BDD size depends
critically on variable order (adders are exponential under the
all-of-a-then-all-of-b order, linear interleaved), whereas the CNF/SAT
representation of the same circuits is order-insensitive.  Expected
shape: interleaving shrinks adder/comparator BDDs by large factors;
CNF clause counts are identical under any input order.
"""

from repro.bdd.circuit import build_output_bdds, interleaved_order
from repro.bdd.manager import BDDManager
from repro.circuits.generators import comparator, ripple_carry_adder
from repro.circuits.tseitin import encode_circuit
from repro.experiments.tables import format_table

#: The whole table (BDD node counts, their ratio and the CNF
#: clause counts); a change to the BDD package or the encoder
#: re-pins it and reports the rows it moved.
EXPECTED = [
    ["rca6", 1327, 393, 3.4, 116],
    ["rca8", 5529, 711, 7.8, 154],
    ["cmp8", 1537, 132, 11.6, 41],
]


def bdd_nodes(circuit, order=None):
    manager = BDDManager(len(circuit.inputs), max_nodes=500_000)
    build_output_bdds(circuit, manager, input_order=order)
    return manager.num_nodes


def bus_order(circuit):
    """The classic *bad* order: whole a-bus, then whole b-bus."""
    return sorted(circuit.inputs)


def test_x6_bdd_ordering(benchmark, show):
    rows = []
    for circuit in (ripple_carry_adder(6), ripple_carry_adder(8),
                    comparator(8)):
        bussed = bdd_nodes(circuit, bus_order(circuit))
        interleaved = bdd_nodes(circuit, interleaved_order(circuit))
        cnf_clauses = encode_circuit(circuit).formula.num_clauses
        rows.append([circuit.name, bussed, interleaved,
                     round(bussed / interleaved, 1), cnf_clauses])
    show(format_table(
        ["circuit", "BDD nodes (bus order)",
         "BDD nodes (interleaved)", "ratio", "CNF clauses (any order)"],
        rows,
        title="X6 -- ordering sensitivity: BDDs vs the CNF "
              "representation"))

    for row in rows:
        assert row[2] < row[1]            # interleaving always helps
    assert any(row[3] >= 4 for row in rows)
    assert rows == EXPECTED

    circuit = ripple_carry_adder(6)
    nodes = benchmark(bdd_nodes, circuit,
                      interleaved_order(circuit))
    assert nodes > 0
