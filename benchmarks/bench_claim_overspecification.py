"""Experiment C5 -- Section 5: the structural layer eliminates
overspecification of input patterns.

For each circuit objective the plain CNF solver must assign *every*
variable before declaring SAT, whereas the justification-frontier
solver stops early and leaves genuine don't-cares.  Expected shape:
specified-input counts drop substantially with the layer (except on
parity logic, where every input genuinely matters); every partial
cube is certified by 3-valued simulation.
"""

from repro.circuits.generators import parity_tree, ripple_carry_adder
from repro.circuits.library import c17
from repro.circuits.simulate import simulate3
from repro.experiments.tables import format_table
from repro.solvers.circuit_sat import CircuitSATSolver


#: The deterministic columns of the table; a change that moves the
#: search re-pins them and reports the rows it moved.
EXPECTED = [
    ["c17", "G22=1", 5, 5, 2],
    ["c17", "G23=0", 5, 5, 3],
    ["rca4", "cout=1", 9, 9, 2],
    ["rca4", "s0=1", 9, 9, 3],
    ["parity6", "parity=1", 6, 6, 6],
    ["TOTAL", "", "", 34, 16],
]


def cases():
    return [
        (c17(), "G22", True),
        (c17(), "G23", False),
        (ripple_carry_adder(4), "cout", True),
        (ripple_carry_adder(4), "s0", True),
        (parity_tree(6), "parity", True),
    ]


def specified(circuit, objective, value, early_stop):
    solver = CircuitSATSolver(circuit, {objective: value},
                              use_backtrace=early_stop,
                              early_stop=early_stop)
    result = solver.solve()
    assert result.is_sat
    if early_stop:
        partial = {k: v for k, v in result.input_vector.items()
                   if v is not None}
        assert simulate3(circuit, partial)[objective] is value
    return result.specified_inputs()


def test_claim_overspecification(benchmark, show):
    rows = []
    total_plain = total_layer = 0
    for circuit, objective, value in cases():
        plain = specified(circuit, objective, value, early_stop=False)
        layered = specified(circuit, objective, value, early_stop=True)
        total_plain += plain
        total_layer += layered
        rows.append([circuit.name, f"{objective}={int(value)}",
                     len(circuit.inputs), plain, layered])
    rows.append(["TOTAL", "", "", total_plain, total_layer])
    show(format_table(
        ["circuit", "objective", "inputs", "plain CNF specifies",
         "frontier layer specifies"], rows,
        title="C5 -- overspecification: specified inputs per solution "
              "(Section 5)"))

    # Shape: the layer strictly reduces total specification, and the
    # parity case stays fully specified (no don't-cares exist).
    assert total_layer < total_plain
    parity_row = rows[-2]
    assert parity_row[3] == parity_row[4] == 6
    assert rows == EXPECTED

    result = benchmark(
        lambda: CircuitSATSolver(c17(), {"G22": True}).solve())
    assert result.is_sat
