"""Experiment T3 -- regenerate paper Table 3 (justification counters).

Prints, per gate type, which counters (t0/t1) an input assignment of
0 or 1 increments -- the update rules the Section 5 layer installs in
the solver's assign/unassign hooks.  The benchmark measures the
per-assignment counter-update overhead through a real solver run.
"""

from repro.circuits.gates import GateType, counter_updates
from repro.circuits.library import c17
from repro.experiments.tables import format_table
from repro.solvers.circuit_sat import CircuitSATSolver

GATES = [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
         GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUFFER]

#: The printed table; a change that moves a row re-pins it and reports
#: the rows it moved.
EXPECTED = [
    ["AND", "t0(x)++", "t1(x)++"],
    ["NAND", "t1(x)++", "t0(x)++"],
    ["OR", "t0(x)++", "t1(x)++"],
    ["NOR", "t1(x)++", "t0(x)++"],
    ["XOR", "t0(x)++ & t1(x)++", "t0(x)++ & t1(x)++"],
    ["XNOR", "t0(x)++ & t1(x)++", "t0(x)++ & t1(x)++"],
    ["NOT", "t1(x)++", "t0(x)++"],
    ["BUFFER", "t0(x)++", "t1(x)++"],
]


def regenerate_table3():
    rows = []
    for gate in GATES:
        def render(value):
            bump0, bump1 = counter_updates(gate, value)
            bumped = [name for name, hit in
                      (("t0(x)++", bump0), ("t1(x)++", bump1)) if hit]
            return " & ".join(bumped) if bumped else "-"

        rows.append([gate.value, render(False), render(True)])
    return rows


def test_table3_counters(benchmark, show):
    rows = regenerate_table3()
    show(format_table(["Gate", "w_i = 0", "w_i = 1"], rows,
                      title="Paper Table 3 -- counter updates on "
                            "input assignment"))
    assert rows == EXPECTED

    def solve_with_layer():
        solver = CircuitSATSolver(c17(), {"G22": True, "G23": False})
        return solver.solve()

    result = benchmark(solve_with_layer)
    assert result.is_sat
