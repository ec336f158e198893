"""Experiment X3 (extension) -- functional crosstalk analysis ([8]).

"Towards True Crosstalk Noise Analysis": the structural worst case
(all coupled aggressors switching against a stable victim) is often
logically infeasible; SAT computes the *feasible* worst case.
Expected shape: feasible <= structural, with strict gaps wherever the
victim's logic constrains its aggressors, and every witness validated
by two-frame simulation.
"""

from repro.apps.crosstalk import CouplingScenario, CrosstalkAnalyzer
from repro.circuits.gates import GateType
from repro.circuits.library import c17
from repro.circuits.netlist import Circuit
from repro.experiments.tables import format_table

#: The whole table; a change that moves the search re-pins it and
#: reports the rows it moved.
EXPECTED = [
    ["bus: driver-coupled", 4, 2, 2, 3],
    ["bus: independent only", 2, 2, 0, 1],
    ["c17: G22 victim", 3, 3, 0, 1],
    ["c17: G23 low victim", 2, 0, 2, 3],
]


def coupled_bus_circuit():
    """A victim buffered from input a, coupled to its own driver, a
    derived inverse, and two independent bus bits."""
    circuit = Circuit("bus")
    for name in ("a", "b", "c", "d"):
        circuit.add_input(name)
    circuit.add_gate("victim", GateType.BUFFER, ["a"])
    circuit.add_gate("agg_inv", GateType.NOT, ["a"])
    circuit.add_gate("agg_b", GateType.BUFFER, ["b"])
    circuit.add_gate("agg_c", GateType.BUFFER, ["c"])
    circuit.add_gate("sink", GateType.AND,
                     ["victim", "agg_inv", "agg_b", "agg_c"])
    circuit.set_output("sink")
    return circuit


def scenarios():
    bus = coupled_bus_circuit()
    return [
        ("bus: driver-coupled", bus,
         CouplingScenario("victim", ("a", "agg_inv", "agg_b", "agg_c"))),
        ("bus: independent only", bus,
         CouplingScenario("victim", ("agg_b", "agg_c"))),
        ("c17: G22 victim", c17(),
         CouplingScenario("G22", ("G10", "G16", "G19"))),
        ("c17: G23 low victim", c17(),
         CouplingScenario("G23", ("G16", "G19"), victim_value=False)),
    ]


def test_x3_crosstalk(benchmark, show):
    rows = []
    for label, circuit, scenario in scenarios():
        analyzer = CrosstalkAnalyzer(circuit)
        report = analyzer.feasible_alignment(scenario)
        assert report.feasible_worst_case is not None
        assert report.feasible_worst_case <= \
            report.structural_worst_case
        assert analyzer.verify_witness(report)
        rows.append([label, report.structural_worst_case,
                     report.feasible_worst_case, report.overestimate,
                     report.sat_calls])
    show(format_table(
        ["scenario", "structural worst case", "feasible worst case",
         "overestimate", "SAT calls"], rows,
        title="X3 -- crosstalk aggressor alignment: structural vs "
              "logically feasible ([8])"))

    # The driver-coupled bus must show a strict gap: a and agg_inv can
    # never switch while the victim (== a) is stable.
    assert rows[0][2] == 2 and rows[0][3] == 2
    # Independent aggressors reach the structural bound.
    assert rows[1][3] == 0
    assert rows == EXPECTED

    bus = coupled_bus_circuit()
    scenario = CouplingScenario("victim",
                                ("a", "agg_inv", "agg_b", "agg_c"))
    report = benchmark(
        lambda: CrosstalkAnalyzer(bus).feasible_alignment(scenario))
    assert report.feasible_worst_case == 2
