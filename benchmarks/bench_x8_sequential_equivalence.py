"""Experiment X8 (extension) -- bounded sequential equivalence.

Product-machine unrolling over equivalent and divergent sequential
pairs.  Expected shape: equivalent pairs stay UNSAT through the bound;
latency/width mismatches are caught at exactly the first frame where
the machines can differ, with simulation-validated traces.
"""

from repro.apps.seq_equivalence import (
    check_sequential_equivalence,
    verify_divergence,
)
from repro.circuits.gates import GateType
from repro.circuits.generators import binary_counter, shift_register
from repro.circuits.netlist import Circuit
from repro.experiments.tables import format_table

#: The whole table; a change that moves the search re-pins it and
#: reports the rows it moved.  Re-pinned when sequential equivalence
#: became BMC on build_miter's product machine (cnt2 vs cnt2 read 92
#: conflicts before; the other rows did not move).
EXPECTED = [
    ["cnt2 vs cnt2", 6, "equivalent through 6", 93],
    ["shift3 vs shift3-rebuf", 6, "equivalent through 6", 14],
    ["cnt2 vs cnt3", 8, "diverges at frame 3", 7],
    ["shift2 vs shift3", 6, "diverges at frame 2", 3],
]


def rebuffered_shift(length: int) -> Circuit:
    circuit = Circuit(f"shift{length}b")
    circuit.add_input("sin")
    previous = "sin"
    for index in range(length):
        circuit.add_dff(f"s{index}", previous)
        previous = f"s{index}"
    circuit.add_gate("tmp", GateType.BUFFER, [previous])
    circuit.add_gate("sout", GateType.BUFFER, ["tmp"])
    circuit.set_output("sout")
    return circuit


def test_x8_sequential_equivalence(benchmark, show):
    rows = []
    cases = [
        ("cnt2 vs cnt2", binary_counter(2), binary_counter(2), 6),
        ("shift3 vs shift3-rebuf", shift_register(3),
         rebuffered_shift(3), 6),
        ("cnt2 vs cnt3", binary_counter(2), binary_counter(3), 8),
        ("shift2 vs shift3", shift_register(2), shift_register(3), 6),
    ]
    for label, left, right, depth in cases:
        report = check_sequential_equivalence(left, right,
                                              max_depth=depth)
        if report.bounded_equivalent:
            verdict = f"equivalent through {report.equivalent_through}"
        else:
            assert verify_divergence(left, right, report)
            verdict = f"diverges at frame {report.failure_depth}"
        rows.append([label, depth, verdict,
                     report.stats.conflicts])
    show(format_table(
        ["pair", "bound", "verdict", "conflicts"], rows,
        title="X8 -- bounded sequential equivalence "
              "(product-machine unrolling)"))

    assert rows == EXPECTED
    assert "equivalent" in rows[0][2]
    assert "equivalent" in rows[1][2]
    assert rows[2][2] == "diverges at frame 3"   # rollover mismatch
    assert rows[3][2] == "diverges at frame 2"   # latency mismatch

    left, right = binary_counter(2), binary_counter(2)
    report = benchmark(check_sequential_equivalence, left, right, 5)
    assert report.bounded_equivalent
