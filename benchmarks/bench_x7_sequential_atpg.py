"""Experiment X7 (extension) -- sequential ATPG by time-frame
expansion.

The sequential counterpart of A1: for every observable stuck-at fault
of small sequential machines, find the shortest detecting input
sequence via iterative-deepening SAT on the product machine's unrolling.
Expected shape: faults deeper in the state space need longer
sequences (counter rollover: frame 2^n - 1; shift register stage i:
frame >= distance to the output); dead logic stays undetectable; all
sequences replay through simulation.
"""

from repro.apps.sequential_atpg import (
    SequenceOutcome,
    SequentialATPG,
    validate_sequence,
)
from repro.circuits.faults import StuckAtFault, full_fault_list
from repro.circuits.generators import binary_counter, shift_register
from repro.experiments.tables import format_table
from repro.solvers.result import SolverStats

#: The whole table; a change that moves the search re-pins it and
#: reports the rows it moved.  Re-pinned when sequential equivalence
#: became BMC on build_miter's product machine (conflicts / decisions
#: before: shift3 41 / 120, cnt2 41 / 137, cnt3 311 / 777).
EXPECTED = [
    ["shift3", 10, 10, 0, 3, 41, 123],
    ["cnt2", 16, 16, 0, 3, 42, 146],
    ["cnt3", 22, 22, 0, 7, 313, 769],
]


def observable_faults(circuit):
    return [fault
            for fault in full_fault_list(circuit, include_state=True)
            if circuit.fanout(fault.node)
            or fault.node in circuit.outputs]


def test_x7_sequential_atpg(benchmark, show):
    rows = []
    for circuit, depth in ((shift_register(3), 8),
                           (binary_counter(2), 8),
                           (binary_counter(3), 12)):
        detected = undetectable = 0
        max_frame = 0
        total = SolverStats()
        for fault in observable_faults(circuit):
            result = SequentialATPG(circuit, fault).solve(depth)
            total.merge(result.stats)
            if result.outcome is SequenceOutcome.DETECTED:
                detected += 1
                max_frame = max(max_frame, result.detect_frame)
                assert validate_sequence(circuit, result)
            else:
                undetectable += 1
        rows.append([circuit.name, len(observable_faults(circuit)),
                     detected, undetectable, max_frame,
                     total.conflicts, total.decisions])
    show(format_table(
        ["circuit", "observable faults", "detected",
         "undetectable (bound)", "longest sequence (frames)",
         "conflicts", "decisions"], rows,
        title="X7 -- sequential ATPG, time-frame expansion"))

    assert rows == EXPECTED
    by_name = {row[0]: row for row in rows}
    # Shift register: every fault detectable; deepest needs >= 3 frames.
    assert by_name["shift3"][3] == 0
    assert by_name["shift3"][4] >= 3
    # Counter state-space depth shows in the sequence length.
    assert by_name["cnt3"][4] >= 7

    circuit = shift_register(2)
    result = benchmark(
        lambda: SequentialATPG(circuit,
                               StuckAtFault("r0", True)).solve(6))
    assert result.outcome is SequenceOutcome.DETECTED
