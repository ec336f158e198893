"""Experiment A4 -- bounded model checking (Section 3, [5]).

Counters and shift registers with known reachability depths: BMC must
find each counterexample at exactly the predicted frame, every trace
must replay through the cycle-accurate simulator, and bounded proofs
must hold below the threshold.  Expected shape: counterexample depth
2^n - 1 for n-bit counters, n for n-stage shift registers, and
per-depth effort growing with the unrolling.
"""

from repro.apps.bmc import BoundedModelChecker, check_safety, verify_trace
from repro.circuits.generators import binary_counter, shift_register
from repro.experiments.tables import format_table

#: The whole table; a change that moves the search re-pins it and
#: reports the rows it moved.
EXPECTED = [
    ["counter2 rollover", 3, 3, "yes", 4],
    ["counter3 rollover", 7, 7, "yes", 19],
    ["counter4 rollover", 15, 15, "yes", 81],
    ["shift3 sout", 3, 3, "yes", 2],
    ["shift5 sout", 5, 5, "yes", 4],
    ["counter4 rollover (bound 8)", ">8", "none (proved)", "-", 23],
]


def test_app_bmc(benchmark, show):
    rows = []

    for width in (2, 3, 4):
        circuit = binary_counter(width)
        expected = (1 << width) - 1
        result = check_safety(circuit, "rollover", True,
                              max_depth=expected + 2)
        assert result.failure_depth == expected
        assert verify_trace(circuit, result, "rollover", True)
        rows.append([f"counter{width} rollover", expected,
                     result.failure_depth, "yes",
                     result.stats.conflicts])

    for length in (3, 5):
        circuit = shift_register(length)
        result = check_safety(circuit, "sout", True,
                              max_depth=length + 2)
        assert result.failure_depth == length
        assert verify_trace(circuit, result, "sout", True)
        rows.append([f"shift{length} sout", length,
                     result.failure_depth, "yes",
                     result.stats.conflicts])

    # Bounded proof: no violation below the reachability depth.
    proof = check_safety(binary_counter(4), "rollover", True,
                         max_depth=8)
    assert proof.property_holds
    rows.append(["counter4 rollover (bound 8)", ">8", "none (proved)",
                 "-", proof.stats.conflicts])

    show(format_table(
        ["query", "expected depth", "found depth", "trace replays",
         "conflicts"], rows,
        title="A4 -- bounded model checking with incremental "
              "unrolling"))
    assert rows == EXPECTED

    def run():
        checker = BoundedModelChecker(binary_counter(3))
        return checker.check_output("rollover", True, max_depth=8)

    result = benchmark(run)
    assert result.failure_depth == 7
