"""Unit tests for repro.apps.seq_equivalence."""

import pytest

from repro.apps.seq_equivalence import (
    SequentialEquivalenceChecker,
    check_sequential_equivalence,
    verify_divergence,
)
from repro.circuits.gates import GateType
from repro.circuits.generators import binary_counter, shift_register
from repro.circuits.netlist import Circuit


def delayed_not(extra_stage: bool) -> Circuit:
    """sout = NOT(sin) delayed by 1 (or 2) cycles."""
    circuit = Circuit("delaynot" + ("2" if extra_stage else "1"))
    circuit.add_input("sin")
    circuit.add_gate("ninv", GateType.NOT, ["sin"])
    circuit.add_dff("r0", "ninv")
    last = "r0"
    if extra_stage:
        circuit.add_dff("r1", "r0")
        last = "r1"
    circuit.add_gate("sout", GateType.BUFFER, [last])
    circuit.set_output("sout")
    return circuit


class TestEquivalentPairs:
    def test_identical_counters(self):
        report = check_sequential_equivalence(binary_counter(2),
                                              binary_counter(2),
                                              max_depth=6)
        assert report.bounded_equivalent
        assert report.equivalent_through == 6

    def test_structurally_different_same_function(self):
        """A shift register vs the same register with its output
        buffered differently."""
        left = shift_register(2)
        right = Circuit("shift2b")
        right.add_input("sin")
        right.add_dff("s0", "sin")
        right.add_dff("s1", "s0")
        right.add_gate("tmp", GateType.BUFFER, ["s1"])
        right.add_gate("sout", GateType.BUFFER, ["tmp"])
        right.set_output("sout")
        report = check_sequential_equivalence(left, right, max_depth=6)
        assert report.bounded_equivalent


class TestDivergentPairs:
    def test_different_latency_detected(self):
        """One vs two cycles of delay: diverges at frame 1 (first
        frame where the inputs can differ from the zero state)."""
        report = check_sequential_equivalence(delayed_not(False),
                                              delayed_not(True),
                                              max_depth=6)
        assert report.failure_depth is not None
        assert report.failure_depth <= 2
        assert verify_divergence(delayed_not(False),
                                 delayed_not(True), report)

    def test_counter_width_mismatch(self):
        """2-bit vs 3-bit counters: rollover differs first at frame 3."""
        report = check_sequential_equivalence(binary_counter(2),
                                              binary_counter(3),
                                              max_depth=8)
        assert report.failure_depth == 3
        assert verify_divergence(binary_counter(2), binary_counter(3),
                                 report)

    def test_bound_too_shallow_misses_divergence(self):
        report = check_sequential_equivalence(binary_counter(2),
                                              binary_counter(3),
                                              max_depth=2)
        assert report.bounded_equivalent          # the bounded caveat
        assert report.equivalent_through == 2


class TestInterfaces:
    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            check_sequential_equivalence(binary_counter(2),
                                         shift_register(2))

    def test_initial_state_override(self):
        """Identical counters from different initial states diverge
        immediately via rollover at different times."""
        checker = SequentialEquivalenceChecker(
            binary_counter(2), binary_counter(2),
            initial_a={"q0": True, "q1": True})
        report = checker.check(max_depth=4)
        assert report.failure_depth == 0

    def test_divergence_replays_from_the_checked_initial_states(self):
        """The replay starts each machine where the check started it,
        not from all-zero."""
        left, right = binary_counter(2), binary_counter(2)
        checker = SequentialEquivalenceChecker(
            left, right, initial_a={"q0": True, "q1": True})
        report = checker.check(max_depth=4)
        assert report.failure_depth == 0
        assert verify_divergence(left, right, report)


class TestOutputLessPairs:
    def test_equivalent_through_the_bound(self):
        """Machines with state but no outputs cannot differ."""
        def sink(name):
            circuit = Circuit(name)
            circuit.add_input("d")
            circuit.add_dff("q", "nq")
            circuit.add_gate("nq", GateType.XOR, ["q", "d"])
            return circuit

        report = check_sequential_equivalence(sink("a"), sink("b"),
                                              max_depth=4)
        assert report.bounded_equivalent
        assert report.equivalent_through == 4


class TestUndecidedDepths:
    def test_capped_depth_is_not_proved(self):
        """A depth the solver gives up on stops the sweep: it is
        neither a divergence nor counted as equal."""
        checker = SequentialEquivalenceChecker(
            binary_counter(2), binary_counter(3),
            max_conflicts_per_depth=1)
        report = checker.check(max_depth=8)
        assert report.aborted
        assert report.failure_depth is None
        assert report.equivalent_through < 3
        assert not report.bounded_equivalent
