"""Unit tests for repro.apps.bmc (Section 3, bounded model checking)."""

import pytest

from repro.apps.bmc import BoundedModelChecker, check_safety, verify_trace
from repro.circuits.gates import GateType
from repro.circuits.generators import binary_counter, shift_register
from repro.circuits.netlist import Circuit
from repro.runtime.budget import Budget


class TestCounterReachability:
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_rollover_found_at_exact_depth(self, width):
        """An n-bit counter with enable held high pulses rollover at
        frame 2^n - 1."""
        circuit = binary_counter(width)
        result = check_safety(circuit, "rollover", True,
                              max_depth=(1 << width) + 2)
        assert result.failure_depth == (1 << width) - 1

    def test_trace_replays_through_simulator(self):
        circuit = binary_counter(2)
        result = check_safety(circuit, "rollover", True, max_depth=5)
        assert verify_trace(circuit, result, "rollover", True)

    def test_property_holds_below_bound(self):
        circuit = binary_counter(3)
        result = check_safety(circuit, "rollover", True, max_depth=5)
        assert result.property_holds
        assert result.depths_proved == 6

    def test_initial_state_shortcut(self):
        circuit = binary_counter(2)
        result = check_safety(circuit, "rollover", True, max_depth=2,
                              initial_state={"q0": True, "q1": True})
        assert result.failure_depth == 0


class TestShiftRegister:
    def test_output_reachable_after_latency(self):
        circuit = shift_register(3)
        result = check_safety(circuit, "sout", True, max_depth=6)
        assert result.failure_depth == 3     # needs 3 shifts
        assert verify_trace(circuit, result, "sout", True)

    def test_zero_state_output_never_one_early(self):
        circuit = shift_register(4)
        result = check_safety(circuit, "sout", True, max_depth=3)
        assert result.property_holds


class TestCombinationalAsDepthZero:
    def test_pure_combinational_circuit(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("y", GateType.NOT, ["a"])
        circuit.set_output("y")
        result = check_safety(circuit, "y", True, max_depth=0)
        assert result.failure_depth == 0

    def test_unreachable_value(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("na", GateType.NOT, ["a"])
        circuit.add_gate("y", GateType.AND, ["a", "na"])
        circuit.set_output("y")
        result = check_safety(circuit, "y", True, max_depth=3)
        assert result.property_holds


class TestCheckerInternals:
    def test_frames_added_lazily(self):
        checker = BoundedModelChecker(binary_counter(2))
        assert len(checker.frames) == 0
        checker.check_output("rollover", True, max_depth=2)
        assert len(checker.frames) == 3

    def test_incremental_solver_reused_across_depths(self):
        checker = BoundedModelChecker(binary_counter(2))
        solver = checker.solver
        result = checker.check_output("rollover", True, max_depth=3)
        assert result.failure_depth == 3
        # One engine served all four depths: its running totals are
        # the sums of the per-depth calls.
        assert checker.solver is solver
        assert solver.stats.decisions == result.stats.decisions > 0
        assert solver.stats.propagations == result.stats.propagations

    def test_unknown_output_rejected(self):
        checker = BoundedModelChecker(binary_counter(2))
        with pytest.raises(ValueError):
            checker.check_output("ghost")

    def test_bad_value_false_query(self):
        # rollover is 0 initially: bad_value=False found at depth 0.
        result = check_safety(binary_counter(2), "rollover", False,
                              max_depth=1)
        assert result.failure_depth == 0

    def test_stats_accumulate(self):
        result = check_safety(binary_counter(2), "rollover", True,
                              max_depth=4)
        assert result.stats.propagations > 0

    def test_counter_caps_bound_each_depth(self):
        """A budget's counter caps are per solve call: 20 conflicts a
        depth (no depth needs more than 11) still reach depth 15 with
        the unbudgeted sweep's 81 conflicts in all."""
        result = check_safety(binary_counter(4), "rollover",
                              max_depth=20,
                              budget=Budget(max_conflicts=20))
        assert not result.budget_exhausted
        assert result.failure_depth == 15
        assert result.stats.conflicts == 81
