"""Unit tests for repro.apps.sequential_atpg (time-frame expansion)."""

import pytest

from repro.apps.sequential_atpg import (
    SequenceOutcome,
    SequentialATPG,
    generate_sequential_tests,
    validate_sequence,
)
from repro.circuits.faults import StuckAtFault, full_fault_list
from repro.circuits.gates import GateType
from repro.circuits.generators import binary_counter, shift_register
from repro.circuits.library import half_adder
from repro.circuits.netlist import Circuit
from repro.circuits.simulate import next_state, simulate


class TestShiftRegister:
    def test_internal_stage_fault_needs_propagation_frames(self):
        """A stuck stage in a 3-deep shift register needs >= 3 frames:
        the difference must shift to the output."""
        circuit = shift_register(3)
        result = SequentialATPG(circuit,
                                StuckAtFault("r1", False)).solve(8)
        assert result.outcome is SequenceOutcome.DETECTED
        assert result.detect_frame == 3
        assert validate_sequence(circuit, result)

    def test_input_fault(self):
        circuit = shift_register(2)
        result = SequentialATPG(circuit,
                                StuckAtFault("sin", True)).solve(8)
        assert result.outcome is SequenceOutcome.DETECTED
        assert validate_sequence(circuit, result)

    def test_sequence_length_matches_frame(self):
        circuit = shift_register(2)
        result = SequentialATPG(circuit,
                                StuckAtFault("r0", True)).solve(8)
        assert result.outcome is SequenceOutcome.DETECTED
        assert len(result.sequence) == result.detect_frame + 1


class TestCounter:
    def test_full_fault_list_detected(self):
        circuit = binary_counter(2)
        # The final carry (c1) drives nothing: its faults are genuine
        # sequential redundancies, so target only observable logic.
        faults = [fault for fault in full_fault_list(circuit)
                  if circuit.fanout(fault.node)
                  or fault.node in circuit.outputs]
        results = generate_sequential_tests(circuit, faults,
                                            max_depth=8)
        assert all(r.outcome is SequenceOutcome.DETECTED
                   for r in results), \
            [str(r.fault) for r in results
             if r.outcome is not SequenceOutcome.DETECTED]
        for result in results:
            assert validate_sequence(circuit, result)

    def test_dead_carry_faults_undetectable(self):
        circuit = binary_counter(2)
        for value in (False, True):
            result = SequentialATPG(
                circuit, StuckAtFault("c1", value)).solve(8)
            assert result.outcome is \
                SequenceOutcome.UNDETECTABLE_WITHIN_BOUND

    def test_deep_fault_needs_many_frames(self):
        """rollover stuck-at-0 on a 2-bit counter only shows when the
        counter reaches 11 with enable: frame 3."""
        circuit = binary_counter(2)
        result = SequentialATPG(
            circuit, StuckAtFault("rollover", False)).solve(8)
        assert result.outcome is SequenceOutcome.DETECTED
        assert result.detect_frame == 3

    def test_conflict_cap_aborts_a_deep_fault(self):
        """rollover stuck-at-0 on a 3-bit counter needs frame 7; one
        conflict per depth cannot get there, and the undecided depth
        is reported ABORTED, never as a bound result."""
        circuit = binary_counter(3)
        result = SequentialATPG(circuit, StuckAtFault("rollover", False),
                                max_conflicts_per_depth=1).solve(12)
        assert result.outcome is SequenceOutcome.ABORTED
        assert result.detect_frame is None
        assert result.sequence == []

    def test_depth_bound_respected(self):
        circuit = binary_counter(2)
        result = SequentialATPG(
            circuit, StuckAtFault("rollover", False)).solve(2)
        assert result.outcome is \
            SequenceOutcome.UNDETECTABLE_WITHIN_BOUND


class TestCombinationalDegenerate:
    def test_combinational_circuit_detects_at_frame_zero(self):
        circuit = half_adder()
        result = SequentialATPG(circuit,
                                StuckAtFault("carry", True)).solve(3)
        assert result.outcome is SequenceOutcome.DETECTED
        assert result.detect_frame == 0
        assert validate_sequence(circuit, result)


class TestUndetectable:
    def test_sequentially_redundant_fault(self):
        """A DFF that never influences the output: fault undetectable
        at any depth."""
        circuit = Circuit("deadstate")
        circuit.add_input("d")
        circuit.add_dff("q", "d")        # q drives nothing
        circuit.add_gate("y", GateType.BUFFER, ["d"])
        circuit.set_output("y")
        result = SequentialATPG(circuit,
                                StuckAtFault("q", True)).solve(4)
        assert result.outcome is \
            SequenceOutcome.UNDETECTABLE_WITHIN_BOUND

    def test_initial_state_override(self):
        """Starting a counter at 11 makes rollover/sa0 visible in the
        very first frame."""
        circuit = binary_counter(2)
        engine = SequentialATPG(circuit,
                                StuckAtFault("rollover", False),
                                initial_state={"q0": True, "q1": True})
        result = engine.solve(2)
        assert result.outcome is SequenceOutcome.DETECTED
        assert result.detect_frame == 0
        assert validate_sequence(circuit, result,
                                 initial_state={"q0": True,
                                                "q1": True})

    def test_validate_rejects_non_detected(self):
        circuit = binary_counter(2)
        result = SequentialATPG(
            circuit, StuckAtFault("rollover", False)).solve(1)
        assert not validate_sequence(circuit, result)


def earliest_detect_frame(circuit, fault, max_depth):
    """Reference by explicit product-machine search: the first frame
    at which some input sequence makes the good and the faulty
    machine (simulated with the fault forced) differ at an output."""
    inputs = circuit.inputs
    reset = tuple(False for _ in circuit.dffs)
    states = {(reset, reset)}
    for frame in range(max_depth + 1):
        successors = set()
        for good_state, bad_state in states:
            for bits in range(2 ** len(inputs)):
                vector = {name: bool(bits >> i & 1)
                          for i, name in enumerate(inputs)}
                good = simulate(circuit, vector,
                                dict(zip(circuit.dffs, good_state)))
                bad = simulate(circuit, vector,
                               dict(zip(circuit.dffs, bad_state)),
                               faults={fault.node: fault.value})
                if any(good[out] != bad[out] for out in circuit.outputs):
                    return frame
                successors.add(
                    (tuple(next_state(circuit, good).values()),
                     tuple(next_state(circuit, bad).values())))
        states = successors
    return None


class TestShortestSequences:
    @pytest.mark.parametrize("circuit, depth", [
        (shift_register(3), 8), (binary_counter(3), 12)],
        ids=["shift3", "cnt3"])
    def test_detect_frame_is_the_first_distinguishing_frame(
            self, circuit, depth):
        """Every stuck-at fault, DFF outputs included: SAT finds a
        sequence exactly at the first frame where one exists, and the
        sequence replays."""
        for fault in full_fault_list(circuit, include_state=True):
            result = SequentialATPG(circuit, fault).solve(depth)
            expected = earliest_detect_frame(circuit, fault, depth)
            assert result.detect_frame == expected, str(fault)
            if expected is None:
                assert result.outcome is \
                    SequenceOutcome.UNDETECTABLE_WITHIN_BOUND
            else:
                assert validate_sequence(circuit, result), str(fault)
