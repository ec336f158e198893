#!/usr/bin/env python
"""Bounded model checking of sequential circuits (Section 3, [5]).

Unrolls a binary counter and a shift register, finds the exact depth
at which a property fails, extracts the counterexample input trace,
and replays it through the cycle-accurate simulator as an independent
check -- the "symbolic model checking without BDDs" flow on a SAT
engine with incremental frame addition.

Run:  python examples/bmc_counterexample.py
"""

from repro import check_safety
from repro.apps.bmc import BoundedModelChecker, verify_trace
from repro.circuits.generators import binary_counter, shift_register


def counter_demo():
    width = 3
    circuit = binary_counter(width)
    print(f"=== {width}-bit counter: when does 'rollover' pulse? ===")
    result = check_safety(circuit, "rollover", True, max_depth=12)
    print(f"counterexample depth: {result.failure_depth} "
          f"(expected {2 ** width - 1})")
    print("input trace (en per cycle):",
          [frame["en"] for frame in result.trace])
    print("replay through simulator confirms:",
          verify_trace(circuit, result, "rollover", True))
    print(f"solver work: {result.stats.propagations} propagations, "
          f"{result.stats.conflicts} conflicts\n")


def shift_register_demo():
    circuit = shift_register(4)
    print("=== 4-stage shift register: serial-in reaches the end ===")
    checker = BoundedModelChecker(circuit)
    result = checker.check_output("sout", True, max_depth=10)
    print(f"counterexample depth: {result.failure_depth} "
          "(latency of the register)")
    print("serial input trace:",
          [frame["sin"] for frame in result.trace])
    print("frames encoded:", len(checker.frames),
          "| depths solved on one solver:", result.failure_depth + 1)
    print()


def bounded_proof_demo():
    circuit = binary_counter(4)
    print("=== Bounded proof: no rollover within 10 cycles ===")
    result = check_safety(circuit, "rollover", True, max_depth=10)
    print("property holds up to depth", result.depths_proved - 1,
          "| failure found:", not result.property_holds)


if __name__ == "__main__":
    counter_demo()
    shift_register_demo()
    bounded_proof_demo()
