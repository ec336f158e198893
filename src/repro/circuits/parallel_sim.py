"""Bit-parallel circuit simulation, pattern- and fault-parallel.

The classic EDA trick: a Python integer carries one bit per simulated
machine, so a single pass of bitwise operations simulates them all at
once.  Fault simulation -- the inner loop of every ATPG flow (Section
3) -- is where this pays, in two directions:

* *pattern-parallel* (:func:`simulate_parallel`,
  :func:`parallel_fault_simulate`): bit *i* is test pattern *i*; the
  good machine is simulated once per block and each fault once
  against the whole block.  This grades many patterns at a time
  (random-pattern fault grading, re-checking a finished test set).
* *fault-parallel* (:func:`fault_parallel_detects`): bit 0 is the good
  machine and bit *i* the machine with fault *i*, all under one
  pattern, so one pass drops every fault a freshly generated test
  vector detects -- the per-vector fault dropping of deterministic
  ATPG.

Word width is unbounded (Python ints), so a word can carry thousands
of patterns or faults; helpers pack/unpack between vector dicts and
pattern words.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.circuits.faults import StuckAtFault
from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit


def pack_vectors(circuit: Circuit,
                 vectors: Sequence[Dict[str, bool]]
                 ) -> Dict[str, int]:
    """Pack per-pattern input vectors into one word per input.

    Bit *i* of each word is pattern *i*'s value.
    """
    words = {name: 0 for name in circuit.inputs}
    for index, vector in enumerate(vectors):
        for name in circuit.inputs:
            if vector[name]:
                words[name] |= 1 << index
    return words


def unpack_word(word: int, num_patterns: int) -> List[bool]:
    """The per-pattern values of one packed node word."""
    return [bool((word >> index) & 1) for index in range(num_patterns)]


def simulate_parallel(circuit: Circuit, input_words: Dict[str, int],
                      num_patterns: int,
                      state_words: Optional[Dict[str, int]] = None,
                      faults: Optional[Dict[str, bool]] = None
                      ) -> Dict[str, int]:
    """Pattern-parallel two-valued simulation.

    *input_words* maps each primary input to a packed word; *faults*
    forces nodes to all-zeros/all-ones words (stuck lines).  Returns a
    packed word per node.
    """
    mask = (1 << num_patterns) - 1
    ones = mask
    state_words = state_words or {}
    faults = faults or {}
    words: Dict[str, int] = {}

    for name in circuit.topological_order():
        node = circuit.node(name)
        if node.gate_type is GateType.INPUT:
            value = input_words[name] & mask
        elif node.gate_type is GateType.DFF:
            value = state_words.get(name, 0) & mask
        elif node.gate_type is GateType.CONST0:
            value = 0
        elif node.gate_type is GateType.CONST1:
            value = ones
        else:
            operands = [words[f] for f in node.fanins]
            value = _gate_word(node.gate_type, operands, ones)
        if name in faults:
            value = ones if faults[name] else 0
        words[name] = value
    return words


def _gate_word(gate_type: GateType, operands: List[int],
               ones: int) -> int:
    if gate_type is GateType.AND or gate_type is GateType.NAND:
        value = ones
        for word in operands:
            value &= word
        return value if gate_type is GateType.AND else value ^ ones
    if gate_type is GateType.OR or gate_type is GateType.NOR:
        value = 0
        for word in operands:
            value |= word
        return value if gate_type is GateType.OR else value ^ ones
    if gate_type is GateType.XOR or gate_type is GateType.XNOR:
        value = 0
        for word in operands:
            value ^= word
        return value if gate_type is GateType.XOR else value ^ ones
    if gate_type is GateType.NOT:
        return operands[0] ^ ones
    if gate_type is GateType.BUFFER:
        return operands[0]
    raise ValueError(f"{gate_type.value} has no word semantics")


def parallel_fault_simulate(circuit: Circuit,
                            faults: Iterable[StuckAtFault],
                            vectors: Sequence[Dict[str, bool]]
                            ) -> Dict[StuckAtFault, Optional[int]]:
    """Pattern-parallel serial-fault simulation.

    For each fault, the index of the first detecting vector (``None``
    when the block detects nothing) -- same contract as
    :func:`repro.circuits.faults.fault_simulate`, typically an order
    of magnitude faster on non-trivial blocks.
    """
    num_patterns = len(vectors)
    if num_patterns == 0:
        return {fault: None for fault in faults}
    input_words = pack_vectors(circuit, vectors)
    good = simulate_parallel(circuit, input_words, num_patterns)

    results: Dict[StuckAtFault, Optional[int]] = {}
    for fault in faults:
        bad = simulate_parallel(circuit, input_words, num_patterns,
                                faults={fault.node: fault.value})
        difference = 0
        for output in circuit.outputs:
            difference |= good[output] ^ bad[output]
        if difference:
            results[fault] = (difference & -difference).bit_length() - 1
        else:
            results[fault] = None
    return results


def fault_parallel_detects(circuit: Circuit,
                           faults: Sequence[StuckAtFault],
                           vector: Dict[str, bool]) -> List[bool]:
    """Fault-parallel simulation of one input *vector*.

    Bit 0 of each node's word is the good machine, bit *i* the machine
    with ``faults[i - 1]``.  A faulty machine's stuck bit is forced
    right after its node is evaluated -- where
    :func:`repro.circuits.simulate.simulate` forces it -- so faults on
    primary inputs and outputs behave exactly as there.  Returns, per
    fault, whether some primary output differs from the good machine:
    the flag :func:`repro.circuits.faults.detects` computes with two
    serial passes.  Like ``simulate``, a vector missing a primary input
    raises ``KeyError``.  Combinational circuits only.
    """
    if circuit.is_sequential():
        raise ValueError("fault-parallel simulation is combinational "
                         "only")
    ones = (1 << (len(faults) + 1)) - 1
    stuck_one: Dict[str, int] = {}
    stuck_zero: Dict[str, int] = {}
    for bit, fault in enumerate(faults, start=1):
        masks = stuck_one if fault.value else stuck_zero
        masks[fault.node] = masks.get(fault.node, 0) | (1 << bit)

    words: Dict[str, int] = {}
    for name in circuit.topological_order():
        node = circuit.node(name)
        if node.gate_type is GateType.INPUT:
            value = ones if vector[name] else 0
        elif node.gate_type is GateType.CONST0:
            value = 0
        elif node.gate_type is GateType.CONST1:
            value = ones
        else:
            value = _gate_word(node.gate_type,
                               [words[f] for f in node.fanins], ones)
        if name in stuck_one:
            value |= stuck_one[name]
        if name in stuck_zero:
            value &= ~stuck_zero[name]
        words[name] = value

    difference = 0
    for output in circuit.outputs:
        word = words[output]
        difference |= word ^ (ones if word & 1 else 0)
    return [bool((difference >> bit) & 1)
            for bit in range(1, len(faults) + 1)]


def random_pattern_coverage(circuit: Circuit,
                            faults: Sequence[StuckAtFault],
                            num_patterns: int = 64,
                            seed: int = 0
                            ) -> Tuple[Dict[StuckAtFault,
                                            Optional[int]], float]:
    """Random-pattern fault grading: detection map plus coverage.

    The standard front-end of deterministic ATPG -- random patterns
    detect the easy faults; SAT targets the survivors.
    """
    import random as _random

    rng = _random.Random(seed)
    vectors = [{name: rng.random() < 0.5 for name in circuit.inputs}
               for _ in range(num_patterns)]
    detection = parallel_fault_simulate(circuit, faults, vectors)
    detected = sum(1 for hit in detection.values() if hit is not None)
    coverage = detected / len(faults) if faults else 1.0
    return detection, coverage
