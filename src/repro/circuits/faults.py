"""The single stuck-at fault model (paper Section 3, ATPG).

A stuck-at fault fixes one circuit node to a constant regardless of the
logic driving it.  This module provides the fault universe, fault
simulation (via :func:`repro.circuits.simulate.simulate` fault
injection) and faulty-circuit construction used by the SAT-based test
generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit
from repro.circuits.simulate import simulate


@dataclass(frozen=True, order=True)
class StuckAtFault:
    """Node *node* stuck at value *value* (0 or 1)."""

    node: str
    value: bool

    def __str__(self) -> str:
        return f"{self.node}/sa{int(self.value)}"


def full_fault_list(circuit: Circuit,
                    include_inputs: bool = True,
                    include_state: bool = False) -> List[StuckAtFault]:
    """Both stuck-at faults on every gate output (and PI when requested).

    This is the *stem* fault universe.  ``include_state`` adds faults
    on DFF outputs (meaningful for sequential ATPG only; combinational
    tools treat state as free pseudo-inputs).
    """
    faults = []
    for node in circuit:
        if node.gate_type is GateType.DFF and not include_state:
            continue
        if node.is_input and not include_inputs:
            continue
        if node.gate_type in (GateType.CONST0, GateType.CONST1):
            continue
        faults.append(StuckAtFault(node.name, False))
        faults.append(StuckAtFault(node.name, True))
    return faults


FAULT_NODE = "__fault__"


def inject_fault(circuit: Circuit, fault: StuckAtFault,
                 name: Optional[str] = None) -> Circuit:
    """A copy of *circuit* with *fault* hard-wired.

    The faulty circuit keeps the exact primary-input list of the good
    circuit (so miters and shared test vectors line up): the fault site
    keeps its logic, but a constant node ``__fault__`` replaces it in
    the fanin of every downstream gate (and in the output list when the
    site is a primary output).
    """
    if fault.node not in circuit:
        raise ValueError(f"unknown fault site {fault.node!r}")
    if FAULT_NODE in circuit:
        raise ValueError(f"circuit already contains a {FAULT_NODE} node")
    faulty = Circuit(name or f"{circuit.name}_{fault}")
    faulty.add_const(FAULT_NODE, fault.value)

    def redirect(fanins):
        return tuple(FAULT_NODE if f == fault.node else f for f in fanins)

    for node in circuit:
        if node.is_input:
            faulty.add_input(node.name)
        elif node.gate_type is GateType.DFF:
            fanin = redirect(node.fanins)
            faulty.add_dff(node.name, fanin[0] if fanin else None)
        elif node.gate_type in (GateType.CONST0, GateType.CONST1):
            faulty.add_const(node.name,
                             node.gate_type is GateType.CONST1)
        else:
            faulty.add_gate(node.name, node.gate_type,
                            redirect(node.fanins))
    for output in circuit.outputs:
        faulty.set_output(FAULT_NODE if output == fault.node else output)
    return faulty


def detects(circuit: Circuit, fault: StuckAtFault,
            vector: Dict[str, bool],
            state: Optional[Dict[str, bool]] = None) -> bool:
    """True when *vector* produces different primary outputs on the
    good and faulty circuit (fault detected)."""
    good = simulate(circuit, vector, state)
    bad = simulate(circuit, vector, state, faults={fault.node: fault.value})
    return any(good[out] != bad[out] for out in circuit.outputs)


def fault_simulate(circuit: Circuit, faults: Iterable[StuckAtFault],
                   vectors: Sequence[Dict[str, bool]]
                   ) -> Dict[StuckAtFault, Optional[int]]:
    """Serial fault simulation: for each fault, the index of the first
    detecting vector (``None`` when undetected).

    The serial reference: one good and one faulty
    :func:`~repro.circuits.simulate.simulate` pass per (fault, vector)
    pair.  ATPG fault dropping and random-pattern grading run the
    bit-parallel simulators of :mod:`repro.circuits.parallel_sim`,
    which the tests hold equal to this function and :func:`detects`.
    """
    result: Dict[StuckAtFault, Optional[int]] = {f: None for f in faults}
    goods = [simulate(circuit, vector) for vector in vectors]
    for fault in result:
        for index, vector in enumerate(vectors):
            bad = simulate(circuit, vector,
                           faults={fault.node: fault.value})
            good = goods[index]
            if any(good[out] != bad[out] for out in circuit.outputs):
                result[fault] = index
                break
    return result


def collapse_equivalent(circuit: Circuit,
                        faults: Iterable[StuckAtFault]
                        ) -> List[StuckAtFault]:
    """Cheap structural fault collapsing.

    For a gate with a controlling value c and inversion parity i, the
    output stuck-at (c XOR i) fault is equivalent to any input stuck-at
    c fault; we keep the output representative.  This shrinks the fault
    list the ATPG engine iterates over without changing coverage.
    """
    from repro.circuits.gates import controlling_value, inversion_parity

    dropped = set()
    for node in circuit:
        if not node.is_gate or not node.fanins:
            continue
        control = controlling_value(node.gate_type)
        parity = inversion_parity(node.gate_type)
        if control is None or parity is None:
            continue
        # input stuck-at control ~ output stuck-at (control ^ parity)
        for fanin in node.fanins:
            if len(circuit.fanout(fanin)) == 1:
                dropped.add(StuckAtFault(fanin, control))
    return [f for f in faults if f not in dropped]
