"""Two- and three-valued circuit simulation.

Simulation is the substrate several applications lean on:

* ATPG (Section 3) checks test vectors by good/faulty simulation
  (the serial reference for :mod:`repro.circuits.parallel_sim`),
* equivalence checking uses random simulation as a cheap prefilter
  before invoking SAT on the miter,
* BMC cross-checks counterexample traces,
* the test suite validates every CNF encoding against simulation.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.circuits.gates import GateType, evaluate_gate, evaluate_gate3
from repro.circuits.netlist import Circuit


def simulate(circuit: Circuit, inputs: Dict[str, bool],
             state: Optional[Dict[str, bool]] = None,
             faults: Optional[Dict[str, bool]] = None) -> Dict[str, bool]:
    """Two-valued simulation of the combinational part of *circuit*.

    *inputs* maps every primary input to a value; *state* maps every DFF
    output (required when the circuit is sequential).  *faults*
    optionally forces node outputs to fixed values -- the single
    stuck-at fault model of Section 3 (``{"n5": False}`` simulates n5
    stuck-at-0).

    Returns the value of every node.
    """
    values: Dict[str, bool] = {}
    state = state or {}
    faults = faults or {}
    for name in circuit.topological_order():
        node = circuit.node(name)
        if node.gate_type is GateType.INPUT:
            if name not in inputs:
                raise KeyError(f"no value for primary input {name!r}")
            value = bool(inputs[name])
        elif node.gate_type is GateType.DFF:
            if name not in state:
                raise KeyError(f"no state value for DFF {name!r}")
            value = bool(state[name])
        else:
            value = evaluate_gate(node.gate_type,
                                  [values[f] for f in node.fanins])
        if name in faults:
            value = bool(faults[name])
        values[name] = value
    return values


def simulate3(circuit: Circuit, inputs: Dict[str, Optional[bool]],
              state: Optional[Dict[str, Optional[bool]]] = None
              ) -> Dict[str, Optional[bool]]:
    """Three-valued (0/1/X) simulation; missing inputs default to X.

    Used to check that a *partial* input assignment (e.g. from the
    justification-frontier solver of Section 5) already determines the
    objective, i.e. that unassigned inputs are genuine don't-cares.
    """
    values: Dict[str, Optional[bool]] = {}
    state = state or {}
    for name in circuit.topological_order():
        node = circuit.node(name)
        if node.gate_type is GateType.INPUT:
            values[name] = inputs.get(name)
        elif node.gate_type is GateType.DFF:
            values[name] = state.get(name)
        else:
            values[name] = evaluate_gate3(
                node.gate_type, [values[f] for f in node.fanins])
    return values


def next_state(circuit: Circuit, values: Dict[str, bool]) -> Dict[str, bool]:
    """Extract the next-state vector from a simulation result.

    Each DFF samples its data input; the returned dict maps DFF names to
    the values they hold after the clock edge.
    """
    result = {}
    for dff in circuit.dffs:
        data = circuit.node(dff).fanins
        if not data:
            raise ValueError(f"DFF {dff!r} has no data input")
        result[dff] = values[data[0]]
    return result


def simulate_sequence(circuit: Circuit,
                      input_vectors: Sequence[Dict[str, bool]],
                      initial_state: Optional[Dict[str, bool]] = None
                      ) -> List[Dict[str, bool]]:
    """Clock the sequential circuit through *input_vectors*.

    Starts from *initial_state* (all-zero by default) and returns the
    full node-value map of every cycle.  BMC counterexample traces are
    replayed through this function as an independent check.
    """
    state = dict(initial_state) if initial_state else \
        {dff: False for dff in circuit.dffs}
    frames = []
    for vector in input_vectors:
        values = simulate(circuit, vector, state)
        frames.append(values)
        state = next_state(circuit, values)
    return frames


def random_vector(circuit: Circuit,
                  rng: Union[int, random.Random, None] = None
                  ) -> Dict[str, bool]:
    """A uniformly random primary-input vector."""
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    return {name: rng.random() < 0.5 for name in circuit.inputs}


def output_values(circuit: Circuit,
                  values: Dict[str, bool]) -> Dict[str, bool]:
    """Project a node-value map onto the primary outputs."""
    return {name: values[name] for name in circuit.outputs}


def exhaustive_truth_table(circuit: Circuit,
                           max_inputs: int = 16) -> Dict[tuple, tuple]:
    """The full truth table: input tuple -> output tuple.

    Refuses to enumerate more than ``2**max_inputs`` rows.  The test
    suite uses this to compare circuits and their CNF encodings on
    small examples.
    """
    names = circuit.inputs
    if len(names) > max_inputs:
        raise ValueError(f"{len(names)} inputs exceed max_inputs={max_inputs}")
    table = {}
    for index in range(1 << len(names)):
        vector = {name: bool((index >> bit) & 1)
                  for bit, name in enumerate(names)}
        values = simulate(circuit, vector)
        key = tuple(vector[name] for name in names)
        table[key] = tuple(values[name] for name in circuit.outputs)
    return table


def counts_agreeing(circuit_a: Circuit, circuit_b: Circuit,
                    vectors: Iterable[Dict[str, bool]]) -> int:
    """How many of *vectors* produce identical output tuples on the two
    circuits (which must share input and output names)."""
    agree = 0
    for vector in vectors:
        out_a = output_values(circuit_a, simulate(circuit_a, vector))
        out_b = output_values(circuit_b, simulate(circuit_b, vector))
        if out_a == out_b:
            agree += 1
    return agree
