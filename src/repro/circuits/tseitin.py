"""Circuit-to-CNF encoding (paper Section 2, Table 1).

"The CNF formula of a combinational circuit is the conjunction of the
CNF formulas for each gate output" -- this module implements exactly
that construction, plus the objective/property constraints of Figure 1
("With property z = 0").

The encoding is the satisfiability-equivalent (Tseitin-style) one: each
circuit node gets a CNF variable, each gate contributes its Table 1
clauses, and any property is a set of unit (or richer) constraints over
node variables.

:func:`encode_nodes` is the only code that turns a netlist into those
clauses.  :func:`encode_circuit` wraps it for one frame in a formula;
bounded model checking calls it per time frame, and ATPG per fault on
the fault's cones (:func:`repro.apps.atpg.encode_fault_cone`, the one
cone encoder, whose good and faulty cones meet in
:func:`add_difference`).  :func:`build_miter` is the only code that
composes two circuits into one: the miter of equivalence checking
and, for sequential circuits, the product machine that bounded
sequential equivalence unrolls.  Every clause goes to the caller's
``add_clause`` -- a formula's or a persistent solver's -- which puts
it in normal form (:meth:`repro.cnf.formula.CNFFormula.add_clause`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.circuits.gates import GateType, gate_cnf_clauses
from repro.circuits.netlist import Circuit


@dataclass
class CircuitEncoding:
    """The result of encoding a circuit: formula plus variable maps.

    ``var_of`` maps node name to CNF variable; ``node_of`` is the
    inverse.  Both survive formula growth (callers may add property
    clauses to ``formula`` afterwards).
    """

    circuit: Circuit
    formula: CNFFormula
    var_of: Dict[str, int] = field(default_factory=dict)
    node_of: Dict[int, str] = field(default_factory=dict)

    def literal(self, name: str, value: bool = True) -> int:
        """The literal asserting node *name* carries *value*."""
        var = self.var_of[name]
        return var if value else -var

    def input_vector(self, assignment: Assignment,
                     default: Optional[bool] = None
                     ) -> Dict[str, Optional[bool]]:
        """Extract primary-input values from a CNF assignment.

        Unassigned inputs, and inputs a cone encoding leaves out, map
        to *default* (``None`` keeps them as don't-cares, which is what
        the overspecification experiment C5 measures).
        """
        vector: Dict[str, Optional[bool]] = {}
        for name in self.circuit.inputs:
            var = self.var_of.get(name)
            value = None if var is None else assignment.value_of(var)
            vector[name] = default if value is None else value
        return vector


def encode_nodes(circuit: Circuit,
                 new_var: Callable[[str], int],
                 add_clause: Callable[[List[int]], object],
                 given: Optional[Dict[str, int]] = None,
                 previous: Optional[Dict[str, int]] = None,
                 initial: Optional[Dict[str, bool]] = None,
                 nodes: Optional[Iterable[str]] = None
                 ) -> Dict[str, int]:
    """Table 1 over *circuit*: the one netlist-to-clauses construction.

    Walks the topological order, or only *nodes* when given (a cone,
    listed in topological order, whose fanins outside it are named in
    *given*).  A node named in *given* keeps that variable and
    contributes no clauses (good-circuit signals feeding a fault's
    fanout); every other node gets ``new_var(name)``, and each gate
    sends its Table 1 clauses to ``add_clause``.  A DFF output is a copy of its data input's
    variable in the *previous* frame when one is given, else fixed to
    its *initial* value when those are given, else a free
    pseudo-input (the single-frame view).  Returns node name ->
    variable for every given and walked node.
    """
    var_of: Dict[str, int] = dict(given or {})
    for name in (circuit.topological_order() if nodes is None
                 else nodes):
        if name in var_of:
            continue
        var = var_of[name] = new_var(name)
        node = circuit.node(name)
        if node.gate_type is GateType.INPUT:
            continue
        if node.gate_type is GateType.DFF:
            if previous is not None:
                data = previous[node.fanins[0]]
                # q_t == data_{t-1}
                add_clause([-var, data])
                add_clause([var, -data])
            elif initial is not None:
                add_clause([var if initial[name] else -var])
            continue
        for clause in gate_cnf_clauses(node.gate_type, var,
                                       [var_of[f] for f in node.fanins]):
            add_clause(clause)
    return var_of


def add_difference(pairs: Iterable[Tuple[int, int]],
                   new_var: Callable[[str], int],
                   add_clause: Callable[[List[int]], object]) -> int:
    """The variable of OR_i (a_i XOR b_i) over literal *pairs*.

    The miter output of Section 3 built directly on two encoded
    machines (ATPG's good and faulty cones): it is true exactly when
    some pair differs, so assuming it asks for a distinguishing input.
    Over no pairs it is fixed false (nothing can differ), so assuming
    it is refuted at once.
    """
    xor_vars = []
    for index, (left, right) in enumerate(pairs):
        xor_var = new_var(f"diff_{index}")
        for clause in gate_cnf_clauses(GateType.XOR, xor_var,
                                       [left, right]):
            add_clause(clause)
        xor_vars.append(xor_var)
    diff = new_var("diff")
    if not xor_vars:
        add_clause([-diff])
        return diff
    for clause in gate_cnf_clauses(GateType.OR, diff, xor_vars):
        add_clause(clause)
    return diff


def encode_circuit(circuit: Circuit,
                   formula: Optional[CNFFormula] = None,
                   var_prefix: str = "") -> CircuitEncoding:
    """Encode the combinational part of *circuit* into CNF.

    Every node receives a fresh variable in *formula*, named
    ``var_prefix + node`` (a new formula is created when none is given
    -- passing one supports composing several circuits, e.g. miters,
    into a single variable space).  DFF outputs are free pseudo-inputs
    (the single-frame view used by combinational applications); BMC
    unrolls frames with :func:`encode_nodes`.
    """
    formula = formula if formula is not None else CNFFormula()
    encoding = CircuitEncoding(circuit, formula)
    encoding.var_of = encode_nodes(
        circuit, lambda name: formula.new_var(var_prefix + name),
        formula.add_clause)
    encoding.node_of = {var: name
                        for name, var in encoding.var_of.items()}
    return encoding


def add_objective(encoding: CircuitEncoding,
                  objectives: Dict[str, bool]) -> None:
    """Constrain node values with unit clauses (Figure 1's property).

    ``add_objective(enc, {"z": False})`` reproduces the paper's
    "with property z = 0" construction.
    """
    for name, value in objectives.items():
        encoding.formula.add_clause([encoding.literal(name, value)])


def encode_with_objective(circuit: Circuit,
                          objectives: Dict[str, bool]) -> CircuitEncoding:
    """Convenience: encode the circuit and constrain *objectives*."""
    encoding = encode_circuit(circuit)
    add_objective(encoding, objectives)
    return encoding


def build_miter(circuit_a: Circuit, circuit_b: Circuit,
                name: str = "miter") -> Tuple[Circuit, List[str]]:
    """Compose two circuits into a miter (Section 3, equivalence
    checking).

    Both circuits must have identical primary-input name lists and
    equally many outputs.  The miter shares the inputs, XORs each
    output pair and ORs the XORs into a single output ``miter_out``
    (a constant 0 over no pairs); the circuits differ on some vector
    iff ``miter_out`` can be set to 1.  Sequential circuits compose
    into their product machine: each machine's DFFs keep their
    ``a_``/``b_`` names and prefixed data inputs.

    Returns the miter circuit and the list of per-output XOR node names
    (useful for output-by-output equivalence queries).
    """
    if list(circuit_a.inputs) != list(circuit_b.inputs):
        raise ValueError("miter requires identical input name lists")
    if len(circuit_a.outputs) != len(circuit_b.outputs):
        raise ValueError("miter requires equally many outputs")

    renamed_a = circuit_a.renamed("a_")
    renamed_b = circuit_b.renamed("b_")
    miter = Circuit(name)
    for input_name in circuit_a.inputs:
        miter.add_input(input_name)

    def splice(renamed: Circuit, prefix: str) -> None:
        for node in renamed:
            if node.gate_type is GateType.INPUT:
                # Shared inputs: replace the renamed PI with a buffer of
                # the common input so downstream names stay consistent.
                original = node.name[len(prefix):]
                miter.add_gate(node.name, GateType.BUFFER, [original])
            elif node.gate_type is GateType.DFF:
                miter.add_dff(node.name,
                              node.fanins[0] if node.fanins else None)
            else:
                miter.add_gate(node.name, node.gate_type, node.fanins)

    splice(renamed_a, "a_")
    splice(renamed_b, "b_")

    xor_names = []
    for out_a, out_b in zip(renamed_a.outputs, renamed_b.outputs):
        xor_name = f"diff_{out_a[2:]}"
        miter.add_gate(xor_name, GateType.XOR, [out_a, out_b])
        xor_names.append(xor_name)
    if not xor_names:
        miter.add_const("miter_out", False)
    elif len(xor_names) == 1:
        miter.add_gate("miter_out", GateType.BUFFER, xor_names)
    else:
        miter.add_gate("miter_out", GateType.OR, xor_names)
    miter.set_output("miter_out")
    return miter, xor_names


def encode_miter(circuit_a: Circuit,
                 circuit_b: Circuit) -> CircuitEncoding:
    """Encode the miter of two circuits with its output forced to 1.

    The resulting formula is satisfiable iff the circuits are NOT
    equivalent; a model gives a distinguishing input vector.
    """
    miter, _ = build_miter(circuit_a, circuit_b)
    return encode_with_objective(miter, {"miter_out": True})
