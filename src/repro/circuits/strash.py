"""Structural hashing (strash) for netlists.

Merges gates computing syntactically identical functions -- same type,
same (order-normalized) fanins -- into one representative.  Miters are
the prime consumer (paper Section 3): structurally similar circuit
pairs share most of their logic, and hashing the shared cone away
before invoking SAT shrinks the instance, often collapsing identical
regions to a constant.  This is the structural component of the hybrid
equivalence checkers the paper cites [16, 26].

Constant propagation hooks in through the existing sweep pass; DFFs
are never merged (conservative for sequential semantics).

:class:`HashedEncoding` re-encodes an encoded circuit after hashing,
over the same variables, and derives the result from the original
clauses (RUP lemmas per merge), so a proof about the hashed formula
checks against the unhashed one.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit
from repro.circuits.tseitin import CircuitEncoding, encode_nodes

#: gate types whose fanin order is irrelevant.
_COMMUTATIVE = frozenset({
    GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
    GateType.XOR, GateType.XNOR,
})


def structural_hash(circuit: Circuit) -> Circuit:
    """A functionally equivalent copy with duplicate gates merged.

    Primary outputs keep their names (a buffer is inserted when the
    named node merged into a representative); inputs and DFFs are
    preserved verbatim.
    """
    return _hash(circuit)[0]


def _hash(circuit: Circuit
          ) -> Tuple[Circuit, Dict[str, str], List[Tuple[str, str]]]:
    """Hash *circuit*; returns ``(hashed, representative, merges)``.

    ``representative`` maps every node that left the netlist (a merged
    gate or a spliced buffer) to the node it reads as once resolved
    (see ``resolve``); ``merges`` lists, in topological order, each
    gate whose key matched an earlier gate, with that gate (its twin).
    A merged output stays as a buffer of its twin.
    """
    circuit.validate()
    representative: Dict[str, str] = {}
    merges: List[Tuple[str, str]] = []
    by_key: Dict[Tuple, str] = {}
    hashed = Circuit(circuit.name + "_strash")

    def resolve(name: str) -> str:
        while name in representative:
            name = representative[name]
        return name

    for name in circuit.topological_order():
        node = circuit.node(name)
        if node.gate_type is GateType.INPUT:
            hashed.add_input(name)
            continue
        if node.gate_type is GateType.DFF:
            # A DFF is a source: its data input may merge later in the
            # walk, so it is connected once the walk is over.
            hashed.add_dff(name)
            continue
        fanins = tuple(resolve(f) for f in node.fanins)
        if node.gate_type in _COMMUTATIVE:
            key_fanins: Tuple = tuple(sorted(fanins))
        else:
            key_fanins = fanins
        # A buffer is a wire: merge it with its driver outright unless
        # its name must survive as an output.
        if node.gate_type is GateType.BUFFER and \
                name not in circuit.outputs:
            representative[name] = fanins[0]
            continue
        key = (node.gate_type, key_fanins)
        existing = by_key.get(key)
        if existing is not None:
            merges.append((name, existing))
            if name in circuit.outputs:
                hashed.add_gate(name, GateType.BUFFER, [existing])
            else:
                representative[name] = existing
            continue
        by_key[key] = name
        if node.gate_type in (GateType.CONST0, GateType.CONST1):
            hashed.add_const(name,
                             node.gate_type is GateType.CONST1)
        else:
            hashed.add_gate(name, node.gate_type, list(fanins))
    for dff in circuit.dffs:
        hashed.connect_dff(dff, resolve(circuit.node(dff).fanins[0]))
    for output in circuit.outputs:
        hashed.set_output(resolve(output))
    return hashed, {name: resolve(name) for name in representative}, \
        merges


class HashedEncoding:
    """An encoded circuit, hashed and encoded again over its variables.

    ``formula`` holds Table 1 over the hashed netlist: every surviving
    node keeps its variable from the original encoding, and removed
    nodes' variables occur in no clause.  ``gates`` and ``merged``
    count the netlist's gates and how many hashing removed.
    :meth:`prove` is a ``prefix`` for
    :func:`repro.verify.certificate.certified_solve`.
    """

    def __init__(self, encoding: CircuitEncoding):
        circuit = encoding.circuit
        hashed, representative, merges = _hash(circuit)
        var_of = encoding.var_of
        self.gates = circuit.num_gates()
        self.merged = self.gates - hashed.num_gates()
        self._original = encoding.formula
        self.formula = CNFFormula(encoding.formula.num_vars)
        encode_nodes(hashed, var_of.__getitem__, self.formula.add_clause)
        #: (removed node's variable, the variable it reads as)
        self._aliases = [(var_of[name], var_of[kept])
                         for name, kept in representative.items()]
        self._lemmas: List[List[int]] = []
        for name, twin in merges:
            node = circuit.node(name)
            fanins = sorted(representative.get(f, f)
                            for f in node.fanins)
            self._lemmas.extend(_merge_lemmas(
                node.gate_type, var_of[name], var_of[twin],
                [var_of[f] for f in dict.fromkeys(fanins[:-1])]))

    def prove(self, sink) -> "HashedEncoding":
        """Write the lines deriving ``formula`` from the original
        formula into *sink*: each merge's lemmas in topological order,
        then every hashed clause the original lacks, each RUP once the
        lemmas are in."""
        for lemma in self._lemmas:
            sink.add(lemma)
        given = self._original.clause_set()
        for clause in self.formula:
            if clause not in given:
                sink.add(clause)
        return self

    def lift(self, assignment: Assignment) -> None:
        """Complete a model of ``formula`` into one of the original
        encoding: each removed node takes its representative's value
        (hashing only merges nodes of equal value)."""
        for var, kept in self._aliases:
            assignment.assign(var, assignment.value_of(kept))


def _merge_lemmas(gate_type: GateType, var: int, twin: int,
                  split: List[int]) -> List[List[int]]:
    """RUP lemmas proving ``var <-> twin`` for two gates of *gate_type*
    whose fanins already read as the same variables.

    For most gates each direction is one binary that unit propagation
    reaches through the fanins.  A parity gate propagates only once
    all but one fanin are known, so each direction is first proved
    under every assignment of the *split* variables (all distinct
    fanins but the last), longest clauses first: 2^k - 1 lemmas per
    direction for k distinct fanins.
    """
    parity = gate_type in (GateType.XOR, GateType.XNOR)
    lemmas = []
    for left, right in ((var, twin), (twin, var)):
        if parity:
            for size in range(len(split), 0, -1):
                for signs in itertools.product((1, -1), repeat=size):
                    lemmas.append([-left, right] + [
                        sign * fanin
                        for sign, fanin in zip(signs, split)])
        lemmas.append([-left, right])
    return lemmas
