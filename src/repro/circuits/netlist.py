"""The :class:`Circuit` netlist model (paper Sections 2 and 5).

A circuit is a named DAG of gates.  The model covers:

* combinational logic built from the Table 1 gate types,
* sequential elements (``DFF``) whose outputs act as pseudo primary
  inputs and whose inputs act as pseudo primary outputs -- the view
  bounded model checking (Section 3) needs for unrolling,
* the structural queries of Section 5: fanin ``FI(x)``, fanout
  ``FO(x)``, levelization, and cones of influence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.circuits.gates import (
    COMBINATIONAL_TYPES,
    GateType,
    check_arity,
)


@dataclass(frozen=True)
class Node:
    """A single circuit node: a primary input, gate, constant or DFF.

    ``fanins`` are the names of driver nodes, in gate-input order.
    """

    name: str
    gate_type: GateType
    fanins: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        check_arity(self.gate_type, len(self.fanins))

    @property
    def is_input(self) -> bool:
        """True for primary inputs."""
        return self.gate_type is GateType.INPUT

    @property
    def is_state(self) -> bool:
        """True for DFF (state) nodes."""
        return self.gate_type is GateType.DFF

    @property
    def is_gate(self) -> bool:
        """True for combinational logic nodes (including constants)."""
        return self.gate_type in COMBINATIONAL_TYPES


class CircuitError(ValueError):
    """Raised on structurally invalid circuit construction."""


class Circuit:
    """A named netlist with primary inputs, gates, DFFs and outputs.

    Nodes are added bottom-up (every fanin must already exist), which
    guarantees acyclicity of the combinational part by construction;
    DFFs may close feedback loops since their fanin is sampled at the
    clock edge, not combinationally.
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        self._dffs: List[str] = []
        self._order: List[str] = []          # insertion (topological) order
        self._fanouts: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_input(self, name: str) -> str:
        """Declare a primary input node."""
        self._insert(Node(name, GateType.INPUT))
        self._inputs.append(name)
        return name

    def add_gate(self, name: str, gate_type: GateType,
                 fanins: Iterable[str]) -> str:
        """Add a combinational gate driven by existing nodes."""
        if gate_type not in COMBINATIONAL_TYPES:
            raise CircuitError(f"{gate_type.value} is not a gate type; "
                               "use add_input/add_dff")
        node = Node(name, gate_type, tuple(fanins))
        for fanin in node.fanins:
            if fanin not in self._nodes:
                raise CircuitError(f"gate {name!r} references unknown "
                                   f"fanin {fanin!r}")
        self._insert(node)
        return name

    def add_const(self, name: str, value: bool) -> str:
        """Add a constant driver node."""
        gate_type = GateType.CONST1 if value else GateType.CONST0
        self._insert(Node(name, gate_type))
        return name

    def add_dff(self, name: str, data_input: Optional[str] = None) -> str:
        """Add a D flip-flop output node.

        The data input may be a forward reference or connected later via
        :meth:`connect_dff` (netlist formats reference DFF inputs before
        defining them); :meth:`validate` checks it is eventually wired.
        """
        fanins = (data_input,) if data_input is not None else ()
        self._insert(Node(name, GateType.DFF, fanins), allow_forward=True)
        self._dffs.append(name)
        return name

    def connect_dff(self, name: str, data_input: str) -> None:
        """Attach (or re-attach) the data input of DFF *name*."""
        node = self._nodes.get(name)
        if node is None or node.gate_type is not GateType.DFF:
            raise CircuitError(f"{name!r} is not a DFF")
        self._nodes[name] = Node(name, GateType.DFF, (data_input,))
        fanouts = self._fanouts.setdefault(data_input, [])
        if name not in fanouts:
            fanouts.append(name)

    def set_output(self, name: str) -> None:
        """Mark an existing node as a primary output."""
        if name not in self._nodes:
            raise CircuitError(f"unknown node {name!r}")
        if name not in self._outputs:
            self._outputs.append(name)

    def _insert(self, node: Node, allow_forward: bool = False) -> None:
        if node.name in self._nodes:
            raise CircuitError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._order.append(node.name)
        self._fanouts.setdefault(node.name, [])
        for fanin in node.fanins:
            if fanin in self._nodes or allow_forward:
                self._fanouts.setdefault(fanin, []).append(node.name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def inputs(self) -> List[str]:
        """Primary input names, in declaration order."""
        return list(self._inputs)

    @property
    def outputs(self) -> List[str]:
        """Primary output names, in declaration order."""
        return list(self._outputs)

    @property
    def dffs(self) -> List[str]:
        """DFF (state) node names, in declaration order."""
        return list(self._dffs)

    @property
    def nodes(self) -> Dict[str, Node]:
        """Name-to-node mapping (copy-on-read not enforced; treat as
        read-only)."""
        return self._nodes

    def node(self, name: str) -> Node:
        """The node called *name* (raises KeyError when absent)."""
        return self._nodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return (self._nodes[name] for name in self._order)

    def gate_names(self) -> List[str]:
        """Names of combinational gate nodes, in topological order."""
        return [name for name in self._order
                if self._nodes[name].is_gate]

    def num_gates(self) -> int:
        """Number of combinational gates."""
        return len(self.gate_names())

    def is_sequential(self) -> bool:
        """True when the circuit contains DFFs."""
        return bool(self._dffs)

    def fanin(self, name: str) -> Tuple[str, ...]:
        """FI(x): the fanin node names of *name* (Section 5)."""
        return self._nodes[name].fanins

    def fanout(self, name: str) -> List[str]:
        """FO(x): the fanout node names of *name* (Section 5)."""
        return list(self._fanouts.get(name, ()))

    def topological_order(self) -> List[str]:
        """Node names with every combinational fanin before its fanout.

        This is the insertion order: :meth:`add_gate` accepts only
        fanins that already exist, and a DFF output is a source (its
        fanin crosses a clock edge), so no gate can reference a later
        node.
        """
        return list(self._order)

    def levelize(self) -> Dict[str, int]:
        """Logic level of every node: inputs/DFFs/constants at 0, each
        gate one more than its deepest fanin.  Used by delay computation
        (Section 3) and by levelized simulation."""
        levels: Dict[str, int] = {}
        for name in self.topological_order():
            node = self._nodes[name]
            if node.is_gate and node.fanins:
                levels[name] = 1 + max(levels[f] for f in node.fanins)
            else:
                levels[name] = 0
        return levels

    def depth(self) -> int:
        """The maximum logic level (topological circuit depth)."""
        levels = self.levelize()
        return max(levels.values()) if levels else 0

    def transitive_fanin(self, names: Iterable[str]) -> Set[str]:
        """All nodes in the cone of influence of *names* (inclusive)."""
        cone: Set[str] = set()
        stack = list(names)
        while stack:
            name = stack.pop()
            if name in cone:
                continue
            cone.add(name)
            node = self._nodes[name]
            if node.is_gate:
                stack.extend(node.fanins)
        return cone

    def transitive_fanout(self, names: Iterable[str]) -> Set[str]:
        """All nodes reachable from *names* through gate fanouts
        (inclusive); DFF boundaries are not crossed."""
        reached: Set[str] = set()
        stack = list(names)
        while stack:
            name = stack.pop()
            if name in reached:
                continue
            reached.add(name)
            for fanout in self._fanouts.get(name, ()):
                if self._nodes[fanout].is_gate:
                    stack.append(fanout)
        return reached

    def validate(self) -> None:
        """Check structural well-formedness; raises :class:`CircuitError`.

        Verifies that every fanin reference resolves, every DFF has a
        connected data input, and every output exists.  The
        combinational part is acyclic by construction (see
        :meth:`topological_order`).
        """
        for node in self:
            for fanin in node.fanins:
                if fanin not in self._nodes:
                    raise CircuitError(
                        f"node {node.name!r} references unknown fanin "
                        f"{fanin!r}")
        for dff in self._dffs:
            if not self._nodes[dff].fanins:
                raise CircuitError(f"DFF {dff!r} has no data input")
        for output in self._outputs:
            if output not in self._nodes:
                raise CircuitError(f"unknown output {output!r}")

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """A deep copy (nodes are immutable, so structure is rebuilt)."""
        out = Circuit(name or self.name)
        out._nodes = dict(self._nodes)
        out._inputs = list(self._inputs)
        out._outputs = list(self._outputs)
        out._dffs = list(self._dffs)
        out._order = list(self._order)
        out._fanouts = {k: list(v) for k, v in self._fanouts.items()}
        return out

    def renamed(self, prefix: str, name: Optional[str] = None) -> "Circuit":
        """A copy with every node name prefixed -- used when composing
        two circuits into a miter (Section 3) so namespaces stay
        disjoint."""
        mapping = {old: prefix + old for old in self._nodes}
        out = Circuit(name or (prefix + self.name))
        for old in self._order:
            node = self._nodes[old]
            renamed = Node(mapping[old], node.gate_type,
                           tuple(mapping[f] for f in node.fanins))
            out._nodes[renamed.name] = renamed
            out._order.append(renamed.name)
            out._fanouts.setdefault(renamed.name, [])
            for fanin in renamed.fanins:
                out._fanouts.setdefault(fanin, []).append(renamed.name)
        out._inputs = [mapping[n] for n in self._inputs]
        out._outputs = [mapping[n] for n in self._outputs]
        out._dffs = [mapping[n] for n in self._dffs]
        return out

    def stats(self) -> Dict[str, int]:
        """Summary counts used in experiment reports."""
        per_type: Dict[str, int] = {}
        for node in self:
            per_type[node.gate_type.value] = \
                per_type.get(node.gate_type.value, 0) + 1
        return {
            "nodes": len(self._nodes),
            "inputs": len(self._inputs),
            "outputs": len(self._outputs),
            "gates": self.num_gates(),
            "dffs": len(self._dffs),
            "depth": self.depth(),
            **{f"type_{k}": v for k, v in sorted(per_type.items())},
        }

    def __repr__(self) -> str:
        return (f"Circuit({self.name!r}, inputs={len(self._inputs)}, "
                f"gates={self.num_gates()}, outputs={len(self._outputs)}, "
                f"dffs={len(self._dffs)})")
