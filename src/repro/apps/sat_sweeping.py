"""SAT sweeping: prove and merge internal node equivalences.

The hybrid equivalence checkers the paper cites [16, 26] rest on one
observation: structurally similar circuits share many *functionally*
equivalent internal nodes, and proving those small internal
equivalences first makes the final output check trivial.  The modern
name is SAT sweeping:

1. simulate random patterns (bit-parallel) and bucket nodes by
   signature -- equal signatures are *candidate* equivalences,
   complementary signatures candidate antivalences;
2. walk candidates in topological order, asking the incremental SAT
   engine to refute each (``node_a != node_b`` under the circuit
   constraints);
3. UNSAT proves the pair equivalent: record it and add the equality
   as clauses, strengthening later queries;
4. a model is a fresh distinguishing pattern: feed it back into the
   signatures to split the buckets (counterexample-guided refinement).

:func:`sweep_circuit` returns the proved classes and a merged netlist;
:func:`check_equivalence_sweeping` runs the full CEC flow on a miter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit
from repro.circuits.parallel_sim import pack_vectors, simulate_parallel
from repro.circuits.tseitin import encode_circuit
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.result import SolverStats


@dataclass
class SweepReport:
    """Outcome of a sweeping pass; ``stats`` sums every query's
    search effort."""

    classes: List[Tuple[str, str, bool]] = field(default_factory=list)
    #: (node, representative, same_polarity) for every merged node
    sat_calls: int = 0
    refinements: int = 0
    merged_nodes: int = 0
    stats: SolverStats = field(default_factory=SolverStats)


class SATSweeper:
    """Counterexample-guided equivalence sweeping over one circuit."""

    def __init__(self, circuit: Circuit, patterns: int = 64,
                 seed: int = 0,
                 max_conflicts_per_pair: Optional[int] = 5000):
        circuit.validate()
        if circuit.is_sequential():
            raise ValueError("SAT sweeping is combinational")
        self.circuit = circuit
        self.patterns = patterns
        self.seed = seed
        self.encoding = encode_circuit(circuit)
        self.solver = CDCLSolver(self.encoding.formula,
                                 max_conflicts=max_conflicts_per_pair)

    def _signatures(self, vectors) -> Dict[str, int]:
        words = simulate_parallel(self.circuit,
                                  pack_vectors(self.circuit, vectors),
                                  len(vectors))
        return words

    def run(self) -> SweepReport:
        """Sweep the circuit; returns proved equivalence classes."""
        import random as _random

        rng = _random.Random(self.seed)
        vectors = [{name: rng.random() < 0.5
                    for name in self.circuit.inputs}
                   for _ in range(max(1, self.patterns))]
        report = SweepReport()
        mask = (1 << len(vectors)) - 1

        order = [name for name in self.circuit.topological_order()
                 if self.circuit.node(name).is_gate
                 or self.circuit.node(name).is_input]
        merged_into: Dict[str, Tuple[str, bool]] = {}

        signatures = self._signatures(vectors)
        for index, name in enumerate(order):
            if name in merged_into:
                continue
            word = signatures[name] & mask
            candidate = None
            same_polarity = True
            for earlier in order[:index]:
                if earlier in merged_into:
                    continue
                other = signatures[earlier] & mask
                if other == word:
                    candidate, same_polarity = earlier, True
                elif other == (word ^ mask):
                    candidate, same_polarity = earlier, False
                else:
                    continue
                proved, cex = self._prove(earlier, name, same_polarity,
                                          report)
                if proved:
                    merged_into[name] = (candidate, same_polarity)
                    report.classes.append((name, candidate,
                                           same_polarity))
                    break
                if cex is not None:
                    vectors.append(cex)
                    mask = (1 << len(vectors)) - 1
                    signatures = self._signatures(vectors)
                    report.refinements += 1
                    word = signatures[name] & mask
                candidate = None
        report.merged_nodes = len(merged_into)
        return report

    def _prove(self, left: str, right: str, same_polarity: bool,
               report: SweepReport
               ) -> Tuple[bool, Optional[Dict[str, bool]]]:
        """Refute ``left != right`` (or ``left != NOT right``),
        counting the query and its effort in *report*.

        Returns ``(proved, counterexample_vector)``.
        """
        var_left = self.encoding.var_of[left]
        var_right = self.encoding.var_of[right]
        # A fresh miter literal per query: m <-> (left XOR right),
        # negated for antivalence candidates.
        miter = self.solver.new_var()
        gate = GateType.XOR if same_polarity else GateType.XNOR
        from repro.circuits.gates import gate_cnf_clauses
        for clause in gate_cnf_clauses(gate, miter,
                                       [var_left, var_right]):
            self.solver.add_clause(clause)
        result = self.solver.solve(assumptions=[miter])
        report.sat_calls += 1
        report.stats.merge(result.stats)
        if result.is_unsat:
            # Record the proved relation as clauses: sharpens BCP for
            # every later query.
            if same_polarity:
                self.solver.add_clause([-var_left, var_right])
                self.solver.add_clause([var_left, -var_right])
            else:
                self.solver.add_clause([var_left, var_right])
                self.solver.add_clause([-var_left, -var_right])
            return True, None
        if result.is_sat:
            vector = {name: bool(value) if value is not None else False
                      for name, value in self.encoding.input_vector(
                          result.assignment).items()}
            return False, vector
        return False, None               # budget: treat as distinct


def sweep_circuit(circuit: Circuit, patterns: int = 64, seed: int = 0
                  ) -> Tuple[Circuit, SweepReport]:
    """Sweep and return the merged netlist plus the report."""
    sweeper = SATSweeper(circuit, patterns=patterns, seed=seed)
    report = sweeper.run()
    replacement: Dict[str, Tuple[str, bool]] = {
        name: (rep, same) for name, rep, same in report.classes}

    merged = Circuit(circuit.name + "_swept")

    def resolve(name: str) -> Tuple[str, bool]:
        same = True
        while name in replacement:
            name, polarity = replacement[name]
            if not polarity:
                same = not same
        return name, same

    inverters: Dict[str, str] = {}

    def literal_node(name: str) -> str:
        target, same = resolve(name)
        if same:
            return target
        if target not in inverters:
            inv_name = f"{target}__inv"
            if inv_name not in merged:
                merged.add_gate(inv_name, GateType.NOT, [target])
            inverters[target] = inv_name
        return inverters[target]

    for name in circuit.topological_order():
        node = circuit.node(name)
        if node.gate_type is GateType.INPUT:
            merged.add_input(name)
            continue
        if name in replacement and name not in circuit.outputs:
            continue
        fanins = [literal_node(f) for f in node.fanins]
        if name in replacement:        # an output merged into another
            merged.add_gate(name, GateType.BUFFER,
                            [literal_node(name)])
        elif node.gate_type in (GateType.CONST0, GateType.CONST1):
            merged.add_const(name,
                             node.gate_type is GateType.CONST1)
        else:
            merged.add_gate(name, node.gate_type, fanins)
    for output in circuit.outputs:
        merged.set_output(output)
    return merged, report


def check_equivalence_sweeping(circuit_a: Circuit, circuit_b: Circuit,
                               patterns: int = 64, seed: int = 0
                               ) -> Tuple[Optional[bool], SweepReport]:
    """CEC by sweeping the miter's internal equivalences first.

    After sweeping, each per-output XOR is queried directly on the
    sweeper's (clause-strengthened) solver.
    """
    from repro.circuits.tseitin import build_miter

    miter, xor_names = build_miter(circuit_a, circuit_b)
    sweeper = SATSweeper(miter, patterns=patterns, seed=seed)
    report = sweeper.run()
    equivalent: Optional[bool] = True
    for xor_name in xor_names:
        var = sweeper.encoding.var_of[xor_name]
        result = sweeper.solver.solve(assumptions=[var])
        report.sat_calls += 1
        report.stats.merge(result.stats)
        if result.is_sat:
            equivalent = False
            break
        if result.is_unknown:
            equivalent = None
            break
    return equivalent, report
