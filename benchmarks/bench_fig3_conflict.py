"""Experiment F3 -- regenerate paper Figure 3 (conflict analysis).

Replays the paper's worked trace on the reconstructed circuit: with
``w = 1`` and ``y3 = 0`` given, the decision ``x1 = 1`` forward-implies
``y1 = y2 = 0``, clashing with ``y3``; diagnosis must record exactly
the clause ``(x1' + w' + y3)``.  Complete clause-level BCP prevents
the scenario (it back-propagates ``x1 = 0`` first), so the trace runs
on the forward-implication engine the paper's example presumes; a CDCL
refutation then certifies the recorded clause as an implicate.
"""

from repro.circuits.library import figure3_circuit
from repro.circuits.tseitin import encode_circuit
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.forward_implication import (
    ForwardImplicationEngine,
    ImplicationConflict,
)

#: The printed conflict clause, byte for byte: the paper's clause.
EXPECTED = "(x1' + w' + y3)"


def derive_conflict_clause():
    circuit = figure3_circuit()
    encoding = encode_circuit(circuit)
    engine = ForwardImplicationEngine(circuit, encoding)
    engine.assign("w", True)
    engine.assign("y3", False)
    engine.propagate()
    engine.assign("x1", True)
    try:
        engine.propagate()
    except ImplicationConflict as conflict:
        return encoding, conflict.clause
    raise AssertionError("expected a conflict")


def test_fig3_conflict(benchmark, show):
    encoding, clause = benchmark(derive_conflict_clause)
    names = {var: name for name, var in encoding.var_of.items()}
    assert clause.to_str(names) == EXPECTED
    show("Paper Figure 3 -- conflict analysis example\n"
         f"assignments: w = 1, y3 = 0; decision x1 = 1\n"
         f"derived conflict clause: {clause.to_str(names)}\n"
         "paper's clause:          (x1' + w' + y3)")

    expected = {encoding.literal("x1", False),
                encoding.literal("w", False),
                encoding.literal("y3", True)}
    assert set(clause) == expected

    # Certify it is an implicate: circuit CNF + negation is UNSAT.
    probe = encoding.formula.copy()
    for lit in clause:
        probe.add_clause([-lit])
    assert CDCLSolver(probe).solve().is_unsat

    # And complete BCP indeed preempts the conflict: y3=0 & w=1 as
    # unit clauses force x1=0 by propagation alone.
    preempt = encoding.formula.copy()
    preempt.add_clause([encoding.literal("w", True)])
    preempt.add_clause([encoding.literal("y3", False)])
    from repro.cnf.simplify import propagate_units
    forced = propagate_units(preempt).forced
    assert forced.get(encoding.var_of["x1"]) is False
