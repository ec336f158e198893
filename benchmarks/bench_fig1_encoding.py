"""Experiment F1 -- regenerate paper Figure 1 (circuit, CNF, property).

Prints the reconstructed Figure 1 circuit's CNF formula built from the
Table 1 per-gate formulas, adds the property ``z = 0``, and solves.
The benchmark measures the full encode-and-solve pipeline.
"""

from repro.circuits.bench_format import write_bench
from repro.circuits.library import figure1_circuit
from repro.circuits.simulate import simulate
from repro.circuits.tseitin import encode_with_objective
from repro.solvers.cdcl import CDCLSolver

#: The printed CNF of Figure 1 (11 gate clauses over 7 variables, then
#: the property clause), byte for byte; a change that moves it re-pins
#: it and reports the change.
EXPECTED = ("(a + w1') . (b + w1') . (a' + b' + w1) . (w1 + x) . "
            "(w1' + x') . (x' + w2) . (c' + w2) . (c + x + w2') . "
            "(w1 + z') . (w2 + z') . (w1' + w2' + z) . (z')")


def test_fig1_encoding(benchmark, show):
    circuit = figure1_circuit()
    encoding = encode_with_objective(circuit, {"z": False})
    assert encoding.formula.to_str() == EXPECTED
    show("Paper Figure 1 -- example circuit and CNF formula\n\n"
         + write_bench(circuit)
         + "\nphi = " + encoding.formula.to_str()
         + "\n      (last clause: the property z = 0)")

    def encode_and_solve():
        enc = encode_with_objective(figure1_circuit(), {"z": False})
        return enc, CDCLSolver(enc.formula).solve()

    enc, result = benchmark(encode_and_solve)
    assert result.is_sat
    vector = enc.input_vector(result.assignment, default=False)
    values = simulate(circuit, {k: bool(v) for k, v in vector.items()})
    assert values["z"] is False
