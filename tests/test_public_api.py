"""Public-API surface tests: imports, exports, docstrings.

A downstream user's first contact is ``from repro import ...``; these
tests pin the advertised names and the documentation contract (every
public module and export carries a docstring).
"""

import importlib
import inspect

import pytest

import repro
import repro.apps as apps

PUBLIC_MODULES = [
    "repro",
    "repro.cnf",
    "repro.cnf.literals",
    "repro.cnf.clause",
    "repro.cnf.formula",
    "repro.cnf.assignment",
    "repro.cnf.dimacs",
    "repro.cnf.simplify",
    "repro.cnf.cardinality",
    "repro.cnf.pseudo_boolean",
    "repro.cnf.generators",
    "repro.circuits",
    "repro.circuits.gates",
    "repro.circuits.netlist",
    "repro.circuits.tseitin",
    "repro.circuits.simulate",
    "repro.circuits.parallel_sim",
    "repro.circuits.bench_format",
    "repro.circuits.library",
    "repro.circuits.generators",
    "repro.circuits.faults",
    "repro.circuits.strash",
    "repro.solvers",
    "repro.solvers.result",
    "repro.solvers.dpll",
    "repro.solvers.cdcl",
    "repro.solvers.heuristics",
    "repro.solvers.restarts",
    "repro.solvers.local_search",
    "repro.solvers.recursive_learning",
    "repro.solvers.preprocess",
    "repro.solvers.circuit_sat",
    "repro.solvers.incremental",
    "repro.solvers.portfolio",
    "repro.solvers.forward_implication",
    "repro.solvers.proof",
    "repro.runtime",
    "repro.runtime.budget",
    "repro.runtime.attempt",
    "repro.runtime.supervisor",
    "repro.runtime.faults",
    "repro.obs",
    "repro.obs.trace",
    "repro.obs.metrics",
    "repro.obs.profile",
    "repro.bdd",
    "repro.bdd.manager",
    "repro.bdd.circuit",
    "repro.hw",
    "repro.hw.accelerator",
    "repro.apps",
    "repro.apps.atpg",
    "repro.apps.sequential_atpg",
    "repro.apps.delay_fault",
    "repro.apps.redundancy",
    "repro.apps.equivalence",
    "repro.apps.seq_equivalence",
    "repro.apps.delay",
    "repro.apps.bmc",
    "repro.apps.fvg",
    "repro.apps.covering",
    "repro.apps.routing",
    "repro.apps.crosstalk",
    "repro.apps.optimization",
    "repro.experiments",
    "repro.experiments.tables",
    "repro.experiments.workloads",
    "repro.experiments.runner",
    "repro.cli",
]


class TestModuleSurface:
    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_importable_with_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a docstring"

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_apps_all_resolves(self):
        for name in apps.__all__:
            assert hasattr(apps, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestDocstringDiscipline:
    @pytest.mark.parametrize("module_name", [
        "repro.cnf.formula", "repro.cnf.clause",
        "repro.solvers.cdcl", "repro.solvers.circuit_sat",
        "repro.circuits.netlist", "repro.bdd.manager",
        "repro.apps.atpg", "repro.runtime.attempt",
    ])
    def test_public_callables_documented(self, module_name):
        module = importlib.import_module(module_name)
        for name, member in inspect.getmembers(module):
            if name.startswith("_"):
                continue
            if inspect.isclass(member) or inspect.isfunction(member):
                if getattr(member, "__module__", None) != module_name:
                    continue
                assert member.__doc__, f"{module_name}.{name}"
                if inspect.isclass(member):
                    for method_name, method in inspect.getmembers(
                            member, inspect.isfunction):
                        if method_name.startswith("_"):
                            continue
                        assert method.__doc__, \
                            f"{module_name}.{name}.{method_name}"


class TestQuickstartContract:
    def test_readme_quickstart_snippet(self):
        """The README's first snippet must keep working verbatim."""
        from repro import CNFFormula, solve_cdcl

        formula = CNFFormula()
        a, b, c = formula.new_vars(3)
        formula.add_clause([a, b])
        formula.add_clause([-a, c])
        formula.add_clause([-b, c])
        result = solve_cdcl(formula)
        assert result.is_sat
        assert result.assignment.value_of(c) is True

    def test_module_docstring_snippet(self):
        from repro import CNFFormula, solve_cdcl

        formula = CNFFormula()
        a, b = formula.new_vars(2)
        formula.add_clause([a, b])
        formula.add_clause([-a, b])
        result = solve_cdcl(formula)
        assert result.is_sat
        assert result.assignment.value_of(b) is True
