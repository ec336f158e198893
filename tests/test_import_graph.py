"""Numpy stays out of the package.

Every ``repro`` module (but the ``python -m repro`` entry point, which
runs the CLI) is imported and a default and a certified solve run in a
fresh interpreter, so modules that other tests imported earlier cannot
hide a regression.
"""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SCRIPT = """
import importlib, json, pkgutil, sys
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not module.name.endswith(".__main__"):
        importlib.import_module(module.name)
from repro.cnf.generators import pigeonhole
from repro.solvers.cdcl import CDCLSolver
from repro.verify.certificate import certified_solve

assert CDCLSolver(pigeonhole(4)).solve().status.name == "UNSATISFIABLE"
result = certified_solve(pigeonhole(4))
assert result.status.name == "UNSATISFIABLE", result.status
assert result.certificate.valid
print(json.dumps("numpy" in sys.modules))
"""


def test_default_solves_never_import_numpy():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) is False
