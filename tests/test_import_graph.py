"""Numpy stays off the default solve path.

Only inprocessing, ``simplify`` and the service's ``STATUS`` probe
import :mod:`repro.solvers.kernels`, and with it numpy.  Each check
runs in a fresh interpreter, so modules that other tests imported
earlier cannot hide a regression.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

DEFAULT_PATH = """
import repro.cli
import repro.service.server
import repro.solvers
import repro.verify.certificate
from repro.cnf.generators import pigeonhole
from repro.solvers.cdcl import CDCLSolver
from repro.verify.certificate import certified_solve

assert CDCLSolver(pigeonhole(4)).solve().status.name == "UNSATISFIABLE"
result = certified_solve(pigeonhole(4))
assert result.status.name == "UNSATISFIABLE", result.status
assert result.certificate.valid
"""

INPROCESS_PATH = """
from repro.cnf.generators import pigeonhole
from repro.solvers.cdcl import CDCLSolver

solver = CDCLSolver(pigeonhole(4), inprocess=True)
assert solver.solve().status.name == "UNSATISFIABLE"
"""

REPORT = """
import json, sys
print(json.dumps(sorted(m for m in ("numpy", "repro.solvers.kernels")
                        if m in sys.modules)))
"""


def loaded_after(script):
    """Run *script* in a fresh interpreter; return which of numpy and
    the kernels module it left in ``sys.modules``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script + REPORT],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_default_solves_never_import_numpy():
    assert loaded_after(DEFAULT_PATH) == []


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None,
                    reason="numpy not installed")
def test_inprocessing_loads_numpy_kernels():
    assert loaded_after(INPROCESS_PATH) == ["numpy",
                                            "repro.solvers.kernels"]
