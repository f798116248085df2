import os
import subprocess
import sys
from pathlib import Path

# scipy subpackages no scarforge module may import at load time: each adds
# start-up time to every command, so code that needs one imports it inside
# the function that uses it
DEFERRED = ("scipy.linalg", "scipy.special", "scipy.sparse.linalg", "scipy.sparse.csgraph")

_PROBE = """
import importlib, pkgutil, sys
import scarforge
for info in pkgutil.iter_modules(scarforge.__path__):
    importlib.import_module("scarforge." + info.name)
print(",".join(name for name in sys.argv[1:] if name in sys.modules))
"""


def test_package_import_loads_no_deferred_scipy_module():
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-c", _PROBE, *DEFERRED], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert run.stdout.strip() == ""


_ITERATIVE_PROBE = """
import sys
import numpy as np
from scarforge import dynamics
from scarforge.hamiltonian import build_hamiltonian, krylov_subspace
from scarforge.models import load_model
model = load_model("pxp")
circuit = model.circuit(8)
subset = krylov_subspace(circuit, model.orbit_seed(8))
dynamics.DENSE_GUARD = 0
prop = dynamics.Propagator(build_hamiltonian(circuit, subset).h, subset)
assert prop.method == "iterative"
prop.evolve(subset.basis_vector(model.orbit_seed(8)), np.arange(0.0, 1.0, 0.05))
print(",".join(name for name in sys.argv[1:] if name in sys.modules))
"""


def test_chebyshev_evolution_loads_neither_scipy_linalg_nor_special():
    # the Chebyshev path takes its coefficients from numpy's FFT and adds
    # its products with numpy's matmul: a run of it imports neither module
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-c", _ITERATIVE_PROBE, "scipy.linalg", "scipy.special"],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert run.stdout.strip() == ""
