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
