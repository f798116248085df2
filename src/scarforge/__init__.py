"""Floquet permutation automata and the scar Hamiltonians extracted from them.

The names below load their module on first use, so importing a submodule
(``scarforge.cli`` in particular) does not import numpy: the command line
sets the BLAS thread variables before numpy sizes its thread pool.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "BasisSubset": "basis",
    "PermutationGate": "gate",
    "parse_gate": "gate",
    "gate_order": "gate",
    "gate_matrix": "gate",
    "principal_log": "logmap",
    "power_decomposition": "logmap",
    "closing_relation": "logmap",
    "FloquetCircuit": "automaton",
    "orbit_of": "automaton",
    "load_model": "models",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
