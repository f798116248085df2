"""Floquet permutation automata and the scar Hamiltonians extracted from them."""

__version__ = "0.1.0"
