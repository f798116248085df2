import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings

from scarforge.models import load_model

# Every run draws the same examples: no example database, no randomness,
# and no per-example deadline on a loaded machine.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def models():
    return {name: load_model(name) for name in ("qmbs-a", "qmbs-b", "qmbs-c", "pxp", "pxp-nophase")}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)


def random_phase_gate(rng, width=4, phase_choices=(1, 1j, -1, -1j)):
    """Random permutation gate with fourth-root-of-unity phases."""
    from scarforge.gate import PermutationGate

    dim = 1 << width
    perm = rng.permutation(dim)
    phases = rng.choice(np.array(phase_choices, dtype=complex), size=dim)
    return PermutationGate(width, tuple(int(v) for v in perm), tuple(phases))


def window_operator(local: np.ndarray, site: int, length: int) -> sp.csr_matrix:
    """local on the window starting at `site`: rotate that site to the front,
    act with local (x) identity, rotate back."""
    width = local.shape[0].bit_length() - 1
    states = np.arange(1 << length)
    shift = site - 1
    rotated = ((states << shift) | (states >> (length - shift))) & ((1 << length) - 1)
    rotate = sp.csr_matrix((np.ones(len(states)), (rotated, states)))
    front = sp.kron(sp.csr_matrix(local), sp.identity(1 << (length - width)), format="csr")
    return (rotate.T @ front @ rotate).tocsr()
