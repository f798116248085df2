import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings

from scarforge.automaton import _orbit_cycle, floquet_map
from scarforge.basis import BasisSubset
from scarforge.gate import phased_cycles
from scarforge.hamiltonian import window_sum
from scarforge.models import anti_aligned_pair_states, load_model

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


def antiunitary_gate(rng):
    """A random trailing-qubit-trivial gate with fourth-root phases whose H
    has Theta = K F, for F the global spin flip (or is real, Theta = K).

    Its three-qubit core is u = c sigma, for c the local flip v -> 7 - v and
    a random involution sigma, with phases constant on the orbits of sigma,
    so that c u c = u^T.  sigma also commutes with the mirror-and-flip b of
    the three bits and the phases are constant on the orbits of b too, so H
    commutes with USM."""
    from scarforge.gate import PermutationGate
    from scarforge.rules import lift_three_qubit_permutation

    flip = 7 - np.arange(8)
    rev = np.array([int(f"{v:03b}"[::-1], 2) for v in range(8)])
    b = rev[flip]
    while True:
        sigma = np.arange(8)
        for x, y in rng.permutation(8).reshape(4, 2)[:rng.integers(1, 5)]:
            sigma[x], sigma[y] = y, x
        if np.array_equal(b[sigma[b]], sigma):
            break
    phases = rng.choice(np.array((1, 1j, -1, -1j)), size=8)[np.minimum.reduce([np.arange(8), sigma, b, sigma[b]])]
    perm = lift_three_qubit_permutation(flip[sigma])
    return PermutationGate(4, tuple(perm.tolist()), tuple(np.repeat(phases, 2)))


def near_antiunitary_hamiltonian(length=8, seed=3):
    """The full-space H of an `antiunitary_gate` with Theta = K F plus a small
    multiple of a random phased gate's H, sized so that |F H F - H*| is 0.9
    ANTIUNITARY_TOL: detection still finds F.  For the default seed the
    rotated blocks of momentum k = 2 and of the S2 = -1 sectors keep
    imaginary parts above the tolerance."""
    from scarforge.automaton import FloquetCircuit
    from scarforge.hamiltonian import build_hamiltonian, find_antiunitary
    from scarforge.tolerances import ANTIUNITARY_TOL

    rng = np.random.default_rng(seed)
    sub = BasisSubset.full_space(length)
    h = build_hamiltonian(FloquetCircuit(antiunitary_gate(rng), length, "stride4"), sub).h
    broken = build_hamiltonian(FloquetCircuit(random_phase_gate(rng), length, "stride4"), sub).h
    slots = find_antiunitary(h, sub)[1]
    scale = 0.9 * ANTIUNITARY_TOL / abs(broken[slots][:, slots] - broken.conj()).max()
    return h + scale * broken, sub


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


# Full-space oracles (small L only)


def dense_bch_terms(a, b, n_orders: int) -> list:
    """C_0..C_{n_orders} from the anti-Hermitian Bernoulli recursion on
    X = -iA and Y = -iB, in dense complex arithmetic, with every commutator
    formed as PQ - QP and nothing pruned."""
    from scarforge.bch import bernoulli_numbers

    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    x = -0.5j * (a + a.conj().T)
    y = -0.5j * (b + b.conj().T)
    zero = np.zeros_like(x)
    bern = bernoulli_numbers(n_orders + 1)
    z = [None, x + y]
    table = {(0, 0): x + y}
    for deg in range(1, n_orders + 1):
        for k in range(1, deg + 1):
            table[k, deg] = sum(
                (z[m] @ table.get((k - 1, deg - m), zero) - table.get((k - 1, deg - m), zero) @ z[m]
                 for m in range(1, deg - k + 2)),
                zero,
            )
        rhs = z[deg] @ y - y @ z[deg]
        for k in range(1, deg + 1):
            rhs = rhs + float(bern[k]) / math.factorial(k) * table[k, deg]
        z.append(rhs / (deg + 1))
    return [1j * z[n + 1] for n in range(n_orders + 1)]


def floquet_matrix(circuit) -> np.ndarray:
    """Dense 2**L x 2**L matrix of U_F."""
    dim = 1 << circuit.length
    images, phases = zip(*(floquet_map(circuit, x) for x in range(dim)))
    mat = np.zeros((dim, dim), dtype=complex)
    mat[list(images), np.arange(dim)] = phases
    return mat


def all_orbits(circuit) -> list:
    """Decompose the full basis into disjoint cycles of U_F."""
    images, phases = zip(*(floquet_map(circuit, x) for x in range(1 << circuit.length)))
    return [_orbit_cycle(circuit.length, *c) for c in phased_cycles(list(images), list(phases))]


def embedded_block_reference(length: int) -> np.ndarray:
    """Pair-flip chain sum of (pi/2) X_{2j} X_{2j+1} - pi/2 on the anti-aligned states."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    subset = BasisSubset(anti_aligned_pair_states(length), length)
    return window_sum(subset, range(2, length + 1, 2), 0.5 * np.pi * (np.kron(x, x) - np.eye(4))).toarray()


def permutation_order(gate) -> int:
    """Order of the permutation part alone (phases ignored)."""
    return math.lcm(*(len(values) for values in gate.value_cycles()))
