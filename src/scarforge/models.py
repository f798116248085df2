"""Built-in model registry with spin-representation and algebra checks.

Models ship as JSON files with the keys `name`, `width`, `cycles`,
`phases`, `geometry`, `orbit_seeds` and, optionally, `expected`: the gate, its circuit
geometry, protected orbit seeds and expected diagnostics.  A `search` result
row is not a model file: it has `permutation_cycles` and the rule counts,
and no name, width, phases, geometry or orbit seeds.
`verify_spin_representation` rebuilds the window operator from an explicit
spin-operator expression and compares it with the matrix-log construction;
`sga_check` verifies the equally-spaced tower algebra of the exact model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from math import comb
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .automaton import FloquetCircuit, orbit_of
from .basis import BasisSubset, set_window, tile_pattern, window_value
from .gate import PermutationGate, gate_from_json, gate_matrix, gate_to_json
from .hamiltonian import build_hamiltonian, krylov_subspace, window_sum
from .logmap import principal_log
from .tolerances import ASSEMBLY_PRUNE

MODEL_NAMES = ("qmbs-a", "qmbs-b", "qmbs-c", "pxp", "pxp-nophase")


class UnknownModelError(KeyError):
    pass


@dataclass(frozen=True)
class ModelDefinition:
    name: str
    gate: PermutationGate
    geometry: str
    orbit_seed_pattern: str
    expected: dict

    def circuit(self, length: int) -> FloquetCircuit:
        return FloquetCircuit(self.gate, length, self.geometry)

    def orbit_seed(self, length: int) -> int:
        return tile_pattern(self.orbit_seed_pattern, length)

    def to_json(self) -> dict:
        data = gate_to_json(self.gate)
        data.update(
            name=self.name,
            geometry=self.geometry,
            orbit_seeds=[self.orbit_seed_pattern],
            expected=self.expected,
        )
        return data


class ModelFileError(ValueError):
    """A model file lacks a key a model needs, or holds a value of the wrong type."""


_MODEL_KEYS = ("name", "width", "cycles", "phases", "geometry", "orbit_seeds")


def _from_json(data: dict) -> ModelDefinition:
    """A model from its JSON object.  A missing key raises ModelFileError
    naming it; bad values are refused by the gate and circuit checks."""
    for key in _MODEL_KEYS:
        if key not in data:
            raise ModelFileError(f"model file has no {key!r} key")
    try:
        return ModelDefinition(
            name=data["name"],
            gate=gate_from_json(data),
            geometry=data["geometry"],
            orbit_seed_pattern=data["orbit_seeds"][0],
            expected=dict(data.get("expected", {})),
        )
    except (TypeError, IndexError) as exc:
        raise ModelFileError(f"malformed model file: {exc}") from None


def load_model(name: str) -> ModelDefinition:
    """Load a registry model by name, or any model file by path."""
    if name in MODEL_NAMES:
        text = resources.files("scarforge.data").joinpath(f"{name}.json").read_text()
        return _from_json(json.loads(text))
    path = Path(name)
    if path.suffix == ".json" and path.exists():
        try:
            return _from_json(json.loads(path.read_text()))
        except ModelFileError as exc:
            raise ModelFileError(f"{path}: {exc}") from None
    raise UnknownModelError(name)


def expected_krylov_dimension(name: str, length: int) -> int:
    """Closed-form size of the set of states reachable from the alternating seed."""
    if length % 2 != 0:
        raise ValueError("chain length must be even")
    if name in ("pxp", "pxp-nophase"):
        def fib(k):
            a, b = 0, 1
            for _ in range(k):
                a, b = b, a + b
            return a
        return fib(length + 1) + fib(length - 1)
    if name == "qmbs-a":
        return 1 << length
    if name == "qmbs-b":
        half = length // 2
        return sum(comb(length, m) for m in range(length + 1) if (m - half) % 3 == 0)
    if name == "qmbs-c":
        return 1 << (length // 2)
    raise UnknownModelError(name)


# ---------------------------------------------------------------------------
# Spin-operator constructions of the registry windows
# ---------------------------------------------------------------------------

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])
SP = np.array([[0.0, 0.0], [1.0, 0.0]])   # S+|0> = |1>
SM = np.array([[0.0, 1.0], [0.0, 0.0]])   # S-|1> = |0>
PDN = np.array([[0.0, 0.0], [0.0, 1.0]])  # (I - Z)/2, projector on |1>
KUP = np.array([[1.0, 0.0], [0.0, 0.0]])  # (I + Z)/2, projector on |0>


def _kron(*ops) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def _pxp_window() -> np.ndarray:
    return -0.5 * np.pi * _kron(PDN, X, PDN, I2)


def _pxp_nophase_window() -> np.ndarray:
    return -0.5 * np.pi * (_kron(PDN, I2, PDN, I2) - _kron(PDN, X, PDN, I2))


def _qmbs_b_window() -> np.ndarray:
    raise3 = _kron(SP, SP, SP)
    proj = (raise3 + raise3.conj().T) @ (raise3 + raise3.conj().T)
    hop = _kron(SM, SP, I2) + _kron(I2, SM, SP) + _kron(SP, I2, SM)
    half = (
        0.25 * np.pi * (raise3 + raise3.conj().T)
        + 1j * (4.0 * np.pi / (6.0 * np.sqrt(3.0))) * hop
        - 0.25 * np.pi * proj
    )
    return np.kron(half + half.conj().T, I2)


def _qmbs_c_window() -> np.ndarray:
    eye8 = np.eye(8)
    p_pair = np.kron(I2, (np.eye(4) - np.kron(Z, Z)) / 2.0)
    core = 0.5 * np.pi * p_pair @ _kron(I2, X, X) @ p_pair
    k1 = _kron(KUP, I2, I2)
    k2 = _kron(I2, KUP, I2)
    x1 = _kron(X, I2, I2)
    x23 = _kron(I2, X, X)
    half = (
        1j * (4.0 * np.pi / (6.0 * np.sqrt(3.0)))
        * (k2 + (eye8 - k2) @ x1)
        @ (k1 + (eye8 - k1) @ x23)
        + 0.25 * np.pi * eye8
    )
    ext = half + half.conj().T
    h3 = core + (eye8 - p_pair) @ ext @ (eye8 - p_pair) - 0.5 * np.pi * eye8
    return np.kron(h3, I2)


def _qmbs_a_gate() -> np.ndarray:
    raise3 = _kron(SP, SP, SP)
    u3 = (
        _kron(SP, SP, SM) + _kron(SP, SM, SM)
        + _kron(PDN, SM, SP) + _kron(SM, SP, PDN)
        + _kron(SM, SP, KUP) + _kron(KUP, SM, SP)
        + (raise3 + raise3.conj().T) @ (raise3 + raise3.conj().T)
    )
    return np.kron(u3, I2)


_SPIN_CONSTRUCTORS = {
    "pxp": ("hamiltonian", _pxp_window),
    "pxp-nophase": ("hamiltonian", _pxp_nophase_window),
    "qmbs-b": ("hamiltonian", _qmbs_b_window),
    "qmbs-c": ("hamiltonian", _qmbs_c_window),
    "qmbs-a": ("gate", _qmbs_a_gate),
}


def verify_spin_representation(model: ModelDefinition) -> float:
    """Max elementwise deviation between the spin-operator window expression
    and the construction from the gate table.

    The registry stores spin expressions for the window Hamiltonian except
    for qmbs-a, whose tabulated expression is the unitary itself.
    """
    kind, builder = _SPIN_CONSTRUCTORS[model.name]
    explicit = builder()
    if kind == "gate":
        reference = gate_matrix(model.gate)
    else:
        reference = principal_log(model.gate).matrix
    return float(np.max(np.abs(explicit - reference)))


# ---------------------------------------------------------------------------
# Spectrum-generating algebra of the exact model
# ---------------------------------------------------------------------------


def anti_aligned_pair_states(length: int) -> np.ndarray:
    """States whose qubits at sites (2j, 2j+1), with wrap, are anti-aligned.

    Pair j is the width-2 window at site 2j; it is anti-aligned when the
    window holds 1 or 2, and flipping both spins takes value v to 3 - v.
    """
    states = np.zeros(1, dtype=np.int64)
    for site in range(2, length + 1, 2):
        states = np.concatenate([set_window(states, site, 2, length, v) for v in (1, 2)])
    return np.sort(states)


def ladder_operator(length: int) -> sp.csr_matrix:
    """Sum over pairs of Z_{2j} (I - X_{2j} X_{2j+1}) on the full space."""
    pair = _kron(Z, I2) @ (np.eye(4) - _kron(X, X))
    return window_sum(BasisSubset.full_space(length), range(2, length + 1, 2), pair)


def sga_check(length: int, epsilon: float = np.pi) -> float:
    """Max residual of ([H, Q] - epsilon Q) over the anti-aligned pair states
    for the exact model; the algebra holds with epsilon = pi.
    """
    model = load_model("qmbs-c")
    circuit = model.circuit(length)
    subset = BasisSubset.full_space(length)
    chain = build_hamiltonian(circuit, subset)
    q = ladder_operator(length)
    m = (chain.h @ q - q @ chain.h - epsilon * q).tocsc()
    # np.max, not Python's max, so that a NaN column norm is the residual
    norms = [np.linalg.norm(m.data[m.indptr[x]:m.indptr[x + 1]]) for x in anti_aligned_pair_states(length)]
    return float(np.max(norms, initial=0.0))


def neel_orbit_states(model: ModelDefinition, length: int) -> list[int]:
    """The protected orbit of the model's seed, as state indices."""
    orbit = orbit_of(model.circuit(length), model.orbit_seed(length))
    return list(orbit.states)


def working_subspace(model: ModelDefinition, length: int) -> BasisSubset:
    """Basis the tabulated diagnostics use for this model.

    This is the Krylov closure of the protected seed, widened to the full
    space when the closure misses nothing but window-inert states (states
    every window annihilates).  A gate that strands only such inert states
    imposes no selection rule, and the closed-form dimension counts them.
    qmbs-a is widened this way: its closure (254/4094/65534 states at
    L=8/12/16) misses exactly the two uniform states 0...0 and 1...1.  The
    exact-scar qmbs-c closure (16/64/256) is not widened.
    """
    circuit = model.circuit(length)
    subset = krylov_subspace(circuit, model.orbit_seed(length))
    missing = (1 << length) - subset.size
    if missing == 0 or missing > max(64, length * length):
        return subset
    local = principal_log(circuit.gate).matrix
    live = np.max(np.abs(local), axis=0) > ASSEMBLY_PRUNE
    outside = np.ones(1 << length, dtype=bool)
    outside[subset.states] = False
    complement = np.flatnonzero(outside)
    width = circuit.gate.width
    for site in circuit.window_sites:
        if np.any(live[window_value(complement, site, width, length)]):
            return subset
    return BasisSubset.full_space(length)
