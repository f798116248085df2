"""Time evolution, revival traces, and local-observable diagnostics.

The default propagator diagonalizes the (sub-)Hamiltonian once and evaluates
e^{-iHt} exactly on the whole time grid; an iterative short-time scheme based
on scipy's Krylov exponential kicks in above the dense dimension guard.
When every assembled imaginary part of H is floating noise (at most
ASSEMBLY_PRUNE, as for pxp, pxp-nophase and qmbs-c), the dense path solves
the real-symmetric eigenproblem and maps the phase block through the real
modes as one real matrix product; a truly complex H keeps the complex
eigensolve.  Unitarity is monitored along every trace and drift beyond 1e-6
aborts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .basis import BasisSubset, StateVector
from .tolerances import ASSEMBLY_PRUNE, COUPLING_TOL, DENSE_GUARD, NORM_DRIFT_ABORT

DEFAULT_DT = 0.05
DEFAULT_TMAX = 300.0


class NormDriftError(RuntimeError):
    """Evolved state lost unit norm beyond the abort threshold."""


@dataclass
class EvolutionResult:
    times: np.ndarray
    amplitudes: np.ndarray  # shape (n_times, dim)
    subset: BasisSubset

    def state(self, i: int) -> StateVector:
        return StateVector(self.subset, self.amplitudes[i].copy())

    def states(self) -> list[StateVector]:
        return [self.state(i) for i in range(len(self.times))]


class Propagator:
    """Reusable e^{-iHt} evaluator over one subset."""

    def __init__(self, hamiltonian, subset: BasisSubset, method: str | None = None):
        dim = hamiltonian.shape[0]
        if dim != subset.size:
            raise ValueError("Hamiltonian dimension does not match subset")
        if method is None:
            method = "dense" if dim <= DENSE_GUARD else "iterative"
        if method == "dense" and dim > DENSE_GUARD:
            raise ValueError(f"dense propagation refused above dimension {DENSE_GUARD}")
        self.method = method
        self.subset = subset
        self.hamiltonian = hamiltonian
        if method == "dense":
            dense = hamiltonian.toarray() if sp.issparse(hamiltonian) else np.asarray(hamiltonian)
            if np.all(np.abs(dense.imag) <= ASSEMBLY_PRUNE):
                dense = np.ascontiguousarray(dense.real)
            self.energies, self.modes = np.linalg.eigh(dense)
        else:
            self.energies = None
            self.modes = None

    def evolve(self, initial: np.ndarray, times) -> EvolutionResult:
        times = np.asarray(times, dtype=float)
        if np.any(np.diff(times) <= 0):
            raise ValueError("time grid must be strictly increasing")
        psi0 = np.asarray(initial, dtype=complex)
        if self.method == "dense":
            coeff = self.modes.conj().T @ psi0
            if np.isrealobj(self.modes):
                amps = self._evolve_real(coeff, times)
            else:
                phases = np.exp(-1j * np.outer(times, self.energies))
                amps = (phases * coeff) @ self.modes.T
        else:
            amps = self._evolve_iterative(psi0, times)
        norms = np.linalg.norm(amps, axis=1)
        drift = np.max(np.abs(norms - np.linalg.norm(psi0)))
        if drift > NORM_DRIFT_ABORT:
            raise NormDriftError(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_ABORT}")
        return EvolutionResult(times, amps, self.subset)

    def _evolve_real(self, coeff, times):
        """amps[t] = modes @ (coeff * e^{-iEt}) for real modes, as one real GEMM.

        The (dim, n_times) complex phase block is scaled in place and read as
        a (dim, 2 n_times) float64 array of interleaved real and imaginary
        parts, so the real modes multiply both at once; the product is read
        back as complex and returned as its (n_times, dim) transpose.
        """
        phases = np.exp(-1j * np.outer(self.energies, times))
        phases *= coeff[:, None]
        amps = self.modes @ phases.view(np.float64)
        return amps.view(complex).T

    def _evolve_iterative(self, psi0, times):
        from scipy.sparse.linalg import expm_multiply

        h = sp.csc_matrix(self.hamiltonian)
        amps = np.empty((len(times), h.shape[0]), dtype=complex)
        psi = psi0
        t_prev = 0.0
        for i, t in enumerate(times):
            if t != t_prev:
                psi = expm_multiply((-1j * (t - t_prev)) * h, psi)
            amps[i] = psi
            t_prev = t
        return amps


@dataclass
class EvolutionJob:
    hamiltonian: object
    subset: BasisSubset
    initial_index: int
    t_max: float = DEFAULT_TMAX
    dt: float = DEFAULT_DT
    method: str | None = None
    times: np.ndarray = field(init=False)

    def __post_init__(self):
        self.times = np.arange(0.0, self.t_max + 0.5 * self.dt, self.dt)


def evolve(job: EvolutionJob) -> EvolutionResult:
    prop = Propagator(job.hamiltonian, job.subset, job.method)
    psi0 = np.zeros(job.subset.size, dtype=complex)
    psi0[job.subset.position(job.initial_index)] = 1.0
    return prop.evolve(psi0, job.times)


def participation_ratio(v: StateVector) -> float:
    """Sum of |amplitude|^4 over the subset basis (1 for a basis state)."""
    return float(np.sum(np.abs(v.amplitudes) ** 4))


def fidelity(v: StateVector, ref: StateVector) -> float:
    """Squared overlap |<ref|v>|^2."""
    if v.subset is not ref.subset and v.subset != ref.subset:
        raise ValueError("states live on different subsets")
    return float(np.abs(np.vdot(ref.amplitudes, v.amplitudes)) ** 2)


def pr_trace(result: EvolutionResult) -> np.ndarray:
    amps = result.amplitudes
    return np.sum((amps.real**2 + amps.imag**2) ** 2, axis=1)


def fidelity_trace(result: EvolutionResult, ref_index: int) -> np.ndarray:
    col = result.subset.position(ref_index)
    return np.abs(result.amplitudes[:, col]) ** 2


def z_diagonal(subset: BasisSubset, site: int) -> np.ndarray:
    """Z eigenvalues (+1 for bit 0, -1 for bit 1) of the subset states."""
    bits = (subset.states >> (subset.length - site)) & 1
    return 1.0 - 2.0 * bits.astype(float)


def local_z_trace(
    prop: Propagator,
    initial_index: int,
    times,
    site: int,
    energy_window: float = 0.4,
) -> tuple[np.ndarray, float]:
    """Expectation series <Z_site(t)> and its microcanonical average.

    The microcanonical value averages <Z_site> over eigenstates whose energy
    lies within +-window/2 of the initial state's mean energy.
    """
    if prop.method != "dense":
        raise ValueError("microcanonical comparison needs the dense eigensystem")
    subset = prop.subset
    psi0 = np.zeros(subset.size, dtype=complex)
    psi0[subset.position(initial_index)] = 1.0
    z = z_diagonal(subset, site)

    result = prop.evolve(psi0, times)
    series = (np.abs(result.amplitudes) ** 2) @ z

    coeff = prop.modes.conj().T @ psi0
    mean_energy = float(np.real(np.sum(np.abs(coeff) ** 2 * prop.energies)))
    window = np.abs(prop.energies - mean_energy) <= energy_window / 2.0
    if not np.any(window):
        raise ValueError("microcanonical window contains no eigenstates")
    occupations = np.abs(prop.modes[:, window]) ** 2
    z_mc = float(np.mean(z @ occupations))
    return series, z_mc


def first_revival_peak(times, values, t_lo: float, t_hi: float) -> float:
    """Largest trace value inside the first-revival window."""
    times = np.asarray(times)
    mask = (times >= t_lo) & (times <= t_hi)
    if not np.any(mask):
        raise ValueError("revival window contains no grid points")
    return float(np.max(np.asarray(values)[mask]))


def generic_comparison_state(subset: BasisSubset, orbit_states, hamiltonian) -> int:
    """Deterministic thermalization probe state.

    Takes the basis state whose diagonal energy sits closest to the subset
    mean, with ties broken toward the middle of the ordered subset and then
    the smaller index; protected-orbit states and states the Hamiltonian
    barely couples are skipped.  Edge-of-band and near-orbit states relax
    anomalously slowly, so a thermalization comparison needs a mid-band,
    mid-list pick; the rule is deterministic for reproducibility.
    """
    orbit = set(int(s) for s in orbit_states)
    h = sp.csc_matrix(hamiltonian)
    diag = np.real(h.diagonal())
    mean_energy = float(np.mean(diag))
    center = subset.size // 2
    order = sorted(
        range(subset.size),
        key=lambda p: (abs(diag[p] - mean_energy), abs(p - center), int(subset.states[p])),
    )
    for pos in order:
        state = int(subset.states[pos])
        if state in orbit:
            continue
        col = h[:, pos].toarray().ravel()
        col[pos] = 0.0
        if np.linalg.norm(col) > COUPLING_TOL:
            return state
    raise ValueError("subset has no coupled non-orbit state")
