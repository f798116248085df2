"""Eigen-analysis diagnostics: IPR scatter, scar flags, gap ratios, scaling.

The gap-ratio statistic r_n = min(d_{n+1}/d_n, d_n/d_{n+1}) distinguishes
Poissonian from level-repelling spectra without unfolding; exact degeneracies
are merged first so that scar towers do not inject spurious zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import BasisSubset
from .dynamics import ResourceLimitError
from .tolerances import DEGENERACY_TOL, DENSE_GUARD, TOWER_MERGE_TOL

HISTOGRAM_BINS = 50
FLAG_THRESHOLD = 0.02


@dataclass
class SpectrumAnalysis:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    ipr: np.ndarray
    overlaps: np.ndarray       # (n_states, n_reference) overlap amplitudes
    flagged: np.ndarray        # overlap amplitude above the flag threshold
    subset: BasisSubset
    flag_threshold: float = FLAG_THRESHOLD


def analyze_spectrum(
    hamiltonian,
    subset: BasisSubset,
    reference_states=(),
    flag_threshold: float = FLAG_THRESHOLD,
) -> SpectrumAnalysis:
    """Full eigensystem with inverse participation ratios and reference
    overlaps; states overlapping any reference above the threshold are
    flagged as scar candidates."""
    dim = subset.size
    if dim > DENSE_GUARD:
        raise ResourceLimitError(
            f"dense spectrum refused above dimension {DENSE_GUARD}; project to a sector first"
        )
    if hamiltonian.shape != (dim, dim):
        raise ValueError("operator dimension does not match the subset")
    dense = hamiltonian.toarray() if sp.issparse(hamiltonian) else np.asarray(hamiltonian)
    energies, modes = np.linalg.eigh(dense)
    pr = np.sum(np.abs(modes) ** 4, axis=0)
    ipr = 1.0 / pr
    refs = [subset.position(int(s)) for s in reference_states]
    if refs:
        overlaps = np.abs(modes[refs, :]).T
        flagged = np.any(overlaps > flag_threshold, axis=1)
    else:
        overlaps = np.zeros((dim, 0))
        flagged = np.zeros(dim, dtype=bool)
    return SpectrumAnalysis(energies, modes, ipr, overlaps, flagged, subset, flag_threshold)


def _merge_levels(levels: np.ndarray, tol: float) -> np.ndarray:
    """Sorted levels, dropping each one within tol of the last one kept."""
    kept = list(levels[:1])
    for e in levels[1:]:
        if e - kept[-1] > tol:
            kept.append(e)
    return np.asarray(kept, dtype=float)


def flagged_tower_energies(analysis: SpectrumAnalysis) -> np.ndarray:
    """Distinct energies of the flagged states, nearby values merged."""
    return _merge_levels(np.sort(analysis.eigenvalues[analysis.flagged]), TOWER_MERGE_TOL)


@dataclass
class RStatReport:
    r_values: np.ndarray
    bin_edges: np.ndarray
    density: np.ndarray
    mean: float


def r_statistic(eigenvalues) -> RStatReport:
    """Gap-ratio list, normalized histogram on [0, 1], and mean.

    Levels closer than DEGENERACY_TOL collapse to a single level before
    ratios are formed; fewer than three surviving levels is an error.
    """
    kept = _merge_levels(np.sort(np.asarray(eigenvalues, dtype=float)), DEGENERACY_TOL)
    if len(kept) < 3:
        raise ValueError("need at least three distinct levels")
    gaps = np.diff(kept)
    r = np.minimum(gaps[1:], gaps[:-1]) / np.maximum(gaps[1:], gaps[:-1])
    density, edges = np.histogram(r, bins=HISTOGRAM_BINS, range=(0.0, 1.0), density=True)
    return RStatReport(r, edges, density, float(np.mean(r)))


@dataclass
class ScalingRow:
    length: int
    n_eff: int
    pr_max: float
    pr_min: float


def scaling_scan(
    model_name: str,
    lengths,
    t_window: tuple[float, float] = (10.0, 300.0),
    dt: float = 0.05,
) -> list[ScalingRow]:
    """Extrema of the alternating-seed participation-ratio trace per length."""
    from .basis import StateVector
    from .dynamics import Propagator, pr_trace
    from .hamiltonian import build_hamiltonian
    from .models import load_model, working_subspace

    model = load_model(model_name)
    rows = []
    for length in lengths:
        circuit = model.circuit(length)
        seed = model.orbit_seed(length)
        subset = working_subspace(model, length)
        chain = build_hamiltonian(circuit, subset)
        times = np.arange(0.0, t_window[1] + 0.5 * dt, dt)
        psi0 = StateVector.from_basis_index(subset, seed).amplitudes
        trace = pr_trace(Propagator(chain.h, subset).evolve(psi0, times))
        mask = (times > t_window[0]) & (times <= t_window[1])
        rows.append(
            ScalingRow(length, subset.size, float(trace[mask].max()), float(trace[mask].min()))
        )
    return rows
