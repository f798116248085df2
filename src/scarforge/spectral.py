"""Eigen-analysis diagnostics: IPR scatter, scar flags, gap ratios.

`analyze_spectrum` reads the momentum blocks of one dense `Propagator`, so
IPR and overlaps need a stated eigenbasis inside degenerate eigenspaces.
The levels are momentum eigenstates, one block each.  Inside a block, levels
within DEGENERACY_TOL form a group; the group is rotated so that all of its
reference weight sits in at most one vector per reference, and the
weightless rest are the eigenvectors of a fixed diagonal tie-break operator
with distinct entries.  IPR, overlaps and flags then depend only on each
group's span.

The gap-ratio statistic r_n = min(d_{n+1}/d_n, d_n/d_{n+1}) distinguishes
Poissonian from level-repelling spectra without unfolding; exact degeneracies
are merged first so that scar towers do not inject spurious zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSubset
from .dynamics import MomentumBlock, Propagator, ResourceLimitError, dense_fits
from .tolerances import DEGENERACY_TOL, TOWER_MERGE_TOL, REFERENCE_WEIGHT_TOL

HISTOGRAM_BINS = 50
FLAG_THRESHOLD = 0.02


@dataclass
class SpectrumAnalysis:
    eigenvalues: np.ndarray
    ipr: np.ndarray
    overlaps: np.ndarray       # (n_states, n_reference) overlap amplitudes
    flagged: np.ndarray        # overlap amplitude above the flag threshold


def analyze_spectrum(hamiltonian, subset: BasisSubset, reference_states=(),
                     flag_threshold: float = FLAG_THRESHOLD) -> SpectrumAnalysis:
    """Every level with its inverse participation ratio and reference
    overlaps, read off the momentum blocks of one dense `Propagator` in the
    eigenbasis convention of the module docstring; states overlapping any
    reference above the threshold are flagged as scar candidates."""
    if not dense_fits(subset.size):
        raise ResourceLimitError(f"dense spectrum refused at dimension {subset.size}; project to a sector first")
    prop = Propagator(hamiltonian, subset)
    refs = [subset.position(int(s)) for s in reference_states]
    ipr, overlaps = [], []
    for block in prop.blocks:
        vectors = _fixed_basis(block, refs)
        ipr.append(1.0 / (block.basis.sizes @ np.abs(vectors) ** 4))
        overlaps.append(np.abs(block.slot_amplitudes(refs, vectors)).T)
    order = prop.level_order
    overlaps = np.concatenate(overlaps)[order]
    flagged = np.any(overlaps > flag_threshold, axis=1)
    return SpectrumAnalysis(prop.energies, np.concatenate(ipr)[order], overlaps, flagged)


def _fixed_basis(block: MomentumBlock, refs) -> np.ndarray:
    """The block's vectors, each degenerate group rotated to the right singular
    vectors of its reference amplitudes, and its weightless rest to those of
    sqrt(T) on it, T = sum_x (orbit number of x + 1) |x><x|."""
    vectors = block.vectors.copy()
    tie = np.sqrt(block.basis.sizes * (block.orbits + 1.0))[:, None]
    cuts = np.flatnonzero(np.diff(block.energies) > DEGENERACY_TOL) + 1
    for group in np.split(np.arange(len(block.energies)), cuts):
        if len(group) > 1:
            _, weight, vh = np.linalg.svd(block.slot_amplitudes(refs, vectors[:, group]))
            rotated = vectors[:, group] @ vh.conj().T
            rest = rotated[:, np.count_nonzero(weight > REFERENCE_WEIGHT_TOL):]
            rest[:] = rest @ np.linalg.svd(tie * rest, full_matrices=False)[2].conj().T
            vectors[:, group] = rotated
    return vectors


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
