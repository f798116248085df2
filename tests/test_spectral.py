from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_phase_gate
from scarforge import dynamics, spectral
from scarforge.automaton import FloquetCircuit
from scarforge.basis import BasisSubset, tile_pattern
from scarforge.dynamics import Propagator, ResourceLimitError
from scarforge.hamiltonian import build_hamiltonian
from scarforge.models import load_model, working_subspace
from scarforge.spectral import (
    analyze_spectrum,
    flagged_tower_energies,
    r_statistic,
)
from scarforge.tolerances import DEGENERACY_TOL


def test_diagonal_hamiltonian_ipr_one():
    sub = BasisSubset(np.arange(8), 4)
    h = np.diag(np.arange(8.0))
    analysis = analyze_spectrum(h, sub)
    assert np.allclose(analysis.ipr, 1.0)
    assert not analysis.flagged.any()


def test_completeness_of_eigenbasis():
    # every subset state as a reference: its squared overlaps over the
    # levels of all momentum blocks sum to one
    m = load_model("qmbs-b")
    sub = working_subspace(m, 8)
    chain = build_hamiltonian(m.circuit(8), sub)
    analysis = analyze_spectrum(chain.h, sub, sub.states)
    weights = np.sum(analysis.overlaps**2, axis=0)
    assert np.max(np.abs(weights - 1.0)) < 1e-10


def rotated_propagator(rng):
    """A Propagator whose block vectors are turned by a random unitary inside
    every group of levels within DEGENERACY_TOL."""

    class Rotated(Propagator):
        def __init__(self, hamiltonian, subset):
            super().__init__(hamiltonian, subset)
            self.blocks = [replace(b, vectors=self._turn(b)) for b in self.blocks]

        @staticmethod
        def _turn(block):
            vectors = block.vectors.astype(complex)
            cuts = np.flatnonzero(np.diff(block.energies) > DEGENERACY_TOL) + 1
            for group in np.split(np.arange(len(block.energies)), cuts):
                g = rng.normal(size=(len(group), len(group))) + 1j * rng.normal(size=(len(group), len(group)))
                vectors[:, group] = vectors[:, group] @ np.linalg.qr(g)[0]
            return vectors

    return Rotated


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_block_spectrum_matches_full_eigh_for_random_gates(seed):
    # oracles on the L=8 full space for a random phased gate's complex H and
    # its real part, with the Neel pair and one random state as references:
    # the levels are the full spectrum; on levels more than 1e-6 from their
    # neighbours (so that a full eigh fixes their vectors to 1e-10) IPR and
    # overlaps match it; random unitaries inside every degenerate group,
    # before the convention, change no field
    rng = np.random.default_rng(seed)
    sub = BasisSubset.full_space(8)
    h = build_hamiltonian(FloquetCircuit(random_phase_gate(rng), 8, "stride4"), sub).h.toarray()
    refs = [tile_pattern("10", 8), tile_pattern("01", 8), int(rng.integers(sub.size))]
    for dense in (h, h.real):
        analysis = analyze_spectrum(dense, sub, refs)
        energies, modes = np.linalg.eigh(dense)
        assert np.max(np.abs(analysis.eigenvalues - energies)) < 1e-10
        gaps = np.diff(energies)
        single = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf]) > 1e-6
        assert np.count_nonzero(single) > sub.size // 4
        ipr = 1.0 / np.sum(np.abs(modes) ** 4, axis=0)
        assert np.max(np.abs(analysis.ipr[single] / ipr[single] - 1.0)) < 1e-10
        overlaps = np.abs(modes[[sub.position(s) for s in refs]]).T
        assert np.max(np.abs(analysis.overlaps[single] - overlaps[single])) < 1e-10
        assert_rotation_invariant(analysis, dense, sub, refs, rng)


def assert_rotation_invariant(analysis, hamiltonian, sub, refs, rng):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "Propagator", rotated_propagator(rng))
        turned = analyze_spectrum(hamiltonian, sub, refs)
    assert np.array_equal(turned.eigenvalues, analysis.eigenvalues)
    assert np.max(np.abs(turned.ipr / analysis.ipr - 1.0)) < 1e-10
    assert np.max(np.abs(turned.overlaps - analysis.overlaps)) < 1e-10
    assert np.array_equal(turned.flagged, analysis.flagged)


@pytest.mark.parametrize("name, length, full", [("pxp", 12, False), ("qmbs-c", 8, True)])
def test_convention_fixes_degenerate_groups(name, length, full, rng):
    # random phased gates at L=8 have no degenerate levels inside a momentum
    # block; these models do (pxp: 30 groups, qmbs-c: its towers).  Every
    # group's Neel weight sits in one vector, so the Neel-flagged levels are
    # the tower alone.
    m = load_model(name)
    sub = BasisSubset.full_space(length) if full else working_subspace(m, length)
    h = build_hamiltonian(m.circuit(length), sub).h
    refs = [tile_pattern("10", length), tile_pattern("01", length), int(sub.states[sub.size // 3])]
    analysis = analyze_spectrum(h, sub, refs)
    assert_rotation_invariant(analysis, h, sub, refs, rng)
    if name == "qmbs-c":
        assert np.count_nonzero(np.any(analysis.overlaps[:, :2] > spectral.FLAG_THRESHOLD, axis=1)) == length // 2 + 1


def test_qmbs_c_flagged_tower_spacing_pi():
    m = load_model("qmbs-c")
    L = 8
    sub = BasisSubset.full_space(L)
    chain = build_hamiltonian(m.circuit(L), sub)
    refs = [tile_pattern("10", L), tile_pattern("01", L)]
    analysis = analyze_spectrum(chain.h, sub, refs)
    towers = flagged_tower_energies(analysis)
    assert len(towers) == L // 2 + 1
    gaps = np.diff(towers)
    assert np.max(np.abs(gaps - np.pi)) < 1e-9


def test_r_statistic_rigid_spectrum():
    report = r_statistic(np.arange(50.0))
    assert np.allclose(report.r_values, 1.0)
    assert report.mean == pytest.approx(1.0)


def test_r_statistic_requires_three_levels():
    with pytest.raises(ValueError):
        r_statistic([1.0, 2.0])


def test_r_statistic_merges_degeneracies():
    levels = np.array([0.0, 0.0, 1.0, 1.0, 2.5, 2.5 + 5e-13, 4.0])
    report = r_statistic(levels)
    # merged to 0, 1, 2.5, 4: gaps 1, 1.5, 1.5
    assert len(report.r_values) == 2
    assert report.r_values[0] == pytest.approx(1.0 / 1.5)
    assert report.r_values[1] == pytest.approx(1.0)


def test_r_statistic_affine_invariance(rng):
    levels = np.cumsum(rng.uniform(0.2, 1.0, size=400))
    base = r_statistic(levels)
    scaled = r_statistic(5.5 * levels - 17.0)
    assert np.allclose(base.r_values, scaled.r_values)
    assert base.mean == pytest.approx(scaled.mean)


def test_poisson_oracle(rng):
    # independent oracle: iid uniform levels approach 2 ln 2 - 1
    means = [r_statistic(np.sort(rng.uniform(0, 1, 2000))).mean for _ in range(200)]
    assert np.mean(means) == pytest.approx(2 * np.log(2) - 1, abs=0.01)


def test_goe_oracle(rng):
    means = []
    for _ in range(20):
        g = rng.normal(size=(600, 600))
        evals = np.linalg.eigvalsh((g + g.T) / 2.0)
        means.append(r_statistic(evals[150:450]).mean)
    assert np.mean(means) == pytest.approx(0.5307, abs=0.012)


def test_histogram_normalized(rng):
    levels = np.cumsum(rng.uniform(0.2, 1.0, size=2000))
    report = r_statistic(levels)
    widths = np.diff(report.bin_edges)
    assert np.sum(report.density * widths) == pytest.approx(1.0)


def test_one_dense_limit_for_propagator_and_spectrum(monkeypatch):
    # the dense limit is read in one place: patched below the subset size,
    # the propagator goes iterative and the spectrum refuses
    m = load_model("pxp")
    sub = working_subspace(m, 8)
    h = build_hamiltonian(m.circuit(8), sub).h
    monkeypatch.setattr(dynamics, "DENSE_GUARD", sub.size - 1)
    assert Propagator(h, sub).method == "iterative"
    with pytest.raises(ResourceLimitError):
        analyze_spectrum(h, sub)


def test_dimension_mismatch_rejected():
    sub = BasisSubset(np.arange(3), 4)
    with pytest.raises(ValueError):
        analyze_spectrum(np.eye(8), sub)


def test_pxp_scar_branch_approximately_equidistant():
    # the strongest-overlap eigenstates form a nearly rigid ladder once the
    # finite-size hybridization doublets are clustered: adjacent rung spacing
    # scatters below ten percent of the mean
    from scarforge.hamiltonian import krylov_subspace

    m = load_model("pxp")
    L = 16
    circuit = m.circuit(L)
    sub = krylov_subspace(circuit, m.orbit_seed(L))
    chain = build_hamiltonian(circuit, sub)
    refs = [tile_pattern("10", L), tile_pattern("01", L)]
    analysis = analyze_spectrum(chain.h, sub, refs)
    best = analysis.overlaps.max(axis=1)
    branch = np.sort(analysis.eigenvalues[np.argsort(best)[-(L + 1):]])
    assert np.all(best[np.argsort(best)[-(L + 1):]] > spectral.FLAG_THRESHOLD)
    # the scar branch is far less spread out than typical eigenstates
    assert np.median(analysis.ipr[np.argsort(best)[-(L + 1):]]) < 0.5 * np.median(analysis.ipr)
    clusters = [[branch[0]]]
    for e in branch[1:]:
        if e - clusters[-1][-1] <= 0.8:
            clusters[-1].append(e)
        else:
            clusters.append([e])
    rungs = np.array([np.mean(c) for c in clusters])
    assert len(rungs) >= L // 2
    gaps = np.diff(rungs)
    assert np.std(gaps) / np.mean(gaps) < 0.10
