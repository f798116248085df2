import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from scarforge.automaton import FloquetCircuit, floquet_matrix
from scarforge.basis import BasisSubset, neel_index, tile_pattern
from scarforge.gate import identity_gate
from scarforge.hamiltonian import (
    SubsetNotClosedError,
    SymmetrySector,
    build_hamiltonian,
    krylov_subspace,
    operator_commutes,
    project_sector,
    restrict_dense,
    sector_basis,
)
from scarforge.models import (
    anti_aligned_pair_states,
    embedded_block_reference,
    expected_krylov_dimension,
    working_subspace,
)


def test_identity_gate_gives_zero_hamiltonian():
    subset = BasisSubset.full_space(8)
    chain = build_hamiltonian(FloquetCircuit(identity_gate(4), 8, "stride4"), subset)
    assert chain.h.nnz == 0


def test_h_is_a_plus_b_and_hermitian(models):
    subset = BasisSubset.full_space(8)
    chain = build_hamiltonian(models["qmbs-b"].circuit(8), subset)
    assert abs(chain.h - (chain.a + chain.b)).max() == 0
    for m in (chain.a, chain.b):
        assert abs(m - m.getH()).max() < 1e-10


def test_layer_exponentials_reproduce_circuit(models):
    # exp(-iA) exp(-iB) must equal the dense Floquet matrix at small L
    L = 8
    for name in ("qmbs-c", "pxp"):
        circuit = models[name].circuit(L)
        subset = BasisSubset.full_space(L)
        chain = build_hamiltonian(circuit, subset)
        u = la.expm(-1j * chain.a.toarray()) @ la.expm(-1j * chain.b.toarray())
        assert np.max(np.abs(u - floquet_matrix(circuit))) < 1e-9


def test_krylov_dimensions_match_formulas(models):
    for name, lengths in (
        ("pxp", (8, 10, 12, 16)),
        ("qmbs-b", (8, 10, 12)),
        ("qmbs-c", (8, 10, 12)),
    ):
        m = models[name]
        for L in lengths:
            sub = krylov_subspace(m.circuit(L), m.orbit_seed(L))
            assert sub.size == expected_krylov_dimension(name, L)


def test_krylov_subspace_is_connected_component_of_full_h(models):
    # oracle: the seed's component in the nonzero graph of the full-space H
    from scipy.sparse.csgraph import connected_components

    for m in models.values():
        for L in (4, 6, 8, 10, 12):
            circuit = m.circuit(L)
            seed = m.orbit_seed(L)
            h = build_hamiltonian(circuit, BasisSubset.full_space(L)).h
            _, label = connected_components(abs(h) > 0, directed=False)
            component = np.flatnonzero(label == label[seed])
            assert np.array_equal(krylov_subspace(circuit, seed).states, component)


def test_qmbs_a_component_misses_only_inert_states(models):
    # the seed's component excludes exactly the two uniform dark states,
    # which the widened working basis restores
    m = models["qmbs-a"]
    for L in (8, 10, 12):
        sub = krylov_subspace(m.circuit(L), m.orbit_seed(L))
        assert sub.size == (1 << L) - 2
        missing = set(range(1 << L)) - set(int(s) for s in sub.states)
        assert missing == {0, (1 << L) - 1}
        assert working_subspace(m, L).size == expected_krylov_dimension("qmbs-a", L)


def test_subset_not_closed_reports_state(models):
    m = models["pxp"]
    L = 8
    circuit = m.circuit(L)
    sub = krylov_subspace(circuit, m.orbit_seed(L))
    broken = BasisSubset(sub.states[:-1], L)
    with pytest.raises(SubsetNotClosedError):
        build_hamiltonian(circuit, broken)


def test_pxp_bandwidth_near_thirty(models):
    m = models["pxp"]
    L = 16
    sub = krylov_subspace(m.circuit(L), m.orbit_seed(L))
    chain = build_hamiltonian(m.circuit(L), sub)
    evals = np.linalg.eigvalsh(chain.h.toarray())
    span = evals[-1] - evals[0]
    assert 25.0 < span < 36.0


def test_qmbs_c_embedded_block(models):
    L = 12
    subset = BasisSubset.full_space(L)
    chain = build_hamiltonian(models["qmbs-c"].circuit(L), subset)
    w = anti_aligned_pair_states(L)
    block = restrict_dense(chain.h, subset, w)
    assert np.max(np.abs(block - embedded_block_reference(L))) < 1e-12


def test_sector_operators_commute(models):
    m = models["qmbs-b"]
    L = 12
    sub = working_subspace(m, L)
    chain = build_hamiltonian(m.circuit(L), sub)
    assert operator_commutes(chain.h, sub, "S2") < 1e-10
    assert operator_commutes(chain.h, sub, "USM") < 1e-10


def test_project_sector_counts_and_hermiticity(models):
    m = models["qmbs-a"]
    L = 12
    sub = working_subspace(m, L)
    chain = build_hamiltonian(m.circuit(L), sub)
    sector = SymmetrySector((("S2", 1), ("USM", 1)))
    hs, basis = project_sector(chain.h, sub, sector)
    # orbit count of the dihedral action on 4096 states
    assert basis.size == 350
    assert np.max(np.abs(hs - hs.conj().T)) < 1e-10
    # the symmetric alternating-state combination survives projection
    neel = neel_index(L)
    members = [orbit for orbit, _ in basis.orbits if neel in orbit]
    assert len(members) == 1 and sorted(members[0]) == sorted(
        [tile_pattern("01", L), neel]
    )


def test_project_sector_spectrum_matches_direct_block(models):
    # oracle: diagonalize the full operator and compare sector eigenvalues
    m = models["qmbs-a"]
    L = 8
    sub = working_subspace(m, L)
    chain = build_hamiltonian(m.circuit(L), sub)
    sector = SymmetrySector((("S2", 1), ("USM", 1)))
    hs, basis = project_sector(chain.h, sub, sector)
    sector_evals = np.linalg.eigvalsh(hs)
    # build the projector onto the signed orbit sums explicitly
    dim = sub.size
    vecs = np.zeros((dim, basis.size), dtype=complex)
    for k, (members, signs) in enumerate(basis.orbits):
        for state, sign in zip(members, signs):
            vecs[sub.position(int(state)), k] = sign / np.sqrt(len(members))
    dense = chain.h.toarray()
    direct = vecs.conj().T @ dense @ vecs
    assert np.max(np.abs(direct - hs)) < 1e-10
    assert np.max(np.abs(np.linalg.eigvalsh(direct) - sector_evals)) < 1e-9


def project_sector_loop(mat, subset, basis):
    """Reference projection: one Python step per stored entry of each
    representative column, accumulated in CSC order."""
    csc = mat.tocsc()
    rep_of = {}
    for a, (members, signs) in enumerate(basis.orbits):
        for state, sign in zip(members, signs):
            rep_of[int(state)] = (a, int(sign))
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for b, (members, _) in enumerate(basis.orbits):
        col = subset.position(int(members[0]))
        for row, amp in zip(csc.indices[csc.indptr[col]:csc.indptr[col + 1]],
                            csc.data[csc.indptr[col]:csc.indptr[col + 1]]):
            hit = rep_of.get(int(subset.states[row]))
            if hit is not None:
                a, sign = hit
                out[a, b] += sign * amp * np.sqrt(len(members) / len(basis.orbits[a][0]))
    return out


@pytest.mark.parametrize("length", [8, 12])
@pytest.mark.parametrize("name", ["qmbs-a", "qmbs-b"])
def test_project_sector_matches_signed_orbit_sums(models, name, length):
    # oracles, in every S2 x USM character sector: the entry-by-entry loop
    # (same arithmetic in the same order, so equal), and V^dagger H V with
    # the sparse matrix V whose columns are the normalized signed orbit sums
    m = models[name]
    sub = working_subspace(m, length)
    h = build_hamiltonian(m.circuit(length), sub).h
    for s2 in (1, -1):
        for usm in (1, -1):
            hs, basis = project_sector(h, sub, SymmetrySector((("S2", s2), ("USM", usm))))
            rows = np.concatenate([sub.positions(members) for members, _ in basis.orbits])
            cols = np.concatenate([np.full(len(members), k) for k, (members, _) in enumerate(basis.orbits)])
            vals = np.concatenate([signs / np.sqrt(len(signs)) for _, signs in basis.orbits])
            v = sp.csc_matrix((vals, (rows, cols)), shape=(sub.size, basis.size))
            direct = (v.conj().T @ h @ v).toarray()
            assert np.array_equal(hs, project_sector_loop(h, sub, basis))
            assert hs.shape == direct.shape
            assert np.max(np.abs(hs - direct), initial=0.0) < 1e-12


def test_project_sector_rejects_noncommuting():
    # a gate with no mirror symmetry: USM fails to commute
    from scarforge.gate import parse_gate

    g = parse_gate([[2, 3]], [1.0] * 16)  # swap |0001> and |0010>
    circuit = FloquetCircuit(g, 8, "stride4")
    sub = BasisSubset.full_space(8)
    chain = build_hamiltonian(circuit, sub)
    sector = SymmetrySector((("USM", 1),))
    if operator_commutes(chain.h, sub, "USM") > 1e-9:
        with pytest.raises(ValueError):
            project_sector(chain.h, sub, sector)
    else:
        pytest.skip("probe gate unexpectedly symmetric")


def test_sector_basis_orthonormal(models):
    m = models["qmbs-b"]
    L = 10
    sub = working_subspace(m, L)
    basis = sector_basis(sub, SymmetrySector((("S2", 1), ("USM", 1))))
    dim = sub.size
    vecs = np.zeros((dim, basis.size))
    for k, (members, signs) in enumerate(basis.orbits):
        for state, sign in zip(members, signs):
            vecs[sub.position(int(state)), k] = sign / np.sqrt(len(members))
    gram = vecs.T @ vecs
    assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-12

