from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    antiunitary_gate,
    embedded_block_reference,
    floquet_matrix,
    near_antiunitary_hamiltonian,
    random_phase_gate,
    window_operator,
)
from scarforge import hamiltonian
from scarforge.automaton import FloquetCircuit
from scarforge.basis import (
    BasisSubset,
    flip_index,
    mirror_index,
    tile_pattern,
    translate_index,
)
from scarforge.gate import identity_gate
from scarforge.logmap import NonPeriodicGateError, principal_log
from scarforge.tolerances import ANTIUNITARY_TOL, ASSEMBLY_PRUNE, SECTOR_COMMUTE_TOL
from scarforge.hamiltonian import (
    SECTOR_OPERATORS,
    SubsetNotClosedError,
    SymmetrySector,
    build_hamiltonian,
    find_antiunitary,
    krylov_subspace,
    layer_orbits,
    momentum_basis,
    orbit_block,
    project_sector,
    sector_block,
    sector_group,
    window_sum,
)
from scarforge.models import (
    anti_aligned_pair_states,
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


@pytest.mark.parametrize("off, refused", [(0.4e-10, False), (0.6e-10, True)])
def test_window_log_hermiticity_checked_before_any_window_sum(models, monkeypatch, off, refused):
    # qmbs-b at L=8 has two windows per layer, so a window log off its
    # adjoint by 0.6e-10 bounds a layer's deviation by 1.2e-10, past
    # HERMITICITY_TOL, and is refused before any window sum is built; 0.4e-10
    # (a bound of 0.8e-10) is assembled
    m = models["qmbs-b"]
    circuit, subset = m.circuit(8), BasisSubset.full_space(8)
    local = principal_log(m.gate).matrix.copy()
    local[0, 1] += off
    sums = []
    monkeypatch.setattr(hamiltonian, "principal_log", lambda gate: SimpleNamespace(matrix=local))
    monkeypatch.setattr(hamiltonian, "window_sum", lambda *a: sums.append(a) or window_sum(*a))
    if refused:
        with pytest.raises(RuntimeError, match=r"the layers would lose hermiticity during assembly \(1\.20e-10\)"):
            build_hamiltonian(circuit, subset)
        assert sums == []
    else:
        assert build_hamiltonian(circuit, subset).h.shape == (subset.size, subset.size) and len(sums) == 2


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
    for m in models.values():
        _assert_hops_symmetric(principal_log(m.gate).matrix)
        for L in (4, 6, 8, 10, 12):
            circuit = m.circuit(L)
            seed = m.orbit_seed(L)
            h = build_hamiltonian(circuit, BasisSubset.full_space(L)).h
            _, label = connected_components(abs(h) > 0, directed=False)
            component = np.flatnonzero(label == label[seed])
            assert np.array_equal(krylov_subspace(circuit, seed).states, component)


def _phase_gate_log(seed):
    """A drawn stride4 phased gate and its window Hamiltonian, or a rejected
    example when the gate has no principal log."""
    gate = random_phase_gate(np.random.default_rng(seed))
    try:
        return gate, principal_log(gate).matrix
    except NonPeriodicGateError:
        assume(False)


def _assert_hops_symmetric(local):
    # the closure's hops | hops.T then adds no hop
    hops = np.abs(local) > ASSEMBLY_PRUNE
    assert np.array_equal(hops, hops.T)


@settings(max_examples=20)
@given(length=st.sampled_from([8, 12]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_krylov_subspace_is_connected_component_for_random_gates(length, seed, data):
    # oracle: the seed's component in the graph of the off-diagonal entries
    # of either layer, each of which comes from one window hop
    gate, local = _phase_gate_log(seed)
    _assert_hops_symmetric(local)
    circuit = FloquetCircuit(gate, length, "stride4")
    start = data.draw(st.integers(0, (1 << length) - 1), label="start")
    chain = build_hamiltonian(circuit, BasisSubset.full_space(length))
    _, label = connected_components((abs(chain.a) + abs(chain.b)) > 0, directed=False)
    component = np.flatnonzero(label == label[start])
    assert np.array_equal(krylov_subspace(circuit, start).states, component)


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


def _random_local(rng, width: int) -> np.ndarray:
    """A complex local matrix with about a third of its entries at or below ASSEMBLY_PRUNE."""
    dim = 1 << width
    local = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    tiny = rng.random((dim, dim)) < 0.35
    local[tiny] = rng.choice([0.0, ASSEMBLY_PRUNE, -ASSEMBLY_PRUNE, 0.5j * ASSEMBLY_PRUNE], size=tiny.sum())
    return local


@settings(max_examples=30)
@given(length=st.sampled_from([4, 6, 8]), width=st.sampled_from([2, 4]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_window_sum_matches_kron_windows(length, width, seed, data):
    # oracle: the kron-embedded local matrix with the entries at or below
    # ASSEMBLY_PRUNE zeroed, summed over the sites; the last site's window wraps
    rng = np.random.default_rng(seed)
    local = _random_local(rng, width)
    pruned = np.where(np.abs(local) > ASSEMBLY_PRUNE, local, 0.0)
    sites = data.draw(st.lists(st.integers(1, length), max_size=length)) + [length]
    space = BasisSubset.full_space(length)
    ops = {site: window_operator(pruned, site, length).toarray() for site in sites}
    for site, op in ops.items():    # one window adds nothing: exact
        assert np.array_equal(window_sum(space, [site], local).toarray(), op)
    want = sum(ops[site] for site in sites)
    # sums of at most k = len(sites) terms of modulus below 6, in another order
    bound = 6 * len(sites) ** 2 * np.finfo(float).eps
    assert np.max(np.abs(window_sum(space, sites, local).toarray() - want)) <= bound


@settings(max_examples=30)
@given(length=st.sampled_from([4, 6, 8]), width=st.sampled_from([2, 4]), seed=st.integers(0, 2**32 - 1))
def test_window_sum_names_a_leaving_state(length, width, seed):
    # on a subset the windows leave, the error names a subset state whose
    # image under the window at the named site has weight outside the subset
    rng = np.random.default_rng(seed)
    local = _random_local(rng, width)
    pruned = np.where(np.abs(local) > ASSEMBLY_PRUNE, local, 0.0)
    subset = BasisSubset(np.flatnonzero(rng.random(1 << length) < 0.8), length)
    outside = np.setdiff1d(np.arange(1 << length), subset.states)
    leaving = {
        site: set(subset.states[np.any(window_operator(pruned, site, length).toarray()[outside][:, subset.states], axis=0)])
        for site in (1, length)
    }
    assume(any(leaving.values()))
    with pytest.raises(SubsetNotClosedError) as err:
        window_sum(subset, [1, length], local)
    assert err.value.state_index in leaving[err.value.site]


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
    # the anti-aligned pair states are closed under the windows, so their
    # block is the operator on that subset; the trivial sector keeps every state
    subset = BasisSubset(anti_aligned_pair_states(L), L)
    chain = build_hamiltonian(models["qmbs-c"].circuit(L), subset)
    block, basis = project_sector(chain.h, subset, SymmetrySector())
    assert basis.size == subset.size
    assert np.max(np.abs(block - embedded_block_reference(L))) < 1e-12


def test_sector_operators_commute(models):
    m = models["qmbs-b"]
    L = 12
    sub = working_subspace(m, L)
    chain = build_hamiltonian(m.circuit(L), sub)
    for name in SECTOR_OPERATORS:
        _, _, (dev,) = sector_group(sub, SymmetrySector(((name, 1),)), (chain.h,))
        assert dev < 1e-10


def sector_vectors(basis):
    """Dense matrix whose columns are the normalized signed orbit sums."""
    slots = np.flatnonzero(basis.orbit >= 0)
    cols = basis.orbit[slots]
    vecs = np.zeros((len(basis.orbit), basis.size))
    vecs[slots, cols] = basis.sign[slots] / np.sqrt(basis.sizes[cols])
    return vecs


def real_form(block, basis):
    """W^dagger block W for a sector solved in the real basis W of its
    antiunitary symmetry; the block itself otherwise."""
    w = basis.rotation
    return block if w is None else w.conj().T @ block @ w


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
    neel = tile_pattern("10", L)
    column = basis.orbit[sub.position(neel)]
    members = [sub.states[basis.orbit == column]] if column >= 0 else []
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
    vecs = sector_vectors(basis)
    dense = chain.h.toarray()
    direct = vecs.conj().T @ dense @ vecs
    assert np.max(np.abs(real_form(direct, basis) - hs)) < 1e-10
    assert np.max(np.abs(np.linalg.eigvalsh(direct) - sector_evals)) < 1e-9


def project_sector_loop(mat, subset, basis):
    """Reference projection: one Python step per stored entry of each
    representative column, accumulated in CSC order."""
    csc = mat.tocsc()
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for b, col in enumerate(basis.reps):
        for row, amp in zip(csc.indices[csc.indptr[col]:csc.indptr[col + 1]],
                            csc.data[csc.indptr[col]:csc.indptr[col + 1]]):
            a = int(basis.orbit[row])
            if a >= 0:
                out[a, b] += int(basis.sign[row]) * amp * np.sqrt(int(basis.sizes[b]) / int(basis.sizes[a]))
    return out


@pytest.mark.parametrize("length", [8, 12])
@pytest.mark.parametrize("name", ["qmbs-a", "qmbs-b"])
def test_project_sector_matches_signed_orbit_sums(models, name, length):
    # oracles, in every S2 x USM character sector, for the orbit-sum block:
    # the entry-by-entry loop (same arithmetic in the same order, so equal),
    # and V^dagger H V with the sparse matrix V whose columns are the
    # normalized signed orbit sums.  qmbs-a and qmbs-b have Theta = K F, so
    # the projection is real and equals W^dagger (V^dagger H V) W
    m = models[name]
    sub = working_subspace(m, length)
    h = build_hamiltonian(m.circuit(length), sub).h
    for s2 in (1, -1):
        for usm in (1, -1):
            hs, basis = project_sector(h, sub, SymmetrySector((("S2", s2), ("USM", usm))))
            v = sp.csc_matrix(sector_vectors(basis))
            direct = (v.conj().T @ h @ v).toarray()
            block = orbit_block(h, basis).toarray()
            assert np.array_equal(block, project_sector_loop(h, sub, basis))
            assert block.shape == direct.shape
            assert np.max(np.abs(block - direct), initial=0.0) < 1e-12
            assert np.isrealobj(hs) and basis.rotation is not None
            assert np.max(np.abs(hs - real_form(direct, basis)), initial=0.0) < 1e-12


def test_project_sector_rejects_noncommuting():
    # a gate with no mirror symmetry: USM fails to commute
    from scarforge.gate import parse_gate

    g = parse_gate([[2, 3]], [1.0] * 16)  # swap |0001> and |0010>
    circuit = FloquetCircuit(g, 8, "stride4")
    sub = BasisSubset.full_space(8)
    chain = build_hamiltonian(circuit, sub)
    sector = SymmetrySector((("USM", 1),))
    _, _, (dev,) = sector_group(sub, sector, (chain.h,))
    assert dev > SECTOR_COMMUTE_TOL
    with pytest.raises(ValueError, match="does not commute"):
        project_sector(chain.h, sub, sector)


def test_sector_basis_orthonormal(models):
    m = models["qmbs-b"]
    L = 10
    sub = working_subspace(m, L)
    basis, _, _ = sector_group(sub, SymmetrySector((("S2", 1), ("USM", 1))))
    vecs = sector_vectors(basis)
    gram = vecs.T @ vecs
    assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-12


def reference_orbits(subset, sector, period=2):
    """Reference sector basis: a breadth-first walk from every unassigned
    state, one Python step per state and operator, signs kept in a dict.
    S2 translates by `period` sites.  Orbits whose signs contradict each
    other are dropped."""
    def image(name, x):
        if name == "S2":
            return translate_index(x, period, subset.length)
        return flip_index(translate_index(mirror_index(x, subset.length), 1, subset.length), subset.length)

    images = []
    for name, val in sector.operators:
        slots = subset.find(image(name, subset.states))
        if np.any(slots < 0):
            raise ValueError(f"subset is not invariant under {name}")
        images.append((slots.tolist(), val))
    assigned = np.zeros(subset.size, dtype=bool)
    orbits = []
    for start in range(subset.size):
        if assigned[start]:
            continue
        signs = {start: 1}
        queue = deque([start])
        consistent = True
        while queue:
            x = queue.popleft()
            for slots, val in images:
                y = slots[x]
                sgn = signs[x] * val
                if y in signs:
                    if signs[y] != sgn:
                        consistent = False
                else:
                    signs[y] = sgn
                    queue.append(y)
        members = np.array(sorted(signs), dtype=np.int64)
        assigned[members] = True
        if consistent:
            orbits.append((subset.states[members], np.array([signs[int(x)] for x in members])))
    return orbits


def assert_orbits_match(basis, subset, want):
    """The sector basis holds the walk's orbits in the same order, with the
    same members and signs."""
    assert basis.size == len(want)
    assert np.array_equal(basis.reps, subset.positions([members[0] for members, _ in want]))
    for k, (members, signs) in enumerate(want):
        got = np.flatnonzero(basis.orbit == k)
        assert np.array_equal(subset.states[got], members)
        assert np.array_equal(basis.sign[got], signs)
        assert basis.sizes[k] == len(members)


def reference_images(subset, period):
    """Row j holds the slot of every state translated j times by `period`
    sites, j = 0..M, walked one Python step per state and translation."""
    order = subset.length // np.gcd(subset.length, period)
    rows = np.empty((order + 1, subset.size), dtype=np.int64)
    for slot, state in enumerate(subset.states.tolist()):
        for j in range(order + 1):
            rows[j, slot] = subset.position(state)
            state = translate_index(state, period, subset.length)
    return rows


def check_layer_group(subset, period):
    """`sector_group` with S2 as translation by `period` sites, in both S2
    characters, against the orbit walk and the per-state images; a subset
    the translation does not keep is refused by both.  Whether the
    translation keeps the subset."""
    for s2 in (1, -1):
        sector = SymmetrySector((("S2", s2),))
        try:
            want = reference_orbits(subset, sector, period)
        except ValueError:
            with pytest.raises(ValueError, match="not invariant"):
                sector_group(subset, sector, period=period)
            return False
        basis, images, devs = sector_group(subset, sector, period=period)
        assert_orbits_match(basis, subset, want)
        assert devs == [] and np.array_equal(images, reference_images(subset, period))
    return True


SECTOR_SPECS = [((name, val),) for name in ("S2", "USM") for val in (1, -1)] + [
    (("S2", s2), ("USM", usm)) for s2 in (1, -1) for usm in (1, -1)
]


@pytest.mark.parametrize("length", [6, 8, 10, 12])
def test_sector_basis_matches_orbit_walk(models, length):
    # every registry model's working subspace and the full space, in all
    # eight one- and two-operator sectors: the same orbits in the same
    # order, with the same members and signs; a subset the operators do
    # not preserve is refused by both
    subsets = [working_subspace(m, length) for m in models.values()] + [BasisSubset.full_space(length)]
    for sub in subsets:
        for spec in SECTOR_SPECS:
            sector = SymmetrySector(spec)
            try:
                want = reference_orbits(sub, sector)
            except ValueError:
                with pytest.raises(ValueError, match="not invariant"):
                    sector_group(sub, sector)
                continue
            basis, _, _ = sector_group(sub, sector)
            assert_orbits_match(basis, sub, want)
            # exactly an odd S2 character at L = 2 (mod 4) empties a sector
            assert (basis.size == 0) == (("S2", -1) in spec and length % 4 == 2)


@pytest.mark.parametrize("length", [8, 12])
@pytest.mark.parametrize("name", ["qmbs-a", "qmbs-b", "qmbs-c"])
def test_layer_group_matches_translation_walk(models, name, length):
    # the stride4 layers are tagged with translation by 4 sites (M = 2 and
    # 3): the layer group is the orbit walk's, image row by image row, and
    # `layer_orbits` returns it for the tagged layers
    sub = working_subspace(models[name], length)
    assert check_layer_group(sub, 4)
    chain = build_hamiltonian(models[name].circuit(length), sub)
    assert chain.a.period == chain.b.period == 4
    basis, images = layer_orbits(chain.a, chain.b)
    assert basis.size < sub.size
    assert_orbits_match(basis, sub, reference_orbits(sub, SymmetrySector((("S2", 1),)), 4))
    assert np.array_equal(images, reference_images(sub, 4))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.sampled_from((8, 12)))
def test_layer_group_matches_translation_walk_for_random_gates(seed, length):
    # the full space, the Krylov closure of a random state under a random
    # phased stride4 gate and a random half of that closure: the group of
    # translation by 4 sites matches the walk, or, on a subset the
    # translation does not keep, both refuse it
    rng = np.random.default_rng(seed)
    circuit = FloquetCircuit(random_phase_gate(rng), length, "stride4")
    closure = krylov_subspace(circuit, int(rng.integers(1 << length)))
    check_layer_group(closure, 4)
    assert check_layer_group(BasisSubset.full_space(length), 4)
    check_layer_group(BasisSubset(rng.choice(closure.states, closure.size // 2, replace=False), length), 4)


def momentum_sectors(h, sub, theta=None):
    """`sector_block` of every S2 momentum k, its basis derived from the
    S2 = +1 basis by `momentum_basis`: (block, basis) per k."""
    group, images, _ = sector_group(sub)
    theta = find_antiunitary(h, sub) if theta is None else theta
    order = len(images) - 1
    bases = [momentum_basis(group, order, k) for k in range(order)]
    return [sector_block(orbit_block(h, basis), basis, theta) for basis in bases]


@pytest.mark.parametrize("length", [8, 10, 12])
@pytest.mark.parametrize("name", ["pxp", "qmbs-b"])
def test_momentum_sectors_split_the_operator(models, name, length):
    # for every S2 momentum k (M = 4, 5 and 6 momenta): the columns
    # sum_x sign[x] |x> / sqrt(size) are orthonormal eigenvectors of S2 with
    # eigenvalue e^{2 pi i k / M}, the projected block is V^dagger H V, the
    # blocks together hold every subset state once and their spectra make up
    # the full one; the k = 0 block is the S2 = +1 sector bit for bit
    sub = working_subspace(models[name], length)
    h = build_hamiltonian(models[name].circuit(length), sub).h
    order = length // 2    # M of S2 at even L
    s2 = sp.csr_matrix((np.ones(sub.size), (sub.find(translate_index(sub.states, 2, length)), np.arange(sub.size))))
    levels, count = [], 0
    sectors = momentum_sectors(h, sub)
    for k, (block, basis) in enumerate(sectors):
        slots = np.flatnonzero(basis.orbit >= 0)
        v = np.zeros((sub.size, basis.size), dtype=complex)
        v[slots, basis.orbit[slots]] = basis.sign[slots] / np.sqrt(basis.sizes[basis.orbit[slots]])
        assert np.max(np.abs(v.conj().T @ v - np.eye(basis.size)), initial=0.0) < 1e-12
        assert np.max(np.abs(s2 @ v - np.exp(2j * np.pi * k / order) * v), initial=0.0) < 1e-12
        assert np.max(np.abs(block - real_form(v.conj().T @ (h @ v), basis)), initial=0.0) < 1e-12
        levels.append(np.linalg.eigvalsh(block))
        count += basis.size
    assert count == sub.size
    assert np.max(np.abs(np.sort(np.concatenate(levels)) - np.linalg.eigvalsh(h.toarray()))) < 1e-10
    zero, _ = sectors[0]
    assert np.array_equal(zero, project_sector(h, sub, SymmetrySector((("S2", 1),)))[0])


def test_sector_rejects_repeated_operator():
    with pytest.raises(ValueError, match="given twice"):
        SymmetrySector((("S2", 1), ("S2", -1)))


@settings(max_examples=6, deadline=None)
@example(seed=12)
@given(seed=st.integers(0, 2**32 - 1))
def test_antiunitary_sectors_match_complex_path_for_random_gates(seed):
    # oracle on the L=8 full space: a gate built so that F carries its core
    # to the transpose has Theta = K F, or a real H (seed 12), Theta = K.  In
    # every sector of S2 x USM and every momentum, the projection is real
    # exactly when the characters are and Theta = K F or H is real; it is
    # rotated exactly when the characters are real and Theta = K F, equals
    # W^dagger B W for the orbit-sum block B, and has B's spectrum.  A random
    # phased gate breaks F and keeps complex blocks with no rotation
    rng = np.random.default_rng(seed)
    sub = BasisSubset.full_space(8)
    h = build_hamiltonian(FloquetCircuit(antiunitary_gate(rng), 8, "stride4"), sub).h
    name, _, dev = find_antiunitary(h, sub)
    assert name == ("F" if np.iscomplexobj(h) else "identity") and dev <= ANTIUNITARY_TOL
    sectors = [project_sector(h, sub, SymmetrySector(spec)) for spec in SECTOR_SPECS]
    sectors += momentum_sectors(h, sub)
    for hs, basis in sectors:
        block = orbit_block(h, basis).toarray()
        real_characters = not np.iscomplexobj(basis.sign)
        assert np.isrealobj(hs) == (real_characters and (name == "F" or np.isrealobj(h)))
        assert (basis.rotation is not None) == (real_characters and name == "F")
        assert np.max(np.abs(hs - real_form(block, basis)), initial=0.0) < 1e-12
        assert np.max(np.abs(np.linalg.eigvalsh(hs) - np.linalg.eigvalsh(block)), initial=0.0) < 1e-10
    broken = build_hamiltonian(FloquetCircuit(random_phase_gate(rng), 8, "stride4"), sub).h
    assert find_antiunitary(broken, sub)[0] is None
    for hs, basis in momentum_sectors(broken, sub):
        assert np.iscomplexobj(hs) and basis.rotation is None
        assert np.array_equal(hs, orbit_block(broken, basis).toarray())


def test_antiunitary_sector_left_complex_by_rotation_keeps_orbit_block():
    # a deviation just inside ANTIUNITARY_TOL passes detection, but the
    # rotated imaginary parts add up over orbit members and can exceed the
    # tolerance: such a sector keeps its complex orbit block and its levels,
    # the others are solved real
    h, sub = near_antiunitary_hamiltonian()
    theta = find_antiunitary(h, sub)
    assert theta[0] == "F" and theta[2] <= ANTIUNITARY_TOL
    sectors = [project_sector(h, sub, SymmetrySector(spec), theta) for spec in SECTOR_SPECS]
    sectors += momentum_sectors(h, sub, theta)
    kept = []
    for hs, basis in sectors:
        block = orbit_block(h, basis).toarray()
        if basis.rotation is None:
            assert np.array_equal(hs, block)
            kept.append(not np.iscomplexobj(basis.sign))
        else:
            assert np.isrealobj(hs)
        assert np.max(np.abs(np.linalg.eigvalsh(hs) - np.linalg.eigvalsh(block)), initial=0.0) < 1e-10
    assert sum(kept) == 4    # k = 2 and the three S2 = -1 sectors


@pytest.mark.parametrize("length", [8, 12])
def test_find_antiunitary_reads_real_form_and_checks_flip_for_models(models, length):
    # a float64 H (pxp, pxp-nophase and qmbs-c on their working subspaces)
    # has Theta = K at deviation 0; qmbs-a and qmbs-b are complex with
    # Theta = K F; qmbs-c on the full space is complex and has neither, and a
    # subset F does not keep has no Theta, at deviation inf
    for name, m in models.items():
        sub = working_subspace(m, length)
        h = build_hamiltonian(m.circuit(length), sub).h
        theta, slots, dev = find_antiunitary(h, sub)
        if name in ("qmbs-a", "qmbs-b"):
            assert np.iscomplexobj(h) and theta == "F" and dev <= 1e-14
            assert np.array_equal(slots, sub.find(flip_index(sub.states, length)))
        else:
            assert h.dtype == np.float64 and theta == "identity" and dev == 0.0
            assert np.array_equal(slots, np.arange(sub.size))
    full = BasisSubset.full_space(length)
    h = build_hamiltonian(models["qmbs-c"].circuit(length), full).h
    theta, slots, dev = find_antiunitary(h, full)
    assert np.iscomplexobj(h) and theta is None and slots is None and dev > ANTIUNITARY_TOL
    n = 1 << (length - 2)    # the lowest quarter: F takes state 0 to 1...1, outside it
    assert find_antiunitary(h[:n, :n], BasisSubset(np.arange(n), length)) == (None, None, np.inf)


def flipped_copy_antiunitary(h, sub):
    """`find_antiunitary` by the permuted copy: F's slot map by a binary
    search for every flipped state, and F H F by fancy-indexing H with it."""
    if not np.iscomplexobj(h):
        return "identity", np.arange(sub.size), 0.0
    slots = sub.find(flip_index(sub.states, sub.length))
    if np.any(slots < 0):
        return None, None, np.inf
    dev = float(abs(sp.csr_matrix(h)[slots][:, slots] - h.conj()).max())
    return ("F", slots, dev) if dev <= ANTIUNITARY_TOL else (None, None, dev)


@settings(max_examples=12, deadline=None)
@example(seed=0, length=8, flip=True, krylov=True)     # Theta = K F on a 128-state Krylov subset
@example(seed=1, length=8, flip=True, krylov=True)     # a 16-state Krylov subset that F does not keep
@example(seed=7, length=8, flip=True, krylov=True)     # a real H, Theta = K
@given(seed=st.integers(0, 2**32 - 1), length=st.sampled_from((8, 12)), flip=st.booleans(), krylov=st.booleans())
def test_find_antiunitary_matches_the_permuted_copy_for_random_gates(seed, length, flip, krylov):
    # a random phased gate (no Theta) or one built with Theta = K F, on the
    # full space or on the Krylov subset of a random seed state, which F may
    # or may not keep: the slot reversal and the reversed CSR arrays give the
    # name, the slots and the deviation of the permuted copy, bit for bit
    rng = np.random.default_rng(seed)
    circuit = FloquetCircuit(antiunitary_gate(rng) if flip else random_phase_gate(rng), length, "stride4")
    sub = krylov_subspace(circuit, int(rng.integers(1 << length))) if krylov else BasisSubset.full_space(length)
    h = build_hamiltonian(circuit, sub).h
    name, slots, dev = find_antiunitary(h, sub)
    want_name, want_slots, want_dev = flipped_copy_antiunitary(h, sub)
    assert name == want_name and dev == want_dev
    assert (slots is None and want_slots is None) or np.array_equal(slots, want_slots)


def _complex_layers(circuit, subset):
    """A and B as the complex window sums, before any real form is taken."""
    local = principal_log(circuit.gate).matrix
    return (window_sum(subset, circuit.second_layer_sites, local),
            window_sum(subset, circuit.first_layer_sites, local))


@pytest.mark.parametrize("length", [8, 12])
@pytest.mark.parametrize("name", ["pxp", "pxp-nophase", "qmbs-c", "qmbs-a", "qmbs-b"])
def test_build_hamiltonian_decides_the_real_form(models, name, length):
    # pxp, pxp-nophase and qmbs-c assemble float64 A, B and H equal bit for
    # bit to the real parts of the complex assembly; qmbs-a and qmbs-b stay
    # complex and equal to it
    model = models[name]
    circuit, sub = model.circuit(length), working_subspace(model, length)
    chain = build_hamiltonian(circuit, sub)
    a, b = _complex_layers(circuit, sub)
    real = name in ("pxp", "pxp-nophase", "qmbs-c")
    for got, ref in ((chain.a, a), (chain.b, b), (chain.h, a + b)):
        assert got.dtype == (np.float64 if real else np.complex128)
        assert (got != (ref.real if real else ref)).nnz == 0


@pytest.mark.parametrize("name", ["pxp", "pxp-nophase", "qmbs-c"])
def test_real_sector_levels_match_complex_solve(models, name):
    # the levels rstat solves from the real orbit block match a complex
    # eigvalsh of the orbit block of the complex assembly
    model, length = models[name], 16
    circuit, sub = model.circuit(length), working_subspace(model, length)
    sector = SymmetrySector((("S2", 1),))
    block, basis = project_sector(build_hamiltonian(circuit, sub).h, sub, sector)
    assert block.dtype == np.float64
    a, b = _complex_layers(circuit, sub)
    reference = np.linalg.eigvalsh(orbit_block(a + b, basis).toarray())
    assert np.max(np.abs(np.linalg.eigvalsh(block) - reference)) < 1e-12
