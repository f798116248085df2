import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_phase_gate, window_operator
from conftest import all_orbits, floquet_matrix
from scarforge.automaton import (
    FloquetCircuit,
    _same_layer_gates_commute,
    floquet_map,
    orbit_of,
)
from scarforge.basis import set_window, tile_pattern, window_value
from scarforge.gate import PermutationGate, gate_matrix, identity_gate
from scarforge.tolerances import WINDOW_COMMUTE_TOL


def test_geometry_validation(models):
    with pytest.raises(ValueError):
        FloquetCircuit(models["qmbs-a"].gate, 7, "stride4")
    with pytest.raises(ValueError):
        FloquetCircuit(models["qmbs-a"].gate, 12, "hexagonal")
    # non-commuting same-layer windows are rejected in the dense geometry
    with pytest.raises(ValueError):
        FloquetCircuit(models["qmbs-a"].gate, 12, "stride2")


def test_layer_sites(models):
    c = models["qmbs-a"].circuit(12)
    assert c.second_layer_sites == (1, 5, 9)
    assert c.first_layer_sites == (3, 7, 11)
    p = models["pxp"].circuit(8)
    assert p.second_layer_sites == (1, 3, 5, 7)
    assert p.first_layer_sites == (2, 4, 6, 8)


def test_brickwork_needed_for_application(models):
    c = models["qmbs-a"].circuit(10)  # valid Hamiltonian geometry, no automaton
    assert not c.is_brickwork
    with pytest.raises(ValueError):
        floquet_map(c, 0)


def test_identity_circuit_fixes_everything():
    c = FloquetCircuit(identity_gate(4), 8, "stride4")
    for x in range(256):
        image, phase = floquet_map(c, x)
        assert image == x and phase == 1.0
        orb = orbit_of(c, x)
        assert orb.cycle_length == 1 and orb.phi == 0.0


def test_qmbs_circuits_swap_alternating_states(models):
    L = 12
    neel = tile_pattern("10", L)
    anti = tile_pattern("01", L)
    for name in ("qmbs-a", "qmbs-b", "qmbs-c"):
        c = models[name].circuit(L)
        image, phase = floquet_map(c, neel)
        assert image == anti
        assert abs(phase - 1.0) < 1e-12
        orb = orbit_of(c, neel)
        assert orb.cycle_length == 2 and abs(orb.phi) < 1e-12


def test_pxp_protected_cycle(models):
    L = 12
    c = models["pxp"].circuit(L)
    orb = orbit_of(c, tile_pattern("1", L))
    assert orb.cycle_length == 3
    bits = [format(s, f"0{L}b") for s in orb.states]
    assert bits == ["1" * L, "01" * (L // 2), "10" * (L // 2)]
    assert abs(orb.phi) < 1e-12


def test_eigenphase_ladder(models):
    L = 12
    c = models["pxp"].circuit(L)
    orb = orbit_of(c, tile_pattern("1", L))
    phases = orb.eigenphases()
    assert np.allclose(np.diff(phases), 2 * np.pi / orb.cycle_length)


def test_floquet_eigenstates_are_eigenstates(models):
    # oracle: apply the circuit directly to the constructed eigenvector
    L = 12
    c = models["pxp"].circuit(L)
    orb = orbit_of(c, tile_pattern("1", L))
    betas, vectors = orb.eigenstates()
    for beta, vec in zip(betas, vectors):
        out = np.zeros_like(vec)
        for pos, x in enumerate(orb.states):
            image, phase = floquet_map(c, x)
            out[orb.states.index(image)] += phase * vec[pos]
        assert np.max(np.abs(out - np.exp(1j * beta) * vec)) < 1e-10
    # distinct eigenphases are orthogonal
    for a, va in enumerate(vectors):
        for b, vb in enumerate(vectors):
            ip = np.vdot(va, vb)
            assert abs(ip - (1.0 if a == b else 0.0)) < 1e-10


def test_two_cycle_eigenstates_are_symmetric_combinations(models):
    L = 8
    c = models["qmbs-c"].circuit(L)
    orb = orbit_of(c, tile_pattern("10", L))
    betas, vectors = orb.eigenstates()
    assert sorted(round(beta, 12) for beta in betas) == [0.0, round(np.pi, 12)]
    for vec in vectors:
        amps = np.sort(np.abs(vec))
        assert np.allclose(amps, [1 / np.sqrt(2)] * 2)


def test_fixed_point_phase_eigenstate():
    # single-state cycle with a nontrivial phase: eigenphase equals that angle
    from scarforge.gate import parse_gate

    phases = [np.exp(1j * np.pi / 3)] + [1.0] * 15  # label 1 fixed with a 6th root
    g = parse_gate([], phases)
    c = FloquetCircuit(g, 8, "stride4")
    orb = orbit_of(c, 0)
    assert orb.cycle_length == 1
    # four windows each contribute pi/3: total 4*pi/3, wrapped to -2*pi/3
    assert orb.phi == pytest.approx(-2 * np.pi / 3)
    betas, vectors = orb.eigenstates()
    assert betas[0] == pytest.approx(orb.phi)
    assert vectors.tolist() == [[1.0]]


def test_exhaustive_cycle_decomposition_l8(models):
    L = 8
    c = models["qmbs-b"].circuit(L)
    orbits = all_orbits(c)
    total = sum(o.cycle_length for o in orbits)
    assert total == 1 << L
    # all eigenstates together are a complete orthonormal basis
    vectors = np.zeros((1 << L, 1 << L), dtype=complex)
    k = 0
    for orb in orbits:
        for amps in orb.eigenstates()[1]:
            for pos, x in enumerate(orb.states):
                vectors[x, k] = amps[pos]
            k += 1
    assert k == 1 << L
    gram = vectors.conj().T @ vectors
    assert np.max(np.abs(gram - np.eye(1 << L))) < 1e-9


def _assert_floquet_map_matches_windows(circuit: FloquetCircuit):
    # oracle: the product of kron-embedded gate windows, first layer then
    # second, built without the bit gather/scatter of the Floquet map; each
    # window alone is the gate acting through window_value and set_window
    L = circuit.length
    gate = circuit.gate
    u = gate_matrix(gate)
    states = np.arange(1 << L, dtype=np.int64)
    product = sp.identity(1 << L, dtype=complex, format="csr")
    for site in circuit.first_layer_sites + circuit.second_layer_sites:
        window = window_operator(u, site, L)
        v = window_value(states, site, gate.width, L)
        images = set_window(states, site, gate.width, L, np.array(gate.perm)[v])
        dense = window.toarray()
        assert np.array_equal(dense[images, states], np.array(gate.phases)[v])
        assert np.count_nonzero(dense) == 1 << L
        product = window @ product
    product = product.toarray()
    assert np.max(np.abs(product @ product.conj().T - np.eye(1 << L))) < 1e-10
    assert np.max(np.abs(floquet_matrix(circuit) - product)) < 1e-12
    orbits = all_orbits(circuit)
    assert sorted(s for orb in orbits for s in orb.states) == list(range(1 << L))
    for orb in orbits:
        for beta, amps in zip(*orb.eigenstates()):
            vec = np.zeros(1 << L, dtype=complex)
            vec[list(orb.states)] = amps
            assert np.max(np.abs(product @ vec - np.exp(1j * beta) * vec)) < 1e-12


@settings(max_examples=8)
@given(seed=st.integers(0, 2**32 - 1), roots=st.sampled_from([4, 12]))
def test_floquet_map_matches_embedded_windows_for_random_gates(seed, roots):
    # fourth roots of unity are exact binary fractions, twelfth roots are
    # not: the map's products of phases must then round within the oracle's
    # tolerance too
    rng = np.random.default_rng(seed)
    gate = random_phase_gate(rng, phase_choices=np.exp(2j * np.pi * np.arange(roots) / roots))
    _assert_floquet_map_matches_windows(FloquetCircuit(gate, 8, "stride4"))


@pytest.mark.parametrize("name", ["pxp", "pxp-nophase"])
def test_floquet_map_matches_embedded_windows_stride2(models, name):
    _assert_floquet_map_matches_windows(models[name].circuit(8))


@pytest.mark.parametrize("name", ["qmbs-a", "qmbs-b", "qmbs-c"])
def test_floquet_map_matches_embedded_windows_stride4(models, name):
    _assert_floquet_map_matches_windows(models[name].circuit(8))


def _windows_commute_by_matrix(gate) -> bool:
    # oracle: the commutator of the gate and its copy two sites on, as
    # kron-embedded matrices on the w + 2 sites
    u, eye = gate_matrix(gate), np.eye(4)
    first, second = np.kron(u, eye), np.kron(eye, u)
    return bool(np.max(np.abs(first @ second - second @ first)) < WINDOW_COMMUTE_TOL)


def _bit(v, j, width):
    """Bit j of window value v, counted from the leading site."""
    return (v >> (width - 1 - j)) & 1


@st.composite
def same_layer_candidates(draw):
    """A phased gate of width 3 or 4 and whether its windows must commute.

    "random" gates rarely commute.  "leading" gates permute the two leading
    sites, which the copy two sites on does not touch, so they commute when
    the phases read only those sites too; "phased" gives them phases on all
    sites, "perturbed" moves such phases by 1e-14 or 1e-10.  "middle" gates
    flip the second site controlled by the first and third, with phases on
    those three, which commutes as well; "diagonal" gates always do.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.sampled_from([3, 4]))
    kind = draw(st.sampled_from(["random", "leading", "phased", "perturbed", "middle", "diagonal"]))
    dim, rest = 1 << width, width - 2
    values = np.arange(dim)
    roots = np.array((1, 1j, -1, -1j))
    if kind == "random":
        return random_phase_gate(rng, width), None
    if kind in ("leading", "phased", "perturbed"):
        pair = rng.permutation(4)
        perm = (pair[values >> rest] << rest) | (values & ((1 << rest) - 1))
        phases = rng.choice(roots, size=4)[values >> rest]
        if kind == "phased":
            phases = rng.choice(roots, size=dim)
        if kind == "perturbed":
            eps = draw(st.sampled_from([1e-14, 1e-10]))
            phases = phases * np.exp(1j * eps * rng.normal(size=dim))
        expected = {"leading": True, "phased": None, "perturbed": None}[kind]
    elif kind == "middle":
        control = rng.integers(0, 2, size=4)
        flip = control[2 * _bit(values, 0, width) + _bit(values, 2, width)]
        perm = values ^ (flip << (width - 2))
        phases = rng.choice(roots, size=8)[values >> rest]
        expected = True
    else:
        perm, phases = values, np.exp(2j * np.pi * rng.random(dim))
        expected = True
    return PermutationGate(width, tuple(int(v) for v in perm), tuple(complex(p) for p in phases)), expected


@settings(max_examples=60)
@given(candidate=same_layer_candidates())
def test_same_layer_commutation_matches_matrix_commutator(candidate):
    # the table check decides as the matrix commutator does, for gates that
    # commute by construction, that fail in their images, and that fail or
    # pass in their phases alone
    gate, expected = candidate
    got = _same_layer_gates_commute(gate)
    assert got == _windows_commute_by_matrix(gate)
    if expected is not None:
        assert got == expected


def test_same_layer_commutation_of_registry_gates(models):
    # the stride2 registry gates commute with their shifted copies, the
    # stride4 ones do not
    for name, model in models.items():
        assert _same_layer_gates_commute(model.gate) == (model.geometry == "stride2")
        assert _windows_commute_by_matrix(model.gate) == (model.geometry == "stride2")
