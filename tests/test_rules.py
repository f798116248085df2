import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_phase_gate, window_operator
from scarforge.automaton import FloquetCircuit, orbit_of
from scarforge.basis import BasisSubset, tile_pattern, translate_index
from scarforge.gate import PermutationGate, gate_matrix, identity_gate, phased_cycles
from scarforge.hamiltonian import window_sum
from scarforge.logmap import principal_log
from scarforge.models import neel_orbit_states
from scarforge.rules import (
    SearchConstraints,
    _cycle_walk,
    _layout,
    _span,
    _span_operators,
    _span_words,
    _type1_hits,
    count_relevant_rules,
    enumerate_rule_instances,
    lift_three_qubit_permutation,
    rule_outcomes,
    rule_report,
    search_models,
)


def test_count_formula():
    assert count_relevant_rules(2, 6, True, 12) == 350
    assert count_relevant_rules(2, 6, True, 16) == 350
    assert count_relevant_rules(1, 1, True, 12) == 0
    assert count_relevant_rules(2, 6, False, 12) == 350 * 6


def test_instance_enumeration_totals(models):
    for L in (8, 12, 16):
        m = models["qmbs-c"]
        states, sites, powers = enumerate_rule_instances(m.circuit(L), neel_orbit_states(m, L), 6)
        assert len(states) == len(sites) == len(powers) == 350
    pxp = models["pxp"]
    for L in (8, 12, 16):
        states, sites, powers = enumerate_rule_instances(pxp.circuit(L), neel_orbit_states(pxp, L), 3)
        assert len(states) == len(sites) == len(powers) == 48


def test_pxp_instance_composition(models):
    # 16 rules on the uniform state (one site class), 32 on the alternating one
    pxp = models["pxp"]
    L = 12
    states, _, _ = enumerate_rule_instances(pxp.circuit(L), neel_orbit_states(pxp, L), 3)
    uniform = tile_pattern("1", L)
    assert np.count_nonzero(states == uniform) == 16
    assert np.count_nonzero(states != uniform) == 32


def test_trivial_middle_power_always_passes(models):
    m = models["qmbs-a"]
    circuit = m.circuit(12)
    state = tile_pattern("10", 12)
    for s1, s3 in ((1, 0), (3, 2), (0, 5)):
        assert rule_outcomes(circuit, ([state], [1], [(s1, 0, s3)]))[0]


def test_identity_gate_rules_all_pass():
    circuit = FloquetCircuit(identity_gate(4), 12, "stride4")
    state = tile_pattern("10", 12)
    report = rule_report(circuit, [state, translate_index(state, 1, 12)], 6, "I")
    assert report.satisfied == report.total == 350
    h = principal_log(identity_gate(4)).matrix
    assert rule_outcomes(circuit, ([state], [1], [(2, 1, 1)]), "II", h)[0] < 1e-12


def test_table_rule_ratios(models):
    expected = {"qmbs-a": 70, "qmbs-b": 246, "qmbs-c": 350}
    for name, want in expected.items():
        m = models[name]
        report = rule_report(m.circuit(12), neel_orbit_states(m, 12), 6, "I")
        assert report.ratio == (want, 350)


def test_pxp_type2_ratio(models):
    m = models["pxp"]
    report = rule_report(m.circuit(12), neel_orbit_states(m, 12), 3, "II")
    assert report.ratio == (38, 48)
    residuals = np.array(report.residuals)
    # violations are order one, far from the satisfaction threshold
    assert residuals[residuals > 1e-9].min() > 1.0


def test_ratios_independent_of_length(models):
    for L in (8, 16):
        m = models["qmbs-b"]
        report = rule_report(m.circuit(L), neel_orbit_states(m, L), 6, "I")
        assert report.ratio == (246, 350)


def test_type1_inverse_gate_symmetry(rng):
    # phase-free rules are invariant under inverting the gate and negating all
    # powers modulo the gate's own order
    from conftest import permutation_order

    L = 12
    state = tile_pattern("10", L)
    for _ in range(20):
        perm = rng.permutation(16)
        gate = PermutationGate(4, tuple(int(v) for v in perm), (1.0 + 0j,) * 16)
        inv = np.empty(16, dtype=int)
        inv[perm] = np.arange(16)
        gate_inv = PermutationGate(4, tuple(int(v) for v in inv), (1.0 + 0j,) * 16)
        m = permutation_order(gate)
        ca = FloquetCircuit(gate, L, "stride4")
        cb = FloquetCircuit(gate_inv, L, "stride4")
        powers = np.array([rng.integers(0, m, size=3) for _ in range(10)])
        rules = ([state] * 10, [1] * 10, powers)
        mirror_rules = ([state] * 10, [1] * 10, (m - powers) % m)
        assert np.array_equal(rule_outcomes(ca, rules), rule_outcomes(cb, mirror_rules))


def test_global_rule_consequence_when_all_pass(models):
    # all type-I rules passing forces [A^a, B^b] to vanish on the orbit
    from scarforge.basis import BasisSubset
    from scarforge.hamiltonian import build_hamiltonian

    for L in (8, 12):
        m = models["qmbs-c"]
        subset = BasisSubset.full_space(L)
        chain = build_hamiltonian(m.circuit(L), subset)
        cols = [subset.position(s) for s in neel_orbit_states(m, L)]
        for a_pow in (1, 2):
            for b_pow in (1, 2):
                lhs = (chain.a**a_pow) @ (chain.b**b_pow)
                rhs = (chain.b**b_pow) @ (chain.a**a_pow)
                comm = (lhs - rhs).toarray()
                assert np.linalg.norm(comm[:, cols]) < 1e-9


def test_lift_three_qubit_permutation():
    # a stack of one swap and the identity: rows lift independently
    lifted = lift_three_qubit_permutation([[1, 0, 2, 3, 4, 5, 6, 7], list(range(8))])
    assert lifted.shape == (2, 16)
    assert lifted[0, 0] == 2 and lifted[0, 1] == 3
    assert lifted[0, 2] == 0 and lifted[0, 3] == 1
    assert np.array_equal(lifted[0, 4:], np.arange(4, 16))
    assert np.array_equal(lifted[1], np.arange(16))


def test_search_reproduces_table_models(models):
    results = search_models(SearchConstraints())
    by_cycles = {r.cycles: r for r in results}
    for name, satisfied in (("qmbs-a", 70), ("qmbs-b", 246), ("qmbs-c", 350)):
        want = tuple(tuple(c) for c in models[name].gate.label_cycles())
        hit = by_cycles[want]
        assert hit.satisfied == satisfied
        assert hit.total == 350
        assert hit.order == 6
        assert hit.orbit_is_cycle
    assert results[0].satisfied == 350
    # descending by satisfied count
    sat = [r.satisfied for r in results]
    assert sat == sorted(sat, reverse=True)


def test_search_order_filter_one_keeps_identity_only():
    results = search_models(SearchConstraints(order=1))
    assert len(results) == 1
    assert results[0].cycles == ()
    assert results[0].order == 1
    assert results[0].total == 0


def test_order_filter_matches_cycle_walk():
    # reference: a permutation's order is the lcm of its cycle lengths, so
    # perm^n is the identity exactly when that lcm divides n
    perms = np.array(list(itertools.permutations(range(8))))
    orders = np.array([
        math.lcm(*(len(values) for values, _, _ in phased_cycles(tuple(p), (1,) * 8)))
        for p in perms.tolist()
    ])
    walk, lengths = _cycle_walk(perms.astype(np.int8))
    walked = np.lcm.reduce(lengths, axis=1)
    assert np.array_equal(walk[:, :, 1], perms)
    for n in range(13):
        assert np.array_equal(n % walked == 0, n % orders == 0)
    assert np.count_nonzero(4 % orders == 0) == 6224


@pytest.mark.parametrize("bad", [{"order": 0}, {"order": -2}])
def test_search_constraints_reject_invalid(bad):
    # an order below 1 is no order filter
    with pytest.raises(ValueError):
        SearchConstraints(**bad)


def _cycle_lengths(perm3) -> list[int]:
    return [len(values) for values, _, _ in phased_cycles(perm3, (1,) * 8)]


@pytest.fixture(scope="module")
def search_rows():
    """Order-6 search rows, keyed by label cycles."""
    return {r.cycles: r for r in search_models(SearchConstraints())}


@settings(max_examples=12, deadline=None)
@given(perm3=st.permutations(range(8)).filter(lambda p: 6 % math.lcm(*_cycle_lengths(p)) == 0))
def test_search_rows_match_per_gate_reference(search_rows, perm3):
    # oracle: the lifted gate as one PermutationGate, scored by rule_report,
    # its Neel orbit walked by orbit_of and its cycles read by phased_cycles;
    # the search scores at L = 8, and a rule reads no site beyond its span,
    # so the same row must hold at L = 12
    cycles = [values for values, _, _ in phased_cycles(perm3, (1,) * 8) if len(values) > 1]
    labels = tuple(tuple(2 * v + b + 1 for v in values) for values in cycles for b in (0, 1))
    gate = PermutationGate(4, tuple(lift_three_qubit_permutation(perm3).tolist()), (1.0 + 0j,) * 16)
    assert labels in search_rows
    row = search_rows[labels]
    for length in (8, 12):
        circuit = FloquetCircuit(gate, length, "stride4")
        neel = [tile_pattern("10", length), tile_pattern("01", length)]
        assert (row.satisfied, row.total) == rule_report(circuit, neel, 6, "I").ratio
        assert row.orbit_is_cycle == (orbit_of(circuit, neel[0]).states == tuple(neel))
        assert row.order == math.lcm(*_cycle_lengths(perm3))


@pytest.mark.parametrize("length", [12, 4])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_stacked_type1_matches_single_gate_calls(length, seed):
    # one kernel call on a stack of gates, a phase-free one among them, must
    # give each gate's own rule_outcomes row
    rng = np.random.default_rng(seed)
    gates = [random_phase_gate(rng) for _ in range(4)] + [random_phase_gate(rng, phase_choices=(1,))]
    circuits = [FloquetCircuit(g, length, "stride4") for g in gates]
    states = [tile_pattern("10", length), tile_pattern("01", length), int(rng.integers(1 << length))]
    instances = enumerate_rule_instances(circuits[0], states, 5)
    words, powers = _span_words(circuits[0], *instances[:2]), instances[2]
    perms = np.array([g.perm for g in gates])
    phases = np.array([g.phases for g in gates], dtype=complex)
    stacked = _type1_hits(_layout(*_span(circuits[0])), perms, phases, words, powers)
    assert np.array_equal(stacked, [rule_outcomes(c, instances) for c in circuits])


def test_search_runs_in_one_process():
    with pytest.raises(ValueError, match="one process"):
        search_models(SearchConstraints(order=2), workers=2)


def test_ring_ratios_below_span(models):
    # L=4 is shorter than the rule span, so every rule reads the whole ring
    type1 = {
        "qmbs-a": (194, 350),
        "qmbs-b": (254, 350),
        "qmbs-c": (350, 350),
        "pxp": (369, 525),
        "pxp-nophase": (417, 525),
    }
    for name, want in type1.items():
        m = models[name]
        assert rule_report(m.circuit(4), neel_orbit_states(m, 4), 6, "I").ratio == want
    for name, want in (("pxp", 38), ("pxp-nophase", 24)):
        m = models[name]
        report = rule_report(m.circuit(4), neel_orbit_states(m, 4), 3, "II")
        assert report.ratio == (want, 48)


def _reference_outcomes(circuit: FloquetCircuit, instances, local: np.ndarray) -> np.ndarray:
    """Residual norm of both orderings of every rule, on the full chain."""
    d, length = circuit.site_stride, circuit.length
    ops = {}
    out = []
    for state, site, (s1, s2, s3) in zip(*instances):
        sites = [(site - 1 + k * d) % length + 1 for k in range(3)]
        for site in sites:
            if site not in ops:
                ops[site] = window_operator(local, site, length)
        left, middle, right = (ops[site] for site in sites)
        lhs = rhs = np.eye(1, 1 << length, state, dtype=complex).ravel()
        for op, power in ((middle, s2), (right, s3), (left, s1)):
            for _ in range(power):
                lhs = op @ lhs
        for op, power in ((right, s3), (left, s1), (middle, s2)):
            for _ in range(power):
                rhs = op @ rhs
        out.append(np.linalg.norm(lhs - rhs))
    return np.array(out)


def _assert_engine_matches_reference(circuit: FloquetCircuit, states, n1: int, n2: int):
    type1 = enumerate_rule_instances(circuit, states, n1)
    reference = _reference_outcomes(circuit, type1, gate_matrix(circuit.gate))
    assert np.array_equal(rule_outcomes(circuit, type1), reference < 1e-10)
    type2 = enumerate_rule_instances(circuit, states, n2)
    local = principal_log(circuit.gate).matrix
    assert np.allclose(rule_outcomes(circuit, type2, "II"), _reference_outcomes(circuit, type2, local),
                       rtol=0, atol=1e-10)


@pytest.mark.parametrize("length", [12, 4])
@settings(max_examples=6)
@given(seed=st.integers(0, 2**32 - 1))
def test_engine_matches_full_space_for_random_gates(length, seed):
    # oracle: embedded gate and window-Hamiltonian powers on the full chain,
    # for the segment case (L=12 > span 8) and the ring case (L=4 < span 8)
    rng = np.random.default_rng(seed)
    circuit = FloquetCircuit(random_phase_gate(rng), length, "stride4")
    states = [tile_pattern("10", length), tile_pattern("01", length), int(rng.integers(1 << length))]
    _assert_engine_matches_reference(circuit, states, 5, 3)


def test_engine_matches_full_space_for_models(models):
    # the same oracle on the registry gates, stride2 windows included
    for m in models.values():
        for length, irregular in ((4, 0b0110), (12, 0b011010011100)):
            states = neel_orbit_states(m, length) + [irregular]
            _assert_engine_matches_reference(m.circuit(length), states, 4, 3)


def _assert_span_operators_match_window_sum(circuit: FloquetCircuit, local: np.ndarray):
    stride, width, m = _span(circuit)
    words = BasisSubset.full_space(m)
    for k, op in enumerate(_span_operators(_layout(stride, width, m), local)):
        ref = window_sum(words, [1 + k * stride], local)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(op, part), getattr(ref, part)), (k, part)


def test_span_operators_match_window_sum_for_models(models):
    # the type-II operators read off the layout tables are the full-space
    # window sums on the span words, entry for entry and in CSR order
    for m in models.values():
        for length in (4, 6, 8, 12):
            _assert_span_operators_match_window_sum(m.circuit(length), principal_log(m.gate).matrix)


@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1), length=st.sampled_from([4, 8, 12]))
def test_span_operators_match_window_sum_for_random_gates(seed, length):
    gate = random_phase_gate(np.random.default_rng(seed))
    _assert_span_operators_match_window_sum(FloquetCircuit(gate, length, "stride4"), principal_log(gate).matrix)
