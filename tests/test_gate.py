import numpy as np
import pytest

from conftest import permutation_order, random_phase_gate
from scarforge.basis import bitstring, set_window, window_value
from scarforge.gate import (
    GateDefinitionError,
    gate_from_json,
    gate_matrix,
    gate_order,
    gate_to_json,
    identity_gate,
    parse_gate,
)


def test_parse_gate_cycles():
    g = parse_gate([[1, 3, 8], [2, 4]], [1.0] * 16)
    assert g.perm[0] == 2     # label 1 -> 3
    assert g.perm[2] == 7     # label 3 -> 8
    assert g.perm[7] == 0     # label 8 -> 1
    assert g.perm[1] == 3 and g.perm[3] == 1
    for v in range(4, 7):
        assert g.perm[v] == v


def test_parse_gate_empty_is_identity():
    g = parse_gate([], [1.0] * 16)
    assert g.perm == tuple(range(16))
    assert np.allclose(gate_matrix(g), np.eye(16))


def test_parse_gate_errors():
    with pytest.raises(GateDefinitionError):
        parse_gate([[1, 2], [2, 3]], [1.0] * 16)
    with pytest.raises(GateDefinitionError):
        parse_gate([[0, 1]], [1.0] * 16)
    with pytest.raises(GateDefinitionError):
        parse_gate([[1, 2]], [1.0] * 8)
    with pytest.raises(GateDefinitionError):
        parse_gate([[1, 2]], [2.0] + [1.0] * 15)


def test_pxp_gate_action(models):
    g = models["pxp"].gate
    # window 1010 (label 11) goes to 1110 (label 15) with phase i
    v = int("1010", 2)
    assert bitstring(g.perm[v], 4) == "1110"
    assert abs(g.phases[v] - 1j) < 1e-12
    v = int("1011", 2)
    assert bitstring(g.perm[v], 4) == "1111"
    assert abs(g.phases[v] - 1j) < 1e-12


def test_qmbs_a_gate_action(models):
    g = models["qmbs-a"].gate
    state = int("00100000", 2)  # window label 3 at site 1
    v = window_value(state, 1, 4, 8)
    assert bitstring(set_window(state, 1, 4, 8, g.perm[v]), 8) == "11000000"  # window label 13 is |1100>
    assert abs(g.phases[v] - 1.0) < 1e-12


def test_gate_order_identity_and_models(models):
    assert gate_order(identity_gate(4)) == 1
    assert gate_order(models["pxp"].gate) == 4
    assert gate_order(models["qmbs-a"].gate) == 6
    assert gate_order(models["qmbs-b"].gate) == 6
    assert gate_order(models["qmbs-c"].gate) == 6
    assert gate_order(models["pxp-nophase"].gate) == 2


def test_gate_order_not_found_for_irrational_phase():
    g = parse_gate([[1, 2]], [np.exp(0.7j)] + [1.0] * 15)
    assert gate_order(g) is None


def test_gate_matrix_unitarity(models):
    for m in models.values():
        u = gate_matrix(m.gate)
        assert np.max(np.abs(u @ u.conj().T - np.eye(16))) < 1e-12
        assert np.all(np.sum(np.abs(u) > 1e-14, axis=0) == 1)
        assert np.all(np.sum(np.abs(u) > 1e-14, axis=1) == 1)


def test_pxp_matrix_fourth_power_is_identity(models):
    u = gate_matrix(models["pxp"].gate)
    assert np.max(np.abs(np.linalg.matrix_power(u, 4) - np.eye(16))) < 1e-12


def test_gate_order_divides_permutation_structure(rng):
    # order divides lcm of cycle lengths times the order of the phase products;
    # the product of fourth-root phases along a cycle is a fourth root of
    # unity, of order at most 4, well inside PHASE_ORDER_MAX
    for _ in range(1000):
        g = random_phase_gate(rng)
        res = gate_order(g)
        assert res is not None
        assert res % permutation_order(g) == 0
        assert (4 * permutation_order(g)) % res == 0


def test_gate_json_round_trip(models):
    for m in models.values():
        again = gate_from_json(gate_to_json(m.gate))
        assert again.perm == m.gate.perm
        assert np.allclose(again.phases, m.gate.phases)
