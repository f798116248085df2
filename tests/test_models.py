import json
import math

import numpy as np
import pytest

from conftest import window_operator
from scarforge.gate import gate_order
from scarforge.models import (
    MODEL_NAMES,
    UnknownModelError,
    expected_krylov_dimension,
    ladder_operator,
    load_model,
    neel_orbit_states,
    sga_check,
    verify_spin_representation,
)


def test_registry_names_load():
    for name in MODEL_NAMES:
        m = load_model(name)
        assert m.name == name
        assert m.gate.width == 4


def test_unknown_model():
    with pytest.raises(UnknownModelError):
        load_model("qmbs-z")


def test_load_model_from_file(tmp_path, models):
    data = models["qmbs-c"].to_json()
    data["name"] = "custom"
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(data))
    m = load_model(str(path))
    assert m.name == "custom"
    assert m.gate.perm == models["qmbs-c"].gate.perm


def test_registry_table_rows(models):
    assert models["qmbs-c"].gate.label_cycles() == [
        [3, 5], [4, 6], [7, 15, 9], [8, 16, 10], [11, 13], [12, 14]
    ]
    pxp = models["pxp"]
    phases = np.asarray(pxp.gate.phases)
    assert np.allclose(phases[[10, 11, 14, 15]], 1j)
    assert np.allclose(np.delete(phases, [10, 11, 14, 15]), 1.0)
    orb = neel_orbit_states(pxp, 12)
    assert len(orb) == 3
    nophase = models["pxp-nophase"]
    assert nophase.gate.perm == pxp.gate.perm
    assert np.allclose(nophase.gate.phases, 1.0)
    assert gate_order(nophase.gate) == 2


def test_expected_orders(models):
    for name in MODEL_NAMES:
        m = models[name]
        assert gate_order(m.gate) == m.expected["n"]


def test_spin_representations(models):
    assert verify_spin_representation(models["pxp"]) < 1e-12
    assert verify_spin_representation(models["qmbs-b"]) < 1e-10
    assert verify_spin_representation(models["qmbs-c"]) < 1e-10
    assert verify_spin_representation(models["qmbs-a"]) < 1e-12
    assert verify_spin_representation(models["pxp-nophase"]) < 1e-12


def test_krylov_formula_arguments():
    assert expected_krylov_dimension("pxp", 16) == 2207
    assert expected_krylov_dimension("qmbs-a", 12) == 4096
    assert expected_krylov_dimension("qmbs-b", 12) == 1366
    assert expected_krylov_dimension("qmbs-c", 12) == 64
    with pytest.raises(ValueError):
        expected_krylov_dimension("pxp", 9)
    with pytest.raises(UnknownModelError):
        expected_krylov_dimension("nope", 8)


def test_sga_residual_small():
    assert sga_check(8) < 1e-10
    assert sga_check(12) < 1e-10


def test_sga_wrong_ladder_spacing_fails():
    assert sga_check(8, epsilon=3.0) > 0.1
    assert sga_check(8, epsilon=0.0) > 0.1


def test_sga_residual_propagates_nan():
    # a NaN column norm is the residual, not dropped from the fold
    assert math.isnan(sga_check(8, epsilon=float("nan")))


@pytest.mark.parametrize("length", [4, 8])
def test_ladder_operator_matches_kron_windows(length):
    # oracle: Z_a (I - X_a X_{a+1}) kron-embedded on the pair window at every
    # even site a, the last pair wrapping to site 1
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.diag([1.0, -1.0])
    pair = np.kron(z, np.eye(2)) @ (np.eye(4) - np.kron(x, x))
    want = sum(window_operator(pair, site, length) for site in range(2, length + 1, 2))
    assert np.array_equal(ladder_operator(length).toarray(), want.toarray())
