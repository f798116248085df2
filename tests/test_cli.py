import dataclasses
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import pytest

from scarforge.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNKNOWN_MODEL,
    run,
)
from scarforge import commands
from scarforge.basis import BasisSubset
from scarforge.models import load_model


def test_unknown_model_exit_code(tmp_path):
    out = tmp_path / "r.json"
    code = run(["rules", "--model", "qmbs-z", "--out", str(out)])
    assert code == EXIT_UNKNOWN_MODEL
    assert not out.exists()


def test_rules_command(tmp_path):
    out = tmp_path / "rules.json"
    code = run(["rules", "--model", "qmbs-c", "--type", "I", "-L", "8", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["satisfied"] == 350 and payload["total"] == 350


def test_rules_pxp_type2(tmp_path):
    out = tmp_path / "rules.json"
    code = run(["rules", "--model", "pxp", "--type", "II", "-L", "12", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert (payload["satisfied"], payload["total"]) == (38, 48)


def test_orbit_command(tmp_path, capsys):
    code = run(["orbit", "--model", "pxp", "-L", "8", "--seed", "polarized"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["length"] == 3
    assert payload["cycle"][0] == "11111111"


def test_orbit_bad_seed():
    assert run(["orbit", "--model", "pxp", "-L", "8", "--seed", "21"]) == EXIT_CONFIG


def assert_line_svgs(svg1, svg2, series):
    # two runs write byte-identical SVG that parses as XML, one polyline per series
    assert svg1.read_bytes() == svg2.read_bytes()
    root = ET.parse(svg1).getroot()
    assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == series


def test_revivals_deterministic(tmp_path):
    args = ["revivals", "--model", "qmbs-c", "-L", "8", "--state", "neel",
            "--tmax", "10", "--dt", "0.5"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(args + ["--out", str(out1), "--svg", str(svg1)]) == EXIT_OK
    assert run(args + ["--out", str(out2), "--svg", str(svg2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert_line_svgs(svg1, svg2, 2)
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("# scarforge")
    assert lines[2].startswith("# config=")
    assert lines[3] == "t,pr,fidelity"
    # revival of the exact model at t = 2 (grid rows start at lines[4])
    row = dict(zip(lines[3].split(","), lines[8].split(",")))
    assert float(row["t"]) == 2.0
    assert float(row["pr"]) > 1 - 1e-8


def test_revivals_stderr_summary(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    args = ["revivals", "--model", "pxp", "-L", "8", "--tmax", "5", "--dt", "0.5", "--out", str(out)]
    assert run(args) == EXIT_OK
    line = capsys.readouterr().err.strip()
    assert line.startswith("revivals: dense, 10 steps, norm drift ")
    assert float(line.rsplit(" ", 1)[1]) < 1e-12


def test_revivals_with_z_trace(tmp_path):
    out = tmp_path / "trace.csv"
    code = run(["revivals", "--model", "pxp", "-L", "8", "--state", "neel",
                "--tmax", "5", "--dt", "0.5", "--site", "2", "--out", str(out)])
    assert code == EXIT_OK
    header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
    assert header == "t,pr,fidelity,z_2,z_2_deviation_sq"


def test_revivals_site_evolves_once(tmp_path, monkeypatch):
    # the <Z_site> trace reuses the PR/fidelity evolution instead of a second one
    from scarforge.dynamics import Propagator

    calls = []
    evolve = Propagator.evolve

    def counted(self, *args, **kwargs):
        calls.append(args)
        return evolve(self, *args, **kwargs)

    monkeypatch.setattr(Propagator, "evolve", counted)
    code = run(["revivals", "--model", "pxp", "-L", "8", "--site", "2",
                "--out", str(tmp_path / "trace.csv")])
    assert code == EXIT_OK
    assert len(calls) == 1


def test_revivals_memory_refusal_exit(tmp_path, monkeypatch):
    # the default grid holds 6001 x 322 amplitudes twice (about 62 MB);
    # with 4 MB available the pre-flight refuses before allocating them
    from scarforge import dynamics

    monkeypatch.setattr(dynamics, "available_bytes", lambda: 4 << 20)
    out = tmp_path / "trace.csv"
    assert run(["revivals", "--model", "pxp", "-L", "12", "--out", str(out)]) == EXIT_NUMERICAL
    assert not out.exists()


def test_rstat_dense_guard_exit():
    # the qmbs-b L=16 working subspace has 21,846 states, above DENSE_GUARD
    assert run(["rstat", "--model", "qmbs-b", "-L", "16", "--sector", "none"]) == EXIT_NUMERICAL


@pytest.mark.parametrize("message", ["Unable to allocate 1.42 GiB for an array", ""])
def test_memory_error_exits_numerical_in_one_line(monkeypatch, capsys, message):
    # an allocation that fails is a resource limit: exit 3 and one error
    # line on stderr, not a traceback
    from scarforge import models

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(models, "working_subspace", exhausted)
    assert run(["ipr", "--model", "qmbs-a", "-L", "8"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1


def test_rstat_sector_guard_before_assembly(monkeypatch, capsys):
    # a symmetry sector above the dense limit refuses before H is built:
    # the qmbs-b L=12 sector s2+1,usm+1 has 119 levels
    from scarforge import dynamics, hamiltonian

    built = []
    monkeypatch.setattr(dynamics, "DENSE_GUARD", 100)
    monkeypatch.setattr(hamiltonian, "build_hamiltonian", lambda *a, **k: built.append(a))
    assert run(["rstat", "--model", "qmbs-b", "-L", "12", "--sector", "s2+1,usm+1"]) == EXIT_NUMERICAL
    assert built == []
    assert "119 levels" in capsys.readouterr().err


@pytest.mark.parametrize("args, code, message", [
    (["ipr", "--model", "qmbs-a", "-L", "8"], EXIT_NUMERICAL,
     "ipr needs a dense eigensolve, refused at dimension 256; use a smaller length or subspace"),
    (["rstat", "--model", "qmbs-b", "-L", "10", "--sector", "s2-1"], EXIT_CONFIG,
     "sector s2-1 has 0 levels at L=10; the gap ratio needs at least three"),
])
def test_spectrum_refused_before_assembly(args, code, message, monkeypatch, capsys):
    # the qmbs-a L=8 working subspace is the 256-state full space, above a
    # dense limit of 100; the qmbs-b s2-1 sector is empty at L = 2 mod 4
    from scarforge import dynamics, hamiltonian

    def reached(*args, **kwargs):
        raise AssertionError("H was built")

    monkeypatch.setattr(dynamics, "DENSE_GUARD", 100)
    monkeypatch.setattr(hamiltonian, "build_hamiltonian", reached)
    assert run(args) == code
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("args, message", [
    (["revivals", "--model", "pxp", "-L", "40"], "a history of 6001 times holds 2.2e+04 GB, 4.00 GB available; "
     "shorten the time grid"),
    (["revivals", "--model", "qmbs-b", "-L", "18"], "a history of 6001 times holds 8.39 GB, "
     "4.00 GB available; shorten the time grid"),
    (["ipr", "--model", "qmbs-a", "-L", "24"], "ipr needs a dense eigensolve, refused at dimension 16777216; "
     "use a smaller length or subspace"),
    (["ipr", "--model", "qmbs-c", "-L", "14"], "ipr needs a dense eigensolve, refused at dimension 16384; "
     "use a smaller length or subspace"),
    (["ipr", "--model", "pxp", "-L", "20", "--subspace", "krylov"], "ipr needs a dense eigensolve, refused at "
     "dimension 15127; use a smaller length or subspace"),
])
def test_registry_model_refused_from_closed_form_size(args, message, monkeypatch, capsys):
    # a registry model's subset size is known in closed form (2^L for ipr's
    # default full space of qmbs-c), so a history or a dense eigensolve that
    # does not fit is refused before any subset, orbit or H is built
    from scarforge import dynamics, hamiltonian, models

    def reached(*args, **kwargs):
        raise AssertionError("a subset was built")

    monkeypatch.setattr(dynamics, "available_bytes", lambda: 4 * 10**9)
    monkeypatch.setattr(models, "working_subspace", reached)
    monkeypatch.setattr(hamiltonian, "krylov_subspace", reached)
    monkeypatch.setattr(BasisSubset, "full_space", reached)
    assert run(args) == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"error: {message}\n"


def test_ipr_command(tmp_path, capsys):
    out = tmp_path / "scatter.csv"
    svg = tmp_path / "scatter.svg"
    code = run(["ipr", "--model", "qmbs-c", "-L", "8", "--subspace", "full",
                "--out", str(out), "--svg", str(svg)])
    assert code == EXIT_OK
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "energy,ipr,neel_overlap,flagged"
    assert len(body) == 257
    assert svg.read_text().startswith("<svg")
    # without --out the same header and rows go to stdout
    capsys.readouterr()
    assert run(["ipr", "--model", "qmbs-c", "-L", "8", "--subspace", "full"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == body


def test_rstat_command(tmp_path, capsys):
    out = tmp_path / "rstat.csv"
    code = run(["rstat", "--model", "qmbs-b", "-L", "12", "--sector", "s2+1,usm+1",
                "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    assert "mean_r=" in text
    assert "n_levels=119" in text
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert body[0] == "r_bin_center,density"
    assert len(body) == 51
    # without --out the same histogram goes to stdout
    capsys.readouterr()
    assert run(["rstat", "--model", "qmbs-b", "-L", "12", "--sector", "s2+1,usm+1"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines() == body
    # the summary names the solve and the antiunitary deviation it measured:
    # qmbs-b has Theta = K F and is solved real; pxp's H is assembled real
    # (Theta = K) and solves its real orbit-sum block
    assert re.fullmatch(r"levels=119 mean_r=0\.\d{6} solve=real theta=F theta_dev=\d\.\d\de-1[5-9]\n", captured.err)
    assert run(["rstat", "--model", "pxp", "-L", "12", "--sector", "s2+1"]) == EXIT_OK
    assert re.search(r" solve=real theta=identity theta_dev=0\.00e\+00\n", capsys.readouterr().err)


@pytest.mark.parametrize("argv, name, field, key", [
    (["rstat", "--model", "pxp", "-L", "12", "--sector", "s2+1"], "r_statistic", "mean", "mean_r"),
    (["bch", "--model", "pxp", "-L", "12", "--orders", "3", "--bandwidth", "30"], "fgr_rate", "rate", "fgr_rate"),
], ids=["rstat", "bch"])
def test_config_hash_names_params_not_results(tmp_path, monkeypatch, argv, name, field, key):
    # a scalar result printed among the metadata (rstat's mean gap ratio,
    # bch's decay rate) is not hashed: the same params with a different
    # result give the same config line, and print the other value
    real = getattr(commands, name)
    heads = []
    for shift in (0.0, 1e-6):
        def moved(*args, shift=shift):
            out = real(*args)
            return dataclasses.replace(out, **{field: getattr(out, field) + shift})

        monkeypatch.setattr(commands, name, moved)
        path = tmp_path / f"{len(heads)}.csv"
        assert run(argv + ["--out", str(path)]) == EXIT_OK
        heads.append(path.read_text().splitlines()[1:3])
    (items_a, config_a), (items_b, config_b) = heads
    assert config_a == config_b
    values = [dict(item.split("=") for item in items[2:].split()) for items in (items_a, items_b)]
    assert values[0].pop(key) != values[1].pop(key)
    assert values[0] == values[1]


def test_rstat_bad_sector():
    assert run(["rstat", "--model", "qmbs-b", "-L", "8", "--sector", "bogus+3"]) == EXIT_CONFIG


def test_rstat_repeated_sector_operator(capsys):
    # s2+1,s2-1 asks for two S2 characters at once; refused, not an empty sector
    assert run(["rstat", "--model", "qmbs-b", "-L", "8", "--sector", "s2+1,s2-1"]) == EXIT_CONFIG
    assert "given twice" in capsys.readouterr().err


def test_bch_command(tmp_path):
    out = tmp_path / "norms.csv"
    args = ["bch", "--model", "qmbs-c", "-L", "8", "--orders", "3", "--subspace", "krylov", "--out", str(out)]
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(args + ["--svg", str(svg1)]) == EXIT_OK
    assert run(args + ["--svg", str(svg2)]) == EXIT_OK
    assert_line_svgs(svg1, svg2, 3)
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "n,orbit_norm,leakage_norm,generic_norm"
    assert len(body) == 5
    leak = [float(line.split(",")[2]) for line in body[1:]]
    assert max(leak[1:]) < 1e-10  # exact model: no leakage beyond order zero


def test_bch_reports_its_translation_group(tmp_path, capsys):
    out = tmp_path / "norms.csv"
    assert run(["bch", "--model", "pxp", "-L", "12", "--orders", "2", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == "bch: translation group of order 6, 60 of 322 rows\n"


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_sga_check_refuses_non_finite_epsilon(epsilon, capsys):
    # nan gave a NaN residual that the column fold dropped, printing 0
    assert run(["sga-check", "-L", "8", "--epsilon", epsilon]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"error: --epsilon must be finite (got {float(epsilon)})\n" and captured.out == ""


def test_sga_and_spinrep_commands(capsys):
    assert run(["sga-check", "-L", "8"]) == EXIT_OK
    assert "residual" in capsys.readouterr().out
    assert run(["spinrep-check", "--model", "qmbs-b"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "deviation" in out


def test_search_command(tmp_path, capsys):
    out = tmp_path / "results.json"
    code = run(["search", "--order", "2", "--top", "5", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert len(payload["results"]) == 5
    assert payload["results"][0]["satisfied"] >= payload["results"][1]["satisfied"]
    # the summary counts every gate scored, not only the --top ones written
    assert re.fullmatch(r"search: 764 of 40320 gates scored in \d+\.\d\d s\n", capsys.readouterr().err)


def test_search_require_cycle_keeps_the_cycle_rows(tmp_path, capsys):
    # --require-cycle keeps the 44 gates whose Neel orbit is a 2-cycle, in
    # the rank order of the unfiltered search, in the four rule classes
    from scarforge.rules import SearchConstraints, search_models

    out = tmp_path / "results.json"
    assert run(["search", "--require-cycle", "--out", str(out)]) == EXIT_OK
    rows = json.loads(out.read_text())["results"]
    assert len(rows) == 44 and all(r["orbit_is_cycle"] for r in rows)
    assert Counter(r["satisfied"] for r in rows) == {350: 36, 70: 4, 254: 2, 246: 2}
    assert rows == [r.to_json() for r in search_models(SearchConstraints()) if r.orbit_is_cycle]
    # the work bound counts the gates scored: order 60 alone is refused, but
    # with the cycle filter it scores 76 gates and runs
    capsys.readouterr()
    assert run(["search", "--order", "60", "--require-cycle", "--top", "1", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err.startswith("search: 76 of 40320 gates scored")


def test_search_row_as_model_file_names_the_missing_key(tmp_path, capsys):
    # a search row is no model file: loading one exits 2 and names the first
    # key it lacks; a bad value is refused by the gate's own check
    out = tmp_path / "results.json"
    assert run(["search", "--order", "2", "--top", "1", "--out", str(out)]) == EXIT_OK
    row = json.loads(out.read_text())["results"][0]
    path = tmp_path / "row.json"
    path.write_text(json.dumps(row))
    capsys.readouterr()
    assert run(["rules", "--model", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {path}: model file has no 'name' key\n"
    model = load_model("qmbs-b").to_json()
    model["phases"] = model["phases"][:15]
    path.write_text(json.dumps(model))
    assert run(["rules", "--model", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: phase map must have 16 entries\n"


def test_search_rejects_invalid_constraints(capsys):
    assert run(["search", "--order", "0"]) == EXIT_CONFIG
    assert "order must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("order, available", [("6", 1 << 19), ("1000", None), ("60", None), ("100", None)])
def test_search_memory_refusal_before_enumerating(order, available, tmp_path, monkeypatch, capsys):
    # order 6 counts about 1.03 MB and 1000 about 4.9 TB; orders 60 and 100
    # fit in memory but visit 2.6e10 and 4.6e10 power-tree nodes, above
    # SEARCH_NODE_GUARD: each is refused before its instances are listed or
    # any gate is scored
    from scarforge import dynamics, rules

    def reached(*args, **kwargs):
        raise AssertionError("the search went past its pre-flight")

    if available is not None:
        monkeypatch.setattr(dynamics, "available_bytes", lambda: available)
    monkeypatch.setattr(rules, "enumerate_rule_instances", reached)
    monkeypatch.setattr(rules, "_type1_hits", reached)
    out = tmp_path / "results.json"
    assert run(["search", "--order", order, "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith(f"error: search order {order} needs about ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("top", ["0", "-1"])
def test_search_rejects_top_below_one(top, tmp_path, capsys):
    out = tmp_path / "results.json"
    assert run(["search", "--order", "2", "--top", top, "--out", str(out)]) == EXIT_CONFIG
    assert f"--top must be at least 1 (got {top})" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--site", "0"], "--site must lie in 1..8 (got 0)"),
    (["--site", "9"], "--site must lie in 1..8 (got 9)"),
    (["--dt", "0"], "--dt must be positive (got 0.0)"),
    (["--dt", "-0.1"], "--dt must be positive (got -0.1)"),
    (["--tmax", "-1"], "--tmax must be at least 0 (got -1.0)"),
    (["--site", "2", "--window", "0"], "--window must be positive (got 0.0)"),
    (["--tmax", "inf"], "--tmax must be finite (got inf)"),
    (["--tmax", "nan"], "--tmax must be at least 0 (got nan)"),
    (["--dt", "inf"], "--dt must be finite (got inf)"),
    (["--dt", "nan"], "--dt must be positive (got nan)"),
    (["--dt", "1e-300"], "a history of 3e+302 times holds"),
    (["--tmax", "1e12"], "a history of 2e+13 times holds"),
    (["--dt", "1e-320"], "a history of inf times holds"),
])
def test_revivals_refuses_out_of_range_flags_before_building(flags, message, tmp_path, monkeypatch, capsys):
    # a time grid too long for memory is refused (exit 3) once the subset
    # is known, before H is built
    from scarforge import hamiltonian

    built = []

    def reached(*args, **kwargs):
        built.append(args)
        raise AssertionError("H was built")

    monkeypatch.setattr(hamiltonian, "build_hamiltonian", reached)
    out = tmp_path / "trace.csv"
    code = EXIT_NUMERICAL if "history" in message else EXIT_CONFIG
    assert run(["revivals", "--model", "pxp", "-L", "8", "--out", str(out)] + flags) == code
    err = capsys.readouterr().err
    assert message in err and (code == EXIT_CONFIG or err.rstrip().endswith("shorten the time grid"))
    assert built == [] and not out.exists()


@pytest.mark.parametrize("threshold", ["-1", "1", "1.5", "nan"])
def test_ipr_refuses_flag_threshold_outside_unit_interval_before_building(threshold, tmp_path, monkeypatch, capsys):
    # an overlap threshold below 0 flags every level and one of 1 or more
    # (or nan) flags none: refused before H is built
    from scarforge import hamiltonian

    def reached(*args, **kwargs):
        raise AssertionError("H was built")

    monkeypatch.setattr(hamiltonian, "build_hamiltonian", reached)
    out = tmp_path / "ipr.csv"
    flags = ["ipr", "--model", "qmbs-c", "-L", "8", "--flag-threshold", threshold, "--out", str(out)]
    assert run(flags) == EXIT_CONFIG
    assert f"--flag-threshold must lie in [0, 1) (got {float(threshold)})" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, code, message", [
    (["--model", "qmbs-c", "--state", "polarized"], EXIT_CONFIG,
     "--state must lie in the working subspace of qmbs-c at L=8 (got polarized)"),
    (["--model", "pxp", "--state", "00000000"], EXIT_CONFIG,
     "--state must lie in the working subspace of pxp at L=8 (got 00000000)"),
    (["--model", "pxp", "--site", "2"], EXIT_NUMERICAL, "--site needs a dense eigensolve, refused at dimension"),
])
def test_revivals_refuses_unusable_state_or_site_before_building(flags, code, message, tmp_path, monkeypatch,
                                                                 capsys):
    # a start state outside the working subspace, or a <Z_site> trace whose
    # microcanonical average needs a dense solve above the limit, refuses
    # before H is built, let alone evolved
    from scarforge import dynamics, hamiltonian

    def reached(*args, **kwargs):
        raise AssertionError("H was built")

    monkeypatch.setattr(dynamics, "DENSE_GUARD", 10)
    monkeypatch.setattr(hamiltonian, "build_hamiltonian", reached)
    out = tmp_path / "trace.csv"
    assert run(["revivals", "-L", "8", "--out", str(out)] + flags) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


@pytest.mark.parametrize("bandwidth", ["0", "-3"])
def test_bch_refuses_nonpositive_bandwidth(bandwidth, tmp_path, monkeypatch, capsys):
    from scarforge import hamiltonian

    built = []
    monkeypatch.setattr(hamiltonian, "build_hamiltonian", lambda *a, **k: built.append(a))
    out = tmp_path / "c2.csv"
    args = ["bch", "--model", "qmbs-c", "-L", "8", "--orders", "2", "--subspace", "krylov",
            "--bandwidth", bandwidth, "--out", str(out)]
    assert run(args) == EXIT_CONFIG
    assert "bandwidth must be positive" in capsys.readouterr().err
    assert built == [] and not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--orders", "-1"], "--orders must lie in 0..12 (got -1)"),
    (["--orders", "13"], "--orders must lie in 0..12 (got 13)"),
    (["--orders", "1", "--bandwidth", "30"], "--orders must be at least 2 with --bandwidth (got 1)"),
    (["--orders", "0", "--bandwidth", "30"], "--orders must be at least 2 with --bandwidth (got 0)"),
    (["--orders", "2", "--bandwidth", "inf"], "--bandwidth must be finite (got inf)"),
    (["--orders", "2", "--bandwidth", "nan"], "--bandwidth must be positive (got nan)"),
])
def test_bch_refuses_out_of_range_orders_before_building(flags, message, tmp_path, monkeypatch, capsys):
    from scarforge import models

    built = []
    monkeypatch.setattr(models, "working_subspace", lambda *a, **k: built.append(a))
    out = tmp_path / "norms.csv"
    assert run(["bch", "--model", "pxp", "-L", "8", "--out", str(out)] + flags) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert built == [] and not out.exists()


@pytest.mark.parametrize("args", [
    ["bch", "--model", "qmbs-b", "-L", "14", "--orders", "6"],
    ["bch", "--model", "qmbs-a", "-L", "10"],
    ["revivals", "--model", "qmbs-b", "-L", "10", "--state", "generic"],
])
def test_stride4_length_without_automaton_refused_before_building(args, tmp_path, monkeypatch, capsys):
    # at L = 2 mod 4 a stride4 model has an H but no automaton, so no orbit
    from scarforge import models

    def built(*a, **k):
        raise AssertionError("the subset was built before the orbit")

    monkeypatch.setattr(models, "working_subspace", built)
    out = tmp_path / "out.csv"
    assert run(args + ["--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: automaton application needs complete layers (L divisible by 4)\n"
    assert not out.exists()


def test_bch_memory_refusal_exit(tmp_path, monkeypatch, capsys):
    # the qmbs-a series on the 256-state full space fills in: an allocation
    # of order 7 counts about 10.7 MiB, so 10 MiB refuses it before it is made
    from scarforge import dynamics

    monkeypatch.setattr(dynamics, "available_bytes", lambda: 10 << 20)
    out = tmp_path / "norms.csv"
    args = ["bch", "--model", "qmbs-a", "-L", "8", "--subspace", "full", "--out", str(out)]
    assert run(args) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("error: series order 7 needs about ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("length", ["0", "-4", "2"])
@pytest.mark.parametrize("command", [
    ["orbit", "--model", "pxp"],
    ["rules", "--model", "qmbs-c"],
    ["revivals", "--model", "qmbs-c"],
    ["ipr", "--model", "qmbs-c"],
    ["rstat", "--model", "qmbs-b"],
    ["bch", "--model", "pxp"],
    ["sga-check"],
])
def test_chain_shorter_than_gate_refused(command, length, tmp_path, capsys):
    # windows wider than the ring would overlap themselves
    out = [] if command[0] == "sga-check" else ["--out", str(tmp_path / "out.csv")]
    assert run(command + ["-L", length] + out) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: chain length L={length} is shorter than the gate width 4\n"
    assert not (tmp_path / "out.csv").exists()


def test_every_subcommand_has_a_handler():
    # a renamed handler fails here, not at first use
    import argparse

    from scarforge import commands
    from scarforge.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name in sub.choices:
        assert callable(getattr(commands, "cmd_" + name.replace("-", "_")))


def test_config_file_defaults(tmp_path):
    # the same defaults whether --config stands before or after the
    # subcommand; a config= key inside the file is skipped
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=qmbs-c\nlength=8\ntype=I\n")
    out = tmp_path / "rules.json"
    code = run(["--config", str(cfg), "rules", "--out", str(out), "--model", "qmbs-c"])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["total"] == 350
    nested = tmp_path / "nested.cfg"
    nested.write_text(cfg.read_text() + "config=elsewhere.cfg\n")
    after = tmp_path / "after.json"
    assert run(["rules", "--out", str(after), "--config", str(nested)]) == EXIT_OK
    assert after.read_bytes() == out.read_bytes()
    # only the full name is taken, so an abbreviation is refused, not ignored
    assert run(["--conf", str(cfg), "rules", "--model", "qmbs-c", "--out", str(after)]) == EXIT_CONFIG


def test_config_file_named_like_a_subcommand(tmp_path, monkeypatch):
    # the config path "orbit" is the value of --config, not the subcommand,
    # and its keys give the same file, config hash included, as the flags
    monkeypatch.chdir(tmp_path)
    (tmp_path / "orbit").write_text("length=8\nseed=polarized\n")
    assert run(["--config", "orbit", "orbit", "--model", "pxp", "--out", "from-config.json"]) == EXIT_OK
    assert run(["orbit", "--model", "pxp", "-L", "8", "--seed", "polarized", "--out", "from-flags.json"]) == EXIT_OK
    assert (tmp_path / "from-config.json").read_bytes() == (tmp_path / "from-flags.json").read_bytes()


def test_numerical_guard_exit(tmp_path):
    code = run(["orbit", "--model", "pxp", "-L", "8", "--seed", "11011010"])
    assert code == EXIT_OK
    assert run(["rules", "--model", "nonexistent"]) == EXIT_UNKNOWN_MODEL


THREAD_PROBE = """
import json, os, sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

class NumpyImportProbe:
    # records the thread variables at the moment numpy is first imported
    seen = None

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and NumpyImportProbe.seen is None:
            NumpyImportProbe.seen = {v: os.environ.get(v) for v in THREAD_VARS}
        return None

sys.meta_path.insert(0, NumpyImportProbe())
import scarforge.cli
loaded_early = "numpy" in sys.modules
code = scarforge.cli.run(json.loads(sys.argv[1]))
print(json.dumps({"loaded_early": loaded_early, "code": code, "seen": NumpyImportProbe.seen}))
"""


def test_threads_applied_before_numpy_loads(tmp_path):
    # the count comes from the flag, from a config file's threads= key, or
    # from the flag over a config file that names another count, with the
    # flags before or after the subcommand
    one, three = str(tmp_path / "one.cfg"), str(tmp_path / "three.cfg")
    (tmp_path / "one.cfg").write_text("threads=1\n")
    (tmp_path / "three.cfg").write_text("threads=3\n")
    orbit = ["orbit", "--model", "pxp", "-L", "8", "--out", os.devnull]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.pop("SCARFORGE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in (["--threads", "1"] + orbit, ["--config", one] + orbit, ["--config", three, "--threads", "1"] + orbit,
                 orbit + ["--threads", "1"], orbit + ["--config", one], orbit + ["--config", three, "--threads", "1"],
                 ["--config", three] + orbit + ["--threads", "1"]):
        proc = subprocess.run(
            [sys.executable, "-c", THREAD_PROBE, json.dumps(argv)], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert not result["loaded_early"]
        assert result["code"] == EXIT_OK, argv
        assert result["seen"] == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, argv


@pytest.mark.parametrize("flags, after, env, message", [
    (["--threads", "0"], False, None, "--threads must be at least 1 (got 0)"),
    (["--threads", "-2"], False, None, "--threads must be at least 1 (got -2)"),
    (["--config", "zero.cfg"], False, None, "--threads must be at least 1 (got 0)"),
    ([], False, "0", "SCARFORGE_THREADS must be at least 1 (got 0)"),
    (["--threads", "0"], True, None, "--threads must be at least 1 (got 0)"),
    (["--config", "zero.cfg"], True, None, "--threads must be at least 1 (got 0)"),
], ids=["flag-0", "flag-negative", "config-0", "env-0", "flag-0-after", "config-0-after"])
def test_threads_below_one_refused(flags, after, env, message, tmp_path, monkeypatch, capsys):
    # refused from the flag, a config file's threads= or SCARFORGE_THREADS,
    # before any thread variable is exported, with the flags before or after
    # the subcommand
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zero.cfg").write_text("threads=0\n")
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for var in thread_vars:
        monkeypatch.setenv(var, "7")
    if env is None:
        monkeypatch.delenv("SCARFORGE_THREADS", raising=False)
    else:
        monkeypatch.setenv("SCARFORGE_THREADS", env)
    orbit = ["orbit", "--model", "pxp", "-L", "8", "--out", "orbit.json"]
    assert run(orbit + flags if after else flags + orbit) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert all(os.environ[var] == "7" for var in thread_vars)
    assert not (tmp_path / "orbit.json").exists()
