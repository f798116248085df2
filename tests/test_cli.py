import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from scarforge.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_UNKNOWN_MODEL,
    run,
)
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


def test_revivals_deterministic(tmp_path):
    args = ["revivals", "--model", "qmbs-c", "-L", "8", "--state", "neel",
            "--tmax", "10", "--dt", "0.5"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == EXIT_OK
    assert run(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
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


def test_rstat_sector_guard_before_assembly(monkeypatch, capsys):
    # a symmetry sector above DENSE_GUARD refuses before H is built: the
    # qmbs-b L=12 sector s2+1,usm+1 has 119 levels
    from scarforge import hamiltonian, tolerances

    built = []
    monkeypatch.setattr(tolerances, "DENSE_GUARD", 100)
    monkeypatch.setattr(hamiltonian, "build_hamiltonian", lambda *a, **k: built.append(a))
    assert run(["rstat", "--model", "qmbs-b", "-L", "12", "--sector", "s2+1,usm+1"]) == EXIT_NUMERICAL
    assert built == []
    assert "119 levels" in capsys.readouterr().err


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
    # qmbs-b has Theta = K F and is solved real; pxp's H is real up to
    # floating noise (Theta = K) and keeps its orbit-sum block
    assert re.fullmatch(r"levels=119 mean_r=0\.\d{6} solve=real theta=F theta_dev=\d\.\d\de-1[5-9]\n", captured.err)
    assert run(["rstat", "--model", "pxp", "-L", "12", "--sector", "s2+1"]) == EXIT_OK
    assert re.search(r" solve=complex theta=identity theta_dev=", capsys.readouterr().err)


def test_rstat_bad_sector():
    assert run(["rstat", "--model", "qmbs-b", "-L", "8", "--sector", "bogus+3"]) == EXIT_CONFIG


def test_rstat_repeated_sector_operator(capsys):
    # s2+1,s2-1 asks for two S2 characters at once; refused, not an empty sector
    assert run(["rstat", "--model", "qmbs-b", "-L", "8", "--sector", "s2+1,s2-1"]) == EXIT_CONFIG
    assert "given twice" in capsys.readouterr().err


def test_bch_command(tmp_path):
    out = tmp_path / "norms.csv"
    code = run(["bch", "--model", "qmbs-c", "-L", "8", "--orders", "3",
                "--subspace", "krylov", "--out", str(out)])
    assert code == EXIT_OK
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "n,orbit_norm,leakage_norm,generic_norm"
    assert len(body) == 5
    leak = [float(line.split(",")[2]) for line in body[1:]]
    assert max(leak[1:]) < 1e-10  # exact model: no leakage beyond order zero


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
])
def test_revivals_refuses_out_of_range_flags_before_building(flags, message, tmp_path, monkeypatch, capsys):
    from scarforge import hamiltonian

    built = []
    monkeypatch.setattr(hamiltonian, "build_hamiltonian", lambda *a, **k: built.append(a))
    out = tmp_path / "trace.csv"
    assert run(["revivals", "--model", "pxp", "-L", "8", "--out", str(out)] + flags) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert built == [] and not out.exists()


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
])
def test_bch_refuses_out_of_range_orders_before_building(flags, message, tmp_path, monkeypatch, capsys):
    from scarforge import models

    built = []
    monkeypatch.setattr(models, "working_subspace", lambda *a, **k: built.append(a))
    out = tmp_path / "norms.csv"
    assert run(["bch", "--model", "pxp", "-L", "8", "--out", str(out)] + flags) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert built == [] and not out.exists()


def test_bch_memory_refusal_exit(tmp_path, monkeypatch, capsys):
    # the qmbs-a series on the 256-state full space fills in: order 3 needs
    # about 9 MB, so 4 MB refuses it before the order allocates
    from scarforge import dynamics

    monkeypatch.setattr(dynamics, "available_bytes", lambda: 4 << 20)
    out = tmp_path / "norms.csv"
    args = ["bch", "--model", "qmbs-a", "-L", "8", "--subspace", "full", "--out", str(out)]
    assert run(args) == EXIT_NUMERICAL
    assert "series order 3" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=qmbs-c\nlength=8\ntype=I\n")
    out = tmp_path / "rules.json"
    code = run(["--config", str(cfg), "rules", "--out", str(out), "--model", "qmbs-c"])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["total"] == 350


def test_config_file_named_like_a_subcommand(tmp_path, monkeypatch):
    # the config path "orbit" is the value of --config, not the subcommand,
    # and its keys give the same file, config hash included, as the flags
    monkeypatch.chdir(tmp_path)
    (tmp_path / "orbit").write_text("length=8\nseed=polarized\n")
    assert run(["--config", "orbit", "orbit", "--model", "pxp", "--out", "from-config.json"]) == EXIT_OK
    assert run(["orbit", "--model", "pxp", "-L", "8", "--seed", "polarized", "--out", "from-flags.json"]) == EXIT_OK
    assert (tmp_path / "from-config.json").read_bytes() == (tmp_path / "from-flags.json").read_bytes()


def test_numerical_guard_exit(tmp_path):
    # an orbit longer than l_max trips the recurrence guard
    code = run(["orbit", "--model", "pxp", "-L", "8", "--seed", "11011010"])
    assert code in (EXIT_OK, EXIT_NUMERICAL)  # depends on that state's cycle length
    # force it: a state on a long cycle with tiny l_max is not expressible via CLI,
    # so check the unknown-model and config paths cover the other codes instead.
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
code = scarforge.cli.run(json.loads(sys.argv[1]) + ["orbit", "--model", "pxp", "-L", "8", "--out", os.devnull])
print(json.dumps({"loaded_early": loaded_early, "code": code, "seen": NumpyImportProbe.seen}))
"""


def test_threads_applied_before_numpy_loads(tmp_path):
    # the count comes from the flag, from a config file's threads= key, or
    # from the flag over a config file that names another count
    (tmp_path / "one.cfg").write_text("threads=1\n")
    (tmp_path / "three.cfg").write_text("threads=3\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.pop("SCARFORGE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for flags in (["--threads", "1"], ["--config", str(tmp_path / "one.cfg")],
                  ["--config", str(tmp_path / "three.cfg"), "--threads", "1"]):
        proc = subprocess.run(
            [sys.executable, "-c", THREAD_PROBE, json.dumps(flags)], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert not result["loaded_early"]
        assert result["code"] == EXIT_OK, flags
        assert result["seen"] == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, flags


@pytest.mark.parametrize("flags, env, message", [
    (["--threads", "0"], None, "--threads must be at least 1 (got 0)"),
    (["--threads", "-2"], None, "--threads must be at least 1 (got -2)"),
    (["--config", "zero.cfg"], None, "--threads must be at least 1 (got 0)"),
    ([], "0", "SCARFORGE_THREADS must be at least 1 (got 0)"),
], ids=["flag-0", "flag-negative", "config-0", "env-0"])
def test_threads_below_one_refused(flags, env, message, tmp_path, monkeypatch, capsys):
    # refused from the flag, a config file's threads= or SCARFORGE_THREADS,
    # before any thread variable is exported
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zero.cfg").write_text("threads=0\n")
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for var in thread_vars:
        monkeypatch.setenv(var, "7")
    if env is None:
        monkeypatch.delenv("SCARFORGE_THREADS", raising=False)
    else:
        monkeypatch.setenv("SCARFORGE_THREADS", env)
    assert run(flags + ["orbit", "--model", "pxp", "-L", "8", "--out", "orbit.json"]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert all(os.environ[var] == "7" for var in thread_vars)
    assert not (tmp_path / "orbit.json").exists()


def test_exported_names_resolve():
    # a stale entry of the lazy export table would fail only at first use
    import scarforge

    for name in scarforge.__all__:
        if name != "__version__":
            assert scarforge.__getattr__(name) is getattr(scarforge, name)
