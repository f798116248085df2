"""The subcommand handlers behind `scarforge.cli`, one `cmd_<name>` per
subcommand.  Importing this module loads numpy, so the command line imports
it only after it has exported the BLAS thread variables.  H and the working
subspace are reached through their modules, `hamiltonian.build_hamiltonian`
and `models.working_subspace`, so that a patched module attribute is the one
called.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, hamiltonian, models
from .automaton import orbit_of
from .basis import BasisSubset, bitstring, tile_pattern
from .bch import MAX_ORDER, bch_terms, fgr_rate, norm_profile
from .cli import EXIT_OK, _require
from .dynamics import (COMPLEX_BYTES, Propagator, ResourceLimitError, admit, dense_fits, fidelity_trace,
                       generic_comparison_state, local_z_trace, pr_trace)
from .logmap import closing_relation, principal_log
from .output import format_value, metadata_object, write_csv, write_svg_lines, write_svg_scatter
from .rules import SearchConstraints, rule_report, search_models
from .spectral import analyze_spectrum, r_statistic


def _subspace(model, length, mode):
    if mode == "full":
        return BasisSubset.full_space(length)
    if mode == "krylov":
        return hamiltonian.krylov_subspace(model.circuit(length), model.orbit_seed(length))
    return models.working_subspace(model, length)


def _checked_subspace(args, model, mode, check):
    """`_subspace`, with `check(size)` raising for a size that does not fit:
    run on the built subset's size, and first, before anything is built, on
    its closed form where it is known: 2^L for the full space and
    `models.expected_krylov_dimension` for a registry model's closure."""
    if mode == "full":
        check(1 << args.length)
    elif args.model in models.MODEL_NAMES:
        check(models.expected_krylov_dimension(args.model, args.length))
    subset = _subspace(model, args.length, mode)
    check(subset.size)
    return subset


def _seed_index(spec: str, model, length: int) -> int:
    if spec == "neel":
        return tile_pattern("01", length) if model.geometry == "stride2" else model.orbit_seed(length)
    if spec == "polarized":
        return tile_pattern("1", length)
    if set(spec) <= {"0", "1"} and len(spec) == length:
        return int(spec, 2)
    raise ValueError(f"seed {spec!r} is not a preset or an L-bit string")


def _params(args, **extra) -> dict:
    skip = {"out", "svg", "config", "threads", "command"}
    params = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    params.update(extra)
    params["command"] = args.command
    return params


def _emit_json(args, payload: dict) -> None:
    text = json.dumps(payload, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _emit_csv(args, params: dict, columns: list[str], rows, results: dict | None = None) -> None:
    if args.out:
        write_csv(args.out, __version__, params, columns, rows, results)
    else:
        print(",".join(columns))
        for row in rows:
            print(",".join(format_value(v) for v in row))


def cmd_orbit(args) -> int:
    model = models.load_model(args.model)
    circuit = model.circuit(args.length)
    orbit = orbit_of(circuit, _seed_index(args.seed, model, args.length))
    payload = orbit.to_json()
    payload["metadata"] = metadata_object(__version__, _params(args))
    _emit_json(args, payload)
    return EXIT_OK


def cmd_rules(args) -> int:
    model = models.load_model(args.model)
    kind = args.kind or model.expected.get("rule_kind", "I")
    circuit = model.circuit(args.length)
    states = models.neel_orbit_states(model, args.length)
    if kind == "I":
        n = model.expected.get("n") or 6
        report = rule_report(circuit, states, n, "I")
    else:
        h = principal_log(circuit.gate)
        n = model.expected.get("closing_power") or closing_relation(h, model.expected.get("n", 6)).power
        report = rule_report(circuit, states, n, "II", h_local=h.matrix)
    payload = report.to_json()
    payload["model"] = model.name
    payload["metadata"] = metadata_object(__version__, _params(args, kind=kind, n=n))
    _emit_json(args, payload)
    print(f"rules type {kind}: {report.satisfied}/{report.total}", file=sys.stderr)
    return EXIT_OK


def cmd_search(args) -> int:
    _require(args.top is None or args.top >= 1, "--top", "be at least 1", args.top)
    constraints = SearchConstraints(order=args.order, require_orbit_cycle=args.require_cycle)
    start = time.perf_counter()
    results = search_models(constraints)
    summary = f"search: {len(results)} of {math.factorial(8)} gates scored in {time.perf_counter() - start:.2f} s"
    results = results[: args.top]
    payload = {
        "metadata": metadata_object(__version__, _params(args)),
        "results": [r.to_json() for r in results],
    }
    _emit_json(args, payload)
    print(summary, file=sys.stderr)
    return EXIT_OK


def cmd_revivals(args) -> int:
    _require(args.dt > 0, "--dt", "be positive", args.dt)
    _require(args.tmax >= 0, "--tmax", "be at least 0", args.tmax)
    for flag, value in (("--dt", args.dt), ("--tmax", args.tmax)):
        _require(math.isfinite(value), flag, "be finite", value)
    _require(args.site is None or 1 <= args.site <= args.length, "--site", f"lie in 1..{args.length}", args.site)
    _require(args.site is None or args.window > 0, "--window", "be positive", args.window)
    model = models.load_model(args.model)
    circuit = model.circuit(args.length)
    # the orbit first: a stride4 length of 2 mod 4 has an H but no automaton
    orbit = models.neel_orbit_states(model, args.length) if args.state == "generic" else None
    points = float(np.ceil(args.tmax / args.dt + 0.5))    # the length of the arange grid below, or inf
    subset = _checked_subspace(args, model, "working", lambda size: admit(
        points * size * COMPLEX_BYTES, f"a history of {points:.4g} times holds", "shorten the time grid"))
    if orbit is None:
        seed = _seed_index(args.state, model, args.length)
        _require(seed in subset, "--state", f"lie in the working subspace of {model.name} at L={args.length}",
                 args.state)
    if args.site is not None and not dense_fits(subset.size):
        raise ResourceLimitError(f"--site needs a dense eigensolve, refused at dimension {subset.size}; "
                                 "drop --site or use a smaller length")
    chain = hamiltonian.build_hamiltonian(circuit, subset)
    if orbit is not None:
        seed = generic_comparison_state(subset, orbit, chain.h)
    prop = Propagator(chain.h, subset)
    times = np.arange(0.0, args.tmax + 0.5 * args.dt, args.dt)
    psi0 = subset.basis_vector(seed)
    result = prop.evolve(psi0, times)
    pr = pr_trace(result)
    fid = fidelity_trace(result, seed)
    columns = ["t", "pr", "fidelity"]
    data = [times, pr, fid]
    if args.site is not None:
        series, z_mc = local_z_trace(prop, psi0, result, args.site, args.window)
        columns.append(f"z_{args.site}")
        data.append(series)
        columns.append(f"z_{args.site}_deviation_sq")
        data.append(np.abs(series - z_mc) ** 2)
    _emit_csv(args, _params(args, n_eff=subset.size, seed=bitstring(seed, args.length)), columns, zip(*data))
    if args.svg:
        write_svg_lines(args.svg, f"{model.name} L={args.length}", times, {"pr": pr, "fidelity": fid})
    print(f"revivals: {prop.method}, {len(times) - 1} steps, norm drift {result.norm_drift:.1e}", file=sys.stderr)
    return EXIT_OK


def cmd_ipr(args) -> int:
    _require(0 <= args.flag_threshold < 1, "--flag-threshold", "lie in [0, 1)", args.flag_threshold)
    model = models.load_model(args.model)
    circuit = model.circuit(args.length)
    mode = args.subspace or ("full" if model.name == "qmbs-c" else "working")

    def dense(size):
        if not dense_fits(size):
            raise ResourceLimitError(f"ipr needs a dense eigensolve, refused at dimension {size}; "
                                     "use a smaller length or subspace")

    subset = _checked_subspace(args, model, mode, dense)
    chain = hamiltonian.build_hamiltonian(circuit, subset)
    refs = [tile_pattern("10", args.length), tile_pattern("01", args.length)]
    analysis = analyze_spectrum(chain.h, subset, refs, args.flag_threshold)
    rows = zip(analysis.eigenvalues, analysis.ipr, analysis.overlaps.max(axis=1), analysis.flagged.astype(int))
    _emit_csv(args, _params(args, n_eff=subset.size, subspace=mode), ["energy", "ipr", "neel_overlap", "flagged"], rows)
    if args.svg:
        title = f"{model.name} L={args.length} IPR"
        write_svg_scatter(args.svg, title, analysis.eigenvalues, analysis.ipr, analysis.flagged)
    return EXIT_OK


def _parse_sector(spec: str):
    if spec in ("none", ""):
        return hamiltonian.SymmetrySector()
    ops = []
    for field in spec.split(","):
        field = field.strip().lower()
        name = {"s2": "S2", "usm": "USM"}.get(field[:-2])
        if name is None or field[-2:] not in ("+1", "-1"):
            raise ValueError(f"bad sector component {field!r} (want e.g. s2+1)")
        ops.append((name, 1 if field.endswith("+1") else -1))
    return hamiltonian.SymmetrySector(tuple(ops))


def cmd_rstat(args) -> int:
    model = models.load_model(args.model)
    circuit = model.circuit(args.length)
    sector = _parse_sector(args.sector)
    subset = _subspace(model, args.length, "working")
    levels = hamiltonian.sector_group(subset, sector)[0].size
    if levels < 3:
        raise ValueError(f"sector {args.sector} has {levels} levels at L={args.length}; "
                         "the gap ratio needs at least three")
    if not dense_fits(levels):
        raise ResourceLimitError(
            f"direct diagonalization refused: the sector has {levels} levels, "
            "above the dense limit; pass a smaller sector or length"
        )
    chain = hamiltonian.build_hamiltonian(circuit, subset)
    theta = hamiltonian.find_antiunitary(chain.h, subset)
    hs, _ = hamiltonian.project_sector(chain.h, subset, sector, theta)
    evals = np.linalg.eigvalsh(hs)
    report = r_statistic(evals)
    centers = 0.5 * (report.bin_edges[:-1] + report.bin_edges[1:])
    params = _params(args, n_levels=len(evals))
    _emit_csv(args, params, ["r_bin_center", "density"], zip(centers, report.density), {"mean_r": report.mean})
    solve = "real" if np.isrealobj(hs) else "complex"
    print(f"levels={len(evals)} mean_r={report.mean:.6f} solve={solve} "
          f"theta={theta[0] or 'none'} theta_dev={theta[2]:.2e}", file=sys.stderr)
    return EXIT_OK


def cmd_bch(args) -> int:
    _require(0 <= args.orders <= MAX_ORDER, "--orders", f"lie in 0..{MAX_ORDER}", args.orders)
    _require(args.bandwidth is None or args.bandwidth > 0, "--bandwidth", "be positive", args.bandwidth)
    _require(args.bandwidth is None or math.isfinite(args.bandwidth), "--bandwidth", "be finite", args.bandwidth)
    _require(args.bandwidth is None or args.orders >= 2, "--orders", "be at least 2 with --bandwidth", args.orders)
    model = models.load_model(args.model)
    circuit = model.circuit(args.length)
    orbit = models.neel_orbit_states(model, args.length)    # before building, as in cmd_revivals
    subset = _subspace(model, args.length, args.subspace)
    chain = hamiltonian.build_hamiltonian(circuit, subset)
    series = bch_terms(chain.a, chain.b, args.orders)
    print(f"bch: translation group of order {series.group_order}, "
          f"{series.rows} of {subset.size} rows", file=sys.stderr)
    positions = [subset.position(s) for s in orbit]
    profile = norm_profile(series, positions)
    results = {}
    if args.bandwidth is not None:
        estimate = fgr_rate(series, positions, args.length, args.bandwidth)
        results["fgr_rate"] = estimate.rate
        print(f"fgr_rate={estimate.rate:.6g}", file=sys.stderr)
    rows = zip(profile.orders, profile.orbit_norm, profile.leakage_norm, profile.generic_norm)
    _emit_csv(args, _params(args, n_eff=subset.size), ["n", "orbit_norm", "leakage_norm", "generic_norm"], rows, results)
    if args.svg:
        norms = {"orbit": profile.orbit_norm, "leakage": profile.leakage_norm, "generic": profile.generic_norm}
        write_svg_lines(args.svg, f"{model.name} L={args.length} series norms", profile.orders, norms)
    return EXIT_OK


def cmd_sga_check(args) -> int:
    eps = args.epsilon if args.epsilon is not None else float(np.pi)
    _require(math.isfinite(eps), "--epsilon", "be finite", eps)
    residual = models.sga_check(args.length, eps)
    print(f"sga residual (L={args.length}, epsilon={eps:.12g}): {residual:.3e}")
    return EXIT_OK


def cmd_spinrep_check(args) -> int:
    model = models.load_model(args.model)
    deviation = models.verify_spin_representation(model)
    print(f"spin representation deviation ({model.name}): {deviation:.3e}")
    return EXIT_OK
