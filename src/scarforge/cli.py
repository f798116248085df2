"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 numerical-guard violation
(norm drift, non-closed subset, no recurrence) or resource limit (dense
dimension guard, memory pre-flight, an allocation that failed), 4 unknown
model.  Thread count comes from --threads (or a config file's threads= key),
else from SCARFORGE_THREADS, must be at least 1, and is applied to the BLAS
pool before numpy loads.  All outputs are byte-identical for a fixed
configuration and thread count; another thread count can move the last
printed digits, as threaded BLAS/LAPACK sums in another order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNKNOWN_MODEL = 4


def _read_config_file(path) -> dict:
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _top_options() -> argparse.ArgumentParser:
    """The options that precede the subcommand."""
    top = argparse.ArgumentParser(add_help=False)
    top.add_argument("--threads", type=int, default=None, help="BLAS/worker thread count")
    top.add_argument("--config", default=None, help="key=value file of defaults")
    return top


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scarforge", description=__doc__, parents=[_top_options()])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    def common(p, length_default=12):
        p.add_argument("--model", required=True, help="registry name or model file")
        p.add_argument("-L", "--length", type=int, default=length_default)
        p.add_argument("--out", default=None)

    p = command("orbit", cmd_orbit, "cycle of a seed state under the automaton")
    common(p)
    p.add_argument("--seed", default="neel", help="neel | polarized | an explicit 0/1 string")

    p = command("rules", cmd_rules, "commutation-rule report for a model")
    common(p)
    p.add_argument("--type", dest="kind", choices=("I", "II"), default=None)

    p = command("search", cmd_search, "exhaustive gate search on the alternating orbit")
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--require-cycle", action="store_true")
    p.add_argument("--top", type=int, default=None, help="emit only the best N gates")
    p.add_argument("--out", default=None)

    p = command("revivals", cmd_revivals, "participation-ratio and fidelity trace")
    common(p)
    p.add_argument("--state", default="neel", help="neel | polarized | generic | 0/1 string")
    p.add_argument("--tmax", type=float, default=300.0)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--site", type=int, default=None, help="also trace <Z_site(t)>")
    p.add_argument("--window", type=float, default=0.4, help="microcanonical energy window")
    p.add_argument("--svg", default=None)

    p = command("ipr", cmd_ipr, "IPR versus energy scatter with scar flags")
    common(p)
    p.add_argument("--subspace", choices=("working", "krylov", "full"), default=None,
                   help="basis choice; the default follows the model's tabulated diagnostics")
    p.add_argument("--flag-threshold", type=float, default=0.02)
    p.add_argument("--svg", default=None)

    p = command("rstat", cmd_rstat, "gap-ratio statistic in a symmetry sector")
    common(p, length_default=16)
    p.add_argument("--sector", default="s2+1,usm+1", help="e.g. s2+1,usm+1 or none")

    p = command("bch", cmd_bch, "projected norms of the series terms")
    common(p, length_default=16)
    p.add_argument("--orders", type=int, default=8)
    p.add_argument("--subspace", choices=("working", "krylov", "full"), default="working")
    p.add_argument("--bandwidth", type=float, default=None, help="also report the golden-rule rate")
    p.add_argument("--svg", default=None)

    p = command("sga-check", cmd_sga_check, "tower-algebra residual of the exact model")
    p.add_argument("-L", "--length", type=int, default=8)
    p.add_argument("--epsilon", type=float, default=None)

    p = command("spinrep-check", cmd_spinrep_check, "spin representation versus gate table")
    p.add_argument("--model", required=True)

    return parser


def _load(name):
    from .models import load_model

    return load_model(name)


def _subspace(model, length, mode):
    from .basis import BasisSubset
    from .hamiltonian import krylov_subspace
    from .models import working_subspace

    if mode == "full":
        return BasisSubset.full_space(length)
    if mode == "krylov":
        return krylov_subspace(model.circuit(length), model.orbit_seed(length))
    return working_subspace(model, length)


def _seed_index(spec: str, model, length: int) -> int:
    from .basis import tile_pattern

    if spec == "neel":
        return tile_pattern("01", length) if model.geometry == "stride2" else model.orbit_seed(length)
    if spec == "polarized":
        return tile_pattern("1", length)
    if set(spec) <= {"0", "1"} and len(spec) == length:
        return int(spec, 2)
    raise ValueError(f"seed {spec!r} is not a preset or an L-bit string")


def _params(args, **extra) -> dict:
    skip = {"out", "svg", "config", "threads", "command", "handler"}
    params = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    params.update(extra)
    params["command"] = args.command
    return params


def _require(ok: bool, flag: str, rule: str, value) -> None:
    """Refuse an out-of-range flag value before any work is done."""
    if not ok:
        raise ValueError(f"{flag} must {rule} (got {value})")


def _emit_json(args, payload: dict) -> None:
    text = json.dumps(payload, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _emit_csv(args, params: dict, columns: list[str], rows) -> None:
    from .output import format_value, write_csv
    from . import __version__

    if args.out:
        write_csv(args.out, __version__, params, columns, rows)
    else:
        print(",".join(columns))
        for row in rows:
            print(",".join(format_value(v) for v in row))


def cmd_orbit(args) -> int:
    from .automaton import orbit_of
    from .output import metadata_object
    from . import __version__

    model = _load(args.model)
    seed = _seed_index(args.seed, model, args.length)
    orbit = orbit_of(model.circuit(args.length), seed)
    payload = orbit.to_json()
    payload["metadata"] = metadata_object(__version__, _params(args))
    _emit_json(args, payload)
    return EXIT_OK


def cmd_rules(args) -> int:
    from .models import neel_orbit_states
    from .output import metadata_object
    from .rules import rule_report
    from . import __version__

    model = _load(args.model)
    kind = args.kind or model.expected.get("rule_kind", "I")
    circuit = model.circuit(args.length)
    states = neel_orbit_states(model, args.length)
    if kind == "I":
        n = model.expected.get("n") or 6
        report = rule_report(circuit, states, n, "I")
    else:
        from .logmap import closing_relation, principal_log

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
    from .output import metadata_object
    from .rules import SearchConstraints, search_models
    from . import __version__

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
    import numpy as np

    from .basis import bitstring
    from .dynamics import (Propagator, ResourceLimitError, dense_fits, fidelity_trace, generic_comparison_state,
                           local_z_trace, pr_trace)
    from .hamiltonian import build_hamiltonian
    from .models import neel_orbit_states
    from .output import write_svg_lines

    _require(args.dt > 0, "--dt", "be positive", args.dt)
    _require(args.tmax >= 0, "--tmax", "be at least 0", args.tmax)
    _require(args.site is None or 1 <= args.site <= args.length, "--site", f"lie in 1..{args.length}", args.site)
    model = _load(args.model)
    # the orbit first: a stride4 length of 2 mod 4 has an H but no automaton
    orbit = neel_orbit_states(model, args.length) if args.state == "generic" else None
    subset = _subspace(model, args.length, "working")
    if orbit is None:
        seed = _seed_index(args.state, model, args.length)
        _require(seed in subset, "--state", f"lie in the working subspace of {model.name} at L={args.length}",
                 args.state)
    if args.site is not None and not dense_fits(subset.size):
        raise ResourceLimitError(f"--site needs a dense eigensolve, refused at dimension {subset.size}; "
                                 "drop --site or use a smaller length")
    chain = build_hamiltonian(model.circuit(args.length), subset)
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
    from .basis import tile_pattern
    from .hamiltonian import build_hamiltonian
    from .output import write_svg_scatter
    from .spectral import analyze_spectrum

    model = _load(args.model)
    mode = args.subspace or ("full" if model.name == "qmbs-c" else "working")
    subset = _subspace(model, args.length, mode)
    chain = build_hamiltonian(model.circuit(args.length), subset)
    refs = [tile_pattern("10", args.length), tile_pattern("01", args.length)]
    analysis = analyze_spectrum(chain.h, subset, refs, args.flag_threshold)
    rows = zip(analysis.eigenvalues, analysis.ipr, analysis.overlaps.max(axis=1), analysis.flagged.astype(int))
    _emit_csv(args, _params(args, n_eff=subset.size, subspace=mode), ["energy", "ipr", "neel_overlap", "flagged"], rows)
    if args.svg:
        title = f"{model.name} L={args.length} IPR"
        write_svg_scatter(args.svg, title, analysis.eigenvalues, analysis.ipr, analysis.flagged)
    return EXIT_OK


def _parse_sector(spec: str):
    from .hamiltonian import SymmetrySector

    if spec in ("none", ""):
        return SymmetrySector()
    ops = []
    for field in spec.split(","):
        field = field.strip().lower()
        name = {"s2": "S2", "usm": "USM"}.get(field[:-2])
        if name is None or field[-2:] not in ("+1", "-1"):
            raise ValueError(f"bad sector component {field!r} (want e.g. s2+1)")
        ops.append((name, 1 if field.endswith("+1") else -1))
    return SymmetrySector(tuple(ops))


def cmd_rstat(args) -> int:
    import numpy as np

    from .dynamics import ResourceLimitError, dense_fits
    from .hamiltonian import build_hamiltonian, find_antiunitary, project_sector, sector_basis
    from .spectral import r_statistic

    model = _load(args.model)
    sector = _parse_sector(args.sector)
    subset = _subspace(model, args.length, "working")
    levels = sector_basis(subset, sector).size
    if not dense_fits(levels):
        raise ResourceLimitError(
            f"direct diagonalization refused: the sector has {levels} levels, "
            "above the dense limit; pass a smaller sector or length"
        )
    chain = build_hamiltonian(model.circuit(args.length), subset)
    theta = find_antiunitary(chain.h, subset)
    hs, _ = project_sector(chain.h, subset, sector, theta)
    evals = np.linalg.eigvalsh(hs)
    report = r_statistic(evals)
    centers = 0.5 * (report.bin_edges[:-1] + report.bin_edges[1:])
    params = _params(args, n_levels=len(evals), mean_r=report.mean)
    _emit_csv(args, params, ["r_bin_center", "density"], zip(centers, report.density))
    solve = "real" if np.isrealobj(hs) else "complex"
    print(f"levels={len(evals)} mean_r={report.mean:.6f} solve={solve} "
          f"theta={theta[0] or 'none'} theta_dev={theta[2]:.2e}", file=sys.stderr)
    return EXIT_OK


def cmd_bch(args) -> int:
    from .bch import MAX_ORDER, bch_terms, fgr_rate, norm_profile
    from .hamiltonian import build_hamiltonian
    from .models import neel_orbit_states
    from .output import write_svg_lines

    _require(0 <= args.orders <= MAX_ORDER, "--orders", f"lie in 0..{MAX_ORDER}", args.orders)
    _require(args.bandwidth is None or args.bandwidth > 0, "--bandwidth", "be positive", args.bandwidth)
    _require(args.bandwidth is None or args.orders >= 2, "--orders", "be at least 2 with --bandwidth", args.orders)
    model = _load(args.model)
    orbit = neel_orbit_states(model, args.length)    # before building, as in cmd_revivals
    subset = _subspace(model, args.length, args.subspace)
    chain = build_hamiltonian(model.circuit(args.length), subset)
    series = bch_terms(chain.a, chain.b, args.orders)
    positions = [subset.position(s) for s in orbit]
    profile = norm_profile(series, positions)
    params = _params(args, n_eff=subset.size)
    if args.bandwidth is not None:
        estimate = fgr_rate(series, positions, args.length, args.bandwidth)
        params["fgr_rate"] = estimate.rate
        print(f"fgr_rate={estimate.rate:.6g}", file=sys.stderr)
    rows = zip(profile.orders, profile.orbit_norm, profile.leakage_norm, profile.generic_norm)
    _emit_csv(args, params, ["n", "orbit_norm", "leakage_norm", "generic_norm"], rows)
    if args.svg:
        norms = {"orbit": profile.orbit_norm, "leakage": profile.leakage_norm, "generic": profile.generic_norm}
        write_svg_lines(args.svg, f"{model.name} L={args.length} series norms", profile.orders, norms)
    return EXIT_OK


def cmd_sga_check(args) -> int:
    import numpy as np

    from .models import sga_check

    eps = args.epsilon if args.epsilon is not None else float(np.pi)
    residual = sga_check(args.length, eps)
    print(f"sga residual (L={args.length}, epsilon={eps:.12g}): {residual:.3e}")
    return EXIT_OK


def cmd_spinrep_check(args) -> int:
    from .models import verify_spin_representation

    model = _load(args.model)
    deviation = verify_spin_representation(model)
    print(f"spin representation deviation ({model.name}): {deviation:.3e}")
    return EXIT_OK


def _with_config(argv: list[str]) -> list[str]:
    """argv with the --config file's keys spliced in as flags: keys that name
    top-level options go before the subcommand and the rest right after it,
    so explicitly passed flags, which come later, still win."""
    top = _top_options()
    split = argparse.ArgumentParser(add_help=False, exit_on_error=False, parents=[top])
    split.add_argument("command", nargs="?")
    split.add_argument("rest", nargs=argparse.REMAINDER)
    try:
        known, _ = split.parse_known_args(argv)
    except argparse.ArgumentError:
        return argv  # the full parser reports it
    if not known.config or known.command is None:
        return argv
    top_keys = vars(top.parse_args([]))
    head, tail = [], []
    for key, value in _read_config_file(known.config).items():
        flag = "-L" if key in ("L", "length") else "--" + key.replace("_", "-")
        words = {"true": [flag], "false": []}.get(value.lower(), [flag, value])
        (head if key in top_keys else tail).extend(words)
    cut = len(argv) - len(known.rest)
    return head + argv[:cut] + tail + argv[cut:]


def _export_threads(args) -> None:
    """Set the BLAS pool variables to --threads (or a config file's threads=),
    else to SCARFORGE_THREADS when it is set; the count must be at least 1."""
    flag, threads = "--threads", args.threads
    if threads is None:
        flag, threads = "SCARFORGE_THREADS", os.environ.get("SCARFORGE_THREADS")
        if not threads:
            return
    threads = str(threads)
    _require(threads.isdecimal() and int(threads) >= 1, flag, "be at least 1", threads)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_with_config(argv))
        _export_threads(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    from .automaton import CycleOverflowError
    from .dynamics import NormDriftError, ResourceLimitError
    from .hamiltonian import SubsetNotClosedError
    from .models import UnknownModelError

    try:
        return args.handler(args)
    except UnknownModelError as exc:
        print(f"error: unknown model {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_MODEL
    except (SubsetNotClosedError, NormDriftError, CycleOverflowError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"error: out of memory ({exc or 'allocation failed'}); use a smaller length or subspace",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
