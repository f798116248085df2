"""Command-line front end.

Exit codes: 0 success, 2 configuration error (an L shorter than the gate
width, an out-of-range flag such as revivals' --dt, --tmax, --site or
--window, refused before anything is built), 3 numerical-guard violation (norm
drift, non-closed subset) or resource limit (dense dimension guard, checked by
`ipr` and `rstat` before H is built, search work bound, memory pre-flight, a
failed allocation), 4 unknown model.  --threads and --config may stand before
or after the subcommand.  The thread count, from --threads, else a config file's threads=,
else SCARFORGE_THREADS, must be at least 1 and is applied to the BLAS pool
before numpy loads: this module imports no numpy, and `run` loads
`scarforge.commands` only after the thread variables are exported.  All
outputs are byte-identical for a fixed configuration and thread count; another
thread count can move the last printed digits, as threaded BLAS/LAPACK sums in
another order.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_UNKNOWN_MODEL = 4


def _config_flags(path) -> tuple[list[str], str | None]:
    """A config file's key=value lines as flags, its threads= apart; config= is skipped."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("_", "-")] = value.strip()
    threads = values.pop("threads", None)
    values.pop("config", None)
    flags = []
    for key, value in values.items():
        flag = "-L" if key in ("L", "length") else "--" + key
        flags += {"true": [flag], "false": []}.get(value.lower(), [flag, value])
    return flags, threads


def _top_options() -> argparse.ArgumentParser:
    """The options that may stand before or after the subcommand."""
    top = argparse.ArgumentParser(prog="scarforge", add_help=False, allow_abbrev=False)
    top.add_argument("--threads", type=int, default=None, help="BLAS thread count")
    top.add_argument("--config", default=None, help="key=value file of defaults")
    return top


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scarforge", description=__doc__, parents=[_top_options()])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, length_default=12):
        p.add_argument("--model", required=True, help="registry name or model file")
        p.add_argument("-L", "--length", type=int, default=length_default)
        p.add_argument("--out", default=None)

    p = sub.add_parser("orbit", help="cycle of a seed state under the automaton")
    common(p)
    p.add_argument("--seed", default="neel", help="neel | polarized | an explicit 0/1 string")

    p = sub.add_parser("rules", help="commutation-rule report for a model")
    common(p)
    p.add_argument("--type", dest="kind", choices=("I", "II"), default=None)

    p = sub.add_parser("search", help="exhaustive gate search on the alternating orbit")
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--require-cycle", action="store_true")
    p.add_argument("--top", type=int, default=None, help="emit only the best N gates")
    p.add_argument("--out", default=None)

    p = sub.add_parser("revivals", help="participation-ratio and fidelity trace")
    common(p)
    p.add_argument("--state", default="neel", help="neel | polarized | generic | 0/1 string")
    p.add_argument("--tmax", type=float, default=300.0)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--site", type=int, default=None, help="also trace <Z_site(t)>")
    p.add_argument("--window", type=float, default=0.4, help="microcanonical energy window")
    p.add_argument("--svg", default=None)

    p = sub.add_parser("ipr", help="IPR versus energy scatter with scar flags")
    common(p)
    p.add_argument("--subspace", choices=("working", "krylov", "full"), default=None,
                   help="basis choice; the default follows the model's tabulated diagnostics")
    p.add_argument("--flag-threshold", type=float, default=0.02)
    p.add_argument("--svg", default=None)

    p = sub.add_parser("rstat", help="gap-ratio statistic in a symmetry sector")
    common(p, length_default=16)
    p.add_argument("--sector", default="s2+1,usm+1", help="e.g. s2+1,usm+1 or none")

    p = sub.add_parser("bch", help="projected norms of the series terms")
    common(p, length_default=16)
    p.add_argument("--orders", type=int, default=8)
    p.add_argument("--subspace", choices=("working", "krylov", "full"), default="working")
    p.add_argument("--bandwidth", type=float, default=None, help="also report the golden-rule rate")
    p.add_argument("--svg", default=None)

    p = sub.add_parser("sga-check", help="tower-algebra residual of the exact model")
    p.add_argument("-L", "--length", type=int, default=8)
    p.add_argument("--epsilon", type=float, default=None)

    p = sub.add_parser("spinrep-check", help="spin representation versus gate table")
    p.add_argument("--model", required=True)

    return parser


def _require(ok: bool, flag: str, rule: str, value) -> None:
    """Refuse an out-of-range flag value before any work is done."""
    if not ok:
        raise ValueError(f"{flag} must {rule} (got {value})")


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """argv with --threads and --config taken wherever they stand, by their
    full names; the config file's flags go right after the subcommand, so
    explicit flags, which come later, still win."""
    top, rest = _top_options().parse_known_args(argv)
    parser = build_parser()
    flags, file_threads = _config_flags(top.config) if top.config else ([], None)
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    cut = next((i + 1 for i, word in enumerate(rest) if word in commands), None)
    args = parser.parse_args(rest if cut is None else rest[:cut] + flags + rest[cut:])
    _require(args.config is None, "--config", "be spelled in full", args.config)
    args.threads = next((t for t in (top.threads, args.threads, file_threads) if t is not None), None)
    return args


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
    try:
        args = _parse_args(argv)
        _export_threads(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # numpy loads here, after the thread variables are exported
    from . import commands
    from .dynamics import NormDriftError, ResourceLimitError
    from .hamiltonian import SubsetNotClosedError
    from .models import UnknownModelError

    try:
        return getattr(commands, "cmd_" + args.command.replace("-", "_"))(args)
    except UnknownModelError as exc:
        print(f"error: unknown model {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_MODEL
    except (SubsetNotClosedError, NormDriftError, ResourceLimitError) as exc:
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
