"""Golden CLI outputs: one fixed sweep of the command line, and a comparison
of two sweeps.

The sweep runs each subcommand on each registry model where it applies, at
small L, plus the cases the CI steps name: the dense-path revivals at pxp
L=16, the Chebyshev revivals at pxp L=20 (a Neel start in its k = 0 block, a
generic start in the whole space, each also on a grid of step 2, longer than
a window), the group-based `rstat` and `bch`, and refusals by exit code.
Every case runs in process through `scarforge.cli.run`.  It keeps its
stdout, its stderr and every file it writes (`--out`, `--svg`), each as
`<case>.<kind>`, and `index.json` records each case's arguments and exit
code.  Empty streams leave no file.  The one output that varies from run to
run, the search's wall time on stderr, is masked.

Two sweeps match when they hold the same files, each with the same lines,
and each line splits into the same text and numbers: integers equal, and
floats equal to 1e-10 relative (another BLAS build, or another thread
count, may move the 12th digit) or within 1e-12 absolute (roundoff-sized
values such as a norm drift).

    python tests/golden/sweep.py --write DIR     # run the sweep with the scarforge on the path
    python tests/golden/sweep.py TREE_A TREE_B   # run it on two source trees and compare

The second form runs the sweep on each tree's `src/` in a subprocess with
one BLAS thread, and lists for every file whether it is byte-identical, how
many lines moved and by how much, and whether the move is within the
tolerance above.  It exits 1 when a file is missing from one side or moves
beyond the tolerance.  `tests/test_golden.py` regenerates the sweep in
process and compares it with `tests/golden/outputs/`; after a change that
moves an output on purpose, rewrite them with

    PYTHONPATH=src python tests/golden/sweep.py --write tests/golden/outputs
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

MODELS = ("qmbs-a", "qmbs-b", "qmbs-c", "pxp", "pxp-nophase")
RTOL, ATOL = 1e-10, 1e-12

# (case, argv); "@csv", "@svg" and "@json" stand for the path of the case's
# own output file of that kind
SWEEP = (
    [(f"orbit-{m}-8", ["orbit", "--model", m, "-L", "8"]) for m in MODELS]
    + [("orbit-qmbs-c-8-polarized", ["orbit", "--model", "qmbs-c", "-L", "8", "--seed", "polarized",
                                     "--out", "@json"])]
    + [(f"rules-{m}-8", ["rules", "--model", m, "-L", "8"]) for m in MODELS]
    + [("rules-pxp-12-II", ["rules", "--model", "pxp", "-L", "12", "--type", "II", "--out", "@json"])]
    + [("search-top5", ["search", "--top", "5", "--out", "@json"])]
    + [(f"revivals-{m}-8", ["revivals", "--model", m, "-L", "8", "--tmax", "10"]) for m in MODELS]
    + [
        ("revivals-qmbs-b-8-site", ["revivals", "--model", "qmbs-b", "-L", "8", "--tmax", "10", "--site", "2",
                                    "--out", "@csv", "--svg", "@svg"]),
        ("revivals-pxp-12-generic", ["revivals", "--model", "pxp", "-L", "12", "--tmax", "10", "--state", "generic"]),
        ("revivals-pxp-16-neel", ["revivals", "--model", "pxp", "-L", "16", "--tmax", "20", "--out", "@csv"]),
        ("revivals-pxp-16-generic", ["revivals", "--model", "pxp", "-L", "16", "--tmax", "20", "--state", "generic",
                                     "--out", "@csv"]),
        ("revivals-pxp-20-neel", ["revivals", "--model", "pxp", "-L", "20", "--tmax", "20", "--state", "neel",
                                  "--out", "@csv"]),
        ("revivals-pxp-20-generic", ["revivals", "--model", "pxp", "-L", "20", "--tmax", "20", "--state", "generic",
                                     "--out", "@csv"]),
        ("revivals-pxp-20-neel-dt2", ["revivals", "--model", "pxp", "-L", "20", "--tmax", "40", "--dt", "2",
                                      "--state", "neel", "--out", "@csv"]),
        ("revivals-pxp-20-generic-dt2", ["revivals", "--model", "pxp", "-L", "20", "--tmax", "40", "--dt", "2",
                                         "--state", "generic", "--out", "@csv"]),
        ("revivals-dt0", ["revivals", "--model", "pxp", "-L", "8", "--dt", "0"]),
    ]
    + [(f"ipr-{m}-8", ["ipr", "--model", m, "-L", "8"]) for m in MODELS]
    + [
        ("ipr-qmbs-c-8-svg", ["ipr", "--model", "qmbs-c", "-L", "8", "--out", "@csv", "--svg", "@svg"]),
        ("ipr-qmbs-a-24", ["ipr", "--model", "qmbs-a", "-L", "24"]),
    ]
    + [(f"rstat-{m}-12", ["rstat", "--model", m, "-L", "12"]) for m in MODELS]
    + [
        ("rstat-pxp-12-s2", ["rstat", "--model", "pxp", "-L", "12", "--sector", "s2+1", "--out", "@csv"]),
        ("rstat-qmbs-c-12-none", ["rstat", "--model", "qmbs-c", "-L", "12", "--sector", "none"]),
    ]
    + [(f"bch-{m}-8", ["bch", "--model", m, "-L", "8", "--orders", "4"]) for m in MODELS]
    + [
        ("bch-pxp-14", ["bch", "--model", "pxp", "-L", "14", "--orders", "4"]),
        ("bch-qmbs-b-12", ["bch", "--model", "qmbs-b", "-L", "12", "--orders", "6"]),
        ("bch-pxp-12-fgr", ["bch", "--model", "pxp", "-L", "12", "--orders", "3", "--bandwidth", "30",
                            "--out", "@csv", "--svg", "@svg"]),
    ]
    + [
        ("sga-check-8", ["sga-check", "-L", "8"]),
        ("sga-check-8-eps3", ["sga-check", "-L", "8", "--epsilon", "3"]),
    ]
    + [(f"spinrep-check-{m}", ["spinrep-check", "--model", m]) for m in MODELS]
    + [("unknown-model", ["rules", "--model", "qmbs-z"])]
)

MASKS = ((re.compile(r"(scored in )\d+\.\d+( s)"), r"\1-\2"),)
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def run_sweep(dest) -> None:
    """Run every case of SWEEP in this process and write its outputs into `dest`."""
    from scarforge.cli import run

    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    index = {}
    for case, argv in SWEEP:
        argv = [str(dest / f"{case}.{word[1:]}") if word.startswith("@") else word for word in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        text = err.getvalue()
        for pattern, repl in MASKS:
            text = pattern.sub(repl, text)
        for kind, value in (("stdout", out.getvalue()), ("stderr", text)):
            if value:
                (dest / f"{case}.{kind}").write_text(value)
        index[case] = {"argv": [w.replace(str(dest), "@") for w in argv], "exit": code}
    (dest / "index.json").write_text(json.dumps(index, indent=1) + "\n")


def _line_moves(a: str, b: str):
    """None when two lines differ in text or in an integer, else the largest
    absolute and relative float moves and whether every float is within tolerance."""
    pa, pb = NUMBER.split(a), NUMBER.split(b)
    if len(pa) != len(pb) or pa[::2] != pb[::2]:
        return None
    worst_abs = worst_rel = 0.0
    ok = True
    for x, y in zip(pa[1::2], pb[1::2]):
        if x == y:
            continue
        if not re.search(r"[.eEni]", x + y):    # two integers
            if int(x) != int(y):
                return None
            continue
        fx, fy = float(x), float(y)
        if math.isnan(fx) or math.isnan(fy) or math.isinf(fx) or math.isinf(fy):
            return None
        diff = abs(fx - fy)
        worst_abs = max(worst_abs, diff)
        worst_rel = max(worst_rel, diff / max(abs(fx), abs(fy)))
        ok = ok and math.isclose(fx, fy, rel_tol=RTOL, abs_tol=ATOL)
    return worst_abs, worst_rel, ok


def compare(dir_a, dir_b) -> list[dict]:
    """One record per file of either sweep: its name, its status
    ("identical", "within", "beyond", "text" or "missing") and, for files
    that moved, the lines that did and the largest moves."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = sorted({p.name for p in dir_a.iterdir()} | {p.name for p in dir_b.iterdir()})
    report = []
    for name in names:
        fa, fb = dir_a / name, dir_b / name
        if not (fa.exists() and fb.exists()):
            report.append({"file": name, "status": "missing", "in": str(dir_a if fa.exists() else dir_b)})
            continue
        a, b = fa.read_text(), fb.read_text()
        if a == b:
            report.append({"file": name, "status": "identical"})
            continue
        la, lb = a.splitlines(), b.splitlines()
        record = {"file": name, "lines": len(la), "moved": 0, "max_abs": 0.0, "max_rel": 0.0, "status": "within"}
        if len(la) != len(lb):
            record["status"] = "text"
        for x, y in zip(la, lb):
            if x == y:
                continue
            record["moved"] += 1
            moves = _line_moves(x, y)
            if moves is None:
                record["status"] = "text"
                continue
            record["max_abs"] = max(record["max_abs"], moves[0])
            record["max_rel"] = max(record["max_rel"], moves[1])
            if not moves[2] and record["status"] == "within":
                record["status"] = "beyond"
        report.append(record)
    return report


def problems(report: list[dict]) -> list[dict]:
    """The records of files that are missing on one side or moved beyond tolerance."""
    return [r for r in report if r["status"] not in ("identical", "within")]


def _sweep_tree(tree: Path, dest: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--write", str(dest)], env=env, check=True)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--write":
        run_sweep(argv[1])
        return 0
    if len(argv) != 2 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        sides = [Path(tmp) / "a", Path(tmp) / "b"]
        for tree, dest in zip(argv, sides):
            _sweep_tree(Path(tree).resolve(), dest)
        report = compare(*sides)
    counts = {}
    for r in report:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
        if r["status"] == "missing":
            print(f"{r['file']}: only in the sweep of {argv[0] if r['in'].endswith('/a') else argv[1]}")
        elif r["status"] != "identical":
            print(f"{r['file']}: {r['status']}, {r['moved']} of {r['lines']} lines moved, "
                  f"max abs {r['max_abs']:.2e}, max rel {r['max_rel']:.2e}")
    print(f"{len(report)} files: " + ", ".join(f"{n} {s}" for s, n in sorted(counts.items())))
    return 1 if problems(report) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
