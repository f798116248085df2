"""scarforge benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload revivals-pxp16 --seed 3 --seconds 30 --trace 0

Run it from the repository root; it imports scarforge from ./src.
--workload all runs every workload of BENCHMARK.json in turn.

--trace 0 repeats the workload, each repetition in a fresh interpreter with
one process and the BLAS thread variables set to the number of usable CPUs.
The number of repetitions is --seconds over the workload's nominal
repetition time (at least one), so it does not depend on how fast a run
goes and every run with the same arguments does the same work.  It prints wall_s,
peak_rss_mb and setup_s as median, quartiles and sample count, and fail_rate
as failed over attempted operations.

--trace 1 runs the workload three times: untraced, traced, and traced with
one BLAS thread.  It prints the per-layer metrics of BENCHMARK.json from the
traced spans, each call's wall time at one thread and at all of them, the
tracing overhead, the share of the traced wall time the wrapped calls
account for, and which ROADMAP Baseline rows the workload reproduces.

Either mode ends with one JSON line: correct, attempted, failed, metrics.
Every run's samples, environment and spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import REPRODUCES, WORKLOADS, MemoryRefusal, available_bytes, not_run, preflight, repetitions
from tracing import self_times

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # a run must end within 180 s

# Traced calls reported per layer, with the counts each one carries.
LAYER_CALLS = {
    "models.working_subspace": ("states",),
    "hamiltonian.krylov_subspace": ("states",),
    "hamiltonian.build_hamiltonian": ("nnz",),
    "hamiltonian.project_sector": ("levels",),
    "bch.bch_terms": ("cpu_s", "rss_mb", "fill"),
    "bch.norm_profile": (),
    "bch.fgr_rate": (),
    "dynamics.Propagator": ("cpu_s", "dim"),
    "dynamics.Propagator.evolve": ("steps", "s_per_step", "bytes_held", "norm_drift"),
    "dynamics.pr_trace": (),
    "dynamics.fidelity_trace": (),
    "rules.search_models": ("gates_enumerated", "gates_scored"),
    "rules.rule_report": ("instances", "satisfied"),
}
MODULES = ("models", "hamiltonian", "bch", "dynamics", "rules", "logmap")
PEAK_COUNTS = ("rss_mb", "fill", "bytes_held", "norm_drift")  # maxima, the rest are sums


class BenchError(RuntimeError):
    pass


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def spawn(workload: str, seed: int, threads: int, deadline: float, *flags: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(threads) for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *flags]
    env["PERFBENCH_SPAWN"] = repr(time.time())
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} did not finish within the {DEADLINE_S:.0f} s budget")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "scarforge").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def environment(workload: str, args, child_env: dict, held: int) -> dict:
    return {
        **child_env,
        "nproc": usable_cpus(),
        "blas_threads_set": usable_cpus(),
        "l2_cache_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "available_memory_bytes": available_bytes(),
        "held_bytes_computed": held,
        "commit": commit(),
        "source_sha256": source_hash(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def layer_metrics(traced: dict, single: dict, untraced: dict) -> dict:
    """Per-layer values from the traced runs at all threads and at one thread."""
    spans = traced["spans"]
    selfs = self_times(spans)
    root, calls = spans[0], range(1, len(spans))
    wall_1t: dict[str, float] = {}
    for s in single["spans"][1:]:
        wall_1t[s["name"]] = wall_1t.get(s["name"], 0.0) + s["end"] - s["start"]

    out: dict[str, float] = {}
    for name, extras in LAYER_CALLS.items():
        mine = [spans[i] for i in calls if spans[i]["name"] == name]
        wall = sum((s["end"] - s["start"] for s in mine), 0.0)
        cpu = sum((s["cpu"] for s in mine), 0.0)
        counts: dict[str, float] = {}
        for s in mine:
            for key, value in s["counts"].items():
                merge = max if key in PEAK_COUNTS else (lambda a, b: a + b)
                counts[key] = merge(counts[key], value) if key in counts else value
        counts["cpu_s"] = cpu
        counts["rss_mb"] = max((s["rss_mb"] for s in mine), default=0.0)
        counts["s_per_step"] = wall / counts["steps"] if counts.get("steps") else 0.0
        out[f"{name}.wall_s"] = wall
        out[f"{name}.threads"] = cpu / wall if wall > 0 else 0.0
        out[f"{name}.wall_s_1t"] = wall_1t.get(name, 0.0)
        for key in extras:
            out[f"{name}.{key}"] = counts.get(key, 0)

    logs = [spans[i] for i in calls if spans[i]["name"] == "logmap.principal_log"]
    out["logmap.principal_log.calls"] = len(logs)
    out["logmap.principal_log.refused"] = sum(s.get("error") == "NonPeriodicGateError" for s in logs)
    for module in MODULES:
        out[f"{module}.self_s"] = sum(selfs[i] for i in calls if spans[i]["name"].split(".")[0] == module)
    traced_wall = root["end"] - root["start"]
    out["trace.remainder_s"] = selfs[0]
    out["trace.coverage"] = 1.0 - selfs[0] / traced_wall
    out["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    out["process.setup_s"] = traced["setup_s"]
    return out


def with_units(values: dict, spec: list[dict]) -> dict:
    names = [m["name"] for m in spec]
    missing, extra = set(names) - set(values), set(values) - set(names)
    if missing or extra:
        raise BenchError(f"metrics out of step with BENCHMARK.json: missing {sorted(missing)}, extra {sorted(extra)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def problems(results: list[dict]) -> list[str]:
    return [p for r in results for p in r["wrong"] + r["errors"]]


def timed(workload: str, args, spec: dict, deadline: float) -> tuple[dict, list[dict]]:
    threads = usable_cpus()
    reps: list[dict] = []
    count = repetitions(workload, args.seconds)
    while len(reps) < count:
        t = time.monotonic()
        reps.append(spawn(workload, args.seed, threads, deadline, "--trace", "0"))
        now = time.monotonic()
        if len(reps) < count and now + 1.5 * (now - t) > deadline:
            print(f"  stopping after {len(reps)} of {count} repetitions to end within "
                  f"{DEADLINE_S:.0f} s", file=sys.stderr)
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, args.seed, threads, deadline, "--setup-only")["setup_s"])
    stats = {
        "wall_s": summary([r["wall_s"] for r in reps]),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in reps]),
        "setup_s": summary(setups),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"workload {workload}  seed {args.seed}  {len(reps)} repetitions at {threads} BLAS threads")
    for name, st in stats.items():
        print(f"  {name:<12} {st['median']:.6g} {units[name]}  (median; q1 {st['q1']:.6g}, "
              f"q3 {st['q3']:.6g}; n = {st['n']})")
    print(f"  {'fail_rate':<12} {failed / attempted:.6g} fraction  ({failed} failed of {attempted} "
          f"operations; n = {len(reps)})")
    for key, count in reps[0]["refusals"].items():
        print(f"  refused per repetition: {count} x {key}")
    values = {name: st["median"] for name, st in stats.items()}
    return {"values": values, "stats": stats, "runs": reps}, reps


def traced(workload: str, args, spec: dict, deadline: float) -> tuple[dict, list[dict]]:
    threads = usable_cpus()
    untraced = spawn(workload, args.seed, threads, deadline, "--trace", "0")
    full = spawn(workload, args.seed, threads, deadline, "--trace", "1")
    single = spawn(workload, args.seed, 1, deadline, "--trace", "1")
    values = layer_metrics(full, single, untraced)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    print(f"workload {workload}  seed {args.seed}  traced at {threads} and at 1 BLAS thread")
    print(f"  {'call':<30} {'wall_s':>9} {'wall_s_1t':>9} {'threads':>7}  counts")
    for name, extras in LAYER_CALLS.items():
        counts = "  ".join(f"{k}={values[f'{name}.{k}']:.6g}" for k in extras)
        print(f"  {name:<30} {values[f'{name}.wall_s']:9.4f} {values[f'{name}.wall_s_1t']:9.4f} "
              f"{values[f'{name}.threads']:7.2f}  {counts}")
    for name in sorted(values):
        if not any(name.startswith(call + ".") and name.count(".") == call.count(".") + 1
                   for call in LAYER_CALLS):
            print(f"  {name:<40} {values[name]:.6g} {units.get(name, '')}")
    print(f"  untraced wall_s {untraced['wall_s']:.4f} s, traced {full['wall_s']:.4f} s, "
          f"one thread {single['wall_s']:.4f} s")
    print(f"  wrapped calls' self time covers {values['trace.coverage']:.1%} of the traced wall "
          f"time; the remaining {values['trace.remainder_s']:.4f} s is the benchmark's own checks")
    print("  reproduces ROADMAP Baseline rows:")
    for row in REPRODUCES[workload]:
        print(f"    - {row}")
    print("  not run on any check:")
    for row, reason in not_run():
        print(f"    - {row}: {reason}")
    return {"values": values, "runs": [untraced, full, single]}, [untraced, full, single]


def run_one(workload: str, args, spec: dict) -> dict:
    """Measure one workload, print its report, and return its result line."""
    deadline = time.monotonic() + DEADLINE_S
    sizes = WORKLOADS[workload]
    held = preflight(sizes["dense"], sizes["history"])
    result, runs = (traced if args.trace else timed)(workload, args, spec, deadline)
    metrics = with_units(result["values"], spec["per_layer" if args.trace else "end_to_end"])
    bad = problems(runs)
    for line in bad:
        print(f"  FAILED: {line}")
    record = {"environment": environment(workload, args, runs[0]["env"], held), **result}
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    env = record["environment"]
    print(f"  environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"BLAS {env['blas']['name']} {env['blas']['version']} ({env['blas']['threads']} threads), "
          f"nproc {env['nproc']}, L2 {env['l2_cache_bytes']} B, L3 {env['l3_cache_bytes']} B, "
          f"commit {env['commit']}, source {env['source_sha256']}; details in {out_path.relative_to(ROOT)}")
    return {
        "correct": not bad,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["all", *sorted(WORKLOADS)])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "scarforge" / "__init__.py").exists() or not spec_path.exists():
        print(f"no scarforge source tree and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        try:
            lines[name] = run_one(name, args, spec)
        except MemoryRefusal as exc:
            print(f"{name} refused before allocating: {exc}", file=sys.stderr)
            return 3
        except BenchError as exc:
            print(str(exc), file=sys.stderr)
            return 1
    if len(names) > 1:
        lines = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}.{key}": value for name, line in lines.items()
                        for key, value in line["metrics"].items()},
        }
    else:
        lines = lines[names[0]]
    print(json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
