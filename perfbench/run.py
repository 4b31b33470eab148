"""Benchmark harness for flagtke: four workloads, checked answers, one JSON line.

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics from a traced unit,
next to an untraced unit of the same fixed work and the tracing overhead
(spans times the measured cost of one span).  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment and sample counts.  See NOTES.md for what each
workload and metric is for.

Each unit of work runs in a fresh client process (client.py), one at a
time: a closed loop with one client.  Units repeat while the next one is
expected to end within ``--seconds``; the first always runs in full.
Every end-to-end time is scaled to a fixed machine speed, measured by
reference ticks between ops (``client.Paced``), because the host's own
speed drifts; the raw figures are on the line before the result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from client import REFERENCE_S, ROOT, SRC, WORKLOADS, reference_s
from spans import per_layer_metrics, read_summaries

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
TRACE_ROUNDS = 60  # classes rounds (six ops each) in a traced unit
CLIENT_TIMEOUT_S = 150


def warm_bytecode() -> dict:
    """Compile src/ once so that no timed process compiles bytecode."""
    sources = sorted((SRC / "flagtke").glob("*.py"))
    stale = sum(
        1 for f in sources
        if not os.path.exists(cache := importlib.util.cache_from_source(str(f)))
        or os.path.getmtime(cache) < os.path.getmtime(f)
    )
    ok = compileall.compile_dir(str(SRC / "flagtke"), quiet=1)
    return {"warmed": bool(ok), "modules": len(sources), "compiled_now": stale}


def environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine; src_sha256 still identifies the code
            pass
    src = hashlib.sha256()
    for f in sorted((SRC / "flagtke").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            src.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_client(workload: str, seed: int, *extra: str) -> dict:
    """Spawn one client, wait for it, and add its set-up time."""
    cmd = [sys.executable, str(HERE / "client.py"), "--workload", workload, "--seed", str(seed),
           *extra]
    spawned_at = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CLIENT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"client {' '.join(extra)} for {workload} timed out")
    if proc.returncode != 0:
        raise SystemExit(f"client for {workload} exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - spawned_at
    return result


def scaled_setup_s(workload: str, seed: int) -> tuple[float, float]:
    """One fresh set-up, raw and scaled to the reference speed measured
    just before and just after it."""
    before = reference_s()
    raw = run_client(workload, seed, "--probe")["setup_s"]
    return raw, raw * REFERENCE_S / ((before + reference_s()) / 2)


def percentiles(lat_s: list[float]) -> dict:
    """Median, and p90 with the number of samples beyond it."""
    ms = sorted(x * 1000 for x in lat_s)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return {"p50": statistics.median(ms), "p90": p90, "samples": len(ms),
            "beyond_p90": sum(1 for x in ms if x > p90)}


def timed_run(args) -> tuple[dict, dict, list[dict]]:
    setups = [scaled_setup_s(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    units: list[dict] = []
    spent = 0.0  # raw seconds, for the budget
    while not units or spent + units[-1]["timed_s"] <= args.seconds:
        budget = f"{max(args.seconds - spent, 0.0):.3f}"
        units.append(run_client(args.workload, args.seed, "--unit", str(len(units)),
                                "--budget", budget))
        spent += units[-1]["timed_s"]
    ops = sum(u["ops"] for u in units)
    pct = percentiles([x for u in units for x in u["lat"]])
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "ops_per_s": (ops / sum(u["scaled_s"] for u in units), "1/s"),
        "op_p50_ms": (pct["p50"], "ms"),
        "op_p90_ms": (pct["p90"], "ms"),
        "peak_rss_mib": (max(u["rss_kib"] for u in units) / 1024, "MiB"),
    }
    info = {"units": len(units), "timed_s": spent, "raw_ops_per_s": ops / spent,
            "raw_setup_s": statistics.median(r for r, _ in setups),
            "setup_samples_s": [s for _, s in setups],
            "reference_s": [u["ref_s"] for u in units],
            "latency_samples": pct["samples"], "beyond_p90": pct["beyond_p90"]}
    return metrics, info, units


def traced_run(args) -> tuple[dict, dict, list[dict]]:
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    spans_file.unlink(missing_ok=True)
    fixed = ["--rounds", str(TRACE_ROUNDS)] if args.workload == "classes" else []
    plain = run_client(args.workload, args.seed, *fixed)
    traced = run_client(args.workload, args.seed, *fixed, "--trace-file", str(spans_file))
    total = read_summaries(str(spans_file))
    metrics = per_layer_metrics(total)
    spans = sum(total["calls"].values())
    info = {
        "spans": spans,
        "untraced": {"ops": plain["ops"], "wall_s": plain["timed_s"],
                     "ops_per_s": plain["ops"] / plain["timed_s"]},
        "traced": {"ops": traced["ops"], "wall_s": traced["timed_s"]},
        "span_cost_ns": traced["span_ns"],
        # spans x per-span cost, as a share of the untraced wall time: the
        # overhead is smaller than the noise between two processes, so the
        # ratio of their wall times cannot show it
        "tracing_overhead": spans * traced["span_ns"] / 1e9 / plain["timed_s"],
        "same_answers": plain["digest"] == traced["digest"],
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    traced["correct"] = traced["correct"] and info["same_answers"]
    return metrics, info, [plain, traced]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "flagtke" / "__init__.py").is_file():
        print(f"error: no flagtke sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    info = {"env": environment(args), "bytecode": warm_bytecode()}
    metrics, detail, units = (traced_run if args.trace else timed_run)(args)
    attempted = sum(u["ops"] for u in units)
    failed = sum(u["failed"] for u in units)
    errors = [e for u in units for e in u.get("errors", [])][:3]
    info.update(detail, attempted=attempted, failed=failed, failed_ratio=failed / attempted,
                errors=errors)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": all(u["correct"] for u in units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
