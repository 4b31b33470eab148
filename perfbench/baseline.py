"""Measure every workload on many seeds and record the result as a baseline.

    python3 perfbench/baseline.py        # from the repository root

For each workload this runs run.py untraced once per seed, 1 to 10, and
reports, per end-to-end metric, the median, the quartiles and their
distance as a share of the median (``spread``), next to a third of the
metric's bound from BENCHMARK.json.  It then makes two traced runs: on
two seeds for atlas, classes and sweep, whose counts do not depend on
the seed, and twice on one seed for cli, whose corpus does.  Every count metric must repeat
exactly between the two.  The result goes to BASELINE.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from client import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    info, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: wrong answers {result}")
    return info, result


def spread_table(results: list[dict]) -> dict:
    table = {}
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        table[metric["name"]] = {
            "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": metric["bound"], "values": values,
        }
    return table


def traced_pair(workload: str) -> dict:
    pair = SEEDS[:1] * 2 if workload == "cli" else SEEDS[:2]
    runs = [run(workload, s, 1) for s in pair]
    counts = {
        m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes", "ratio")
    }
    layers = [r["metrics"] for _, r in runs]
    differ = sorted(n for n in counts if layers[0][n]["value"] != layers[1][n]["value"])
    info = runs[0][0]
    return {
        "seeds": pair,
        "counts_repeat": not differ,
        "counts_differing": differ,
        "untraced": info["untraced"],
        "traced": info["traced"],
        "spans": info["spans"],
        "span_cost_ns": [i["span_cost_ns"] for i, _ in runs],
        "tracing_overhead": [i["tracing_overhead"] for i, _ in runs],
        "same_answers": all(i["same_answers"] for i, _ in runs),
        "per_layer": {n: v["value"] for n, v in layers[0].items()},
    }


def main() -> int:
    doc = {"run_seconds": SPEC["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in WORKLOADS:
        untraced = [run(workload, s, 0) for s in SEEDS]
        doc["env"] = {k: v for k, v in untraced[0][0]["env"].items()
                      if k not in ("workload", "seed", "trace")}
        table = spread_table([r for _, r in untraced])
        entry = {
            "failed_ratio": max(i["failed_ratio"] for i, _ in untraced),
            "ops_per_run": [i["attempted"] for i, _ in untraced],
            "latency_samples": untraced[0][0]["latency_samples"],
            "beyond_p90": untraced[0][0]["beyond_p90"],
            "end_to_end": table,
            "trace": traced_pair(workload),
        }
        doc["workloads"][workload] = entry
        for name, row in table.items():
            steady = "ok" if name == "setup_s" or row["spread"] < row["bound"] / 3 else "WIDE"
            print(f"{workload:8s} {name:14s} median {row['median']:<12.6g} "
                  f"spread {row['spread']:.4f} (bound/3 {row['bound'] / 3:.4f}) {steady}")
        print(f"{workload:8s} counts repeat: {entry['trace']['counts_repeat']}, "
              f"tracing overhead {entry['trace']['tracing_overhead']}", flush=True)
    (HERE / "BASELINE.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
