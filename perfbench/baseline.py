"""Measure the benchmark over seeds 1-10 and write ``perfbench/baseline.json``.

Run from the repository root::

    python3 perfbench/baseline.py

Each workload runs once per seed with ``--trace 0`` for BENCHMARK.json's
``run_seconds``, one process at a time, then twice with ``--trace 1`` on
seed 1.  The summary holds, per workload, the median and quartiles of every
end-to-end metric with its spread (interquartile distance over median), the
same for the unscaled figures each run prints next to the rescaled ones,
the per-seed values of the report-only figures, and the per-layer values of
both traced runs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SEEDS = list(range(1, 11))
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def one(workload: str, seed: int, trace: int):
    """(result, report-only figures, unscaled figures) of one run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    reported, unscaled = {}, {}
    for line in lines[:-1]:
        parts = line.split()
        if parts and parts[0] in run.REPORTED:
            reported[parts[0]] = float(parts[1])
        elif parts and parts[0] == "unscaled":
            unscaled = json.loads(line[len("unscaled "):])
    return result, reported, unscaled


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    summary = {"seconds": SECONDS, "seeds": SEEDS, "layer_map": run.LAYER_MAP, "workloads": {}}
    for name in run.WORKLOADS:
        e2e, raw, reported, correct = {}, {}, {}, True
        for seed in SEEDS:
            result, rep, unscaled = one(name, seed, 0)
            correct = correct and result["correct"]
            print(name, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}), flush=True)
            for k, v in result["metrics"].items():
                e2e.setdefault(k, []).append(v["value"])
            for k, v in unscaled.items():
                raw.setdefault(k, []).append(v)
            for k, v in rep.items():
                reported.setdefault(k, []).append(v)
        traced = [one(name, SEEDS[0], 1)[0] for _ in range(2)]
        summary["workloads"][name] = {
            "correct": correct and all(t["correct"] for t in traced),
            "end_to_end": {k: quartiles(v) for k, v in e2e.items()},
            "unscaled": {k: quartiles(v) for k, v in raw.items()},
            "reported": reported,
            "per_layer": {k: [t["metrics"][k]["value"] for t in traced] for k in traced[0]["metrics"]},
        }
        for k, q in summary["workloads"][name]["end_to_end"].items():
            u = summary["workloads"][name]["unscaled"][k]
            print(f"{name} {k}: median {q['median']:.6g} spread {q['spread']:.4f}; "
                  f"unscaled median {u['median']:.6g} spread {u['spread']:.4f}", flush=True)
    summary["provenance"] = run.provenance(SEEDS[0], {})
    (HERE / "baseline.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
