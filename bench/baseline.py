"""Run every workload over several seeds and record the spread of each metric.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For each workload: one `--trace 0` run per seed, then one `--trace 1` run on
the first seed. For every end-to-end metric it records the values, their
median, quartiles (statistics.quantiles, n=4) and spread = (Q3 - Q1) /
median, which is what a metric's bound in BENCHMARK.json is compared with.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["machine"] = json.loads(lines[0].split(" ", 1)[1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--workloads", default=None, help="comma-separated subset")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]

    report = {"run_seconds": spec["run_seconds"], "seeds": [lo, hi], "workloads": {}}
    for name in names:
        runs = []
        for seed in range(lo, hi + 1):
            r = run_once(name, seed, spec["run_seconds"], 0)
            runs.append(r)
            print(name, seed, f"{r['wall_s']:.1f} s", {k: round(v["value"], 4) for k, v in r["metrics"].items()},
                  flush=True)
        traced = run_once(name, lo, spec["run_seconds"], 1)
        report["machine"] = runs[0]["machine"]
        report["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_wall_s": summarise([r["wall_s"] for r in runs]),
            "end_to_end": {m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in runs])
                           for m in spec["end_to_end"]},
            "per_layer_seed": lo,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for name, w in report["workloads"].items():
        spreads = {k: round(v["spread"], 3) for k, v in w["end_to_end"].items()}
        print(name, f"failed {w['failed']}/{w['attempted']}", "spreads", spreads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
