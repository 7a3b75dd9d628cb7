"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 0-9 --out perfbench/BENCH_baseline.json

Runs are sequential, one process each. For every workload and end-to-end
metric it reports the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread ``(q3 - q1) / median``, and flags a spread wider than a
third of the metric's bound in ``BENCHMARK.json``. ``--traced`` adds one
traced run per workload on the bundled seeds and stores its per-layer
metrics.
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
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int | None, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" / "out" / f"{workload}-trace{trace}.json").read_text())
    return {"line": line, "env": record["env"], "sha": record["artifact_sha256"], "wall_s": wall}


def summarise(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / statistics.median(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread,
            "steady": spread < bound / 3, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    report = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            runs.append(bench(workload, seed, args.seconds, 0))
            print(workload, seed, f"{runs[-1]['wall_s']:.1f}s", json.dumps(runs[-1]["line"]), flush=True)
        report["env"] = runs[-1]["env"]
        entry = {
            "process_wall_s": [r["wall_s"] for r in runs],
            "attempted": sum(r["line"]["attempted"] for r in runs),
            "failed": sum(r["line"]["failed"] for r in runs),
            "correct": all(r["line"]["correct"] for r in runs),
            "end_to_end": {
                name: summarise([r["line"]["metrics"][name]["value"] for r in runs], bound)
                for name, bound in bounds.items()
            },
        }
        if args.traced:
            traced = bench(workload, None, args.seconds, 1)
            entry["per_layer_bundled_seeds"] = {
                k: v["value"] for k, v in traced["line"]["metrics"].items()
            }
            entry["artifact_sha256_bundled_seeds"] = traced["sha"]
        report["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "" if s["steady"] or name == "setup_s" else "  WIDE"
            print(f"  {name}: median {s['median']:.6g} spread {s['spread']:.4f}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
