"""Benchmark of `ual`: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload train-full --seed 7 --seconds 20 --trace 0

``--trace 0`` runs the closed loop untraced for ``--seconds`` and reports
the end-to-end metrics. ``--trace 1`` runs half the time untraced and half
with the public `ual` functions of ``tracing.TARGETS`` wrapped in spans,
and reports the per-layer metrics plus the tracing overhead. The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it print every metric by name with its unit and the
environment. ``METRICS.md`` defines the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS threads must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["UAL_LOG_LEVEL"] = "error"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench" / "out"
WORKLOAD_NAMES = ("train-full", "train-baseline", "eval-sweep", "simulate")
SETUP_REPEATS = 7
MIN_UNITS = 3  # byte-identity needs two units; a median wants three

END_TO_END_UNITS = {
    "groups_per_s": "groups/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "face_micro_acc": "ratio",
    "fused_micro_acc": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def import_program():
    """Import `ual` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "ual" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ual package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ual

    if Path(ual.__file__).resolve().parent != SRC / "ual":
        raise SystemExit(f"perfbench: imported ual from {ual.__file__}, expected {SRC / 'ual'}")


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Loop:
    """Closed loop: one caller, the next unit starts after the previous returns."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.walls: list[float] = []
        self.rates: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: set[str] = set()
        self.last = None

    def run_unit(self, tracer=None) -> None:
        """One command and its checks; with ``tracer``, only the command is traced."""
        out = self.work / f"out-{self.attempted}"
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.reset(f"unit{self.attempted - 1}")
                tracer.install()
            try:
                start = time.perf_counter()
                groups = self.workload.unit(out)
                wall = time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.uninstall()
            outcome = self.workload.check(out)
        except Exception:  # a failed command is counted, and the loop goes on
            self.failed += 1
            self.failures.append(traceback.format_exc(limit=3))
            return
        finally:
            clear(out)
        bad = sorted(k for k, ok in outcome.checks.items() if not ok)
        if self.digests and outcome.digest not in self.digests:
            bad.append("byte_identical")
        self.digests.add(outcome.digest)
        if bad:
            self.failed += 1
            self.failures.append(f"unit {self.attempted - 1}: failed checks {bad}")
        self.walls.append(wall)
        self.rates.append(groups / wall)
        self.last = outcome

    def run_for(self, seconds: float, min_units: int, tracer=None, on_unit=None) -> None:
        """Run units for ``seconds``; a unit that would overrun is not started."""
        deadline = time.perf_counter() + seconds
        done = 0
        last = 0.0
        while done < min_units or time.perf_counter() + last < deadline:
            start = time.perf_counter()
            self.run_unit(tracer)
            if on_unit is not None:
                on_unit()
            last = time.perf_counter() - start
            done += 1


def clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def median_setup(workload, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run(args) -> dict:
    from workloads import WORKLOADS

    # Relative paths keep the dataset path that `ual eval` writes into
    # report.jsonl, and so the artifact hash, the same in every checkout.
    os.chdir(ROOT)
    work = Path(".perfbench") / "work"
    clear(work)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        workload.prepare()
        setup_s = median_setup(workload, SETUP_REPEATS if not args.trace else 1)
        loop = Loop(workload, work)
        if args.trace:
            return run_traced(args, loop)
        loop.run_for(args.seconds, MIN_UNITS)
        metrics = {
            "groups_per_s": statistics.median(loop.rates) if loop.rates else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "face_micro_acc": loop.last.face_acc if loop.last else 0.0,
            "fused_micro_acc": loop.last.fused_acc if loop.last else 0.0,
        }
        extra = {workload.metric_alias: metrics["groups_per_s"]}
        return result(args, loop, metrics, END_TO_END_UNITS, extra)
    finally:
        clear(work)


def run_traced(args, loop) -> dict:
    from tracing import Tracer, layer_metrics, write_spans

    loop.run_for(args.seconds / 2, 2)
    untraced = statistics.median(loop.walls)
    n_untraced = len(loop.walls)
    tracer = Tracer()
    per_unit: list[dict] = []
    recorded: list[tuple[str, list]] = []

    def on_unit():
        per_unit.append(layer_metrics(tracer.spans, tracer.counters))
        recorded.append((tracer.trace_id, tracer.spans))

    loop.run_for(args.seconds / 2, 2, tracer=tracer, on_unit=on_unit)
    traced = statistics.median(loop.walls[n_untraced:])
    metrics = {name: statistics.median(unit[name] for unit in per_unit) for name in per_unit[0]}
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_ratio"] = (traced - untraced) / untraced
    OUT.mkdir(parents=True, exist_ok=True)
    write_spans(OUT / f"{args.workload}-spans.csv", recorded)
    units = {name: layer_unit(name) for name in metrics}
    extra = {"untraced_unit_s": untraced, "traced_unit_s": traced}
    return result(args, loop, metrics, units, extra)


def result(args, loop: Loop, metrics: dict, units: dict, extra: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "units_run": len(loop.walls),
        "unit_wall_s": loop.walls,
        "artifact_sha256": sorted(loop.digests),
        "failures": loop.failures,
        "extra": {**extra, "failed_ops_ratio": loop.failed / loop.attempted},
        "line": {
            "correct": loop.failed == 0 and loop.attempted > 0,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: bundled spec 2024, config 7)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    res = run(args)
    for failure in res["failures"]:
        print(failure, file=sys.stderr)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(res, indent=1))
    print("env " + json.dumps(res["env"]))
    print(f"workload {args.workload} seed {args.seed} units {res['units_run']} "
          f"artifact_sha256 {' '.join(res['artifact_sha256'])}")
    for name, metric in res["line"]["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in res["extra"].items():
        print(f"{name} = {value:.6g}")
    print(json.dumps(res["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
