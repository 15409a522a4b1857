"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads sparse-clean dense-degraded roundtrip-2048 \
        --seeds 11 12 13 14 15 16 17 18 19 20 --seconds 30 [--traced-seeds 11 12] \
        [--out perfbench/baseline.json]

For every workload and end-to-end metric it prints the median and the
quartile spread (Q3 - Q1 over the median, from statistics.quantiles(values,
n=4)) next to the metric's bound, flagging spreads above a third of the
bound. Runs are sequential, one at a time. --out writes the summary with the
machine, each workload's reason, the metric-to-workload map and the sha256
of every run's outputs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from layers import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else 0.0, "n": len(values)}


def collect(workload: str, seeds: list[int], seconds: float, trace: int) -> tuple[dict, dict]:
    values: dict[str, list[float]] = {}
    digests = {}
    for seed in seeds:
        details, result = run_once(workload, seed, seconds, trace)
        digests[str(seed)] = details["output_sha256"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        if not trace:
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    return {k: summarise(v) for k, v in values.items()}, digests


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--traced-seeds", nargs="*", type=int, default=[])
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--out", default="")
    args = p.parse_args()
    bounds = {m.name: m.bound for m in END_TO_END}
    summary = {}
    for workload in args.workloads:
        end_to_end, digests = collect(workload, args.seeds, args.seconds, 0)
        summary[workload] = {"end_to_end": end_to_end, "output_sha256": digests}
        for name, s in end_to_end.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- not below a third of the bound"
            print(f"  {name:14s} median {s['median']:.6g}  spread {s['spread']:.4f}  bound {bounds[name]}{flag}")
        if args.traced_seeds:
            summary[workload]["per_layer"], _ = collect(workload, args.traced_seeds, args.seconds, 1)
    if args.out:
        from workloads import WORKLOADS

        doc = {
            "machine": machine(),
            "seconds": args.seconds,
            "seeds": args.seeds,
            "traced_seeds": args.traced_seeds,
            "why": {w: WORKLOADS[w].why for w in args.workloads},
            "moves": {m.name: m.moves for m in END_TO_END + PER_LAYER},
            "workloads": summary,
        }
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    raise SystemExit(main())
