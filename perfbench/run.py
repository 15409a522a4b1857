"""Benchmark entry point for the polyform batch CLI.

    python3 perfbench/run.py --workload sparse-clean --seed 1 --seconds 20 --trace 0

Runs one workload against the checkout's own `src/polyform`, in a child
process with POLYFORM_WORKERS=1, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones, measured with tracing off; with --trace 1
they are the per-layer ones from a traced run. The line before it holds
details: per-command throughput, error rate, polygon and boundary AP, PoLiS,
the AP gap of roundtrip and a sha256 of every output file. When a correctness check fails the run prints the
failures on stderr, reports no metrics and exits 1.

Workloads: sparse-clean, dense-degraded, roundtrip-2048 (see workloads.py).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # set-ups per run, the measuring child's own included
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def _spawn(args: list[str], env: dict, deadline: float) -> tuple[dict, float]:
    """Run child.py; returns its JSON result and the time it was started."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, timeout=max(1.0, deadline - started), check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child {args[:4]} ran out of time") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child {args[:4]} exited with {proc.returncode}")
    lines = proc.stdout.decode("utf-8").strip().splitlines()
    if not lines:
        raise ChildFailed(f"child {args[:4]} printed nothing")
    return json.loads(lines[-1]), started


def _median_rate(tiles: int, walls: list[float]) -> float:
    return statistics.median(tiles / w for w in walls)


def _end_to_end(tiles: int, result: dict, setup_s: list[float]) -> dict[str, float]:
    report = result["report"]
    return {
        "setup_s": statistics.median(setup_s),
        "tiles_per_s": _median_rate(tiles, [sum(p.values()) for p in result["passes"]]),
        "peak_rss_mb": result["peak_rss_mb"],
        "mean_iou": report["iou"],
        "vertex_f1": report["vertex_f1"],
    }


def _details(args, tiles: int, result: dict) -> dict:
    report = result["report"]
    digests = result["digests"]
    combined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    commands = result["passes"][0].keys()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "tiles": tiles,
        "passes": len(result["passes"]),
        "commands_tiles_per_s": {c: _median_rate(tiles, [p[c] for p in result["passes"]]) for c in commands},
        "error_rate": result["failed"] / result["attempted"],
        "polygon_ap": report["ap"],
        "boundary_ap": report["ap_boundary"],
        "polis_px": report["polis_mean"],
        "mask_ap": report.get("mask_ap"),
        "ap_gap": report.get("ap_gap"),
        "output_sha256": combined,
        "files_sha256": digests,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiles", type=int, default=0, help="override the workload's tile count (smoke tests)")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "polyform" / "__init__.py").is_file():
        print(f"perfbench: no polyform sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
        POLYFORM_WORKERS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=scratch))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--tiles", str(args.tiles)]
    try:
        setup_s = []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                res, started = _spawn(common + ["--work", str(work / f"setup{k}"), "--role", "setup"], env, deadline)
                setup_s.append(res["first_timed"] - started)
        role = ["--role", "trace", "--trace-out", str(scratch / f"trace-{args.workload}.jsonl")] if args.trace else [
            "--role", "measure"]
        result, started = _spawn(common + ["--work", str(work / "run"), *role], env, deadline)
        setup_s.append(result["first_timed"] - started)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(result["problems"])
    if result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} tiles failed: {result['errors']}")
    if problems:
        for line in problems:
            print(f"perfbench: check failed: {line}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": result["attempted"], "failed": result["failed"],
                          "metrics": {}}))
        return 1

    tiles = result["tiles"]
    if args.trace:
        values, specs = result["per_layer"], PER_LAYER
    else:
        values, specs = _end_to_end(tiles, result, setup_s), END_TO_END
    print(json.dumps(_details(args, tiles, result), sort_keys=True))
    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in specs}
    print(json.dumps({"correct": True, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
