"""One workload in its own process: set up, then measure or trace.

Started by run.py with the checkout's `src` and this directory on
PYTHONPATH. Prints one JSON object on stdout; the CLI's own output is
captured, so nothing else reaches stdout.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from pathlib import Path

from layers import per_layer
from spans import Tracer
from workloads import WORKLOADS, Replay, check_outputs, command_argv, failed_tiles, output_digests, run_command, setup


def _chain(workload, seed, work, tiles, totals):
    """One pass of the workload's CLI commands; returns command walls."""
    walls = {}
    for command in workload.commands:
        result = run_command(command_argv(workload, command, seed, work))
        walls[command] = result.wall
        totals["attempted"] += tiles
        totals["failed"] += failed_tiles(result, tiles)
        totals["errors"] += result.errors[:3]
    return walls


def measure(workload, seed, seconds, tiles, work, records) -> dict:
    totals = {"attempted": 0, "failed": 0, "errors": []}
    first = time.monotonic()
    passes = []
    while True:
        walls = _chain(workload, seed, work, tiles, totals)
        if not passes:
            # later passes repeat the same work; their peak only adds allocator noise
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append(walls)
        if time.monotonic() - first + sum(walls.values()) > seconds:
            break
    report, problems = check_outputs(workload, seed, work, records)
    return {
        "first_timed": first,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "report": report,
        "problems": problems,
        "digests": output_digests(workload, work),
        **totals,
    }


def traced(workload, seed, seconds, tiles, work, records, tracer, trace_out) -> dict:
    totals = {"attempted": 0, "failed": 0, "errors": []}
    setup_spans = tracer.totals()
    setup_counts = dict(tracer.counts)
    first = time.monotonic()
    iterations, counts, problems = [], None, []
    while True:
        start = time.monotonic()
        walls = _chain(workload, seed, work, tiles, totals)
        tracer.counts.clear()
        mark = tracer.mark()
        replay = Replay(workload, seed, work, tracer)
        library = {}
        for command in workload.commands:
            since = tracer.mark()
            replay.run(command)
            spans = tracer.totals(since, path_only=True)
            library[command] = sum(total for name, (total, _) in spans.items() if not name.startswith("cli."))
        replay.probes(records)
        problems += replay.problems
        iterations.append({"walls": walls, "library": library, "spans": tracer.totals(mark)})
        if counts is None:
            counts = dict(tracer.counts)
        if time.monotonic() - first + (time.monotonic() - start) > seconds:
            break
    for name, value in setup_counts.items():
        counts[name] = counts.get(name, 0.0) + value
    report, check_problems = check_outputs(workload, seed, work, records)
    if trace_out:
        tracer.dump(Path(trace_out))
    return {
        "first_timed": first,
        "passes": [it["walls"] for it in iterations],
        "per_layer": per_layer(workload.commands, workload.probes, tiles, setup_spans, iterations, counts),
        "report": report,
        "problems": problems + check_problems,
        "digests": output_digests(workload, work),
        **totals,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--tiles", type=int, default=0, help="0: the workload's own tile count")
    p.add_argument("--work", required=True)
    p.add_argument("--role", choices=["setup", "measure", "trace"], required=True)
    p.add_argument("--trace-out", default="")
    args = p.parse_args(argv)
    # the polygonizer warns about dropped components; that text is not output
    warnings.simplefilter("ignore")
    workload = WORKLOADS[args.workload]
    tiles = args.tiles or workload.tiles
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    records = setup(workload, args.seed, tiles, work, tracer)
    if args.role == "setup":
        result = {"first_timed": time.monotonic()}
    elif args.role == "measure":
        result = measure(workload, args.seed, args.seconds, tiles, work, records)
    else:
        result = traced(workload, args.seed, args.seconds, tiles, work, records, tracer, args.trace_out)
    result["tiles"] = tiles
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
