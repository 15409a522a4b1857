"""Metric definitions and the per-layer figures derived from the trace.

Each per-layer metric names the end-to-end metric it should move and on
which workload; `moves` is that prediction, written down before any change
is measured against it.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    moves: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "child start to first timed command: imports, corpus generation, input writing"),
    Metric("tiles_per_s", "1/s", "higher", 0.25,
           "tiles divided by the wall time of one pass through the workload's CLI commands; median of passes"),
    Metric("peak_rss_mb", "MB", "lower", 0.15,
           "peak resident set of the workload's child process through set-up and the first pass"),
    Metric("mean_iou", "ratio", "higher", 0.15, "mean per-tile union mask IoU of the emitted polygons, from the run's report"),
    Metric("vertex_f1", "ratio", "higher", 0.15, "mean per-tile vertex F1 of the emitted polygons, from the run's report"),
)

_ENCODE = "tiles_per_s on sparse-clean (encode); no change on dense-degraded and roundtrip-2048"
_POLY = "tiles_per_s on dense-degraded most, a little on sparse-clean, and on roundtrip-2048"
_EVAL = "tiles_per_s on dense-degraded most and sparse-clean; tiles_per_s and peak_rss_mb on roundtrip-2048"
_IO = "tiles_per_s on sparse-clean (writes: encode, reads: polygonize), reads only on dense-degraded; no change on roundtrip-2048"

PER_LAYER = (
    Metric("raster.encode_afm.ms", "ms", "lower", moves=_ENCODE),
    Metric("raster.rasterize_mask.ms", "ms", "lower", moves=_ENCODE + "; setup_s on dense-degraded"),
    Metric("raster.encode_vertices.ms", "ms", "lower", moves=_ENCODE + "; setup_s on dense-degraded"),
    Metric("raster.degrade.ms", "ms", "lower",
           moves="tiles_per_s on roundtrip-2048; setup_s on dense-degraded; no change on sparse-clean"),
    Metric("raster.polygon_mask.ms", "ms", "lower", moves="tiles_per_s and peak_rss_mb on roundtrip-2048"),
    Metric("raster.segments", "count", "lower", moves="work count for the attraction field"),
    Metric("raster.pixels", "count", "lower", moves="work count for the attraction field"),
    Metric("polygonize.connected_components.ms", "ms", "lower", moves=_POLY),
    Metric("polygonize.extract_vertices.ms", "ms", "lower", moves=_POLY),
    Metric("polygonize.trace_boundary.ms", "ms", "lower", moves=_POLY),
    Metric("polygonize.mav_attract_simplify.ms", "ms", "lower", moves=_POLY),
    Metric("polygonize.douglas_peucker.ms", "ms", "lower", moves=_POLY),
    Metric("polygonize.pipeline.ms", "ms", "lower", moves=_POLY),
    Metric("polygonize.components", "count", "lower", moves="work count"),
    Metric("polygonize.chains_outer", "count", "lower", moves="work count"),
    Metric("polygonize.chains_hole", "count", "lower", moves="work count"),
    Metric("polygonize.vertices", "count", "lower", moves="work count"),
    Metric("polygonize.snap_ok", "count", "higher", moves="useful outcomes"),
    Metric("polygonize.dp_fallback", "count", "lower", moves="fallbacks"),
    Metric("polygonize.rings_dropped", "count", "lower", moves="wasted work"),
    Metric("polygonize.snap_yield", "ratio", "higher", moves="snap_ok / traced chains"),
    Metric("polygonize.ring_yield", "ratio", "higher", moves="emitted rings / traced chains"),
    Metric("metrics.evaluate_corpus.ms", "ms", "lower", moves=_EVAL),
    Metric("metrics.coco_ap_ar_mask.ms", "ms", "lower", moves=_EVAL),
    Metric("metrics.coco_ap_ar_boundary.ms", "ms", "lower", moves=_EVAL),
    Metric("metrics.coco_ap_ar_from_masks.ms", "ms", "lower", moves="tiles_per_s on roundtrip-2048"),
    Metric("metrics.match_instances.ms", "ms", "lower", moves=_EVAL),
    Metric("metrics.polis.ms", "ms", "lower", moves=_EVAL),
    Metric("metrics.ciou.ms", "ms", "lower", moves=_EVAL),
    Metric("metrics.vertex_f1.ms", "ms", "lower", moves=_EVAL),
    Metric("metrics.instances", "count", "lower", moves="work count"),
    Metric("metrics.pairs", "count", "lower", moves="work count (pred x gt)"),
    Metric("metrics.frame_pixels", "count", "lower", moves="work count"),
    Metric("metrics.overlapping_pair_ratio", "ratio", "higher", moves="pairs with overlapping boxes / pairs"),
    Metric("io.write_rgf.ms", "ms", "lower", moves=_IO),
    Metric("io.read_rgf.ms", "ms", "lower", moves=_IO),
    Metric("io.read_geojson.ms", "ms", "lower", moves=_IO),
    Metric("io.write_geojson.ms", "ms", "lower", moves=_IO),
    Metric("io.rgf_bytes", "bytes", "lower", moves="bytes through RGF"),
    Metric("io.geojson_bytes", "bytes", "lower", moves="bytes through GeoJSON"),
    *(
        Metric(f"cli.{cmd}.unattributed_share", "ratio", "lower",
               moves=f"1 - traced library time / untraced {cmd} wall; 0 where the workload does not run {cmd}")
        for cmd in ("encode", "polygonize", "eval", "roundtrip")
    ),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    commands: tuple[str, ...],
    probes: tuple[str, ...],
    tiles: int,
    setup_spans: dict[str, tuple[float, int]],
    iterations: list[dict],
    counts: dict[str, float],
) -> dict[str, float]:
    """Per-tile figures from the traced run.

    Span times are ms per tile, the median over iterations; a span seen only
    during set-up is taken from there. Probe spans are divided by the tiles
    they touched (the attraction-field probe runs on one tile). Counts are
    per tile, from the first iteration plus set-up.
    """
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        name = metric.name
        if name.endswith(".ms"):
            span = name[: -len(".ms")]
            per_tile = []
            for it in iterations:
                if span in it["spans"]:
                    total, touched = it["spans"][span]
                    per_tile.append(1000.0 * total / (touched if span in probes else tiles))
            if per_tile:
                out[name] = statistics.median(per_tile)
            elif span in setup_spans:
                out[name] = 1000.0 * setup_spans[span][0] / tiles
            else:
                out[name] = 0.0
        elif name.startswith("cli."):
            cmd = name.split(".")[1]
            shares = [1.0 - it["library"][cmd] / it["walls"][cmd] for it in iterations if cmd in commands]
            out[name] = statistics.median(shares) if shares else 0.0
    chains = counts.get("polygonize.chains_outer", 0.0) + counts.get("polygonize.chains_hole", 0.0)
    out["polygonize.snap_yield"] = _ratio(counts.get("polygonize.snap_ok", 0.0), chains)
    out["polygonize.ring_yield"] = _ratio(counts.get("polygonize.rings_emitted", 0.0), chains)
    out["metrics.overlapping_pair_ratio"] = _ratio(
        counts.get("metrics.overlapping_pairs", 0.0), counts.get("metrics.pairs", 0.0)
    )
    for metric in PER_LAYER:
        if metric.name not in out:
            out[metric.name] = counts.get(metric.name, 0.0) / tiles
    return out
