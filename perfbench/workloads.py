"""Workload definitions: inputs, the timed CLI chain, the traced replay and
the correctness checks.

Each workload writes its inputs into a work directory, then drives the real
batch entry point `polyform.cli.main` with `POLYFORM_WORKERS=1` (closed loop,
one client). The traced replay calls the same public library functions the
CLI calls, on the same inputs, with a span around each call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import math
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from polyform import io as pio
from polyform.cli import main as cli_main
from polyform.geometry import DegenerateRingError, InstanceSet, Polygon, ScoredPolygon
from polyform.metrics import (
    EvalConfig,
    ciou,
    coco_ap_ar,
    coco_ap_ar_from_masks,
    evaluate_corpus,
    match_instances,
    polis,
    vertex_f1,
)
from polyform.polygonize import (
    FallbackRequired,
    PolygonizeConfig,
    VertexSet,
    connected_components,
    douglas_peucker,
    extract_vertices,
    mav_attract_simplify,
    polygonize_pipeline,
    rescale_polygons,
    threshold_mask,
    trace_boundary,
)
from polyform.raster import (
    DegradeSpec,
    RasterGrid,
    degrade,
    downscale_targets,
    encode_afm,
    encode_vertices,
    polygon_mask,
    rasterize_mask,
)

from corpus import dense_corpus, frame_corpus, sparse_corpus
from spans import Tracer

SPARSE = "sparse-clean"
DENSE = "dense-degraded"
FRAME = "roundtrip-2048"

# both degradation profiles of the roadmap at once
DENSE_PROFILE = dict(
    dilate_radius=1,
    boundary_jitter_sigma=0.5,
    vertex_dropout_prob=0.3,
    spurious_vertex_count=40,
    heatmap_noise_sigma=0.02,
)
FRAME_SCALE = 4
FRAME_FLAGS = ["--scale", str(FRAME_SCALE), "--dilate", "1", "--jitter-sigma", "0.5"]


@dataclass(frozen=True)
class Workload:
    name: str
    tiles: int
    size: int
    commands: tuple[str, ...]
    # layers off this workload's CLI path, timed by a probe on its own inputs
    probes: tuple[str, ...]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            SPARSE, 8, 512, ("encode", "polygonize", "eval"),
            ("raster.degrade", "polygonize.douglas_peucker"),
            "512px tiles, 3-7 clean buildings: encode -> polygonize -> eval; the attraction field dominates",
        ),
        Workload(
            DENSE, 8, 512, ("polygonize", "eval"),
            ("raster.encode_afm",),
            "512px tiles, 25-40 buildings with courtyards, degraded rasters: tracing, NMS, DP fallback, quadratic eval",
        ),
        Workload(
            FRAME, 4, 2048, ("roundtrip",),
            ("raster.encode_afm", "io.write_rgf", "io.read_rgf"),
            "2048px frames via roundtrip --scale 4: degrade, rescaling, mask AP and eval on large full-frame masks",
        ),
    )
}


def gt_records(workload: Workload, seed: int, tiles: int) -> list[pio.TileRecord]:
    make = {SPARSE: sparse_corpus, DENSE: dense_corpus, FRAME: frame_corpus}[workload.name]
    return [
        pio.TileRecord(tile_id, (workload.size, workload.size), inst)
        for tile_id, inst in make(seed, tiles, workload.size)
    ]


def dense_spec(seed: int, index: int) -> DegradeSpec:
    return DegradeSpec(**DENSE_PROFILE, rng_seed=seed * 4096 + index)


# ---------------------------------------------------------------- set-up


def count_segments(tr: Tracer, instances: InstanceSet, h: int, w: int) -> None:
    """Work counts of the raster encoders: boundary segments and grid pixels."""
    tr.count("raster.segments", sum(len(sp.polygon.boundary_segments()) for sp in instances))
    tr.count("raster.pixels", h * w)


def setup(workload: Workload, seed: int, tiles: int, work: Path, tracer: Tracer | None = None) -> list[pio.TileRecord]:
    """Write the workload's inputs into `work`; returns the ground truth."""
    tr = tracer or Tracer()
    records = gt_records(workload, seed, tiles)
    (work / "gt.geojson").write_bytes(tr.call("io.write_geojson", pio.write_geojson, records))
    if workload.name == DENSE:
        rasters = work / "rasters"
        rasters.mkdir(exist_ok=True)
        entries = []
        for index, rec in enumerate(records):
            h, w = rec.image_size
            mask = tr.call("raster.rasterize_mask", rasterize_mask, rec.instances, h, w, trace_id=rec.tile_id)
            grids = tr.call("raster.encode_vertices", encode_vertices, rec.instances, h, w, trace_id=rec.tile_id)
            count_segments(tr, rec.instances, h, w)
            soft, grids = tr.call("raster.degrade", degrade, mask, grids, dense_spec(seed, index), trace_id=rec.tile_id)
            files = {kind: f"{rec.tile_id}.{kind}.rgf" for kind in ("mask", "heatmap", "offsets")}
            for kind, grid in (("mask", soft), ("heatmap", grids.heatmap), ("offsets", grids.offsets)):
                (rasters / files[kind]).write_bytes(tr.call("io.write_rgf", pio.write_rgf, grid, trace_id=rec.tile_id))
            entries.append({"tile_id": rec.tile_id, "image_size": [h, w], "grid_size": [h, w], "files": files})
        manifest = {"version": 1, "scale": 1, "tiles": entries}
        (rasters / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return records


# ---------------------------------------------------------------- CLI chain


def command_argv(workload: Workload, command: str, seed: int, work: Path) -> list[str]:
    gt, rasters, pred, report = (str(work / n) for n in ("gt.geojson", "rasters", "pred.geojson", "report.json"))
    if command == "encode":
        return ["encode", gt, rasters]
    if command == "polygonize":
        return ["polygonize", rasters, pred]
    if command == "eval":
        return ["eval", pred, gt, report]
    return ["roundtrip", gt, report, *FRAME_FLAGS, "--seed", str(seed)]


@dataclass
class CommandResult:
    code: int
    wall: float
    errors: list = field(default_factory=list)


def run_command(argv: list[str]) -> CommandResult:
    """Run one CLI command in-process, timing it and collecting its errors."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - start
    errors = []
    for line in err.getvalue().splitlines():
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and isinstance(doc.get("errors"), list):
            errors.extend(doc["errors"])
    return CommandResult(code, wall, errors)


def failed_tiles(result: CommandResult, tiles: int) -> int:
    """Failed tiles of one command: per-tile errors, or every tile when the
    command failed as a whole."""
    if result.code == 0 and not result.errors:
        return 0
    if not result.errors or any(e.get("tile_id") is None for e in result.errors):
        return tiles
    return min(tiles, len({e.get("tile_id") for e in result.errors}))


def output_digests(workload: Workload, work: Path) -> dict[str, str]:
    """sha256 of every file the commands wrote."""
    paths = [work / "pred.geojson", work / "report.json"]
    if "encode" in workload.commands:
        paths += sorted((work / "rasters").iterdir())
    return {
        str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in paths
        if p.is_file()
    }


# ---------------------------------------------------------------- checks


def _parse_rgf(data: bytes) -> np.ndarray:
    """Independent RGF reader (header layout from the format description)."""
    magic, h, w, c, code = struct.unpack_from("<4sIIII", data)
    if magic != b"RGF1":
        raise ValueError(f"bad magic {magic!r}")
    dtype = {0: np.dtype("<u1"), 1: np.dtype("<f4")}[code]
    return np.frombuffer(data[20:], dtype=dtype).reshape(h, w, c)


def _geojson_rings(path: Path) -> dict[str, tuple[tuple[int, int], list]]:
    """Per tile id: (image size, rings of each polygon), read with the json
    module alone."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    out: dict[str, list] = {t["tile_id"]: [] for t in doc["tiles"]}
    sizes = {t["tile_id"]: tuple(t["image_size"]) for t in doc["tiles"]}
    for feature in doc["features"]:
        rings = [[(float(x), float(y)) for x, y in ring] for ring in feature["geometry"]["coordinates"]]
        out[feature["properties"]["tile_id"]].append(rings)
    return {tile: (sizes[tile], polys) for tile, polys in out.items()}


def _segment_distance(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> float:
    ex, ey = bx - ax, by - ay
    l2 = ex * ex + ey * ey
    if l2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * ex + (py - ay) * ey) / l2))
    return math.hypot(px - (ax + t * ex), py - (ay + t * ey))


def check_afm(work: Path, seed: int, samples: int = 48) -> list[str]:
    """Sampled pixels of every written afm.rgf against a brute-force nearest
    boundary distance over the ground-truth segments."""
    problems = []
    gt = _geojson_rings(work / "gt.geojson")
    manifest = json.loads((work / "rasters" / "manifest.json").read_text())
    rng = np.random.default_rng([seed, 99])
    for entry in manifest["tiles"]:
        afm = _parse_rgf((work / "rasters" / entry["files"]["afm"]).read_bytes())
        segs = []
        for rings in gt[entry["tile_id"]][1]:
            for ring in rings:
                segs += [(*ring[i], *ring[i + 1]) for i in range(len(ring) - 1)]
        h, w = afm.shape[:2]
        for r, c in zip(rng.integers(0, h, samples), rng.integers(0, w, samples)):
            px, py = c + 0.5, r + 0.5
            want = min(_segment_distance(px, py, *s) for s in segs)
            dx, dy = float(afm[r, c, 0]), float(afm[r, c, 1])
            got = math.hypot(dx, dy)
            foot = min(_segment_distance(px + dx, py + dy, *s) for s in segs)
            if abs(got - want) > 1e-5 * max(1.0, want) or foot > 1e-3:
                problems.append(f"afm {entry['tile_id']} ({r},{c}): |f|={got} want {want}, foot off by {foot}")
                break
    return problems


def check_frame(path: Path) -> list[str]:
    """Every emitted vertex lies inside its tile's frame."""
    problems = []
    for tile, ((h, w), polys) in _geojson_rings(path).items():
        for rings in polys:
            for x, y in (p for ring in rings for p in ring):
                if not (0.0 <= x <= w and 0.0 <= y <= h):
                    problems.append(f"{tile}: vertex ({x}, {y}) outside {w}x{h}")
                    break
    return problems


def check_report(path: Path) -> tuple[dict, list[str]]:
    report = json.loads(path.read_text())
    bad = [k for k, v in report.items() if not (isinstance(v, (int, float)) and math.isfinite(v))]
    return report, [f"report value {k} = {report[k]!r} is not finite" for k in bad]


def component_masks(
    soft: RasterGrid, tau: float, upscale: int = 1, tracer: Tracer | None = None, path: bool = True
) -> list[tuple[np.ndarray, float]]:
    """Mask and mean soft score of each connected component of soft > tau."""
    with (tracer or Tracer()).span("polygonize.connected_components", path=path):
        labels, count = connected_components(threshold_mask(soft, tau))
    lab = labels.channel()
    values = soft.channel()
    out = []
    for comp in range(1, count + 1):
        region = lab == comp
        mask = region if upscale == 1 else np.repeat(np.repeat(region, upscale, 0), upscale, 1)
        out.append((mask, float(values[region].mean())))
    return out


def sparse_mask_ap(work: Path, records: list[pio.TileRecord]) -> float:
    """Mask AP of the encoded masks, the reference the polygon AP must meet."""
    manifest = json.loads((work / "rasters" / "manifest.json").read_text())
    preds, gts = {}, {}
    by_id = {r.tile_id: r for r in records}
    for entry in manifest["tiles"]:
        mask = _parse_rgf((work / "rasters" / entry["files"]["mask"]).read_bytes())
        soft = RasterGrid(mask.astype(np.float32))
        rec = by_id[entry["tile_id"]]
        preds[rec.tile_id] = component_masks(soft, 0.5)
        gts[rec.tile_id] = [polygon_mask(sp.polygon, *rec.image_size) for sp in rec.instances]
    return coco_ap_ar_from_masks(preds, gts, mode="mask")[0]


def check_outputs(workload: Workload, seed: int, work: Path, records: list[pio.TileRecord]) -> tuple[dict, list[str]]:
    """Correctness gate on the files the last CLI pass wrote. roundtrip
    writes no polygons; a vertex outside its frame fails that tile in the
    CLI itself, and failed tiles fail the run."""
    report, problems = check_report(work / "report.json")
    if workload.name != FRAME:
        problems += check_frame(work / "pred.geojson")
    if workload.name == SPARSE:
        problems += check_afm(work, seed)
        mask_ap = sparse_mask_ap(work, records)
        if report["iou"] < 0.99:
            problems.append(f"corpus IoU {report['iou']} < 0.99")
        if report["ap"] < mask_ap - 0.01:
            problems.append(f"polygon AP {report['ap']} more than 0.01 below mask AP {mask_ap}")
    return report, problems


# ---------------------------------------------------------------- traced replay


class Replay:
    """Replays the workload's commands from public library calls, with spans.

    Path spans cover the calls the CLI makes; breakdown and probe spans
    (path=False) re-run parts of the same work to split a layer's time.
    """

    def __init__(self, workload: Workload, seed: int, work: Path, tracer: Tracer):
        self.w = workload
        self.seed = seed
        self.work = work
        self.tr = tracer
        self.problems: list[str] = []

    # polygonize, composed stage by stage from the public calls
    def _douglas_peucker(self, chain, cfg, tile):
        with self.tr.span("polygonize.douglas_peucker", tile, path=False):
            try:
                return douglas_peucker(chain, cfg.dp_fallback_tolerance)
            except DegenerateRingError:
                return None

    def _simplify(self, chain, vertices, cfg, tile):
        """Snap, else fall back to Douglas-Peucker, else drop. Where DP is a
        probe it runs on every chain, so its time is measured even when no
        chain falls back."""
        tr = self.tr
        probe_dp = "polygonize.douglas_peucker" in self.w.probes
        dp = self._douglas_peucker(chain, cfg, tile) if probe_dp else None
        try:
            ring = tr.call("polygonize.mav_attract_simplify", mav_attract_simplify, chain, vertices,
                           cfg.attract_dist, cfg.merge_angle, trace_id=tile, path=False)
            tr.count("polygonize.snap_ok")
            return ring
        except FallbackRequired:
            pass
        tr.count("polygonize.dp_fallback")
        if not probe_dp:
            dp = self._douglas_peucker(chain, cfg, tile)
        if dp is None:
            tr.count("polygonize.rings_dropped")
        return dp

    def composed_polygonize(self, soft, heat, offs, cfg: PolygonizeConfig, tile: str) -> InstanceSet:
        tr = self.tr
        with tr.span("polygonize.connected_components", tile, path=False):
            labels, count = connected_components(threshold_mask(soft, cfg.mask_threshold), cfg.connectivity)
        tr.count("polygonize.components", count)
        if count == 0:
            return InstanceSet()
        vertices = tr.call("polygonize.extract_vertices", extract_vertices, heat, offs, cfg.top_k,
                           cfg.vertex_threshold, trace_id=tile, path=False)
        tr.count("polygonize.vertices", len(vertices))
        values = soft.channel().astype(np.float64)
        lab = labels.channel()
        slices = ndimage.find_objects(lab.astype(np.int32))
        scored = []
        for comp in range(1, count + 1):
            chains = tr.call("polygonize.trace_boundary", trace_boundary, labels, comp, trace_id=tile, path=False)
            tr.count("polygonize.chains_outer")
            tr.count("polygonize.chains_hole", len(chains) - 1)
            outer = self._simplify(chains[0], vertices, cfg, tile)
            if outer is None:
                continue
            holes = [r for r in (self._simplify(ch, vertices, cfg, tile) for ch in chains[1:]) if r is not None]
            tr.count("polygonize.rings_emitted", 1 + len(holes))
            region = lab[slices[comp - 1]] == comp
            score = float(values[slices[comp - 1]][region].mean())
            scored.append(ScoredPolygon(Polygon(outer, tuple(holes)), score))
        result = InstanceSet(tuple(scored))
        return rescale_polygons(result, cfg.scale) if cfg.scale != 1 else result

    def polygonize_tile(self, soft, heat, offs, cfg, tile) -> InstanceSet:
        """The pipeline on the path, plus its stage-by-stage composition,
        which must give the same polygons."""
        out = self.tr.call("polygonize.pipeline", polygonize_pipeline, soft, heat, offs, cfg, trace_id=tile)
        if self.composed_polygonize(soft, heat, offs, cfg, tile) != out:
            self.problems.append(f"{tile}: composed polygonize differs from polygonize_pipeline")
        return out

    # metric breakdown: each public metric on the same predictions
    def metric_breakdown(self, preds: list[pio.TileRecord], gts: list[pio.TileRecord], cfg: EvalConfig) -> None:
        tr = self.tr
        pmap = {r.tile_id: r.instances for r in preds}
        gmap = {r.tile_id: r.instances for r in gts}
        sizes = {r.tile_id: r.image_size for r in gts}
        tr.call("metrics.coco_ap_ar_mask", coco_ap_ar, pmap, gmap, sizes, mode="mask", path=False)
        tr.call("metrics.coco_ap_ar_boundary", coco_ap_ar, pmap, gmap, sizes, mode="boundary",
                d_frac=cfg.boundary_d_frac, path=False)
        for gt in gts:
            pred = pmap[gt.tile_id]
            h, w = gt.image_size
            tile = gt.tile_id
            match = tr.call("metrics.match_instances", match_instances, pred, gt.instances, h, w, cfg.iou_thr,
                            trace_id=tile, path=False)
            with tr.span("metrics.polis", tile, path=False):
                for pi, gi, _ in match.pairs:
                    polis(pred.instances[pi].polygon, gt.instances.instances[gi].polygon)
            tr.call("metrics.ciou", ciou, [sp.polygon for sp in pred], [sp.polygon for sp in gt.instances], h, w,
                    trace_id=tile, path=False)
            pv = VertexSet(tuple((v, 1.0) for sp in pred for v in sp.polygon.all_vertices()))
            gv = VertexSet(tuple((v, 1.0) for sp in gt.instances for v in sp.polygon.all_vertices()))
            tr.call("metrics.vertex_f1", vertex_f1, pv, gv, cfg.vertex_dist_thr, trace_id=tile, path=False)
            self._count_pairs(pred, gt.instances, h, w)

    def _count_pairs(self, pred: InstanceSet, gt: InstanceSet, h: int, w: int) -> None:
        def box(sp):
            xs = [v.x for v in sp.polygon.outer.vertices]
            ys = [v.y for v in sp.polygon.outer.vertices]
            return min(xs), min(ys), max(xs), max(ys)

        tr = self.tr
        pb, gb = [box(sp) for sp in pred], [box(sp) for sp in gt]
        tr.count("metrics.instances", len(pb) + len(gb))
        tr.count("metrics.pairs", len(pb) * len(gb))
        tr.count("metrics.frame_pixels", h * w)
        tr.count("metrics.overlapping_pairs", sum(
            1 for a in pb for b in gb if a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]
        ))

    def mask_ap_probe(self, softs: dict[str, RasterGrid], gts: list[pio.TileRecord], upscale: int = 1) -> float:
        """Component-mask AP (the roundtrip's mask AP path)."""
        tr = self.tr
        path = self.w.name == FRAME
        preds, gt_masks = {}, {}
        for gt in gts:
            preds[gt.tile_id] = component_masks(softs[gt.tile_id], 0.5, upscale, tr, path)
            gt_masks[gt.tile_id] = [
                tr.call("raster.polygon_mask", polygon_mask, sp.polygon, *gt.image_size, trace_id=gt.tile_id, path=path)
                for sp in gt.instances
            ]
        return tr.call("metrics.coco_ap_ar_from_masks", coco_ap_ar_from_masks, preds, gt_masks, mode="mask",
                       path=path)[0]

    # the commands
    def read_geojson(self, path: Path) -> list[pio.TileRecord]:
        data = path.read_text(encoding="utf-8")
        self.tr.count("io.geojson_bytes", len(data))
        return self.tr.call("io.read_geojson", pio.read_geojson, data)

    def encode(self) -> None:
        tr = self.tr
        rasters = self.work / "rasters"
        manifest = json.loads((rasters / "manifest.json").read_text())
        files = {e["tile_id"]: e["files"] for e in manifest["tiles"]}
        for rec in self.read_geojson(self.work / "gt.geojson"):
            h, w = rec.image_size
            tile = rec.tile_id
            mask = tr.call("raster.rasterize_mask", rasterize_mask, rec.instances, h, w, trace_id=tile)
            afm = tr.call("raster.encode_afm", encode_afm, rec.instances, h, w, trace_id=tile)
            afm32 = RasterGrid(afm.data.astype(np.float32))
            grids = tr.call("raster.encode_vertices", encode_vertices, rec.instances, h, w, trace_id=tile)
            count_segments(tr, rec.instances, h, w)
            for kind, grid in (("mask", mask), ("afm", afm32), ("heatmap", grids.heatmap), ("offsets", grids.offsets)):
                data = tr.call("io.write_rgf", pio.write_rgf, grid, trace_id=tile)
                tr.count("io.rgf_bytes", len(data))
                if data != (rasters / files[tile][kind]).read_bytes():
                    self.problems.append(f"{tile}: replayed {kind} raster differs from the CLI's file")

    def polygonize(self) -> None:
        tr = self.tr
        rasters = self.work / "rasters"
        manifest = json.loads((rasters / "manifest.json").read_text())
        cfg = PolygonizeConfig()
        records, softs = [], {}
        for entry in manifest["tiles"]:
            tile = entry["tile_id"]
            grids = {}
            for kind in ("mask", "heatmap", "offsets"):
                data = (rasters / entry["files"][kind]).read_bytes()
                tr.count("io.rgf_bytes", len(data))
                grids[kind] = tr.call("io.read_rgf", pio.read_rgf, data, trace_id=tile)
            mask = grids["mask"]
            soft = RasterGrid(mask.data.astype(np.float32)) if mask.dtype_name == "u8" else mask
            softs[tile] = soft
            instances = self.polygonize_tile(soft, grids["heatmap"], grids["offsets"], cfg, tile)
            records.append(pio.TileRecord(tile, tuple(entry["grid_size"]), instances))
        written = (self.work / "pred.geojson").read_bytes()
        metadata = json.loads(written).get("metadata")
        data = tr.call("io.write_geojson", pio.write_geojson, records, metadata=metadata)
        tr.count("io.geojson_bytes", len(data))
        if pio.read_geojson(written) != records:
            self.problems.append("replayed polygons differ from the CLI's pred.geojson")
        self.softs = softs

    def eval(self) -> None:
        cfg = EvalConfig()
        preds = self.read_geojson(self.work / "pred.geojson")
        gts = self.read_geojson(self.work / "gt.geojson")
        report = self.tr.call("metrics.evaluate_corpus", evaluate_corpus, preds, gts, cfg)
        cli_report = json.loads((self.work / "report.json").read_text())
        if report.to_json_dict() != cli_report:
            self.problems.append("traced evaluate_corpus differs from the CLI report")
        self.metric_breakdown(preds, gts, cfg)
        self.mask_ap_probe(self.softs, gts)

    def roundtrip(self) -> None:
        tr = self.tr
        cfg = PolygonizeConfig(scale=float(FRAME_SCALE))
        spec = DegradeSpec(dilate_radius=1, boundary_jitter_sigma=0.5, rng_seed=self.seed)
        gts = self.read_geojson(self.work / "gt.geojson")
        preds, softs = [], {}
        for rec in gts:
            tile = rec.tile_id
            h, w = rec.image_size
            gh, gw = h // FRAME_SCALE, w // FRAME_SCALE
            inst = downscale_targets(rec.instances, FRAME_SCALE)
            mask = tr.call("raster.rasterize_mask", rasterize_mask, inst, gh, gw, trace_id=tile)
            grids = tr.call("raster.encode_vertices", encode_vertices, inst, gh, gw, trace_id=tile)
            count_segments(tr, inst, gh, gw)
            soft, grids = tr.call("raster.degrade", degrade, mask, grids, spec, trace_id=tile)
            softs[tile] = soft
            instances = self.polygonize_tile(soft, grids.heatmap, grids.offsets, cfg, tile)
            preds.append(pio.TileRecord(tile, rec.image_size, instances))
            if "io.write_rgf" in self.w.probes:
                for grid in (soft, grids.heatmap, grids.offsets):
                    data = tr.call("io.write_rgf", pio.write_rgf, grid, trace_id=tile, path=False)
                    tr.count("io.rgf_bytes", len(data))
                    tr.call("io.read_rgf", pio.read_rgf, data, trace_id=tile, path=False)
        report = tr.call("metrics.evaluate_corpus", evaluate_corpus, preds, gts, EvalConfig())
        mask_ap = self.mask_ap_probe(softs, gts, upscale=FRAME_SCALE)
        payload = {"mask_ap": mask_ap, "polygon_ap": report.ap, "ap_gap": report.ap - mask_ap,
                   **report.to_json_dict()}
        if payload != json.loads((self.work / "report.json").read_text()):
            self.problems.append("traced roundtrip report differs from the CLI report")
        self.metric_breakdown(preds, gts, EvalConfig())

    def afm_probe(self, records: list[pio.TileRecord]) -> None:
        """The attraction field on this workload's first tile, at its grid size."""
        rec = records[0]
        scale = FRAME_SCALE if self.w.name == FRAME else 1
        inst = downscale_targets(rec.instances, scale)
        h, w = rec.image_size[0] // scale, rec.image_size[1] // scale
        self.tr.call("raster.encode_afm", encode_afm, inst, h, w, trace_id=rec.tile_id, path=False)

    def degrade_probe(self, records: list[pio.TileRecord]) -> None:
        """The dense workload's degradation profile on this workload's tiles."""
        for index, rec in enumerate(records):
            h, w = rec.image_size
            mask = rasterize_mask(rec.instances, h, w)
            grids = encode_vertices(rec.instances, h, w)
            self.tr.call("raster.degrade", degrade, mask, grids, dense_spec(self.seed, index),
                         trace_id=rec.tile_id, path=False)

    def run(self, command: str) -> None:
        with self.tr.span(f"cli.{command}"):
            getattr(self, command)()

    def probes(self, records: list[pio.TileRecord]) -> None:
        if "raster.encode_afm" in self.w.probes:
            self.afm_probe(records)
        if "raster.degrade" in self.w.probes:
            self.degrade_probe(records)
