"""Batch command line: encode ground truth to supervision rasters, degrade
them, polygonize rasters back to polygons, evaluate, round-trip, render.

Every subcommand is deterministic for fixed flags (plus --seed where
randomness is involved). Exit code 0 means no per-tile errors; otherwise a
machine-readable {"errors": [...]} object is printed on stderr. encode,
polygonize and roundtrip process tiles on a thread pool whose size comes
from the POLYFORM_WORKERS environment variable, else the available
parallelism; it is resolved before any file is written, and output order
never depends on it.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import io as pio
from .metrics import EvalConfig, MetricsError, coco_ap_ar_from_crops, evaluate_corpus
from .polygonize import EIGHT, FOUR, PolygonizeConfig, component_crops, polygonize_components, polygonize_pipeline
from .raster import (
    DegradeSpec,
    RasterGrid,
    degrade,
    downscale_targets,
    encode_afm,
    encode_vertices,
    polygon_mask_crop,
    rasterize_mask,
)


def _worker_count() -> int:
    env = os.environ.get("POLYFORM_WORKERS")
    if env is not None:
        return max(1, int(env))
    return os.cpu_count() or 1


def _tile_map(fn: Callable, items: Sequence, tile_id: Callable, workers: int) -> tuple[list, list[dict]]:
    """Run fn over items on the worker pool. Returns, in input order, the
    (item, result) pairs of the tiles that succeeded and one error entry per
    tile whose fn raised."""

    def guarded(item):
        try:
            return fn(item), None
        except FileNotFoundError as exc:  # the only files read per tile are rasters
            return None, f"missing raster: {exc.filename}"
        except Exception as exc:  # collected per tile
            return None, f"{type(exc).__name__}: {exc}"

    if workers <= 1 or len(items) <= 1:
        outcomes = [guarded(item) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(guarded, items))
    done, errors = [], []
    for item, (result, err) in zip(items, outcomes):
        if err is None:
            done.append((item, result))
        else:
            errors.append({"tile_id": tile_id(item), "error": err})
    return done, errors


def _load_records(path: str) -> list[pio.TileRecord]:
    text = pio.read_text(path)
    try:
        doc = pio.parse_json(text)
    except pio.FormatError as exc:
        raise pio.FormatError(f"{path}: {exc}") from exc
    if isinstance(doc, dict) and doc.get("type") == "FeatureCollection":
        return pio.read_geojson(text)
    if isinstance(doc, dict) and "images" in doc:
        return pio.read_coco_annotations(path)
    raise pio.FormatError(f"{path}: neither GeoJSON FeatureCollection nor COCO annotations")


def _sanitize(tile_id: str, used: set[str]) -> str:
    base = re.sub(r"[^A-Za-z0-9._-]", "_", tile_id) or "tile"
    name = base
    serial = 2
    while name in used:
        name = f"{base}__{serial}"
        serial += 1
    used.add(name)
    return name


def _parse_size(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(f"size must look like 512x512, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _fail(errors: list[dict]) -> int:
    print(json.dumps({"errors": errors}, sort_keys=True), file=sys.stderr)
    return 1


def _encode_tile(rec: pio.TileRecord, size: tuple[int, int] | None, scale: int, with_afm: bool):
    """Rescale a tile into the target frame, downscale by `scale`, and encode.

    Returns (frame, grid_size, frame_instances, mask, afm_f32_or_None, vertex_grids).
    """
    h, w = size if size is not None else rec.image_size
    if h % scale or w % scale:
        raise ValueError(f"size {h}x{w} not divisible by scale {scale}")
    frame_instances = rec.instances.scaled(w / rec.image_size[1], h / rec.image_size[0])
    instances = downscale_targets(frame_instances, scale)
    gh, gw = h // scale, w // scale
    mask = rasterize_mask(instances, gh, gw)
    afm32 = None
    if with_afm:
        afm32 = RasterGrid(encode_afm(instances, gh, gw).data.astype(np.float32))
    grids = encode_vertices(instances, gh, gw)
    return (h, w), (gh, gw), frame_instances, mask, afm32, grids


def cmd_encode(args: argparse.Namespace) -> int:
    records = _load_records(args.input)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    used: set[str] = set()
    names = [(rec, _sanitize(rec.tile_id, used)) for rec in records]
    manifest_tiles = []
    done, errors = _tile_map(
        lambda item: _encode_tile(item[0], args.size, args.scale, with_afm=True),
        names, lambda item: item[0].tile_id, args.workers,
    )
    for (rec, name), encoded in done:
        (h, w), (gh, gw), _instances, mask, afm32, grids = encoded
        files = {
            "mask": f"{name}.mask.rgf",
            "afm": f"{name}.afm.rgf",
            "heatmap": f"{name}.heatmap.rgf",
            "offsets": f"{name}.offsets.rgf",
        }
        (out_dir / files["mask"]).write_bytes(pio.write_rgf(mask))
        (out_dir / files["afm"]).write_bytes(pio.write_rgf(afm32))
        (out_dir / files["heatmap"]).write_bytes(pio.write_rgf(grids.heatmap))
        (out_dir / files["offsets"]).write_bytes(pio.write_rgf(grids.offsets))
        manifest_tiles.append(
            {"tile_id": rec.tile_id, "image_size": [h, w], "grid_size": [gh, gw], "files": files}
        )
    manifest = {"version": 1, "scale": args.scale, "tiles": manifest_tiles}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"encoded {len(manifest_tiles)} tiles -> {out_dir}")
    return _fail(errors) if errors else 0


# polygonize flag (argparse dest, also its key in the output metadata) -> PolygonizeConfig field
_POLYGONIZE_FLAGS = {
    "mask_threshold": "mask_threshold",
    "topk": "top_k",
    "vertex_threshold": "vertex_threshold",
    "attract_dist": "attract_dist",
    "merge_angle": "merge_angle",
    "connectivity": "connectivity",
    "dp_fallback_tolerance": "dp_fallback_tolerance",
}


def _polygonize_config(args: argparse.Namespace, scale: float) -> PolygonizeConfig:
    return PolygonizeConfig(scale=scale, **{field: getattr(args, dest) for dest, field in _POLYGONIZE_FLAGS.items()})


def cmd_polygonize(args: argparse.Namespace) -> int:
    raster_dir = Path(args.raster_dir)
    manifest_path = raster_dir / "manifest.json"
    if not manifest_path.exists():
        return _fail([{"tile_id": None, "error": f"missing manifest {manifest_path}"}])
    try:
        tiles = pio.parse_json(pio.read_text(manifest_path))["tiles"]
        if not all(isinstance(entry, dict) and "tile_id" in entry for entry in tiles):
            raise ValueError("every tile entry needs a tile_id")
    except (ValueError, KeyError, TypeError) as exc:
        raise pio.FormatError(f"corrupt manifest {manifest_path}: {exc!r}") from exc
    cfg = _polygonize_config(args, args.scale)

    def work(entry):
        files = entry["files"]
        mask = pio.read_rgf((raster_dir / files["mask"]).read_bytes())
        heat = pio.read_rgf((raster_dir / files["heatmap"]).read_bytes())
        offs = pio.read_rgf((raster_dir / files["offsets"]).read_bytes())
        soft = RasterGrid(mask.data.astype(np.float32)) if mask.dtype_name == "u8" else mask
        instances = polygonize_pipeline(soft, heat, offs, cfg)
        gh, gw = entry["grid_size"]
        size = (int(round(gh * args.scale)), int(round(gw * args.scale)))
        return pio.TileRecord(entry["tile_id"], size, instances)

    done, errors = _tile_map(work, tiles, lambda entry: entry["tile_id"], args.workers)
    records = [record for _, record in done]
    metadata = {**{dest: getattr(args, dest) for dest in _POLYGONIZE_FLAGS}, "scale": args.scale}
    Path(args.output).write_bytes(pio.write_geojson(records, metadata=metadata))
    print(f"polygonized {len(records)} tiles -> {args.output}")
    return _fail(errors) if errors else 0


def cmd_eval(args: argparse.Namespace) -> int:
    preds = _load_records(args.pred)
    gts = _load_records(args.gt)
    cfg = EvalConfig(iou_thr=args.iou_thr, vertex_dist_thr=args.vertex_dist_thr)
    report = evaluate_corpus(preds, gts, cfg)
    Path(args.report).write_text(json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n")
    print(report.render_table())
    return 0


def cmd_roundtrip(args: argparse.Namespace) -> int:
    gt_records = _load_records(args.gt)
    spec = DegradeSpec(
        dilate_radius=args.dilate,
        erode_radius=args.erode,
        boundary_jitter_sigma=args.jitter_sigma,
        heatmap_noise_sigma=args.heatmap_noise_sigma,
        vertex_dropout_prob=args.vertex_dropout,
        spurious_vertex_count=args.spurious,
        rng_seed=args.seed,
    )
    cfg = _polygonize_config(args, float(args.scale))

    def work(rec: pio.TileRecord):
        frame, _grid, frame_instances, mask, _afm, grids = _encode_tile(rec, args.size, args.scale, with_afm=False)
        soft, grids = degrade(mask, grids, spec)
        crops = component_crops(soft, cfg.mask_threshold, cfg.connectivity)
        instances = polygonize_components(crops, grids.heatmap, grids.offsets, cfg)
        poly_rec = pio.TileRecord(rec.tile_id, frame, instances)
        gt_rec = pio.TileRecord(rec.tile_id, frame, frame_instances)
        s = args.scale
        comp_masks = [
            ((r0 * s, c0 * s, crop.repeat(s, axis=0).repeat(s, axis=1)), score)
            for r0, c0, crop, score in crops
        ]
        gt_inst = [polygon_mask_crop(sp.polygon, *frame) for sp in gt_rec.instances]
        return poly_rec, gt_rec, comp_masks, gt_inst

    done, errors = _tile_map(work, gt_records, lambda rec: rec.tile_id, args.workers)
    pred_records, gt_eval = [], []
    mask_preds, gt_masks = {}, {}
    for rec, (poly_rec, gt_rec, comp_masks, gt_inst) in done:
        pred_records.append(poly_rec)
        gt_eval.append(gt_rec)
        mask_preds[rec.tile_id] = comp_masks
        gt_masks[rec.tile_id] = gt_inst
    if not pred_records:
        return _fail(errors or [{"tile_id": None, "error": "no tiles processed"}])

    report = evaluate_corpus(pred_records, gt_eval, EvalConfig())
    mask_ap = coco_ap_ar_from_crops(mask_preds, gt_masks, {r.tile_id: r.image_size for r in gt_eval})[0]
    payload = {
        "mask_ap": mask_ap,
        "polygon_ap": report.ap,
        "ap_gap": report.ap - mask_ap,
        **report.to_json_dict(),
    }
    Path(args.report).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    width = max(len(k) for k in payload)
    print("\n".join(f"{k.ljust(width)}  {v:.6f}" for k, v in payload.items()))
    return _fail(errors) if errors else 0


def cmd_render(args: argparse.Namespace) -> int:
    records = pio.read_geojson(pio.read_text(args.input))
    svg = pio.render_svg(records, pio.SvgStyle(background=args.background))
    Path(args.output).write_text(svg)
    print(f"rendered {len(records)} tiles -> {args.output}")
    return 0


def _add_polygonize_flags(p: argparse.ArgumentParser) -> None:
    defaults = PolygonizeConfig()
    for dest, field in _POLYGONIZE_FLAGS.items():
        default = getattr(defaults, field)
        choices = [FOUR, EIGHT] if field == "connectivity" else None
        p.add_argument(f"--{dest.replace('_', '-')}", type=type(default), default=default, choices=choices)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polyform", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode annotations into RGF supervision rasters")
    p.add_argument("input", help="COCO json or GeoJSON with ground-truth polygons")
    p.add_argument("out_dir")
    p.add_argument("--size", type=_parse_size, default=None, help="target frame HxW, e.g. 512x512")
    p.add_argument("--scale", type=int, default=1, help="down-sampling factor")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("polygonize", help="extract polygons from encoded rasters")
    p.add_argument("raster_dir")
    p.add_argument("output", help="output GeoJSON path")
    _add_polygonize_flags(p)
    p.add_argument("--scale", type=float, default=1.0, help="upscale factor for output coordinates")
    p.set_defaults(fn=cmd_polygonize, validate_poly_flags=True)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("pred", help="predictions GeoJSON")
    p.add_argument("gt", help="ground truth GeoJSON or COCO json")
    p.add_argument("report", help="output report JSON path")
    p.add_argument("--iou-thr", type=float, default=0.5)
    p.add_argument("--vertex-dist-thr", type=float, default=5.0)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("roundtrip", help="encode, optionally degrade, polygonize, and compare AP")
    p.add_argument("gt", help="ground truth GeoJSON or COCO json")
    p.add_argument("report", help="output report JSON path")
    p.add_argument("--size", type=_parse_size, default=None)
    p.add_argument("--scale", type=int, default=1)
    _add_polygonize_flags(p)
    p.add_argument("--dilate", type=int, default=0)
    p.add_argument("--erode", type=int, default=0)
    p.add_argument("--jitter-sigma", type=float, default=0.0)
    p.add_argument("--heatmap-noise-sigma", type=float, default=0.0)
    p.add_argument("--vertex-dropout", type=float, default=0.0)
    p.add_argument("--spurious", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_roundtrip, validate_poly_flags=True)

    p = sub.add_parser("render", help="render GeoJSON polygons to SVG")
    p.add_argument("input", help="GeoJSON path")
    p.add_argument("output", help="SVG path")
    p.add_argument("--background", choices=["none", "checker"], default="none")
    p.set_defaults(fn=cmd_render)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "validate_poly_flags", False):
        try:
            _polygonize_config(args, float(getattr(args, "scale", 1.0)))
        except ValueError as exc:
            parser.error(str(exc))
    if args.fn in (cmd_encode, cmd_polygonize, cmd_roundtrip):
        try:
            args.workers = _worker_count()
        except ValueError as exc:
            return _fail([{"tile_id": None, "error": f"POLYFORM_WORKERS: {exc}"}])
    try:
        return args.fn(args)
    except (pio.FormatError, MetricsError) as exc:
        return _fail([{"tile_id": None, "error": f"{type(exc).__name__}: {exc}"}])
    except FileNotFoundError as exc:
        return _fail([{"tile_id": None, "error": f"missing file: {exc.filename}"}])


if __name__ == "__main__":
    raise SystemExit(main())
