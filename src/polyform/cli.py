"""Batch command line: encode ground truth to supervision rasters, degrade
them, polygonize rasters back to polygons, evaluate, round-trip, render.

Every subcommand is deterministic for fixed flags (plus --seed where
randomness is involved). It builds its config objects from its flags once,
before any file is read; a value they reject is a usage error. Exit code 0
means no per-tile errors. stderr holds at most one JSON object:
{"errors": [...]} when a tile or the run failed, and {"warnings": [...]}
with the library's UserWarning messages, both keys when both apply.
Annotations are read as GeoJSON or COCO (polyform.io.read_annotations).
encode, polygonize and roundtrip process tiles on a thread pool whose size
comes from the POLYFORM_WORKERS environment variable, else the available
parallelism; it is resolved before any file is written, and output order
never depends on it. polygonize takes the scale and each tile's frame size
from the manifest.json that encode wrote (see polyform.io). encode removes
a file already at a raster or manifest path and creates it anew, so an
earlier run's files are replaced, never truncated in place; polygonize,
eval, roundtrip and render write their one output through _output.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

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
    polygon_mask_crops,
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
    if not m or 0 in (int(m.group(1)), int(m.group(2))):
        raise argparse.ArgumentTypeError(f"size must look like 512x512 with positive sides, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _run_error(message: str) -> list[dict]:
    """The error list of a fault that ends the whole run."""
    return [{"tile_id": None, "error": message}]


@contextmanager
def _output(path: str) -> Iterator[Callable[[bytes], None]]:
    """Open a command's output before the command works, so a path that
    cannot be written ends the run before any tile is processed, and yield
    the function that writes it. Opening appends, so an earlier file at the
    path is replaced only when the new output is written; a file this run
    created is removed when the command ends without writing it (a run-level
    error). A pipe or a device is written as it is."""
    target = Path(path)
    created, wrote = not target.exists(), False
    with target.open("ab") as f:

        def write(data: bytes) -> None:
            nonlocal wrote
            if target.is_file():
                f.truncate(0)
            f.write(data)
            f.flush()
            wrote = True

        try:
            yield write
        finally:
            if created and not wrote:
                target.unlink(missing_ok=True)


def _check_scale(args: argparse.Namespace) -> None:
    if args.scale < 1:
        raise ValueError(f"scale must be a positive integer, got {args.scale}")
    if args.size is not None and (args.size[0] % args.scale or args.size[1] % args.scale):
        raise ValueError(f"size {args.size[0]}x{args.size[1]} not divisible by scale {args.scale}")


def _create(path: Path) -> BinaryIO:
    """A new file at `path`, open for unbuffered writing; a file already at
    the path is removed first, not truncated. A reader of the earlier file
    keeps its complete bytes, and a symlink is replaced rather than
    followed. It is also cheaper on ext4: a file truncated and written again
    gets its blocks allocated at close (auto_da_alloc), and the next
    truncation frees them, about 1 ms per 2 MB raster; a new file stays in
    delayed allocation."""
    path.unlink(missing_ok=True)
    return path.open("xb", buffering=0)


def _write_parts(f: BinaryIO, parts: Sequence) -> None:
    """Write the byte buffers in order with one gathered write, repeated
    over what a short write left. Writing a raster's 20-byte header on its
    own and then the payload at offset 20 measured ~1 ms/tile slower on ext4
    than one write of both."""
    views = [memoryview(part) for part in parts]
    while views:
        done = os.writev(f.fileno(), views)
        while views and done >= len(views[0]):
            done -= len(views.pop(0))
        if views:
            views[0] = views[0][done:]


def _encode_tile(rec: pio.TileRecord, size: tuple[int, int] | None, scale: int):
    """Rescale a tile into the target frame, downscale by `scale`, and encode.

    Returns (frame, frame_instances, grid_instances, mask, vertex_grids).
    """
    h, w = size if size is not None else rec.image_size
    if h % scale or w % scale:
        raise ValueError(f"size {h}x{w} not divisible by scale {scale}")
    frame_instances = rec.instances.scaled(w / rec.image_size[1], h / rec.image_size[0])
    instances = downscale_targets(frame_instances, scale)
    gh, gw = h // scale, w // scale
    return (h, w), frame_instances, instances, rasterize_mask(instances, gh, gw), encode_vertices(instances, gh, gw)


def cmd_encode(args: argparse.Namespace) -> list[dict]:
    records = pio.read_annotations(args.input)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    used: set[str] = set()
    names = [(rec, _sanitize(rec.tile_id, used)) for rec in records]

    def work(item):
        # a tile's rasters are written as soon as they are encoded, so a
        # worker holds one tile; a fault writing them fails this tile alone
        # and removes the files it wrote before the fault
        rec, name = item
        frame, _, instances, mask, grids = _encode_tile(rec, args.size, args.scale)
        afm = encode_afm(instances, mask.height, mask.width).data.astype(np.float32)
        files = {kind: f"{name}.{kind}.rgf" for kind in pio.RASTER_CHANNELS}
        written = []
        try:
            for filename, grid in zip(files.values(), (mask, RasterGrid(afm), grids.heatmap, grids.offsets)):
                with _create(out_dir / filename) as f:
                    written.append(out_dir / filename)
                    _write_parts(f, pio.rgf_parts(grid))
        except OSError:
            for path in written:
                path.unlink(missing_ok=True)
            raise
        return pio.ManifestTile(rec.tile_id, frame, (mask.height, mask.width), files)

    done, errors = _tile_map(work, names, lambda item: item[0].tile_id, args.workers)
    tiles = [tile for _, tile in done]
    with _create(out_dir / "manifest.json") as f:
        _write_parts(f, [pio.write_manifest(args.scale, tiles)])
    print(f"encoded {len(tiles)} tiles -> {out_dir}")
    return errors


# config flag tables: argparse dest (the flag is --dest with "-" for "_") ->
# config field; each flag takes its type and default from the field's default.
# A polygonize dest is also its key in the output metadata
_POLYGONIZE_FLAGS = {
    "mask_threshold": "mask_threshold",
    "topk": "top_k",
    "vertex_threshold": "vertex_threshold",
    "attract_dist": "attract_dist",
    "merge_angle": "merge_angle",
    "connectivity": "connectivity",
    "dp_fallback_tolerance": "dp_fallback_tolerance",
}
_EVAL_FLAGS = {"iou_thr": "iou_thr", "vertex_dist_thr": "vertex_dist_thr"}
_DEGRADE_FLAGS = {
    "dilate": "dilate_radius",
    "erode": "erode_radius",
    "jitter_sigma": "boundary_jitter_sigma",
    "heatmap_noise_sigma": "heatmap_noise_sigma",
    "vertex_dropout": "vertex_dropout_prob",
    "spurious": "spurious_vertex_count",
    "seed": "rng_seed",
}


def _add_flags(p: argparse.ArgumentParser, table: dict[str, str], defaults: object) -> None:
    for dest, field in table.items():
        default = getattr(defaults, field)
        choices = [FOUR, EIGHT] if field == "connectivity" else None
        p.add_argument(f"--{dest.replace('_', '-')}", type=type(default), default=default, choices=choices)


def _config(cls: type, table: dict[str, str], args: argparse.Namespace, **fields):
    """cls built from the flags of `table`, plus the given fields."""
    return cls(**fields, **{field: getattr(args, dest) for dest, field in table.items()})


def cmd_polygonize(args: argparse.Namespace, cfg: PolygonizeConfig) -> list[dict]:
    raster_dir = Path(args.raster_dir)
    scale, tiles = pio.read_manifest(raster_dir / "manifest.json")
    cfg = dataclasses.replace(cfg, scale=float(scale))

    def work(tile: pio.ManifestTile):
        rasters = [pio.read_rgf((raster_dir / tile.files[kind]).read_bytes()) for kind in pio.MANIFEST_RASTERS]
        for kind, grid in zip(pio.MANIFEST_RASTERS, rasters):
            if (grid.height, grid.width) != tile.grid_size:
                gh, gw = tile.grid_size
                raise pio.ManifestError(f"tile {tile.tile_id!r}: {kind} raster is {grid.height}x{grid.width}, grid_size is {gh}x{gw}")
            count = pio.RASTER_CHANNELS[kind]
            if grid.channels != count:
                raise pio.ManifestError(f"tile {tile.tile_id!r}: {kind} raster has channel count {grid.channels}, expected {count}")
        return pio.TileRecord(tile.tile_id, tile.image_size, polygonize_pipeline(*rasters, cfg))

    with _output(args.output) as write:
        done, errors = _tile_map(work, tiles, lambda tile: tile.tile_id, args.workers)
        records = [record for _, record in done]
        metadata = {**{dest: getattr(args, dest) for dest in _POLYGONIZE_FLAGS}, "scale": cfg.scale}
        write(pio.write_geojson(records, metadata=metadata))
    print(f"polygonized {len(records)} tiles -> {args.output}")
    return errors


def cmd_eval(args: argparse.Namespace, cfg: EvalConfig) -> list[dict]:
    preds = pio.read_annotations(args.pred)
    gts = pio.read_annotations(args.gt)
    with _output(args.report) as write:
        report = evaluate_corpus(preds, gts, cfg)
        write((json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n").encode())
    print(report.render_table())
    return []


def _roundtrip_configs(args: argparse.Namespace) -> tuple[DegradeSpec, PolygonizeConfig]:
    _check_scale(args)
    return _config(DegradeSpec, _DEGRADE_FLAGS, args), _config(PolygonizeConfig, _POLYGONIZE_FLAGS, args, scale=float(args.scale))


def cmd_roundtrip(args: argparse.Namespace, spec: DegradeSpec, cfg: PolygonizeConfig) -> list[dict]:
    gt_records = pio.read_annotations(args.gt)

    def work(rec: pio.TileRecord):
        frame, frame_instances, _, mask, grids = _encode_tile(rec, args.size, args.scale)
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
        gt_inst = polygon_mask_crops([sp.polygon for sp in gt_rec.instances], *frame)
        return poly_rec, gt_rec, comp_masks, gt_inst

    with _output(args.report) as write:
        done, errors = _tile_map(work, gt_records, lambda rec: rec.tile_id, args.workers)
        pred_records, gt_eval = [], []
        mask_preds, gt_masks = {}, {}
        for rec, (poly_rec, gt_rec, comp_masks, gt_inst) in done:
            pred_records.append(poly_rec)
            gt_eval.append(gt_rec)
            mask_preds[rec.tile_id] = comp_masks
            gt_masks[rec.tile_id] = gt_inst
        if not pred_records:
            return errors or _run_error("no tiles processed")
        report = evaluate_corpus(pred_records, gt_eval, EvalConfig())
        mask_ap = coco_ap_ar_from_crops(mask_preds, gt_masks, {r.tile_id: r.image_size for r in gt_eval})[0]
        gap = {"mask_ap": mask_ap, "polygon_ap": report.ap, "ap_gap": report.ap - mask_ap}
        write((json.dumps({**gap, **report.to_json_dict()}, sort_keys=True, indent=2) + "\n").encode())
    print(report.render_table(**gap))
    return errors


def cmd_render(args: argparse.Namespace) -> list[dict]:
    records = pio.read_annotations(args.input)
    with _output(args.output) as write:
        write(pio.render_svg(records, pio.SvgStyle(background=args.background)).encode())
    print(f"rendered {len(records)} tiles -> {args.output}")
    return []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polyform", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode annotations into RGF supervision rasters")
    p.add_argument("input", help="COCO json or GeoJSON with ground-truth polygons")
    p.add_argument("out_dir")
    p.add_argument("--size", type=_parse_size, default=None, help="target frame HxW, e.g. 512x512")
    p.add_argument("--scale", type=int, default=1, help="down-sampling factor")
    p.set_defaults(fn=cmd_encode, configs=_check_scale)

    p = sub.add_parser("polygonize", help="extract polygons from encoded rasters")
    p.add_argument("raster_dir")
    p.add_argument("output", help="output GeoJSON path")
    _add_flags(p, _POLYGONIZE_FLAGS, PolygonizeConfig())
    p.set_defaults(fn=cmd_polygonize, configs=lambda args: (_config(PolygonizeConfig, _POLYGONIZE_FLAGS, args),))

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("pred", help="predictions GeoJSON")
    p.add_argument("gt", help="ground truth GeoJSON or COCO json")
    p.add_argument("report", help="output report JSON path")
    _add_flags(p, _EVAL_FLAGS, EvalConfig())
    p.set_defaults(fn=cmd_eval, configs=lambda args: (_config(EvalConfig, _EVAL_FLAGS, args),))

    p = sub.add_parser("roundtrip", help="encode, optionally degrade, polygonize, and compare AP")
    p.add_argument("gt", help="ground truth GeoJSON or COCO json")
    p.add_argument("report", help="output report JSON path")
    p.add_argument("--size", type=_parse_size, default=None)
    p.add_argument("--scale", type=int, default=1)
    _add_flags(p, _POLYGONIZE_FLAGS, PolygonizeConfig())
    _add_flags(p, _DEGRADE_FLAGS, DegradeSpec())
    p.set_defaults(fn=cmd_roundtrip, configs=_roundtrip_configs)

    p = sub.add_parser("render", help="render polygons to SVG")
    p.add_argument("input", help="GeoJSON or COCO json")
    p.add_argument("output", help="SVG path")
    p.add_argument("--background", choices=["none", "checker"], default="none")
    p.set_defaults(fn=cmd_render, configs=lambda args: ())
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # flag values the command would reject are usage errors
        configs = args.configs(args) or ()  # encode's check builds none
    except ValueError as exc:
        parser.error(str(exc))
    # the pool is entered and left inside the block, so warnings from every
    # worker thread are recorded
    with warnings.catch_warnings(record=True) as caught:
        errors = _run(args, configs)
    warned = []
    for w in caught:
        if issubclass(w.category, UserWarning):
            warned.append(str(w.message))
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, line=w.line)
    report = {key: items for key, items in (("errors", errors), ("warnings", warned)) if items}
    if report:
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
    return 1 if errors else 0


def _run(args: argparse.Namespace, configs: tuple) -> list[dict]:
    """The command's per-tile errors, or the one error that ended the run."""
    if args.fn in (cmd_encode, cmd_polygonize, cmd_roundtrip):
        try:
            args.workers = _worker_count()
        except ValueError as exc:
            return _run_error(f"POLYFORM_WORKERS: {exc}")
    try:
        return args.fn(args, *configs)
    except (pio.FormatError, MetricsError) as exc:
        return _run_error(f"{type(exc).__name__}: {exc}")
    except FileNotFoundError as exc:
        return _run_error(f"missing file: {exc.filename}")
    except OSError as exc:  # an output path that is a directory, or under a file
        return _run_error(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
