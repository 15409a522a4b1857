"""Bit-exact persistence and rendering.

Formats:
  - RGF: a tiny binary raster container. 20-byte header (magic "RGF1",
    then height, width, channels, dtype code as little-endian u32; code 0
    is u8, 1 is f32) followed by the row-major channel-last payload. A
    grid has at least one channel.
  - GeoJSON: RFC 7946 FeatureCollection of Polygon features in pixel
    coordinates (x right, y down, origin at the image's top-left corner),
    no "crs" member. A foreign member "tiles" lists tile ids and sizes so
    empty tiles survive round trips; features carry tile_id and score
    properties.
  - COCO: the images/annotations/categories subset with polygon
    "segmentation" arrays. RLE segmentations are rejected.
  - Manifest: the manifest.json that `encode` writes beside its RGF
    rasters and `polygonize` reads. Keys: "version" (1), "scale" (the
    positive int down-sampling factor) and "tiles", a list of objects
    with a unique string "tile_id", "image_size" and "grid_size" (pairs
    of positive ints (h, w) with image = grid x scale) and "files", the
    raster file name per kind of RASTER_CHANNELS (the reader needs all
    but "afm"). File names are plain names inside the
    raster directory: no directory part, no ".." and not absolute.
  - SVG: deterministic polygon overlays, one even-odd path per instance.

Readers raise typed FormatError subclasses on malformed input, never
arbitrary exceptions. Instance scores must be finite: they rank the
predictions for matching, and the writers raise on a non-finite one too.
Image sizes are positive ints and COCO image ids are ints (a bool or a
float is neither). Tile ids (and COCO image ids) must be unique: tiles are
keyed by id.
"""
from __future__ import annotations

import json
import math
import mmap
import os
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .geometry import InstanceSet, Polygon, Ring, ScoredPolygon, in_frame, point_in_polygon, signed_area
from .raster import RasterGrid

_MAGIC = b"RGF1"
_HEADER = struct.Struct("<4sIIII")
_DTYPE_BY_CODE = {0: np.dtype(np.uint8), 1: np.dtype(np.float32)}
_CODE_BY_DTYPE = {v: k for k, v in _DTYPE_BY_CODE.items()}

# the largest image side: in-frame coordinates then stay near 2**29, well
# below the magnitude (about 7e8) where the mask fill's edge band misses
# points geometry.point_in_polygon accepts
_MAX_SIDE = 2**29


class FormatError(ValueError):
    """Malformed or unsupported file content."""


class RgfError(FormatError):
    pass


class GeoJsonError(FormatError):
    pass


class CocoError(FormatError):
    pass


class ManifestError(FormatError):
    pass


def _finite_score(value: object, what: str, error: type[FormatError]) -> float:
    """A score as a finite float; anything else raises `error`."""
    try:
        score = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what}: bad score {value!r}") from exc
    if not math.isfinite(score):
        raise error(f"{what}: non-finite score {value!r}")
    return score


def _reject_repeats(ids: Sequence, what: str, error: type[FormatError]) -> None:
    seen = set()
    for key in ids:
        if key in seen:
            raise error(f"{what} {key!r} appears twice")
        seen.add(key)


def parse_json(text: str, error: type[FormatError] = FormatError) -> object:
    """json.loads with every failure raised as `error`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"malformed JSON at byte {exc.pos}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer literal, too deep nesting
        raise error(f"malformed JSON: {exc}") from exc


def read_text(path: str | Path) -> str:
    """A file's UTF-8 text. Undecodable bytes or a directory raise
    FormatError; a missing file raises FileNotFoundError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except IsADirectoryError as exc:
        raise FormatError(f"{path}: a directory, not a file") from exc
    except NotADirectoryError as exc:  # a file where the path needs a directory: no such file
        raise FileNotFoundError(exc.errno, exc.strerror, str(path)) from exc


@dataclass(frozen=True)
class TileRecord:
    """Instances of one image tile, with the tile's pixel size as (h, w)."""

    tile_id: str
    image_size: tuple[int, int]
    instances: InstanceSet

    def __post_init__(self) -> None:
        h, w = self.image_size
        if not (1 <= h <= _MAX_SIDE and 1 <= w <= _MAX_SIDE):
            raise FormatError(f"tile {self.tile_id!r}: bad image size {self.image_size}")
        object.__setattr__(self, "image_size", (int(h), int(w)))
        for sp in self.instances:
            for v in sp.polygon.all_vertices():
                if not in_frame(v, h, w):
                    raise FormatError(
                        f"tile {self.tile_id!r}: vertex ({v.x}, {v.y}) outside {w}x{h} bounds"
                    )


def rgf_parts(grid: RasterGrid) -> tuple[bytes, np.ndarray]:
    """A grid's RGF bytes in two parts: the header, and the payload as a flat
    u8 view of the grid's little-endian data (the grid's own buffer on
    little-endian hosts), so a file can be written without joining them.
    Only u8 and f32 grids are representable on disk."""
    if grid.data.dtype not in _CODE_BY_DTYPE:
        raise RgfError(f"dtype {grid.dtype_name} not serializable; convert to u8 or f32 first")
    header = _HEADER.pack(
        _MAGIC, grid.height, grid.width, grid.channels, _CODE_BY_DTYPE[grid.data.dtype]
    )
    # on-disk payload is little-endian; a no-op on LE hosts
    payload = np.ascontiguousarray(grid.data).astype(grid.data.dtype.newbyteorder("<"), copy=False)
    return header, payload.reshape(-1).view(np.uint8)  # a byte view for every shape, empty ones too


def write_rgf(grid: RasterGrid) -> bytes:
    """Serialize a grid: the join of its rgf_parts."""
    return b"".join(rgf_parts(grid))  # one copy of the payload


def _rgf_layout(data) -> tuple[tuple[int, int, int], np.dtype]:
    """The grid shape and dtype that the RGF bytes `data` (any buffer: bytes
    or a mapping) declare, after checking the header against the length."""
    if len(data) < _HEADER.size:
        raise RgfError(f"truncated header: got {len(data)} bytes, need {_HEADER.size}")
    magic, h, w, c, code = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise RgfError(f"bad magic {magic!r}")
    if code not in _DTYPE_BY_CODE:
        raise RgfError(f"unknown dtype code {code}")
    if c == 0:
        raise RgfError("header declares 0 channels")
    dtype = _DTYPE_BY_CODE[code]
    if math.prod(side for side in (h, w, c) if side) * dtype.itemsize > np.iinfo(np.intp).max:
        raise RgfError(f"grid shape {h}x{w}x{c} too large for an array")  # numpy's limit, even with no elements
    expected = h * w * c * dtype.itemsize
    if len(data) - _HEADER.size != expected:
        raise RgfError(f"truncated payload: expected {expected} bytes, got {len(data) - _HEADER.size}")
    return (h, w, c), dtype


def _payload(data, shape: tuple[int, int, int], dtype: np.dtype) -> np.ndarray:
    """The checked payload of `data` as a little-endian view of its buffer."""
    return np.frombuffer(data, dtype=dtype.newbyteorder("<"), offset=_HEADER.size).reshape(shape)


def read_rgf(data: bytes) -> RasterGrid:
    """Parse RGF bytes into a grid that owns a copy of the payload; the round
    trip through write_rgf is bitwise exact. map_rgf reads a file without
    the copy."""
    shape, dtype = _rgf_layout(data)
    # astype makes the one copy of the payload, in native byte order, so the
    # grid never aliases the caller's buffer
    return RasterGrid(_payload(data, shape, dtype).astype(dtype))


def map_rgf(path: str | Path) -> RasterGrid:
    """The grid of an RGF file, its array the file's pages mapped read-only:
    nothing is copied on little-endian hosts (big-endian ones byteswap into
    a copy). The header is checked as read_rgf checks it. The mapping and
    its file descriptor are released with the last array that views it.
    A file truncated or rewritten in place while mapped may kill the
    process with SIGBUS; one removed and created anew, as the CLI's encode
    does, leaves the mapping its old pages."""
    with open(path, "rb") as f:
        if os.fstat(f.fileno()).st_size == 0:  # mmap rejects an empty file
            _rgf_layout(b"")
        pages = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        shape, dtype = _rgf_layout(pages)
    except RgfError:
        pages.close()
        raise
    return RasterGrid(_payload(pages, shape, dtype).astype(dtype, copy=False))


def _ring_coords_closed(ring: Ring) -> list[list[float]]:
    coords = [[v.x, v.y] for v in ring.vertices]
    coords.append(coords[0])
    return coords


def write_geojson(records: Sequence[TileRecord], metadata: dict | None = None) -> bytes:
    features = []
    for rec in records:
        for i, sp in enumerate(rec.instances):
            poly = sp.polygon
            rings = [_ring_coords_closed(poly.outer)] + [_ring_coords_closed(h) for h in poly.holes]
            score = _finite_score(sp.score, f"tile {rec.tile_id!r} instance {i}", GeoJsonError)
            features.append(
                {
                    "type": "Feature",
                    "geometry": {"type": "Polygon", "coordinates": rings},
                    "properties": {"tile_id": rec.tile_id, "score": score},
                }
            )
    doc: dict = {
        "type": "FeatureCollection",
        "tiles": [
            {"tile_id": rec.tile_id, "image_size": [rec.image_size[0], rec.image_size[1]]}
            for rec in records
        ],
        "features": features,
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode("utf-8")


def _parse_geojson_ring(positions: object, what: str) -> Ring:
    if not isinstance(positions, list) or len(positions) < 4:
        raise GeoJsonError(f"{what}: ring needs >= 4 positions (closed), got {positions!r}")
    pts = []
    for pos in positions:
        if not (isinstance(pos, list) and len(pos) == 2):
            raise GeoJsonError(f"{what}: bad position {pos!r}")
        try:
            pts.append((float(pos[0]), float(pos[1])))
        except (TypeError, ValueError, OverflowError) as exc:
            raise GeoJsonError(f"{what}: bad position {pos!r}") from exc
    if pts[0] != pts[-1]:
        raise GeoJsonError(f"{what}: unclosed ring")
    try:
        return Ring.from_coords(pts[:-1])
    except ValueError as exc:
        raise GeoJsonError(f"{what}: {exc}") from exc


def read_geojson(data: bytes | str) -> list[TileRecord]:
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise GeoJsonError(f"not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return _geojson_records(parse_json(text, GeoJsonError))


def _geojson_records(doc: object) -> list[TileRecord]:
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise GeoJsonError("not a FeatureCollection")
    if "tiles" not in doc:
        raise GeoJsonError("missing 'tiles' member (tile ids and sizes)")
    order: list[str] = []
    sizes: dict[str, tuple[int, int]] = {}
    try:
        for entry in doc["tiles"]:
            tile_id = _string_id(entry["tile_id"], "tile_id", GeoJsonError)
            order.append(tile_id)
            sizes[tile_id] = _size_pair(entry["image_size"], f"tile {tile_id!r} image_size", GeoJsonError)
    except (KeyError, TypeError) as exc:
        raise GeoJsonError(f"bad 'tiles' member: {exc!r}") from exc
    _reject_repeats(order, "tile_id", GeoJsonError)
    by_tile: dict[str, list[ScoredPolygon]] = {tid: [] for tid in order}
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise GeoJsonError("'features' is not a list")
    for i, feature in enumerate(features):
        what = f"feature {i}"
        if not isinstance(feature, dict):
            raise GeoJsonError(f"{what}: not an object")
        geom = feature.get("geometry")
        kind = geom.get("type") if isinstance(geom, dict) else None
        if kind != "Polygon":
            raise GeoJsonError(f"{what}: unsupported geometry type {kind!r}")
        rings = geom.get("coordinates")
        if not isinstance(rings, list) or not rings:
            raise GeoJsonError(f"{what}: empty coordinates")
        outer = _parse_geojson_ring(rings[0], what)
        holes = tuple(_parse_geojson_ring(r, what) for r in rings[1:])
        props = feature.get("properties") or {}
        if not isinstance(props, dict):
            raise GeoJsonError(f"{what}: properties is not an object")
        tile_id = _string_id(props.get("tile_id"), f"{what}: tile_id", GeoJsonError)
        if tile_id not in by_tile:
            raise GeoJsonError(f"{what}: unknown tile_id {tile_id!r}")
        score = _finite_score(props.get("score", 1.0), what, GeoJsonError)
        by_tile[tile_id].append(ScoredPolygon(Polygon(outer, holes), score))
    return [
        TileRecord(tid, sizes[tid], InstanceSet(tuple(by_tile[tid]))) for tid in order
    ]


def _rings_from_segmentation(seg: object, what: str) -> list[Ring]:
    if isinstance(seg, dict):
        raise CocoError(f"{what}: unsupported encoding (RLE segmentation)")
    if not isinstance(seg, list) or not seg:
        raise CocoError(f"{what}: empty segmentation")
    rings = []
    for flat in seg:
        if not isinstance(flat, list) or len(flat) < 6 or len(flat) % 2 != 0:
            raise CocoError(f"{what}: bad polygon array of length {len(flat) if isinstance(flat, list) else '?'}")
        try:
            pts = [(float(flat[i]), float(flat[i + 1])) for i in range(0, len(flat), 2)]
        except (TypeError, ValueError, OverflowError) as exc:
            raise CocoError(f"{what}: bad coordinate in {flat!r}") from exc
        if len(pts) > 3 and pts[0] == pts[-1]:
            pts = pts[:-1]
        try:
            rings.append(Ring.from_coords(pts))
        except ValueError as exc:
            raise CocoError(f"{what}: {exc}") from exc
    return rings


def read_coco_annotations(path: str | Path) -> list[TileRecord]:
    """Load COCO-style polygon annotations grouped per image.

    Multi-ring segmentations are interpreted as one polygon: the largest
    ring by absolute area is the outer boundary, the rest are holes (warned
    when a supposed hole lies outside the outer ring). "iscrowd" flags are
    ignored with a warning.
    """
    return _coco_records(parse_json(read_text(path), CocoError))


def _coco_records(doc: object) -> list[TileRecord]:
    if not isinstance(doc, dict) or "images" not in doc:
        raise CocoError("missing 'images' list")
    images: dict[int, tuple[str, int, int]] = {}
    order: list[int] = []
    try:
        for img in doc["images"]:
            image_id = img["id"]
            if not _is_int(image_id):
                raise CocoError(f"image id {image_id!r} is not an int")
            tile_id = _string_id(img["file_name"], "file_name", CocoError) if "file_name" in img else str(image_id)
            images[image_id] = (tile_id, *_size_pair([img["height"], img["width"]], f"image {image_id} size", CocoError))
            order.append(image_id)
    except (KeyError, TypeError) as exc:
        raise CocoError(f"bad 'images' entry: {exc!r}") from exc
    _reject_repeats(order, "image id", CocoError)
    _reject_repeats([images[i][0] for i in order], "tile id (file_name)", CocoError)
    by_image: dict[int, list[ScoredPolygon]] = {i: [] for i in order}
    crowd_seen = 0
    annotations = doc.get("annotations", [])
    if not isinstance(annotations, list):
        raise CocoError("'annotations' is not a list")
    for k, ann in enumerate(annotations):
        if not isinstance(ann, dict):
            raise CocoError(f"annotation {k}: not an object")
        what = f"annotation {ann.get('id', k)}"
        image_id = ann.get("image_id")
        score = _finite_score(ann.get("score", 1.0), what, CocoError)
        if not _is_int(image_id) or image_id not in images:
            raise CocoError(f"{what}: unknown image_id {image_id!r}")
        if ann.get("iscrowd"):
            crowd_seen += 1
        rings = _rings_from_segmentation(ann.get("segmentation"), what)
        rings.sort(key=lambda r: -abs(signed_area(r)))
        outer, holes = rings[0], tuple(rings[1:])
        poly = Polygon(outer, holes)
        for hole in holes:
            if not point_in_polygon(hole.vertices[0], Polygon(outer)):
                warnings.warn(f"{what}: disjoint ring treated as hole", stacklevel=3)
                break
        by_image[image_id].append(ScoredPolygon(poly, score))
    if crowd_seen:
        warnings.warn(f"ignored iscrowd flag on {crowd_seen} annotations", stacklevel=3)
    return [
        TileRecord(images[i][0], images[i][1:], InstanceSet(tuple(by_image[i]))) for i in order
    ]


def read_annotations(path: str | Path) -> list[TileRecord]:
    """A GeoJSON FeatureCollection or a COCO annotation file, told apart by
    its content; the file is read and parsed once."""
    text = read_text(path)  # its errors name the path
    try:
        doc = parse_json(text)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if isinstance(doc, dict) and doc.get("type") == "FeatureCollection":
        return _geojson_records(doc)
    if isinstance(doc, dict) and "images" in doc:
        return _coco_records(doc)
    raise FormatError(f"{path}: neither GeoJSON FeatureCollection nor COCO annotations")


def write_coco_annotations(records: Sequence[TileRecord]) -> bytes:
    """COCO-style export; the read/write round trip is coordinate-exact."""
    images = []
    annotations = []
    ann_id = 1
    for image_id, rec in enumerate(records, start=1):
        h, w = rec.image_size
        images.append({"id": image_id, "file_name": rec.tile_id, "height": h, "width": w})
        for sp in rec.instances:
            poly = sp.polygon
            seg = []
            for ring in poly.rings():
                flat: list[float] = []
                for v in ring.vertices:
                    flat.extend((v.x, v.y))
                seg.append(flat)
            xs = [v.x for v in poly.all_vertices()]
            ys = [v.y for v in poly.all_vertices()]
            annotations.append(
                {
                    "id": ann_id,
                    "image_id": image_id,
                    "category_id": 1,
                    "segmentation": seg,
                    "area": poly.area(),
                    "bbox": [min(xs), min(ys), max(xs) - min(xs), max(ys) - min(ys)],
                    "iscrowd": 0,
                    "score": _finite_score(sp.score, f"annotation {ann_id}", CocoError),
                }
            )
            ann_id += 1
    doc = {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": 1, "name": "building", "supercategory": "building"}],
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


# the raster kinds encode writes, in its write order, and each kind's channel count
RASTER_CHANNELS = {"mask": 1, "afm": 2, "heatmap": 1, "offsets": 2}
MANIFEST_RASTERS = tuple(kind for kind in RASTER_CHANNELS if kind != "afm")  # the kinds polygonize reads


@dataclass(frozen=True)
class ManifestTile:
    """One encoded tile: frame and raster grid sizes as (h, w), and the
    raster file name of each kind."""

    tile_id: str
    image_size: tuple[int, int]
    grid_size: tuple[int, int]
    files: dict[str, str]


def write_manifest(scale: int, tiles: Sequence[ManifestTile]) -> bytes:
    doc = {
        "version": 1,
        "scale": scale,
        "tiles": [
            {"tile_id": t.tile_id, "image_size": list(t.image_size), "grid_size": list(t.grid_size), "files": t.files}
            for t in tiles
        ],
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _string_id(value: object, what: str, error: type[FormatError]) -> str:
    if not isinstance(value, str):
        raise error(f"{what} {value!r} is not a string")
    return value


def _positive_int(value: object) -> bool:
    return _is_int(value) and value >= 1


def _size_pair(value: object, what: str, error: type[FormatError] = ManifestError) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2 and all(_positive_int(v) for v in value)):
        raise error(f"{what} must be a pair of positive ints, got {value!r}")
    return value[0], value[1]


def _plain_name(value: object) -> bool:
    """A file name that stays inside the directory it is joined to."""
    return (
        isinstance(value, str) and value not in ("", ".", "..") and "\0" not in value and Path(value).name == value
    )


def _manifest_tile(entry: object, scale: int) -> ManifestTile:
    if not isinstance(entry, dict):
        raise ManifestError(f"tile entry {entry!r} is not an object")
    tile_id = _string_id(entry.get("tile_id"), "tile_id", ManifestError)
    what = f"tile {tile_id!r}"
    image_size = _size_pair(entry.get("image_size"), f"{what} image_size")
    grid_size = _size_pair(entry.get("grid_size"), f"{what} grid_size")
    if image_size != (grid_size[0] * scale, grid_size[1] * scale):
        raise ManifestError(f"{what}: image_size {list(image_size)} is not grid_size {list(grid_size)} x scale {scale}")
    files = entry.get("files")
    if not (isinstance(files, dict) and all(kind in files for kind in MANIFEST_RASTERS)):
        raise ManifestError(f"{what}: files must name the {', '.join(MANIFEST_RASTERS)} rasters")
    for name in files.values():
        if not _plain_name(name):
            raise ManifestError(f"{what}: {name!r} is not a plain file name")
    return ManifestTile(tile_id, image_size, grid_size, files)


def read_manifest(path: str | Path) -> tuple[int, list[ManifestTile]]:
    """The scale and tiles of a manifest.json. Every entry is checked before
    any raster is opened; a fault raises ManifestError naming the file."""
    try:
        doc = parse_json(read_text(path), ManifestError)
        if not isinstance(doc, dict) or not isinstance(doc.get("tiles"), list):
            raise ManifestError("needs a 'tiles' list")
        scale = doc.get("scale")
        if not _positive_int(scale):
            raise ManifestError(f"scale must be a positive int, got {scale!r}")
        tiles = [_manifest_tile(entry, scale) for entry in doc["tiles"]]
        _reject_repeats([t.tile_id for t in tiles], "tile_id", ManifestError)
    except FormatError as exc:
        raise ManifestError(f"corrupt manifest {path}: {exc}") from exc
    return scale, tiles


@dataclass(frozen=True)
class SvgStyle:
    background: str = "none"  # "none" or "checker"

    def __post_init__(self) -> None:
        if self.background not in ("none", "checker"):
            raise FormatError(f"unknown background {self.background!r}")


_PALETTE = (
    "#e6194b", "#3cb44b", "#ffe119", "#4363d8", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#bcf60c", "#fabebe", "#008080", "#e6beff",
)
_STROKE_WIDTH = 1.0
_FILL_OPACITY = 0.45


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_svg(records: Sequence[TileRecord], style: SvgStyle | None = None) -> str:
    """Deterministic SVG overlay; tiles are laid out left to right and each
    instance is one even-odd path colored by its index within the tile."""
    style = style or SvgStyle()
    total_w = sum(rec.image_size[1] for rec in records)
    total_h = max((rec.image_size[0] for rec in records), default=0)
    width = max(total_w, 1)
    height = max(total_h, 1)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    if style.background == "checker":
        parts.append(
            '<defs><pattern id="checker" width="16" height="16" patternUnits="userSpaceOnUse">'
            '<rect width="16" height="16" fill="#f0f0f0"/>'
            '<rect width="8" height="8" fill="#d8d8d8"/>'
            '<rect x="8" y="8" width="8" height="8" fill="#d8d8d8"/>'
            "</pattern></defs>"
        )
    offset = 0
    for rec in records:
        h, w = rec.image_size
        parts.append(f'<g transform="translate({offset},0)">')
        if style.background == "checker":
            parts.append(f'<rect width="{w}" height="{h}" fill="url(#checker)"/>')
        parts.append(f'<rect width="{w}" height="{h}" fill="none" stroke="#888" stroke-width="0.5"/>')
        for i, sp in enumerate(rec.instances):
            color = _PALETTE[i % len(_PALETTE)]
            cmds = []
            for ring in sp.polygon.rings():
                vs = ring.vertices
                cmds.append(f"M {_fmt(vs[0].x)} {_fmt(vs[0].y)}")
                cmds.extend(f"L {_fmt(v.x)} {_fmt(v.y)}" for v in vs[1:])
                cmds.append(f"L {_fmt(vs[0].x)} {_fmt(vs[0].y)}")  # explicit closing side
                cmds.append("Z")
            parts.append(
                f'<path d="{" ".join(cmds)}" fill="{color}" fill-opacity="{_fmt(_FILL_OPACITY)}" '
                f'fill-rule="evenodd" stroke="{color}" stroke-width="{_fmt(_STROKE_WIDTH)}"/>'
            )
        parts.append("</g>")
        offset += w
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
