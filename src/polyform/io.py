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
arbitrary exceptions. A GeoJSON position is a list of two values and a
COCO polygon array a flat list of values; each value converts as float()
converts it (a numeric string such as "1.5" reads as 1.5), and null is a
bad position or coordinate. Instance scores must be finite: they rank the
predictions for matching, and the writers raise on a non-finite one too.
Image sizes are positive ints and COCO image ids are ints (a bool or a
float is neither). Tile ids (and COCO image ids) must be unique: tiles are
keyed by id.
"""
from __future__ import annotations

import bisect
import itertools
import json
import math
import mmap
import os
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .geometry import (
    InstanceSet, Polygon, Ring, ScoredPolygon, offsets, outside_frame, pack_rings, point_in_polygon,
    ring_faults, ring_of, signed_area,
)
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
        xy = pack_rings([sp.polygon for sp in self.instances])[0]
        outside = outside_frame(xy, h, w)
        if outside.any():
            x, y = xy[np.argmax(outside)].tolist()
            raise FormatError(f"tile {self.tile_id!r}: vertex ({x}, {y}) outside {w}x{h} bounds")


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


def _closed_positions(ring: Ring) -> list[list[float]]:
    positions = ring.coords.tolist()
    positions.append(positions[0])
    return positions


def write_geojson(records: Sequence[TileRecord], metadata: dict | None = None) -> bytes:
    features = []
    for rec in records:
        for i, sp in enumerate(rec.instances):
            poly = sp.polygon
            rings = [_closed_positions(ring) for ring in poly.rings()]
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


def _converts(values: list) -> bool:
    """Whether float() converts every one of values."""
    try:
        list(map(float, values))
    except (TypeError, ValueError, OverflowError):
        return False
    return True


def _values(raws: list[list], closed: bool) -> np.ndarray:
    """Every value of the coordinate lists raws, converted by float(), as the
    rows of one (n, 2) f64 array: COCO lists are flat x, y, x, y, ...; closed
    (GeoJSON) lists hold positions, and one that is not a list of two values
    raises TypeError."""
    if closed:
        raws = list(itertools.chain.from_iterable(raws))
        if not (set(map(type, raws)) <= {list} and set(map(len, raws)) <= {2}):
            raise TypeError("a position is not a list of two values")
    count = 2 * len(raws) if closed else sum(map(len, raws))
    return np.fromiter(map(float, itertools.chain.from_iterable(raws)), np.float64, count).reshape(-1, 2)


def _read_items(
    items: object, noun: str, key: str | None, read: Callable, table: dict, closed: bool, error: type[FormatError]
) -> tuple[Iterator[tuple[str, object, list[Ring]]], FormatError | None]:
    """The one pass over a document's items, GeoJSON features (closed) or
    COCO annotations, up to the first item that fails its own checks.

    Item k must be an object, named f"{noun} {item[key]}" in messages, or
    f"{noun} {k}" when key is None or the item has no such member.
    read(item, what, table, raws) appends each of the item's coordinate
    lists to raws and returns the item's owner, or raises error. Then every
    value read converts in one pass (_values) and every ring is checked in
    one pass; a ring is its list without the last point when that closes
    it: always and required when closed, else when equal to the first of
    four or more.

    Returns an iterator of (what, owner, rings) for each item whose rings
    all passed, in file order, and the earliest fault in file order, or
    None: the first list with a value float() rejects (named by
    _position_fault or _coordinate_fault) or the first ring before it that
    the Ring constructor rejects, with that constructor's message; else the
    item's fault. The lists an item appended before it raised are checked
    too, so their faults come first."""
    if not isinstance(items, list):
        raise error(f"'{noun}s' is not a list")
    raws: list[list] = []  # every coordinate list, in file order
    firsts = [0]  # item k has lists firsts[k]:firsts[k + 1]
    whats: list[str] = []
    owners: list = []
    fault = None
    for k, item in enumerate(items):
        if not isinstance(item, dict):
            fault = error(f"{noun} {k}: not an object")
            break
        whats.append(f"{noun} {item.get(key, k) if key else k}")
        try:
            owners.append(read(item, whats[-1], table, raws))
        except error as exc:
            fault = exc
            break
        firsts.append(len(raws))
    try:
        pos = _values(raws, closed)
    except (TypeError, ValueError, OverflowError):
        value_fault = _position_fault if closed else _coordinate_fault
        j, message = next((j, m) for j, m in enumerate(map(value_fault, raws)) if m is not None)
        raws, fault = raws[:j], error(f"{whats[bisect.bisect_right(firsts, j) - 1]}: {message}")
        pos = _values(raws, closed)
    counts = np.array([len(raw) for raw in raws], dtype=np.int64) // (1 if closed else 2)
    ends = offsets(counts)
    first, last = ends[:-1], ends[1:] - 1
    closing = (pos[first] == pos[last]).all(axis=1)
    drop = np.ones(len(raws), dtype=bool) if closed else (counts > 3) & closing
    vertex = np.ones(len(pos), dtype=bool)
    vertex[last[drop]] = False
    xy, bounds = pos[vertex], offsets(counts - drop)
    bad = ring_faults(xy, bounds) | (closed & ~closing)
    good = int(np.argmax(bad)) if bad.any() else len(raws)
    if good < len(raws):
        what = whats[bisect.bisect_right(firsts, good) - 1]
        # closure as Python compares the positions: a NaN equals the same NaN object
        if closed and list(map(float, raws[good][0])) != list(map(float, raws[good][-1])):
            fault = error(f"{what}: unclosed ring")
        else:
            try:
                Ring(xy[bounds[good] : bounds[good + 1]])
            except ValueError as exc:
                fault = error(f"{what}: {exc}")
    xy.flags.writeable = False
    cuts = bounds[: good + 1].tolist()
    rings = [ring_of(xy[a:b]) for a, b in zip(cuts, cuts[1:])]
    done = bisect.bisect_right(firsts, good) - 1  # the items whose rings all passed
    return zip(whats, owners, [rings[f:e] for f, e in zip(firsts, firsts[1 : done + 1])]), fault


def _position_fault(positions: list) -> str | None:
    """The fault of the first of a ring's positions that is not a list of
    two values float() converts."""
    for pos in positions:
        if not (isinstance(pos, list) and len(pos) == 2 and _converts(pos)):
            return f"bad position {pos!r}"
    return None


def _coordinate_fault(values: list) -> str | None:
    """The fault of the first value of a COCO polygon array that float()
    rejects, naming the value and its index."""
    for i, value in enumerate(values):
        if not _converts([value]):
            return f"bad coordinate {value!r} at index {i}"
    return None


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
    done, fault = _read_items(doc.get("features", []), "feature", None, _geojson_feature, sizes, True, GeoJsonError)
    if fault is not None:
        raise fault
    for _, (tile_id, score), rings in done:  # the first ring is the outer boundary
        by_tile[tile_id].append(ScoredPolygon(Polygon(rings[0], tuple(rings[1:])), score))
    return [
        TileRecord(tid, sizes[tid], InstanceSet(tuple(by_tile[tid]))) for tid in order
    ]


def _geojson_feature(feature: dict, what: str, sizes: dict, raws: list[list]) -> tuple[str, float]:
    """A feature's tile id and score, after appending the position list of
    each of its rings to raws; the positions themselves are checked by
    _read_items."""
    geom = feature.get("geometry")
    kind = geom.get("type") if isinstance(geom, dict) else None
    if kind != "Polygon":
        raise GeoJsonError(f"{what}: unsupported geometry type {kind!r}")
    rings = geom.get("coordinates")
    if not isinstance(rings, list) or not rings:
        raise GeoJsonError(f"{what}: empty coordinates")
    for positions in rings:
        if not isinstance(positions, list) or len(positions) < 4:
            raise GeoJsonError(f"{what}: ring needs >= 4 positions (closed), got {positions!r}")
        raws.append(positions)
    props = feature.get("properties") or {}
    if not isinstance(props, dict):
        raise GeoJsonError(f"{what}: properties is not an object")
    tile_id = _string_id(props.get("tile_id"), f"{what}: tile_id", GeoJsonError)
    if tile_id not in sizes:
        raise GeoJsonError(f"{what}: unknown tile_id {tile_id!r}")
    return tile_id, _finite_score(props.get("score", 1.0), what, GeoJsonError)


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
    annotations = doc.get("annotations", [])
    done, fault = _read_items(annotations, "annotation", "id", _coco_annotation, images, False, CocoError)
    for what, (image_id, score), rings in done:  # the warnings of the annotations before a fault fire too
        # the largest ring by absolute area is the outer boundary
        outer, *holes = rings if len(rings) == 1 else sorted(rings, key=lambda r: -abs(signed_area(r)))
        if holes:
            alone = Polygon(outer)
            if not all(point_in_polygon(tuple(h.coords[0].tolist()), alone) for h in holes):
                warnings.warn(f"{what}: disjoint ring treated as hole", stacklevel=3)
        by_image[image_id].append(ScoredPolygon(Polygon(outer, tuple(holes)), score))
    if fault is not None:
        raise fault
    crowd_seen = sum(1 for ann in annotations if ann.get("iscrowd"))
    if crowd_seen:
        warnings.warn(f"ignored iscrowd flag on {crowd_seen} annotations", stacklevel=3)
    return [
        TileRecord(images[i][0], images[i][1:], InstanceSet(tuple(by_image[i]))) for i in order
    ]


def _coco_annotation(ann: dict, what: str, images: dict, raws: list[list]) -> tuple[int, float]:
    """An annotation's image id and score, after appending each of its
    polygon arrays to raws; the values themselves are checked by
    _read_items."""
    image_id = ann.get("image_id")
    score = _finite_score(ann.get("score", 1.0), what, CocoError)
    if not _is_int(image_id) or image_id not in images:
        raise CocoError(f"{what}: unknown image_id {image_id!r}")
    seg = ann.get("segmentation")
    if isinstance(seg, dict):
        raise CocoError(f"{what}: unsupported encoding (RLE segmentation)")
    if not isinstance(seg, list) or not seg:
        raise CocoError(f"{what}: empty segmentation")
    for flat in seg:
        if not isinstance(flat, list) or len(flat) < 6 or len(flat) % 2 != 0:
            raise CocoError(f"{what}: bad polygon array of length {len(flat) if isinstance(flat, list) else '?'}")
        raws.append(flat)
    return image_id, score


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
            seg = [ring.coords.ravel().tolist() for ring in poly.rings()]
            xs, ys = pack_rings([poly])[0].T.tolist()
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
                (x0, y0), *rest = ring.coords.tolist()
                cmds.append(f"M {_fmt(x0)} {_fmt(y0)}")
                cmds.extend(f"L {_fmt(x)} {_fmt(y)}" for x, y in rest)
                cmds.append(f"L {_fmt(x0)} {_fmt(y0)}")  # explicit closing side
                cmds.append("Z")
            parts.append(
                f'<path d="{" ".join(cmds)}" fill="{color}" fill-opacity="{_fmt(_FILL_OPACITY)}" '
                f'fill-rule="evenodd" stroke="{color}" stroke-width="{_fmt(_STROKE_WIDTH)}"/>'
            )
        parts.append("</g>")
        offset += w
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
