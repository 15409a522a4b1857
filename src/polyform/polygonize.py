"""Mask-and-vertices polygon extraction.

The inference pipeline: threshold the soft mask, split it into connected
components, Moore-trace each component's outer and hole boundaries, snap
the traced pixels onto the detected sub-pixel vertices (keeping, per
vertex, only its closest boundary pixel), merge near-collinear edges, and
rescale. A Douglas-Peucker pass over the raw chain doubles as the baseline
simplifier and as the fallback when vertex snapping degenerates.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import ndimage

from .geometry import (
    DegenerateRingError,
    GeometryError,
    InstanceSet,
    Point2,
    Polygon,
    Ring,
    ScoredPolygon,
    merge_collinear_edges,
    point_segment_foot,
)
from .raster import RasterGrid, bounding_crop, offset_points

FOUR = "four"
EIGHT = "eight"


class PolygonizeError(ValueError):
    """Invalid polygonization input."""


class FallbackRequired(Exception):
    """Vertex-attraction simplification left fewer than three vertices."""


@dataclass(frozen=True)
class PolygonizeConfig:
    """Pipeline parameters; defaults follow the reference settings."""

    mask_threshold: float = 0.5
    top_k: int = 300
    vertex_threshold: float = 0.008
    attract_dist: float = 5.0
    merge_angle: float = 10.0
    scale: float = 1.0
    connectivity: str = EIGHT
    dp_fallback_tolerance: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.mask_threshold < 1.0:
            raise PolygonizeError(f"mask_threshold {self.mask_threshold} outside (0, 1)")
        if not 0.0 < self.vertex_threshold < 1.0:
            raise PolygonizeError(f"vertex_threshold {self.vertex_threshold} outside (0, 1)")
        if self.top_k < 1:
            raise PolygonizeError(f"top_k must be >= 1, got {self.top_k}")
        if self.attract_dist <= 0:
            raise PolygonizeError(f"attract_dist must be > 0, got {self.attract_dist}")
        if self.connectivity not in (FOUR, EIGHT):
            raise PolygonizeError(f"unknown connectivity {self.connectivity!r}")
        if self.merge_angle < 0 or self.dp_fallback_tolerance < 0 or self.scale <= 0:
            raise PolygonizeError("merge_angle/dp_fallback_tolerance/scale out of range")


@dataclass(frozen=True)
class BoundaryChain:
    """Closed chain of integer (row, col) boundary pixels; 8-connected, first
    pixel not repeated. Chains of one or two pixels are legal for tiny blobs."""

    pixels: tuple[tuple[int, int], ...]
    ring_kind: str  # "outer" or "hole"

    def __len__(self) -> int:
        return len(self.pixels)

    def centers(self) -> np.ndarray:
        """Chain pixels as float (x, y) centers, shape (n, 2)."""
        arr = np.asarray(self.pixels, dtype=np.float64).reshape(-1, 2)
        return np.stack([arr[:, 1] + 0.5, arr[:, 0] + 0.5], axis=1)


@dataclass(frozen=True)
class VertexSet:
    """Scored sub-pixel vertex detections, strongest first."""

    points: tuple[tuple[Point2, float], ...]
    _coords: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        coords = np.asarray([[p.x, p.y] for p, _ in self.points], dtype=np.float64).reshape(-1, 2)
        coords.flags.writeable = False
        object.__setattr__(self, "_coords", coords)

    def __len__(self) -> int:
        return len(self.points)

    def coords(self) -> np.ndarray:
        """Vertex (x, y) coordinates, shape (n, 2), read-only."""
        return self._coords


def threshold_mask(soft: RasterGrid, tau: float) -> RasterGrid:
    """Binarize a soft mask: 1 iff value is strictly greater than tau."""
    return RasterGrid.from_array((soft.channel() > tau).astype(np.uint8))


def component_crops(
    soft: RasterGrid, tau: float, connectivity: str = EIGHT
) -> list[tuple[int, int, np.ndarray, float]]:
    """The connected components of soft > tau, in label order, as
    (r0, c0, crop, score): the component's bounding-box mask at frame offset
    (r0, c0) and the f64 mean of the soft mask over its pixels."""
    values = soft.channel()
    lab, boxes = _label_boxes(values > tau, connectivity)
    out = []
    for comp, (rows, cols) in enumerate(boxes, start=1):
        region = lab[rows, cols] == comp
        score = float(values[rows, cols][region].astype(np.float64).mean())
        out.append((rows.start, cols.start, region, score))
    return out


def connected_components(binary: RasterGrid, connectivity: str = EIGHT) -> tuple[RasterGrid, int]:
    """Label foreground components 1..count, background 0.

    Labels are assigned in raster-scan order of each component's first
    pixel, so the result is deterministic for a given mask.
    """
    labels, boxes = _label_boxes(binary.channel() != 0, connectivity)
    return RasterGrid.from_array(labels), len(boxes)


def _label_boxes(mask: np.ndarray, connectivity: str) -> tuple[np.ndarray, list[tuple[slice, slice]]]:
    """connected_components of a boolean frame as u32 labels, plus each
    label's bounding box (ndimage.find_objects, label order).

    A component's first pixel is its box's first row at the first column of
    that row holding the label. ndimage.label already numbers components in
    raster order of their first pixels in practice; the labels are renumbered
    (and the boxes reordered) only when the boxes show it did not.
    """
    if connectivity not in (FOUR, EIGHT):
        raise PolygonizeError(f"unknown connectivity {connectivity!r}")
    structure = np.ones((3, 3), dtype=bool) if connectivity == EIGHT else ndimage.generate_binary_structure(2, 1)
    labels, count = ndimage.label(mask, structure=structure, output=np.uint32)
    boxes = ndimage.find_objects(labels)
    first = [
        (rows.start, cols.start + int(np.argmax(labels[rows.start, cols] == comp)))
        for comp, (rows, cols) in enumerate(boxes, start=1)
    ]
    if any(a > b for a, b in zip(first, first[1:])):
        order = sorted(range(count), key=first.__getitem__)
        remap = np.zeros(count + 1, dtype=np.uint32)
        remap[np.array(order) + 1] = np.arange(1, count + 1, dtype=np.uint32)
        labels = remap[labels]
        boxes = [boxes[i] for i in order]
    return labels, boxes


# clockwise Moore neighborhood starting north
_DIRS = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))
_SOUTH, _WEST = 4, 6


def _moore_table() -> list[tuple[int, int] | None]:
    """The Moore search as a lookup: entry code * 8 + b is (next direction,
    new backtrack direction) for a pixel whose foreground neighbours are the
    set bits of code (bit d for direction d) and whose backtrack lies in
    direction b, or None for a pixel with no foreground neighbour. The
    search turns clockwise from b and stops at the first foreground
    neighbour; the neighbour probed just before it is the new backtrack."""
    dir_index = {d: i for i, d in enumerate(_DIRS)}
    table: list[tuple[int, int] | None] = []
    for code in range(256):
        for back in range(8):
            move = None
            for k in range(1, 9):
                d = (back + k) % 8
                if code >> d & 1:
                    (pr, pc), (nr, nc) = _DIRS[(back + k - 1) % 8], _DIRS[d]
                    move = (d, dir_index[(pr - nr, pc - nc)])
                    break
            table.append(move)
    return table


_MOORE_MOVES = _moore_table()


def _moore_trace(codes: bytes, steps: Sequence[int], start: int, back: int) -> list[int]:
    """Follow the boundary cycle through the flat pixel index `start` of a
    window whose foreground-neighbour codes are `codes`, `back` the direction
    of the background pixel the walk pivots around first and `steps` the
    flat offset of each direction. Returns the closed chain of flat indices;
    the walk ends on a repeated (pixel, backtrack) state."""
    chain = [start]
    seen = {start * 8 + back: 0}
    p = start
    while True:
        move = _MOORE_MOVES[codes[p] * 8 + back]
        if move is None:
            return chain  # isolated pixel
        d, back = move
        p += steps[d]
        state = p * 8 + back
        if state in seen:
            return chain[seen[state]:]
        seen[state] = len(chain)
        chain.append(p)


def trace_boundary(labels: RasterGrid, component_id: int) -> list[BoundaryChain]:
    """Moore-trace one component: the outer chain first, then one chain per hole.

    Chain pixels belong to the component and are 8-adjacent to background
    (outer) or to the enclosed hole region (hole chains). The outer chain is
    CCW (positive shoelace on (x, y) = (col, row)), holes CW, with no
    reorienting pass: each Moore search turns clockwise from a background
    pixel, so every walk keeps the component on its right as drawn (y down).
    The outer walk starts beside the exterior and circles the component; a
    hole walk starts beside its hole and circles that the other way (the
    fixed border orientations of Suzuki and Abe's border following, 1985).
    """
    r0, c0, window = bounding_crop(labels.channel() == component_id)
    if window.size == 0:
        raise PolygonizeError(f"component {component_id} not found")
    return _trace_window(window, r0, c0)


def _trace_window(window: np.ndarray, r0: int, c0: int) -> list[BoundaryChain]:
    """trace_boundary on one component's bounding-box mask at frame offset (r0, c0).

    The one-pixel background pad is a 4-connected ring through pixel (0, 0),
    and ndimage.label numbers regions in raster order of their first pixel,
    so label 1 is the exterior and every other background label is a hole.
    Each pixel's 8-bit foreground-neighbour code is computed once per window
    (the pad keeps every foreground pixel's neighbours inside it).
    """
    mask = np.pad(window, 1)
    h, w = mask.shape
    codes = np.zeros((h, w), dtype=np.uint8)
    inner = codes[1:-1, 1:-1]
    for d, (dr, dc) in enumerate(_DIRS):
        inner |= mask[1 + dr : h - 1 + dr, 1 + dc : w - 1 + dc].astype(np.uint8) << d
    code_bytes = codes.tobytes()
    steps = [dr * w + dc for dr, dc in _DIRS]

    def chain(start: int, back: int, kind: str) -> BoundaryChain:
        pixels = _moore_trace(code_bytes, steps, start, back)
        return BoundaryChain(tuple((p // w + r0 - 1, p % w + c0 - 1) for p in pixels), kind)

    chains = [chain(int(np.flatnonzero(mask.ravel())[0]), _WEST, "outer")]
    background, _ = ndimage.label(~mask, structure=ndimage.generate_binary_structure(2, 1))
    for label, (rows, cols) in enumerate(ndimage.find_objects(background)[1:], start=2):
        # a hole's raster-first pixel, whose upper neighbour is component foreground
        hr = rows.start
        hc = cols.start + int(np.flatnonzero(background[hr, cols] == label)[0])
        chains.append(chain((hr - 1) * w + hc, _SOUTH, "hole"))
    return chains


def extract_vertices(heatmap: RasterGrid, offsets: RasterGrid, top_k: int, tau_v: float) -> VertexSet:
    """3x3 non-maximum suppression, then the top_k survivors scoring above tau_v.

    A pixel survives NMS only if it is strictly greater than every neighbor,
    with ties broken toward the lower raster index. Each survivor becomes
    the sub-pixel point (c + 0.5 + offset_x, r + 0.5 + offset_y).
    """
    if (heatmap.height, heatmap.width) != (offsets.height, offsets.width):
        raise PolygonizeError("heatmap and offsets shapes differ")
    # f32 (f64 for wider inputs) holds every heatmap value exactly, so the
    # neighbour comparisons match f64 ones; tau_v is compared at f64
    channel = heatmap.channel()
    padded = np.pad(channel.astype(np.result_type(channel, np.float32), copy=False), 1, constant_values=-np.inf)
    heat = padded[1:-1, 1:-1]
    h, w = heat.shape
    keep = np.greater(heat, np.float64(tau_v))
    for dr, dc in _DIRS:
        neighbor = padded[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]  # value of the (dr, dc) neighbor
        earlier = dr < 0 or (dr == 0 and dc < 0)
        keep &= (heat > neighbor) if earlier else (heat >= neighbor)
    rows, cols = np.nonzero(keep)
    if rows.size == 0:
        return VertexSet(())
    scores = heat[rows, cols].astype(np.float64)
    flat = rows * heat.shape[1] + cols
    order = np.lexsort((flat, -scores))[:top_k]
    return VertexSet(tuple(offset_points(rows[order], cols[order], offsets.data, scores[order])))


def mav_attract_simplify(
    chain: BoundaryChain, vertices: VertexSet, tau_d: float, merge_angle: float
) -> Ring:
    """Snap a traced boundary chain onto detected vertices.

    Every chain pixel is matched to its nearest vertex (ties to the lower
    vertex index); per matched vertex only the closest pixel survives
    (first in chain order on exact ties); survivors farther than tau_d from
    their vertex are dropped; the rest are replaced by their vertex
    coordinates in chain order and near-collinear joints are merged. Raises
    FallbackRequired when fewer than three vertices remain.

    Only the vertices inside the box of the chain's pixel centres, widened
    by tau_d on every side, are compared, in index order; this gives the
    ring the all-vertex comparison gives. A vertex outside the box lies at
    least tau_d from every chain pixel, so none of its pixels survives the
    tau_d cut. A pixel it would have claimed instead goes to a vertex in the
    box, still at least tau_d away, so it cannot displace a winner closer
    than tau_d. Rounding to nearest is monotone: a vertex the computed box
    excludes lies at least tau_d beyond the outermost pixel centre in exact
    arithmetic too, so rounding cannot exclude a vertex that could win.
    """
    pix = chain.centers()
    vtx = vertices.coords()
    near = np.flatnonzero(((vtx >= pix.min(axis=0) - tau_d) & (vtx <= pix.max(axis=0) + tau_d)).all(axis=1))
    if near.size == 0:
        raise FallbackRequired("no vertices within tau_d of the chain's box")
    diff = pix[:, None, :] - vtx[near][None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    nearest = np.argmin(d2, axis=1)
    dist = np.sqrt(d2[np.arange(len(pix)), nearest])
    match = near[nearest]
    order = np.lexsort((np.arange(len(pix)), dist, match))
    _, starts = np.unique(match[order], return_index=True)  # each vertex's closest pixel
    winners = np.sort(order[starts])
    winners = winners[dist[winners] < tau_d]
    if len(winners) < 3:
        raise FallbackRequired(f"{len(winners)} surviving vertices")
    ring_points = tuple(vertices.points[match[i]][0] for i in winners)
    try:
        ring = Ring(ring_points)
        return merge_collinear_edges(ring, merge_angle)
    except GeometryError as exc:  # degenerate merge or coincident vertex coordinates
        raise FallbackRequired(str(exc)) from exc


def _dp_open(points: list[tuple[float, float]], tolerance: float) -> list[tuple[float, float]]:
    n = len(points)
    if n <= 2:
        return list(points)
    keep = {0, n - 1}
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo <= 1:
            continue
        ax, ay = points[lo]
        bx, by = points[hi]
        best_d = -1.0
        best_i = lo + 1
        for i in range(lo + 1, hi):
            d = point_segment_foot(points[i][0], points[i][1], ax, ay, bx, by)[3]
            if d > best_d:
                best_d = d
                best_i = i
        if best_d > tolerance:
            keep.add(best_i)
            stack.append((lo, best_i))
            stack.append((best_i, hi))
    return [points[i] for i in sorted(keep)]


def _distinct_cycle(points: list) -> list:
    """A closed point cycle without consecutive repeats, the closing edge included."""
    out = [p for i, p in enumerate(points) if i == 0 or p != points[i - 1]]
    while len(out) > 1 and out[-1] == out[0]:
        out.pop()
    return out


def douglas_peucker(chain: BoundaryChain, tolerance: float) -> Ring:
    """Classic recursive-split simplification of a closed chain.

    The chain is split at its first pixel and the pixel farthest from it,
    each half simplified independently. Raises DegenerateRingError when the
    result has fewer than three distinct vertices.
    """
    if tolerance < 0:
        raise PolygonizeError(f"tolerance must be >= 0, got {tolerance}")
    # drop consecutive duplicates produced by out-and-back spurs
    dedup = _distinct_cycle(chain.centers().tolist())
    if len(dedup) < 3:
        raise DegenerateRingError("chain too short to simplify")
    anchor = max(range(len(dedup)), key=lambda i: (dedup[i][0] - dedup[0][0]) ** 2 + (dedup[i][1] - dedup[0][1]) ** 2)
    first = _dp_open(dedup[: anchor + 1], tolerance)
    second = _dp_open(dedup[anchor:] + [dedup[0]], tolerance)
    out = _distinct_cycle(first[:-1] + second[:-1])
    if len(out) < 3:
        raise DegenerateRingError("simplified chain degenerated")
    return Ring(tuple(Point2(x, y) for x, y in out))


def _simplify_chain(chain: BoundaryChain, vertices: VertexSet, cfg: PolygonizeConfig) -> Ring | None:
    try:
        return mav_attract_simplify(chain, vertices, cfg.attract_dist, cfg.merge_angle)
    except FallbackRequired:
        pass
    try:
        return douglas_peucker(chain, cfg.dp_fallback_tolerance)
    except DegenerateRingError:
        return None


def polygonize_pipeline(
    soft_mask: RasterGrid,
    heatmap: RasterGrid,
    offsets: RasterGrid,
    config: PolygonizeConfig | None = None,
) -> InstanceSet:
    """Full mask-to-polygons pipeline.

    Threshold and label components (component_crops), then
    polygonize_components. The instance score is the mean soft-mask value
    over the component's pixels.
    """
    cfg = config or PolygonizeConfig()
    if (soft_mask.height, soft_mask.width) != (heatmap.height, heatmap.width):
        raise PolygonizeError("mask and heatmap shapes differ")
    crops = component_crops(soft_mask, cfg.mask_threshold, cfg.connectivity)
    return polygonize_components(crops, heatmap, offsets, cfg)


def polygonize_components(
    crops: Sequence[tuple[int, int, np.ndarray, float]],
    heatmap: RasterGrid,
    offsets: RasterGrid,
    config: PolygonizeConfig | None = None,
) -> InstanceSet:
    """polygonize_pipeline on components already labelled by component_crops.

    Trace outer/hole chains, snap every chain onto the detected vertices
    (Douglas-Peucker fallback when snapping degenerates), assemble polygons
    scored by the crop's score, and rescale by config.scale. Components
    whose outer ring fails both simplifiers are dropped (warned); failed
    hole rings are dropped silently.
    """
    cfg = config or PolygonizeConfig()
    if not crops:
        return InstanceSet()
    vertices = extract_vertices(heatmap, offsets, cfg.top_k, cfg.vertex_threshold)
    dropped = 0
    scored: list[ScoredPolygon] = []
    for r0, c0, region, score in crops:
        chains = _trace_window(region, r0, c0)
        outer_ring = _simplify_chain(chains[0], vertices, cfg)
        if outer_ring is None:
            dropped += 1
            continue
        holes = []
        for hole_chain in chains[1:]:
            hole_ring = _simplify_chain(hole_chain, vertices, cfg)
            if hole_ring is not None:
                holes.append(hole_ring)
        scored.append(ScoredPolygon(Polygon(outer_ring, tuple(holes)), score))
    if dropped:
        warnings.warn(f"dropped {dropped} components that failed simplification", stacklevel=2)
    return rescale_polygons(InstanceSet(tuple(scored)), cfg.scale)


def rescale_polygons(instances: InstanceSet, s: float) -> InstanceSet:
    """Multiply every coordinate by s (s > 0)."""
    if s <= 0:
        raise PolygonizeError(f"scale must be > 0, got {s}")
    return instances.scaled(s)
