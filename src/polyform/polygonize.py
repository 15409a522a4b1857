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
from dataclasses import dataclass
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

    def __len__(self) -> int:
        return len(self.points)

    def coords(self) -> np.ndarray:
        return np.asarray([[p.x, p.y] for p, _ in self.points], dtype=np.float64).reshape(-1, 2)


def threshold_mask(soft: RasterGrid, tau: float) -> RasterGrid:
    """Binarize a soft mask: 1 iff value is strictly greater than tau."""
    return RasterGrid.from_array((soft.channel() > tau).astype(np.uint8))


def component_crops(
    soft: RasterGrid, tau: float, connectivity: str = EIGHT
) -> list[tuple[int, int, np.ndarray, float]]:
    """The connected components of soft > tau, in label order, as
    (r0, c0, crop, score): the component's bounding-box mask at frame offset
    (r0, c0) and the f64 mean of the soft mask over its pixels."""
    labels, _count = connected_components(threshold_mask(soft, tau), connectivity)
    lab = labels.channel()
    values = soft.channel()
    out = []
    for comp, (rows, cols) in enumerate(ndimage.find_objects(lab.astype(np.int32)), start=1):
        region = lab[rows, cols] == comp
        score = float(values[rows, cols][region].astype(np.float64).mean())
        out.append((rows.start, cols.start, region, score))
    return out


def _structure(connectivity: str) -> np.ndarray:
    if connectivity == EIGHT:
        return np.ones((3, 3), dtype=bool)
    return ndimage.generate_binary_structure(2, 1)


def connected_components(binary: RasterGrid, connectivity: str = EIGHT) -> tuple[RasterGrid, int]:
    """Label foreground components 1..count, background 0.

    Labels are assigned in raster-scan order of each component's first
    pixel, so the result is deterministic for a given mask.
    """
    if connectivity not in (FOUR, EIGHT):
        raise PolygonizeError(f"unknown connectivity {connectivity!r}")
    arr = binary.channel() != 0
    labels, count = ndimage.label(arr, structure=_structure(connectivity))
    if count > 1:
        flat = labels.ravel()
        nonzero = np.flatnonzero(flat)
        first = np.zeros(count + 1, dtype=np.int64)
        first[flat[nonzero[::-1]]] = nonzero[::-1]  # earliest position wins last
        order = np.argsort(first[1:], kind="stable")
        remap = np.zeros(count + 1, dtype=np.uint32)
        remap[order + 1] = np.arange(1, count + 1, dtype=np.uint32)
        labels = remap[labels]
    return RasterGrid.from_array(labels.astype(np.uint32)), int(count)


# clockwise Moore neighborhood starting north
_DIRS = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))
_DIR_INDEX = {d: i for i, d in enumerate(_DIRS)}


def _moore_trace(mask: np.ndarray, start: tuple[int, int], backtrack: tuple[int, int]) -> list[tuple[int, int]]:
    """Follow the boundary cycle through `start`, with `backtrack` the adjacent
    background pixel the walk pivots around first. Returns the closed chain."""
    h, w = mask.shape

    def foreground(r: int, c: int) -> bool:
        return 0 <= r < h and 0 <= c < w and mask[r, c]

    chain: list[tuple[int, int]] = [start]
    seen: dict[tuple[tuple[int, int], tuple[int, int]], int] = {(start, backtrack): 0}
    p, b = start, backtrack
    while True:
        bi = _DIR_INDEX[(b[0] - p[0], b[1] - p[1])]
        nxt = None
        for k in range(1, 9):
            dr, dc = _DIRS[(bi + k) % 8]
            cand = (p[0] + dr, p[1] + dc)
            if foreground(*cand):
                prev = _DIRS[(bi + k - 1) % 8]
                nxt = cand
                new_b = (p[0] + prev[0], p[1] + prev[1])
                break
        if nxt is None:
            return chain  # isolated pixel
        state = (nxt, new_b)
        if state in seen:
            return chain[seen[state]:]
        seen[state] = len(chain)
        chain.append(nxt)
        p, b = nxt, new_b


def _chain_area(pixels: Sequence[tuple[int, int]]) -> float:
    acc = 0.0
    n = len(pixels)
    for i in range(n):
        r1, c1 = pixels[i]
        r2, c2 = pixels[(i + 1) % n]
        acc += c1 * r2 - c2 * r1
    return acc / 2.0


def _oriented(pixels: list[tuple[int, int]], kind: str) -> tuple[tuple[int, int], ...]:
    area = _chain_area(pixels)
    if kind == "outer" and area < 0:
        pixels = pixels[::-1]
    elif kind == "hole" and area > 0:
        pixels = pixels[::-1]
    return tuple(pixels)


def trace_boundary(labels: RasterGrid, component_id: int) -> list[BoundaryChain]:
    """Moore-trace one component: the outer chain first, then one chain per hole.

    Chain pixels belong to the component and are 8-adjacent to background
    (outer) or to the enclosed hole region (hole chains). The outer chain is
    stored CCW (positive shoelace on (x, y) = (col, row)), holes CW.
    """
    r0, c0, window = bounding_crop(labels.channel() == component_id)
    if window.size == 0:
        raise PolygonizeError(f"component {component_id} not found")
    return _trace_window(window, r0, c0)


def _trace_window(window: np.ndarray, r0: int, c0: int) -> list[BoundaryChain]:
    """trace_boundary on one component's bounding-box mask at frame offset (r0, c0)."""
    # one-pixel pad so hole detection can treat the window border as outside
    mask = np.pad(window, 1)

    flat_first = int(np.flatnonzero(mask.ravel())[0])
    start = divmod(flat_first, mask.shape[1])
    outer = _moore_trace(mask, start, (start[0], start[1] - 1))
    chains = [BoundaryChain(_oriented(outer, "outer"), "outer")]

    background, n_bg = ndimage.label(~mask, structure=ndimage.generate_binary_structure(2, 1))
    if n_bg > 1:
        border = set(np.concatenate([
            background[0, :], background[-1, :], background[:, 0], background[:, -1]
        ]).tolist())
        for bg_label in range(1, n_bg + 1):
            if bg_label in border:
                continue
            flat = int(np.flatnonzero((background == bg_label).ravel())[0])
            hr, hc = divmod(flat, mask.shape[1])
            # the pixel above a hole's raster-first pixel is component foreground
            hole = _moore_trace(mask, (hr - 1, hc), (hr, hc))
            chains.append(BoundaryChain(_oriented(hole, "hole"), "hole"))

    offset_r, offset_c = r0 - 1, c0 - 1
    return [
        BoundaryChain(tuple((r + offset_r, c + offset_c) for r, c in ch.pixels), ch.ring_kind)
        for ch in chains
    ]


def _shifted(arr: np.ndarray, dr: int, dc: int, fill: float) -> np.ndarray:
    out = np.full_like(arr, fill)
    h, w = arr.shape
    rs = slice(max(0, dr), min(h, h + dr))
    cs = slice(max(0, dc), min(w, w + dc))
    rs_src = slice(max(0, -dr), min(h, h - dr))
    cs_src = slice(max(0, -dc), min(w, w - dc))
    out[rs, cs] = arr[rs_src, cs_src]
    return out


def extract_vertices(heatmap: RasterGrid, offsets: RasterGrid, top_k: int, tau_v: float) -> VertexSet:
    """3x3 non-maximum suppression, then the top_k survivors scoring above tau_v.

    A pixel survives NMS only if it is strictly greater than every neighbor,
    with ties broken toward the lower raster index. Each survivor becomes
    the sub-pixel point (c + 0.5 + offset_x, r + 0.5 + offset_y).
    """
    if (heatmap.height, heatmap.width) != (offsets.height, offsets.width):
        raise PolygonizeError("heatmap and offsets shapes differ")
    heat = heatmap.channel().astype(np.float64)
    keep = np.ones_like(heat, dtype=bool)
    for dr, dc in _DIRS:
        neighbor = _shifted(heat, -dr, -dc, -np.inf)  # value of the (dr, dc) neighbor
        earlier = dr < 0 or (dr == 0 and dc < 0)
        keep &= (heat > neighbor) if earlier else (heat >= neighbor)
    keep &= heat > tau_v
    rows, cols = np.nonzero(keep)
    if rows.size == 0:
        return VertexSet(())
    scores = heat[rows, cols]
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
    """
    if len(vertices) == 0:
        raise FallbackRequired("no vertices to attract")
    pix = chain.centers()
    vtx = vertices.coords()
    diff = pix[:, None, :] - vtx[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    match = np.argmin(d2, axis=1)
    dist = np.sqrt(d2[np.arange(len(pix)), match])
    order = np.lexsort((np.arange(len(pix)), dist, match))
    winners: list[int] = []
    last_vertex = -1
    for i in order:
        if match[i] != last_vertex:
            winners.append(int(i))
            last_vertex = int(match[i])
    winners = [i for i in sorted(winners) if dist[i] < tau_d]
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


def douglas_peucker(chain: BoundaryChain, tolerance: float) -> Ring:
    """Classic recursive-split simplification of a closed chain.

    The chain is split at its first pixel and the pixel farthest from it,
    each half simplified independently. Raises DegenerateRingError when the
    result has fewer than three distinct vertices.
    """
    if tolerance < 0:
        raise PolygonizeError(f"tolerance must be >= 0, got {tolerance}")
    pts = [(x, y) for x, y in chain.centers()]
    # drop consecutive duplicates produced by out-and-back spurs
    dedup = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
    while len(dedup) > 1 and dedup[-1] == dedup[0]:
        dedup.pop()
    if len(dedup) < 3:
        raise DegenerateRingError("chain too short to simplify")
    anchor = max(range(len(dedup)), key=lambda i: (dedup[i][0] - dedup[0][0]) ** 2 + (dedup[i][1] - dedup[0][1]) ** 2)
    first = _dp_open(dedup[: anchor + 1], tolerance)
    second = _dp_open(dedup[anchor:] + [dedup[0]], tolerance)
    merged = first[:-1] + second[:-1]
    out: list[tuple[float, float]] = []
    for p in merged:
        if not out or p != out[-1]:
            out.append(p)
    while len(out) > 1 and out[-1] == out[0]:
        out.pop()
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
