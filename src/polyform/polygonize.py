"""Mask-and-vertices polygon extraction.

The inference pipeline: threshold the soft mask, split it into connected
components, Moore-trace each component's outer and hole boundaries, snap
the traced pixels onto the detected sub-pixel vertices (keeping, per
vertex, only its closest boundary pixel), merge near-collinear edges, and
rescale. A Douglas-Peucker pass over the raw chain doubles as the baseline
simplifier and as the fallback when vertex snapping degenerates. Tracing
and snapping run once per tile, over every component at once
(polygonize_components); the per-chain functions call the same code.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

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
from .raster import RasterGrid, bounding_crop, offset_coords

FOUR = "four"
EIGHT = "eight"
_FOUR_STRUCTURE = ndimage.generate_binary_structure(2, 1)


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
        return np.asarray(self.pixels, dtype=np.float64).reshape(-1, 2)[:, ::-1] + 0.5


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
    structure = np.ones((3, 3), dtype=bool) if connectivity == EIGHT else _FOUR_STRUCTURE
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
    """trace_boundary on one component's bounding-box mask at frame offset (r0, c0)."""
    chains = _trace_windows([(r0, c0, window)])
    pixels = list(zip(chains.rows.tolist(), chains.cols.tolist()))
    b = chains.bounds.tolist()
    return [BoundaryChain(tuple(pixels[b[k] : b[k + 1]]), "hole" if k else "outer") for k in range(len(b) - 1)]


class _Chains(NamedTuple):
    """The closed boundary chains of several components as flat arrays: chain
    k is pixels bounds[k]:bounds[k + 1] of (rows, cols), in frame
    coordinates, and component i has chains firsts[i]:firsts[i + 1], its
    outer chain first, then its holes in raster order of their first pixels."""

    rows: np.ndarray
    cols: np.ndarray
    bounds: np.ndarray
    firsts: list[int]


def _shelf_pack(shapes: list[tuple[int, int]]) -> tuple[list[int], list[int], int, int]:
    """Top-left corners (ys, xs) of (h, w) rectangles packed on shelves,
    tallest first, and the packing's (height, width). The rectangles of a
    shelf share its top row, and its first rectangle is its tallest."""
    width = max(max(w for _h, w in shapes), math.isqrt(sum(h * w for h, w in shapes)))
    ys, xs = [0] * len(shapes), [0] * len(shapes)
    y = x = shelf = 0
    for i in sorted(range(len(shapes)), key=lambda i: -shapes[i][0]):
        h, w = shapes[i]
        if x + w > width:
            y, x, shelf = y + shelf, 0, 0
        ys[i], xs[i] = y, x
        x, shelf = x + w, max(shelf, h)
    return ys, xs, y + shelf, width


def _trace_windows(windows: Sequence[tuple[int, int, np.ndarray]]) -> _Chains:
    """trace_boundary on every component of a tile at once.

    windows holds (r0, c0, mask) per component: its boolean mask on its
    bounding box at frame offset (r0, c0). Every mask, padded by one
    background pixel, is copied into one atlas (_shelf_pack), so one
    neighbour-code pass and one background labelling serve the whole tile,
    and the work scales with the components' boxes, not with the frame.
    Each window's pad keeps its pixels' neighbours inside it, so a pixel's
    8-bit code (bit d set when neighbour d is foreground) is the one a
    per-window trace computes. Another component's pixels inside a box (a
    building in a courtyard, a diagonal neighbour under four connectivity)
    are background in that box's mask, so they belong to its holes as in a
    per-window trace.

    The pads and the gaps between windows are one 4-connected exterior
    through atlas pixel (0, 0): the windows of a shelf touch along its top
    row, each shelf's first window is its tallest and touches the next
    shelf's first at column 0, and every gap borders some window's pad. So
    ndimage.label numbers the exterior 1, and every other background region
    is a hole of the window around it, numbered in raster order of its
    first pixel, which is also the order within that window. A hole walk
    starts at the pixel above that first pixel, a component pixel.
    """
    shapes = [(mask.shape[0] + 2, mask.shape[1] + 2) for _r0, _c0, mask in windows]
    ys, xs, height, width = _shelf_pack(shapes)
    atlas = np.zeros((height, width), dtype=bool)
    owner = np.empty((height, width), dtype=np.int32)  # window index; read only inside windows
    walks: list[list[tuple[int, int]]] = []
    for i, ((_r0, _c0, mask), y, x) in enumerate(zip(windows, ys, xs)):
        h, w = mask.shape
        atlas[y + 1 : y + h + 1, x + 1 : x + w + 1] = mask
        owner[y : y + h + 2, x : x + w + 2] = i
        first = int(np.argmax(mask))  # the raster-first component pixel
        if not mask.flat[first]:
            raise PolygonizeError("empty component mask")
        walks.append([((y + 1 + first // w) * width + x + 1 + first % w, _WEST)])
    codes = np.zeros((height, width), dtype=np.uint8)
    inner = codes[1:-1, 1:-1]
    for d, (dr, dc) in enumerate(_DIRS):
        inner |= atlas[1 + dr : height - 1 + dr, 1 + dc : width - 1 + dc].astype(np.uint8) << d
    background, count = ndimage.label(~atlas, structure=_FOUR_STRUCTURE)
    if count > 1:
        flat = background.ravel()
        at = np.flatnonzero(flat > 1)
        _, first_at = np.unique(flat[at], return_index=True)
        starts = at[first_at]  # each hole's raster-first pixel, in label order
        for i, start in zip(owner.ravel()[starts].tolist(), starts.tolist()):
            walks[i].append((start - width, _SOUTH))
    code_bytes = codes.tobytes()
    steps = [dr * width + dc for dr, dc in _DIRS]
    pixels: list[int] = []
    bounds, firsts, counts = [0], [0], []
    for window_walks in walks:
        begin = len(pixels)
        for start, back in window_walks:
            pixels += _moore_trace(code_bytes, steps, start, back)
            bounds.append(len(pixels))
        firsts.append(len(bounds) - 1)
        counts.append(len(pixels) - begin)
    flat_rows, flat_cols = np.divmod(np.array(pixels, dtype=np.int64), width)
    rows = flat_rows + np.repeat([r0 - y - 1 for (r0, _c0, _m), y in zip(windows, ys)], counts)
    cols = flat_cols + np.repeat([c0 - x - 1 for (_r0, c0, _m), x in zip(windows, xs)], counts)
    return _Chains(rows, cols, np.array(bounds, dtype=np.int64), firsts)


def _vertex_arrays(
    heatmap: RasterGrid, offsets: RasterGrid, top_k: int, tau_v: float
) -> tuple[np.ndarray, np.ndarray]:
    """extract_vertices as arrays: the (x, y) coordinates, shape (n, 2), and
    the f64 scores of the vertices, strongest first."""
    if (heatmap.height, heatmap.width) != (offsets.height, offsets.width):
        raise PolygonizeError("heatmap and offsets shapes differ")
    # f32 (f64 for wider inputs) holds every heatmap value exactly, so the
    # neighbour comparisons match f64 ones; tau_v is compared at f64
    channel = heatmap.channel()
    values = np.ascontiguousarray(channel, dtype=np.result_type(channel, np.float32))
    padded = np.pad(values, 1, constant_values=-np.inf)
    heat = padded[1:-1, 1:-1]
    h, w = heat.shape
    keep = np.greater(heat, np.float64(tau_v))
    for dr, dc in _DIRS:
        neighbor = padded[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]  # value of the (dr, dc) neighbor
        earlier = dr < 0 or (dr == 0 and dc < 0)
        keep &= (heat > neighbor) if earlier else (heat >= neighbor)
    flat = np.flatnonzero(keep)
    scores = values.ravel()[flat].astype(np.float64)
    if 0 < top_k < len(flat):
        # the top_k strongest all score at least the top_k-th largest score
        contenders = np.flatnonzero(scores >= np.partition(scores, -top_k)[-top_k])
        flat, scores = flat[contenders], scores[contenders]
    order = np.lexsort((flat, -scores))[:top_k]
    rows, cols = np.divmod(flat[order], w)
    coords = offset_coords(rows, cols, offsets.data)
    finite = np.isfinite(coords).all(axis=1)
    if not finite.all():
        Point2(*coords[np.argmin(finite)].tolist())  # raises the GeometryError every Point2 would
    return coords, scores[order]


def extract_vertices(heatmap: RasterGrid, offsets: RasterGrid, top_k: int, tau_v: float) -> VertexSet:
    """3x3 non-maximum suppression, then the top_k survivors scoring above tau_v.

    A pixel survives NMS only if it is strictly greater than every neighbor,
    with ties broken toward the lower raster index. Each survivor becomes
    the sub-pixel point (c + 0.5 + offset_x, r + 0.5 + offset_y).
    """
    coords, scores = _vertex_arrays(heatmap, offsets, top_k, tau_v)
    return VertexSet(tuple((Point2(x, y), s) for (x, y), s in zip(coords.tolist(), scores.tolist())))


_NONE = np.zeros(0, dtype=np.int64)
_NONE.flags.writeable = False
# the 3 x 3 block of cells around a cell, as (row, col) steps
_BLOCK_ROWS = np.repeat(np.arange(-1, 2), 3)
_BLOCK_COLS = np.tile(np.arange(-1, 2), 3)
# Up to this many (pixel, near vertex) pairs, compare them all; above it, use
# the cells. Timed on both paths with the chains of 12 benchmark tiles (Xeon,
# numpy 2.4): all-pairs was faster in 110 of 111 calls below 4096 pairs, the
# cells in 18 of 26 from 4096 to 8192, and the summed time is flat (within
# 0.1%) for any limit from 3600 to 6000. Single chains fall below it (at most
# 2509 pairs) and whole tiles above it (at least 5598) on every workload.
_ALL_PAIRS = 4096


def _nearest_vertices(pix: np.ndarray, vtx: np.ndarray, tau_d: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each pixel's nearest vertex, the lower vertex index on ties, where it
    lies closer than tau_d: (pixel, vertex, distance) arrays in pixel order.

    A pixel is compared only with candidate vertices: those in the pixels'
    box widened by tau_d + 2 and, when that makes more than _ALL_PAIRS
    pairs, of these only the ones in the 3 x 3 block of square cells (side
    tau_d + 2) around the pixel's cell. Either way a pixel's candidates hold
    every vertex within tau_d + 1 of its centre, a margin no rounding comes
    near, so a pixel whose nearest vertex lies closer than tau_d finds it,
    and every vertex tying with it: the two paths give the same result, and
    _ALL_PAIRS only picks the faster. Squared distances are the einsum of
    the (pixel - vertex) differences.
    """
    side = tau_d + 2.0
    origin = pix.min(axis=0)
    # the vertices of the pixels' box widened by side, in cells -2 .. top + 2
    near = np.flatnonzero(((vtx >= origin - side) & (vtx <= pix.max(axis=0) + side)).all(axis=1))
    if len(near) == 0:
        return _NONE, _NONE, _NONE
    if len(pix) * len(near) <= _ALL_PAIRS:  # few pairs: compare them all, cheaper than the cells
        diff = pix[:, None, :] - vtx[near][None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        pixel = np.arange(len(pix))
        nearest = d2.argmin(axis=1)  # the first minimum, near being in index order
        best, match = d2[pixel, nearest], near[nearest]
    else:
        pcell = np.floor((pix - origin) / side).astype(np.int64)
        vcell = np.floor((vtx[near] - origin) / side).astype(np.int64)
        top = pcell.max(axis=0)
        key_w = int(top[0]) + 5
        vkey = (vcell[:, 1] + 2) * key_w + vcell[:, 0] + 2
        near = near[np.argsort(vkey, kind="stable")]
        run_of = np.bincount(vkey, minlength=key_w * (int(top[1]) + 5))
        start_of = np.cumsum(run_of) - run_of
        query = (((pcell[:, 1] + 2) * key_w + pcell[:, 0] + 2)[:, None] + (_BLOCK_ROWS * key_w + _BLOCK_COLS)).ravel()
        lo, run = start_of[query], run_of[query]
        pair_v = near[np.arange(int(run.sum())) + np.repeat(lo - (np.cumsum(run) - run), run)]
        per_pixel = run.reshape(-1, 9).sum(axis=1)
        pixel = np.flatnonzero(per_pixel)
        if len(pixel) == 0:
            return _NONE, _NONE, _NONE
        diff = pix[np.repeat(np.arange(len(pix)), per_pixel)] - vtx[pair_v]
        d2 = np.einsum("ij,ij->i", diff, diff)
        seg = np.cumsum(per_pixel[pixel]) - per_pixel[pixel]
        best = np.minimum.reduceat(d2, seg)
        tied = d2 == np.repeat(best, per_pixel[pixel])
        match = np.minimum.reduceat(np.where(tied, pair_v, len(vtx)), seg)
    dist = np.sqrt(best)
    close = dist < tau_d
    return pixel[close], match[close], dist[close]


def _snap_winners(
    pix: np.ndarray, bounds: np.ndarray | Sequence[int], vtx: np.ndarray, tau_d: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vertex attraction for every chain at once: (chain, vertex) of each
    surviving pixel, ordered by chain, then chain order.

    pix holds the (x, y) pixel centres of the chains, split at bounds as in
    _Chains, and vtx the finite vertex (x, y) coordinates. Every pixel is
    matched to its nearest vertex (ties to the lower vertex index); per
    (chain, vertex) only the closest pixel survives (first in chain order on
    exact ties); survivors at tau_d or farther from their vertex are dropped.

    Each pixel is compared only with the vertices near it
    (_nearest_vertices), and this gives the winners the all-vertex
    comparison gives. A pixel with no vertex closer than tau_d is dropped
    before the per-vertex step: it can never survive the tau_d cut, and it
    cannot displace a survivor, because a survivor lies closer than tau_d to
    its vertex and the pixel does not.
    """
    if not tau_d > 0 or len(pix) == 0:
        return _NONE, _NONE
    pixel, match, dist = _nearest_vertices(pix, vtx, tau_d)
    if len(pixel) == 0:
        return _NONE, _NONE
    chain = np.searchsorted(bounds, pixel, "right") - 1
    key = chain * len(vtx) + match
    order = np.lexsort((pixel, dist, key))
    lead = np.ones(len(order), dtype=bool)
    lead[1:] = key[order[1:]] != key[order[:-1]]
    winners = np.sort(order[lead])  # each (chain, vertex)'s closest pixel
    return chain[winners], match[winners]


def _snapped_ring(vtx: np.ndarray, vertex_ids: np.ndarray, merge_angle: float) -> Ring:
    """The ring through the given vertices with near-collinear joints merged;
    FallbackRequired when it degenerates."""
    try:
        ring = Ring(tuple(Point2(x, y) for x, y in vtx[vertex_ids].tolist()))
        return merge_collinear_edges(ring, merge_angle)
    except GeometryError as exc:  # degenerate merge or coincident vertex coordinates
        raise FallbackRequired(str(exc)) from exc


def mav_attract_simplify(
    chain: BoundaryChain, vertices: VertexSet, tau_d: float, merge_angle: float
) -> Ring:
    """Snap a traced boundary chain onto detected vertices.

    Every chain pixel is matched to its nearest vertex (ties to the lower
    vertex index); per matched vertex only the closest pixel survives
    (first in chain order on exact ties); survivors at tau_d or farther from
    their vertex are dropped; the rest are replaced by their vertex
    coordinates in chain order and near-collinear joints are merged. Raises
    FallbackRequired when fewer than three vertices remain.

    This is _snap_winners on one chain, the pass polygonize_components
    makes over a whole tile. Each pixel is compared only with the vertices
    near it, which gives the all-vertex result: a pixel with no vertex
    closer than tau_d can neither survive the cut nor displace a survivor,
    which lies closer than tau_d to its vertex.
    """
    _, winners = _snap_winners(chain.centers(), (0, len(chain)), vertices.coords(), tau_d)
    if len(winners) == 0:
        raise FallbackRequired("no vertices within tau_d of the chain")
    if len(winners) < 3:
        raise FallbackRequired(f"{len(winners)} surviving vertices")
    return _snapped_ring(vertices.coords(), winners, merge_angle)


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


def _dp_ring(points: list, tolerance: float) -> Ring:
    """douglas_peucker on a closed chain's (x, y) pixel centres, a list of pairs."""
    # drop consecutive duplicates produced by out-and-back spurs
    dedup = _distinct_cycle(points)
    if len(dedup) < 3:
        raise DegenerateRingError("chain too short to simplify")
    anchor = max(range(len(dedup)), key=lambda i: (dedup[i][0] - dedup[0][0]) ** 2 + (dedup[i][1] - dedup[0][1]) ** 2)
    first = _dp_open(dedup[: anchor + 1], tolerance)
    second = _dp_open(dedup[anchor:] + [dedup[0]], tolerance)
    out = _distinct_cycle(first[:-1] + second[:-1])
    if len(out) < 3:
        raise DegenerateRingError("simplified chain degenerated")
    return Ring(tuple(Point2(x, y) for x, y in out))


def douglas_peucker(chain: BoundaryChain, tolerance: float) -> Ring:
    """Classic recursive-split simplification of a closed chain.

    The chain is split at its first pixel and the pixel farthest from it,
    each half simplified independently. Raises DegenerateRingError when the
    result has fewer than three distinct vertices.
    """
    if tolerance < 0:
        raise PolygonizeError(f"tolerance must be >= 0, got {tolerance}")
    return _dp_ring([(c + 0.5, r + 0.5) for r, c in chain.pixels], tolerance)


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

    One pass per tile: _trace_windows traces the outer and hole chains of
    every component at once, and _snap_winners snaps every chain onto the
    detected vertices in one vectorised pass over (chain pixel, nearby
    vertex) pairs. A chain whose snapping keeps fewer than three vertices or
    degenerates falls back to Douglas-Peucker on its pixel centres. Points
    and rings are built only for the rings emitted. Polygons are scored by
    the crop's score and rescaled by config.scale. Components whose outer
    ring fails both simplifiers are dropped (warned); failed hole rings are
    dropped silently. Each chain's ring is the one mav_attract_simplify,
    else douglas_peucker, gives for that chain alone.
    """
    cfg = config or PolygonizeConfig()
    if not crops:
        return InstanceSet()
    vtx, _scores = _vertex_arrays(heatmap, offsets, cfg.top_k, cfg.vertex_threshold)
    chains = _trace_windows([(r0, c0, region) for r0, c0, region, _score in crops])
    bounds = chains.bounds.tolist()
    pix = np.stack([chains.cols + 0.5, chains.rows + 0.5], axis=1)
    winner_chain, winner_vertex = _snap_winners(pix, chains.bounds, vtx, cfg.attract_dist)
    cuts = np.searchsorted(winner_chain, np.arange(len(bounds))).tolist()

    def ring(k: int) -> Ring | None:
        if cuts[k + 1] - cuts[k] >= 3:
            try:
                return _snapped_ring(vtx, winner_vertex[cuts[k] : cuts[k + 1]], cfg.merge_angle)
            except FallbackRequired:
                pass
        try:
            return _dp_ring(pix[bounds[k] : bounds[k + 1]].tolist(), cfg.dp_fallback_tolerance)
        except DegenerateRingError:
            return None

    dropped = 0
    scored: list[ScoredPolygon] = []
    for (_r0, _c0, _region, score), first, end in zip(crops, chains.firsts, chains.firsts[1:]):
        outer = ring(first)
        if outer is None:
            dropped += 1
            continue
        holes = tuple(hole for hole in map(ring, range(first + 1, end)) if hole is not None)
        scored.append(ScoredPolygon(Polygon(outer, holes), score))
    if dropped:
        warnings.warn(f"dropped {dropped} components that failed simplification", stacklevel=2)
    return rescale_polygons(InstanceSet(tuple(scored)), cfg.scale)


def rescale_polygons(instances: InstanceSet, s: float) -> InstanceSet:
    """Multiply every coordinate by s (s > 0)."""
    if s <= 0:
        raise PolygonizeError(f"scale must be > 0, got {s}")
    return instances.scaled(s)
