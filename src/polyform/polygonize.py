"""Mask-and-vertices polygon extraction.

The inference pipeline: threshold the soft mask, split it into connected
components, Moore-trace each component's outer and hole boundaries, snap
the traced pixels onto the detected sub-pixel vertices (keeping, per
vertex, only its closest boundary pixel), merge near-collinear edges, and
rescale. A Douglas-Peucker pass over the raw chain doubles as the baseline
simplifier and as the fallback when vertex snapping degenerates. Tracing,
snapping and the fallback each run once per tile, over every component at
once (polygonize_components); the per-chain functions call the same code.
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
    expand_ranges,
    merge_collinear_edges,
    merged_collinear,
    near_pairs,
    project_points_to_segments,
    ring_faults,
    ring_of,
    ring_successors,
)
from .raster import RasterGrid, _check_numbers, _shown, bounding_crop, content_rows, offset_coords, shelf_pack

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
        _check_numbers(
            self, PolygonizeError, ("top_k",),
            ("mask_threshold", "vertex_threshold", "attract_dist", "merge_angle", "scale", "dp_fallback_tolerance"),
        )
        if not 0.0 < self.mask_threshold < 1.0:
            raise PolygonizeError(f"mask_threshold {self.mask_threshold} outside (0, 1)")
        if not 0.0 < self.vertex_threshold < 1.0:
            raise PolygonizeError(f"vertex_threshold {self.vertex_threshold} outside (0, 1)")
        if self.top_k < 1:
            raise PolygonizeError(f"top_k must be >= 1, got {_shown(self.top_k)}")
        if not 0 < self.attract_dist < math.inf:
            raise PolygonizeError(f"attract_dist must be finite and > 0, got {self.attract_dist}")
        if self.connectivity not in (FOUR, EIGHT):
            raise PolygonizeError(f"unknown connectivity {self.connectivity!r}")
        if not (0 <= self.merge_angle < math.inf and 0 <= self.dp_fallback_tolerance < math.inf):
            raise PolygonizeError("merge_angle and dp_fallback_tolerance must be finite and >= 0")
        if not 0 < self.scale < math.inf:
            raise PolygonizeError(f"scale must be finite and > 0, got {self.scale}")


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
    (r0, c0) and the f64 mean of the soft mask over its pixels. A component
    whose mean is not finite (it holds +inf) raises PolygonizeError."""
    values = soft.channel()
    lab, rows, boxes = _label_boxes(values > tau, connectivity)
    out = []
    for comp, (lab_rows, cols) in enumerate(boxes, start=1):
        region = lab[lab_rows, cols] == comp
        r0 = lab_rows.start if rows is None else int(rows[lab_rows.start])
        score = float(values[r0 : r0 + region.shape[0], cols][region].astype(np.float64).mean())
        if not math.isfinite(score):
            raise PolygonizeError(f"component {comp} at row {r0}, col {cols.start}: soft-mask mean {score} is not finite")
        out.append((r0, cols.start, region, score))
    return out


def connected_components(binary: RasterGrid, connectivity: str = EIGHT) -> tuple[RasterGrid, int]:
    """Label foreground components 1..count, background 0.

    Labels are assigned in raster-scan order of each component's first
    pixel, so the result is deterministic for a given mask.
    """
    mask = binary.channel() != 0
    labels, rows, boxes = _label_boxes(mask, connectivity)
    if rows is not None:
        frame = np.zeros(mask.shape, dtype=np.uint32)
        frame[rows] = labels
        labels = frame
    return RasterGrid.from_array(labels), len(boxes)


def _label_boxes(
    mask: np.ndarray, connectivity: str
) -> tuple[np.ndarray, np.ndarray | None, list[tuple[slice, slice]]]:
    """connected_components of a boolean frame on its content rows
    (raster.content_rows with reach 1) only: the u32 labels of mask[rows],
    rows (None when every row is kept, the labels then covering the frame),
    and each label's bounding box in the labels' rows (ndimage.find_objects,
    label order). Frame row rows[i] is labels row i.

    Each removed run of rows leaves a kept empty row on each side (or lies
    past the frame's edge), so no two set pixels become neighbours that
    were not, and none stop being: the components and the raster order of
    their pixels are the frame's, under either connectivity. A component's
    rows are consecutive content rows, so its box is a box in the frame too,
    starting at frame row rows[box start].

    A component's first pixel is its box's first row at the first column of
    that row holding the label. ndimage.label already numbers components in
    raster order of their first pixels in practice; the labels are renumbered
    (and the boxes reordered) only when the boxes show it did not.
    """
    if connectivity not in (FOUR, EIGHT):
        raise PolygonizeError(f"unknown connectivity {connectivity!r}")
    rows = content_rows(mask, 1)
    if rows is not None:
        mask = mask[rows]
    if not mask.size:  # no component; ndimage.label rejects an empty array
        return np.zeros(mask.shape, dtype=np.uint32), rows, []
    structure = np.ones((3, 3), dtype=bool) if connectivity == EIGHT else _FOUR_STRUCTURE
    labels, count = ndimage.label(mask, structure=structure, output=np.uint32)
    boxes = ndimage.find_objects(labels)
    first = [
        (box_rows.start, cols.start + int(np.argmax(labels[box_rows.start, cols] == comp)))
        for comp, (box_rows, cols) in enumerate(boxes, start=1)
    ]
    if any(a > b for a, b in zip(first, first[1:])):
        order = sorted(range(count), key=first.__getitem__)
        remap = np.zeros(count + 1, dtype=np.uint32)
        remap[np.array(order) + 1] = np.arange(1, count + 1, dtype=np.uint32)
        labels = remap[labels]
        boxes = [boxes[i] for i in order]
    return labels, rows, boxes


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
    if window.size == 0 or component_id == 0:  # 0 labels the background
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


def _trace_windows(windows: Sequence[tuple[int, int, np.ndarray]]) -> _Chains:
    """trace_boundary on every component of a tile at once.

    windows holds (r0, c0, mask) per component: its boolean mask on its
    bounding box at frame offset (r0, c0). Every mask, padded by one
    background pixel, is copied into one atlas (raster.shelf_pack), so one
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
    ys, xs, height, width = shelf_pack(shapes)
    atlas = np.zeros((height, width), dtype=bool)
    owner = np.empty((height, width), dtype=np.int32)  # window index; read only inside windows
    walks: list[list[tuple[int, int]]] = []
    for i, ((_r0, _c0, mask), y, x) in enumerate(zip(windows, ys, xs)):
        h, w = mask.shape
        atlas[y + 1 : y + h + 1, x + 1 : x + w + 1] = mask
        owner[y : y + h + 2, x : x + w + 2] = i
        first = int(np.argmax(mask))  # the raster-first component pixel
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
    the f64 scores of the vertices, strongest first.

    The NMS runs on the rows within one row of a pixel above tau_v
    (raster.content_rows): only such a pixel can survive, and its 3 x 3
    neighbourhood is the same in those rows as in the frame. Survivors are
    mapped back to frame indices, which keeps their order, before the top_k
    order breaks ties toward the lower frame index."""
    if (heatmap.height, heatmap.width) != (offsets.height, offsets.width):
        raise PolygonizeError("heatmap and offsets shapes differ")
    # f32 (f64 for wider inputs) holds every heatmap value exactly, so the
    # neighbour comparisons match f64 ones. A value of that type lies above
    # tau_v exactly when it lies above the type's largest value at or below
    # tau_v, so the threshold is compared in the values' own type
    channel = heatmap.channel()
    values = np.ascontiguousarray(channel, dtype=np.result_type(channel, np.float32))
    floor = values.dtype.type(tau_v)
    if float(floor) > tau_v:
        floor = np.nextafter(floor, values.dtype.type(-np.inf))
    keep = np.greater(values, floor)
    kept = content_rows(keep, 1)
    heat = values
    if kept is not None:
        heat, keep = values[kept], keep[kept]
    padded = np.pad(heat, 1, constant_values=-np.inf)
    h, w = heat.shape
    for dr, dc in _DIRS:
        neighbor = padded[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]  # value of the (dr, dc) neighbor
        earlier = dr < 0 or (dr == 0 and dc < 0)
        keep &= (heat > neighbor) if earlier else (heat >= neighbor)
    flat = np.flatnonzero(keep)
    if kept is not None:
        at, col = np.divmod(flat, w)
        flat = kept[at] * w + col
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
    the sub-pixel point (c + 0.5 + offset_x, r + 0.5 + offset_y). top_k and
    tau_v follow PolygonizeConfig's top_k and vertex_threshold rules.
    """
    PolygonizeConfig(top_k=top_k, vertex_threshold=tau_v)  # raises PolygonizeError naming the field
    coords, scores = _vertex_arrays(heatmap, offsets, top_k, tau_v)
    return VertexSet(tuple((Point2(x, y), s) for (x, y), s in zip(coords.tolist(), scores.tolist())))


_NONE = np.zeros(0, dtype=np.int64)
_NONE.flags.writeable = False


def _nearest_vertices(pix: np.ndarray, vtx: np.ndarray, tau_d: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each pixel's nearest vertex, the lower vertex index on ties, where it
    lies closer than tau_d: (pixel, vertex, distance) arrays in pixel order.

    A pixel is compared only with the vertices of geometry.near_pairs(pix,
    vtx, tau_d + 1): they hold every vertex closer than tau_d, so a pixel
    whose nearest vertex lies closer than tau_d finds it and every vertex
    tying with it, and any other pixel is cut. Squared distances are the
    einsum of the (pixel - vertex) differences.
    """
    pixel, vertex = near_pairs(pix, vtx, tau_d + 1.0)
    diff = pix[pixel] - vtx[vertex]
    d2 = np.einsum("ij,ij->i", diff, diff)
    seg = np.flatnonzero(np.diff(pixel, prepend=-1))  # each pixel's first pair
    best = np.minimum.reduceat(d2, seg)
    tied = d2 == np.repeat(best, np.diff(seg, append=len(d2)))
    match = np.minimum.reduceat(np.where(tied, vertex, len(vtx)), seg)
    dist = np.sqrt(best)
    close = dist < tau_d
    return pixel[seg][close], match[close], dist[close]


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
    if not tau_d > 0:
        return _NONE, _NONE
    pixel, match, dist = _nearest_vertices(pix, vtx, tau_d)
    chain = np.searchsorted(bounds, pixel, "right") - 1
    key = chain * len(vtx) + match
    order = np.lexsort((pixel, dist, key))
    lead = np.ones(len(order), dtype=bool)
    lead[1:] = key[order[1:]] != key[order[:-1]]
    winners = np.sort(order[lead])  # each (chain, vertex)'s closest pixel
    return chain[winners], match[winners]


# a turn this far above merge_angle, by numpy's arctan2, is above it by
# math.atan2 too: the two differ by a few ulps of at most 180 degrees
_TURN_MARGIN = 1e-6


def _snapped_rings(
    vtx: np.ndarray, vertex_ids: np.ndarray, cuts: Sequence[int], merge_angle: float
) -> list[Ring | None]:
    """The snapped ring of each chain k, through the vertices
    vtx[vertex_ids[cuts[k]:cuts[k + 1]]] with near-collinear joints merged
    (geometry.merge_collinear_edges), or None where the chain falls back:
    fewer than three vertices, two consecutive ones at equal coordinates,
    or a merge that degenerates.

    Every chain's turns are measured in one pass. A ring whose every turn
    exceeds merge_angle by _TURN_MARGIN keeps all its vertices, as
    merge_collinear_edges keeps them; only the others are merged one by
    one."""
    rings: list[Ring | None] = [None] * (len(cuts) - 1)
    bounds = np.asarray(cuts, dtype=np.int64)
    xy = vtx[vertex_ids]
    xy.flags.writeable = False
    succ = ring_successors(bounds)
    prev = np.empty_like(succ)
    prev[succ] = np.arange(len(succ))
    u, v = xy - xy[prev], xy[succ] - xy
    cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    dot = u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1]
    near = np.degrees(np.arctan2(np.abs(cross), dot)) <= merge_angle + _TURN_MARGIN
    starts = bounds[:-1]
    run = np.flatnonzero(np.diff(bounds) > 0)
    merging = np.zeros(len(rings), dtype=bool)
    merging[run] = np.logical_or.reduceat(near, starts[run])
    merging, fault = merging.tolist(), ring_faults(xy, bounds).tolist()
    for k, (a, b) in enumerate(zip(starts.tolist(), bounds[1:].tolist())):
        if fault[k]:
            continue
        if not merging[k]:
            rings[k] = ring_of(xy[a:b])
            continue
        try:
            merged = merged_collinear(xy[a:b], merge_angle)
        except DegenerateRingError:
            continue
        if not ring_faults(merged, np.array([0, len(merged)]))[0]:
            merged.flags.writeable = False
            rings[k] = ring_of(merged)
    return rings


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
    vtx = vertices.coords()
    ring = _snapped_rings(vtx, winners, (0, len(winners)), merge_angle)[0] if 0 <= merge_angle < math.inf else None
    if ring is None:  # merge_collinear_edges says why: coincident vertices, a degenerate merge or a bad angle
        try:
            return merge_collinear_edges(Ring(vtx[winners]), merge_angle)
        except GeometryError as exc:
            raise FallbackRequired(str(exc)) from exc
    return ring


def _first_max(values: np.ndarray, group: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The maximum of each group of values and the lowest index holding it;
    value i is in group[i], and each group is a non-empty run of values
    beginning at starts[group]."""
    best = np.maximum.reduceat(values, starts)
    tied = values == best[group]
    return best, np.minimum.reduceat(np.where(tied, np.arange(len(values)), len(values)), starts)


def _dp_rings(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray, tolerance: float) -> list[Ring | None]:
    """douglas_peucker on every closed chain pts[lo[k]:hi[k]] of (x, y)
    points at once: each chain's ring, or None where it degenerates.

    Consecutive repeats go (a point equal to the one before it, then a last
    point equal to the first), and a chain left with fewer than three points
    is degenerate. Each chain, closed by appending its first point, splits
    at its anchor, the first point of greatest squared distance from point
    0. Level by level, one project_points_to_segments call covers the
    interior points of every open interval, and an interval splits at its
    first point of greatest distance (math.hypot of point minus foot) from
    its chord while that exceeds the tolerance. The kept points are the ring
    when at least three remain.

    No chord has zero length: the anchor differs from point 0, the closing
    point, and a split point lies more than the tolerance (>= 0) from its
    chord, so it is neither chord end. Consecutive kept points are the ends
    of one chord, so the ring has no repeats.
    """
    if len(lo) == 0:  # a tile without fallback chains skips the array steps
        return []
    rings: list[Ring | None] = [None] * len(lo)
    chain, at = expand_ranges(np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64) - 1)
    xy = pts[at]
    step = np.ones(len(chain), dtype=bool)
    step[1:] = (chain[1:] != chain[:-1]) | (xy[1:] != xy[:-1]).any(axis=1)
    chain, xy = chain[step], xy[step]
    count = np.bincount(chain, minlength=len(lo))
    first, count = (np.cumsum(count) - count)[count > 0], count[count > 0]
    closing = (count > 1) & (xy[first + count - 1] == xy[first]).all(axis=1)
    step = np.repeat(count - closing >= 3, count)  # the chains left with >= 3 points
    step[(first + count - 1)[closing]] = False
    chain, xy = chain[step], xy[step]
    count = np.bincount(chain, minlength=len(lo))
    first, count = (np.cumsum(count) - count)[count > 0], count[count > 0]
    ends, group = first + count, np.repeat(np.arange(len(first)), count)
    anchor = _first_max(((xy - xy[first][group]) ** 2).sum(axis=1), group, first)[1]
    # the closed layout: each chain's points, then its first point again
    xy = np.insert(xy, ends, xy[first], axis=0)
    x, y = xy[:, 0], xy[:, 1]
    start, anchor, close = first + np.arange(len(first)), anchor + group[anchor], ends + np.arange(len(first))
    keep = np.zeros(len(xy), dtype=bool)
    keep[start] = keep[anchor] = True
    lo, hi = np.concatenate([start, anchor]), np.concatenate([anchor, close])
    while True:
        wide = hi - lo > 1
        lo, hi = lo[wide], hi[wide]
        if len(lo) == 0:
            break
        span, at = expand_ranges(lo + 1, hi - 1)
        a, b = lo[span], hi[span]
        fx, fy, _ = project_points_to_segments(x[at], y[at], x[a], y[a], x[b], y[b])
        dist = np.fromiter(map(math.hypot, (x[at] - fx).tolist(), (y[at] - fy).tolist()), np.float64, len(at))
        best, split = _first_max(dist, span, np.cumsum(hi - lo - 1) - (hi - lo - 1))
        far = best > tolerance
        split = at[split[far]]
        keep[split] = True
        lo, hi = np.concatenate([lo[far], split]), np.concatenate([split, hi[far]])
    bounds = np.cumsum(np.add.reduceat(keep, start, dtype=np.int64)).tolist()
    points = xy[keep]
    points.flags.writeable = False
    for k, a, b in zip(chain[first].tolist(), [0] + bounds, bounds):
        if b - a >= 3:
            rings[k] = ring_of(points[a:b])
    return rings


def douglas_peucker(chain: BoundaryChain, tolerance: float) -> Ring:
    """Classic recursive-split simplification of a closed chain's pixel
    centres, split first at its first pixel and the pixel farthest from it:
    _dp_rings, which polygonize_components calls once per tile, on one
    chain. Raises DegenerateRingError when fewer than three vertices remain.
    """
    if not 0 <= tolerance < math.inf:
        raise PolygonizeError(f"tolerance must be finite and >= 0, got {tolerance}")
    ring = _dp_rings(chain.centers(), [0], [len(chain)], tolerance)[0]
    if ring is None:
        raise DegenerateRingError("chain degenerates under simplification")
    return ring


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
    vertex) pairs. The chains whose snapping keeps fewer than three vertices
    or degenerates fall back to Douglas-Peucker on their pixel centres, all
    in one _dp_rings call. Every ring is a view of a coordinate array.
    Polygons are scored by the crop's score and rescaled by config.scale
    (Polygon orients each ring at both scales). Components whose outer
    ring fails both simplifiers are dropped (warned); failed hole rings are
    dropped silently. Each chain's ring is the one mav_attract_simplify,
    else douglas_peucker, gives for that chain alone.
    """
    cfg = config or PolygonizeConfig()
    if not crops:
        return InstanceSet()
    vtx, _scores = _vertex_arrays(heatmap, offsets, cfg.top_k, cfg.vertex_threshold)
    chains = _trace_windows([(r0, c0, region) for r0, c0, region, _score in crops])
    pix = np.stack([chains.cols + 0.5, chains.rows + 0.5], axis=1)
    winner_chain, winner_vertex = _snap_winners(pix, chains.bounds, vtx, cfg.attract_dist)
    cuts = np.searchsorted(winner_chain, np.arange(len(chains.bounds)))
    rings = _snapped_rings(vtx, winner_vertex, cuts, cfg.merge_angle)
    fallback = np.array([k for k, ring in enumerate(rings) if ring is None], dtype=np.int64)
    simplified = _dp_rings(pix, chains.bounds[fallback], chains.bounds[fallback + 1], cfg.dp_fallback_tolerance)
    for k, ring in zip(fallback.tolist(), simplified):
        rings[k] = ring
    dropped = 0
    scored: list[ScoredPolygon] = []
    for (_r0, _c0, _region, score), first, end in zip(crops, chains.firsts, chains.firsts[1:]):
        outer = rings[first]
        if outer is None:
            dropped += 1
            continue
        holes = tuple(hole for hole in rings[first + 1 : end] if hole is not None)
        scored.append(ScoredPolygon(Polygon(outer, holes), score))
    if dropped:
        warnings.warn(f"dropped {dropped} components that failed simplification", stacklevel=2)
    return rescale_polygons(InstanceSet(tuple(scored)), cfg.scale)


def rescale_polygons(instances: InstanceSet, s: float) -> InstanceSet:
    """Multiply every coordinate by s (0 < s < inf)."""
    if not 0 < s < math.inf:
        raise PolygonizeError(f"scale must be finite and > 0, got {s}")
    return instances.scaled(s)
