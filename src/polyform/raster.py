"""Supervision rasters for polygon sets.

Encodes an instance set into the three raster targets used as training
signals: a binary segmentation mask, a per-pixel attraction field pointing
at the nearest boundary segment, and a vertex heatmap with sub-pixel
offsets. Also provides a synthetic degradation pass that stands in for
imperfect network predictions.

Sampling convention: pixel (r, c) is sampled at its center (c + 0.5,
r + 0.5). Vertex offsets are relative to that center and live in
[-0.5, 0.5).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import (
    InstanceSet, Polygon, edge_arrays, edge_tolerance, expand_ranges, in_frame, on_edge, project_points_to_segments,
)

_ALLOWED_DTYPES = {
    np.dtype(np.uint8): "u8",
    np.dtype(np.uint32): "u32",
    np.dtype(np.float32): "f32",
    np.dtype(np.float64): "f64",
}


class RasterError(ValueError):
    """Invalid raster input."""


@dataclass(frozen=True)
class RasterGrid:
    """Immutable H x W x C grid of scalars, row-major and channel-last.

    Supported dtypes: u8 and f32 (serializable), plus u32 (component
    labels) and f64 (full-precision attraction fields) in memory only.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = self.data
        if arr.ndim != 3:
            raise RasterError(f"grid data must be 3-D (H, W, C), got shape {arr.shape}")
        if arr.dtype not in _ALLOWED_DTYPES:
            raise RasterError(f"unsupported grid dtype {arr.dtype}")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "RasterGrid":
        """Wrap a 2-D (single channel) or 3-D array."""
        arr = np.asarray(array)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        return cls(arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    @property
    def dtype_name(self) -> str:
        return _ALLOWED_DTYPES[self.data.dtype]

    def channel(self, index: int = 0) -> np.ndarray:
        return self.data[:, :, index]


@dataclass(frozen=True)
class VertexGrids:
    """Vertex heatmap (1 x f32 in [0, 1]) plus per-pixel offsets (2 x f32)."""

    heatmap: RasterGrid
    offsets: RasterGrid

    def __post_init__(self) -> None:
        h, o = self.heatmap, self.offsets
        if h.channels != 1 or o.channels != 2:
            raise RasterError("vertex grids need a 1-channel heatmap and 2-channel offsets")
        if (h.height, h.width) != (o.height, o.width):
            raise RasterError("heatmap and offsets shapes differ")


@dataclass(frozen=True)
class DegradeSpec:
    """Synthetic corruption parameters. All-zero settings are the identity."""

    dilate_radius: int = 0
    erode_radius: int = 0
    boundary_jitter_sigma: float = 0.0
    heatmap_noise_sigma: float = 0.0
    vertex_dropout_prob: float = 0.0
    spurious_vertex_count: int = 0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if min(self.dilate_radius, self.erode_radius, self.boundary_jitter_sigma,
               self.heatmap_noise_sigma, self.spurious_vertex_count) < 0:
            raise RasterError("degradation parameters must be nonnegative")
        if not (math.isfinite(self.boundary_jitter_sigma) and math.isfinite(self.heatmap_noise_sigma)):
            raise RasterError("boundary_jitter_sigma and heatmap_noise_sigma must be finite")
        if not 0.0 <= self.vertex_dropout_prob <= 1.0:
            raise RasterError(f"vertex_dropout_prob {self.vertex_dropout_prob} outside [0, 1]")
        if not 0 <= self.rng_seed < 2**128:  # the key range of np.random.Philox
            raise RasterError(f"rng_seed {self.rng_seed} outside [0, 2**128)")


# the edge test of polygon_mask_crops visits a band of pixels along each edge,
# which holds every pixel the tolerance accepts while the edge's squared
# length is at least _FILL_MIN_LEN2 and its coordinates stay below
# _FILL_MAX_SCALE; any other edge is tested on its whole crop
_FILL_MIN_LEN2 = 1e-100
_FILL_MAX_SCALE = 2.0**29


def polygon_mask_crops(polys: Sequence[Polygon], h: int, w: int) -> list[tuple[int, int, np.ndarray]]:
    """polygon_mask of each polygon cropped to (r0, c0, crop): crop[i, j] is
    frame pixel (r0 + i, c0 + j), and the crop spans the polygon's vertex
    bounding box widened by one pixel, within the frame (a 0 x 0 crop at
    (0, 0) when nothing of it is left).

    A pixel of the crop is set when geometry.point_in_polygon accepts its
    centre: inside by the even-odd rule over the edges of
    geometry.edge_arrays, or on an edge by geometry.on_edge with the
    tolerance of geometry.edge_tolerance.

    All polygons are filled in one pass, each expression evaluated as
    point_in_polygon writes it. Crossings are generated only for the pixel
    rows an edge spans, and each toggles the crop columns whose centres lie
    strictly below its x. Every row holds an even number of crossings, so a
    running parity over all crops laid end to end, with a crossing that
    toggles a whole row placed at the start of the next, is each row's
    even-odd fill.
    The edge test visits, for each edge, every pixel column (row, for edges
    closer to vertical) from one before its span to one after, and in it
    the pixel holding the edge's line at the column centre and one pixel
    either side. An accepted centre lies within t = 1e-9 * scale of the
    line and projects within t of the edge, so with scale below
    _FILL_MAX_SCALE (t < 0.54) it is less than 1 pixel off the line along
    the column and less than 1 pixel past the edge's span: in the band.
    """
    if not polys:
        return []
    ax, ay, bx, by, n_segs = edge_arrays(polys)
    ex, ey = bx - ax, by - ay
    first = np.cumsum(n_segs) - n_segs
    of = np.repeat(np.arange(len(polys)), n_segs)  # polygon of each edge

    # crop boxes; the clamps keep every value convertible and every empty box empty
    r0 = np.clip(np.floor(np.minimum.reduceat(ay, first) - 0.5) - 1, 0, h)
    r1 = np.clip(np.ceil(np.maximum.reduceat(ay, first) - 0.5) + 1, -1, h - 1)
    c0 = np.clip(np.floor(np.minimum.reduceat(ax, first) - 0.5) - 1, 0, w)
    c1 = np.clip(np.ceil(np.maximum.reduceat(ax, first) - 0.5) + 1, -1, w - 1)
    kept = (r0 <= r1) & (c0 <= c1)
    rows = np.where(kept, r1 - r0 + 1, 0).astype(np.int64)
    cols = np.where(kept, c1 - c0 + 1, 0).astype(np.int64)
    r0 = np.where(kept, r0, 0).astype(np.int64)
    c0 = np.where(kept, c0, 0).astype(np.int64)
    sizes = rows * cols
    base = np.cumsum(sizes) - sizes
    origin = base - r0 * cols - c0  # flat index of frame pixel (r, c) is origin + r * cols + c

    # crossings, over the rows r with min(ay, by) <= r + 0.5 < max(ay, by)
    e_r0, e_rows = r0[of], rows[of]
    lo = np.clip(np.floor(np.minimum(ay, by)), e_r0, e_r0 + e_rows)
    hi = np.clip(np.floor(np.maximum(ay, by)), e_r0 - 1, e_r0 + e_rows - 1)
    e, r = expand_ranges(lo.astype(np.int64), hi.astype(np.int64))
    y = r + 0.5
    crossing = (ay[e] > y) != (by[e] > y)
    e, r, y = e[crossing], r[crossing], y[crossing]
    x_int = ax[e] + (y - ay[e]) * ex[e] / ey[e]
    below = np.searchsorted(np.arange(w) + 0.5, x_int)  # centres < x_int
    below[np.isnan(x_int)] = 0  # no centre is below NaN, which overflowing coordinates can give
    p = of[e]
    at, count = np.unique(origin[p] + r * cols[p] + np.clip(below, c0[p], c0[p] + cols[p]), return_counts=True)
    odd = np.zeros(sizes.sum() + 1, dtype=bool)
    odd[at[count % 2 == 1]] = True
    filled = np.logical_xor.accumulate(odd)

    # edges, on their bands (major axis u, minor axis v) or on their whole crop
    len2 = ex * ex + ey * ey
    scale, tol = edge_tolerance(ax, ay, bx, by, len2)
    narrow = (len2 >= _FILL_MIN_LEN2) & (scale < _FILL_MAX_SCALE)
    along_x = np.abs(ex) >= np.abs(ey)
    ua, va = np.where(along_x, ax, ay), np.where(along_x, ay, ax)
    ub, vb = np.where(along_x, bx, by), np.where(along_x, by, bx)
    u0, un = np.where(along_x, c0[of], e_r0), np.where(along_x, cols[of], e_rows)
    v0, vn = np.where(along_x, e_r0, c0[of]), np.where(along_x, e_rows, cols[of])
    lo = np.clip(np.floor(np.minimum(ua, ub)) - 1, u0, u0 + un)
    hi = np.where(narrow, np.clip(np.floor(np.maximum(ua, ub)) + 1, u0 - 1, u0 + un - 1), lo - 1)
    k, u = expand_ranges(lo.astype(np.int64), hi.astype(np.int64))
    line = np.floor(va[k] + (u + 0.5 - ua[k]) * ((vb - va) / (ub - ua))[k])
    v = np.clip(line + np.array([[-1.0], [0.0], [1.0]]), v0[k], (v0 + vn - 1)[k]).astype(np.int64)
    r, c = np.where(along_x[k], v, u), np.where(along_x[k], u, v)
    on = on_edge(ax[k], ay[k], ex[k], ey[k], len2[k], tol[k], c + 0.5, r + 0.5)
    filled[(origin[of[k]] + r * cols[of[k]] + c)[on]] = True
    for i in np.flatnonzero(~narrow).tolist():
        p = of[i]
        x = np.arange(c0[p], c0[p] + cols[p]) + 0.5
        y = np.arange(r0[p], r0[p] + rows[p])[:, None] + 0.5
        crop = filled[base[p] : base[p] + sizes[p]].reshape(rows[p], cols[p])
        crop |= on_edge(ax[i], ay[i], ex[i], ey[i], len2[i], tol[i], x, y)

    return [
        (top, left, filled[start : start + n_rows * n_cols].reshape(n_rows, n_cols))
        for top, left, n_rows, n_cols, start in zip(*(arr.tolist() for arr in (r0, c0, rows, cols, base)))
    ]


def bounding_crop(mask: np.ndarray) -> tuple[int, int, np.ndarray]:
    """A full-frame boolean mask as (r0, c0, crop) on the bounding box of its
    pixels; an empty mask gives (0, 0, 0 x 0 crop)."""
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return 0, 0, mask[:0, :0]
    band = mask[rows[0] : rows[-1] + 1]
    cols = np.flatnonzero(band.any(axis=0))
    return int(rows[0]), int(cols[0]), band[:, cols[0] : cols[-1] + 1]


def shelf_pack(shapes: list[tuple[int, int]]) -> tuple[list[int], list[int], int, int]:
    """Top-left corners (ys, xs) of (h, w) rectangles packed on shelves,
    tallest first, and the packing's (height, width). The rectangles of a
    shelf share its top row, and its first rectangle is its tallest.

    Two atlases use it: polygonize traces every component window of a tile
    in one, and metrics erodes every instance crop of a tile in one for
    the Boundary IoU band."""
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


def union_of_crops(crops: Iterable[tuple[int, int, np.ndarray]], h: int, w: int) -> np.ndarray:
    """The h x w boolean frame set wherever any (r0, c0, crop) is set."""
    out = np.zeros((h, w), dtype=bool)
    for r0, c0, crop in crops:
        rows, cols = crop.shape
        view = out[r0 : r0 + rows, c0 : c0 + cols]
        view |= crop  # in place on the view: out[...] |= crop would also assign it back
    return out


def polygon_mask(poly: Polygon, h: int, w: int) -> np.ndarray:
    """Boolean mask of pixel centers inside the polygon (boundary inclusive)."""
    return union_of_crops(polygon_mask_crops([poly], h, w), h, w)


def rasterize_mask(instances: InstanceSet, h: int, w: int) -> RasterGrid:
    """Binary u8 mask: 1 where a pixel center falls in any instance, holes excluded."""
    if h < 1 or w < 1:
        raise RasterError(f"mask shape must be positive, got {h}x{w}")
    grid = union_of_crops(polygon_mask_crops([sp.polygon for sp in instances], h, w), h, w)
    return RasterGrid.from_array(grid.astype(np.uint8))


# encode_afm prunes on square pixel cells, _AFM_BAND cell rows at a time,
# each bounded by the exact distance at its centre, with a relative slack
# on that bound of _AFM_SLACK per unit of coordinate magnitude
_AFM_BLOCK = 8
_AFM_BAND = 8
_AFM_SLACK = 1e-12


def encode_afm(instances: InstanceSet, h: int, w: int) -> RasterGrid:
    """Attraction field: for every pixel center x, the displacement x' - x to its
    projection x' on the nearest boundary segment over all instances.

    Ties between equidistant segments go to the lowest segment index
    (instance order, outer ring then holes, edges in ring order). An
    instance set without segments, like an empty frame, gives the all-zero
    field. Returned at f64 precision; convert to f32 before serializing.

    The result is bitwise equal to sweeping every segment over every pixel
    in index order, keeping a segment's foot wherever its squared distance
    is strictly below the best so far. The frame is padded to whole cells
    of _AFM_BLOCK x _AFM_BLOCK pixels (swept rectangles are cropped back to
    it). Every pixel centre of a cell lies within r = (_AFM_BLOCK - 1) / 2 *
    sqrt(2) of the cell's centre q, and distance to the nearest segment is
    1-Lipschitz, so no pixel's winner is farther than the cell's upper bound
    (sqrt(f2) + r) ** 2, f2 the least squared distance from q over segments.
    A segment is a candidate for a cell when the squared distance from the
    cell's pixel-centre box to the segment's bounding box, a lower bound for
    every pixel in the cell, is within that upper bound, so each pixel's
    winner is a candidate of its cell, ties included, and sweeping the
    candidates in index order with the same arithmetic picks it as the full
    sweep does. Per band of _AFM_BAND cell rows, each segment visits the
    cell rectangle that holds its candidates there; extra cells cannot
    change a result. The bound is widened by a relative slack of _AFM_SLACK
    per unit of the largest pixel or vertex coordinate M. Rounding in the
    gaps, the kernel's squared distances, r, the sqrt, the + r and the
    squaring errs by a few ulps of M times the distance; over a bound of at
    least r ** 2 = 24.5 that stays below 1e-14 per unit. A NaN or infinite
    upper bound prunes nothing.
    """
    ax, ay, bx, by, _ = edge_arrays([sp.polygon for sp in instances])
    if not ax.size or h == 0 or w == 0:
        return RasterGrid(np.zeros((h, w, 2)))
    block = _AFM_BLOCK
    xs = np.arange(-(-w // block) * block, dtype=np.float64) + 0.5
    ys = np.arange(-(-h // block) * block, dtype=np.float64) + 0.5
    # each cell column's (row's) pixel-centre span, and its squared gap
    # to each segment's bounding box: (cell columns or rows, segments)
    x_lo, x_hi = xs[::block, None], xs[block - 1 :: block, None]
    y_lo, y_hi = ys[::block, None], ys[block - 1 :: block, None]
    gap_x = np.maximum(np.maximum(np.minimum(ax, bx) - x_hi, x_lo - np.maximum(ax, bx)), 0.0) ** 2
    gap_y = np.maximum(np.maximum(np.minimum(ay, by) - y_hi, y_lo - np.maximum(ay, by)), 0.0) ** 2
    q_x, q_y = (x_lo + x_hi) / 2, (y_lo + y_hi) / 2
    reach = (block - 1) / 2 * math.sqrt(2)
    slack = 1.0 + _AFM_SLACK * max(1.0, xs[-1], ys[-1], float(np.abs(ax).max()), float(np.abs(ay).max()))
    # the feet land in the result, which becomes the displacement in place;
    # a rectangle is cropped to the frame and never taller than one band,
    # so the kernel's buffers are sized once for the largest
    field = np.zeros((h, w, 2))
    best_d2 = np.full((h, w), np.inf)
    size = min(_AFM_BAND * block, h) * w
    buffers = [np.empty(size) for _ in range(4)]
    better_buffer = np.empty(size, dtype=bool)
    for b0 in range(0, len(y_lo), _AFM_BAND):
        band = slice(b0, b0 + _AFM_BAND)
        # NaN distances bound nothing: fmin skips a segment with a NaN distance
        f2 = np.fmin.reduce(project_points_to_segments(q_x, q_y[band, None], ax, ay, bx, by)[2], axis=-1)
        upper = (np.sqrt(f2) + reach) ** 2
        limit = np.where(np.isfinite(upper), upper * slack, np.inf)
        cand = gap_y[band, None, :] + gap_x[None, :, :] <= limit[:, :, None]
        in_row, in_col = cand.any(axis=1), cand.any(axis=0)
        r_first, r_last = in_row.argmax(axis=0), len(in_row) - in_row[::-1].argmax(axis=0)
        c_first, c_last = in_col.argmax(axis=0), len(in_col) - in_col[::-1].argmax(axis=0)
        for k in np.flatnonzero(in_col.any(axis=0)).tolist():
            r0, r1 = (b0 + r_first[k]) * block, min((b0 + r_last[k]) * block, h)
            c0, c1 = c_first[k] * block, min(c_last[k] * block, w)
            shape = (r1 - r0, c1 - c0)
            n = shape[0] * shape[1]
            out = [buf[:n].reshape(shape) for buf in buffers]
            fx, fy, d2 = project_points_to_segments(xs[c0:c1], ys[r0:r1, None], ax[k], ay[k], bx[k], by[k], out=out)
            win_d2 = best_d2[r0:r1, c0:c1]
            better = np.less(d2, win_d2, out=better_buffer[:n].reshape(shape))
            np.copyto(win_d2, d2, where=better)
            np.copyto(field[r0:r1, c0:c1, 0], fx, where=better)
            np.copyto(field[r0:r1, c0:c1, 1], fy, where=better)
    field[:, :, 0] -= xs[:w]
    field[:, :, 1] -= ys[:h, None]
    return RasterGrid(field)


_MIN_F32_OFFSET = np.float32(-0.5)
_MAX_F32_OFFSET = np.nextafter(np.float32(0.5), np.float32(0.0))


def _f32_offset(value: float) -> np.float32:
    # rounding to f32 may push a value just below 0.5 onto 0.5 itself, and a
    # vertex on the frame's far edge or just past an edge lies 0.5 or more
    # from its clamped pixel's center; both would leave [-0.5, 0.5)
    return min(max(np.float32(value), _MIN_F32_OFFSET), _MAX_F32_OFFSET)


def encode_vertices(instances: InstanceSet, h: int, w: int) -> VertexGrids:
    """Vertex heatmap and center-relative offsets.

    A vertex v lands in pixel (floor(v.y), floor(v.x)), clamped into the
    grid so that a vertex on the right or bottom edge, or within
    geometry.FRAME_TOL outside any edge, lands in the border pixel; the
    heatmap is 1 there and the offsets store v - pixel center, clamped into
    [-0.5, 0.5). When two vertices fall into one pixel the later write wins
    (warned).
    """
    heat = np.zeros((h, w), dtype=np.float32)
    off = np.zeros((h, w, 2), dtype=np.float32)
    collisions = 0
    for idx, scored in enumerate(instances):
        for ring in scored.polygon.rings():
            for v in ring.vertices:
                if not in_frame(v, h, w):
                    raise RasterError(f"vertex ({v.x}, {v.y}) of instance {idx} outside [0,{w}]x[0,{h}]")
                c = min(max(math.floor(v.x), 0), w - 1)
                r = min(max(math.floor(v.y), 0), h - 1)
                if heat[r, c] == 1.0:
                    collisions += 1
                heat[r, c] = 1.0
                off[r, c, 0] = _f32_offset(v.x - (c + 0.5))
                off[r, c, 1] = _f32_offset(v.y - (r + 0.5))
    if collisions:
        warnings.warn(f"{collisions} vertex pixel collisions; later vertices won", stacklevel=2)
    return VertexGrids(RasterGrid.from_array(heat), RasterGrid(off))


def offset_coords(rows: np.ndarray, cols: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sub-pixel (x, y) points of the given pixels in the encode_vertices
    format, shape (n, 2): pixel (r, c) with offsets (off_x, off_y) is the
    point (c + 0.5 + off_x, r + 0.5 + off_y), summed in f64."""
    off = offsets[rows, cols].astype(np.float64)
    return np.stack([cols + 0.5 + off[:, 0], rows + 0.5 + off[:, 1]], axis=1).reshape(-1, 2)


def _square_morph(binary: np.ndarray, radius: int, dilate: bool) -> np.ndarray:
    """A boolean frame dilated (or eroded) by the (2 radius + 1)-pixel square,
    pixels outside the frame counting as False: scipy.ndimage.binary_dilation
    (binary_erosion) with that square and the default border_value=0.

    The square is radius passes of a 3-wide OR (AND) along the columns and
    then along the rows, each over shifted views. Every pass is exact on the
    frame embedded in a False plane: outside the frame the plane stays False
    under erosion, and a pixel a dilation reaches through the outside it
    also reaches through the frame, which is a box. The radius is clamped
    to max(h, w), where a dilation has reached the whole frame from any set
    pixel and an erosion has cleared it: more passes change nothing.
    """
    op = np.logical_or if dilate else np.logical_and
    out = binary.copy()
    for _ in range(min(radius, max(binary.shape))):
        for src in (out, out.T):  # the second pass runs on the first's result
            res = src.copy(order="K")
            op(res[1:], src[:-1], out=res[1:])
            op(res[:-1], src[1:], out=res[:-1])
            if not dilate:  # an edge pixel's outer neighbour is False
                res[:1] = False
                res[-1:] = False
            src[...] = res
    return out


def degrade(mask: RasterGrid, grids: VertexGrids, spec: DegradeSpec) -> tuple[RasterGrid, VertexGrids]:
    """Deterministically corrupt a mask and vertex grids.

    Applies, in order: square dilation, square erosion, Gaussian jitter on
    the boundary band (clamped to [0, 1]), full-grid heatmap noise (also
    clamped), vertex dropout, and spurious vertex injection. A counter-based
    Philox generator keyed by rng_seed makes runs reproducible. The jitter
    draws a full frame of noise and uses it on the band pixels only.

    The heatmap and offsets are returned as f32. A vertex grid is copied
    only when a stage writes into it (heatmap noise the heatmap; dropout
    and spurious vertices both grids); one that none does comes back
    sharing the input's read-only data, converted only if it is not f32.
    """
    rng = np.random.Generator(np.random.Philox(key=spec.rng_seed))
    binary = _square_morph(mask.channel() > 0.5, spec.dilate_radius, dilate=True)
    binary = _square_morph(binary, spec.erode_radius, dilate=False)
    soft = binary.astype(np.float32)
    if spec.boundary_jitter_sigma > 0:
        band = _square_morph(binary, 1, dilate=True) & ~_square_morph(binary, 1, dilate=False)
        noise = rng.normal(0.0, spec.boundary_jitter_sigma, size=soft.shape)
        soft[band] = np.clip(soft[band] + noise[band].astype(np.float32), 0.0, 1.0)

    vertex_edits = spec.vertex_dropout_prob > 0 or spec.spurious_vertex_count > 0
    heat_written = vertex_edits or spec.heatmap_noise_sigma > 0
    heat = grids.heatmap.channel().astype(np.float32, copy=heat_written)
    off = grids.offsets.data.astype(np.float32, copy=vertex_edits)
    if spec.heatmap_noise_sigma > 0:
        heat += rng.normal(0.0, spec.heatmap_noise_sigma, size=heat.shape).astype(np.float32)
        np.clip(heat, 0.0, 1.0, out=heat)
    if spec.vertex_dropout_prob > 0:
        peaks = np.argwhere(grids.heatmap.channel() > 0)
        drops = rng.random(len(peaks)) < spec.vertex_dropout_prob
        r, c = peaks[drops].T
        heat[r, c] = 0.0
        off[r, c] = 0.0
    if spec.spurious_vertex_count > 0:
        free = np.flatnonzero(grids.heatmap.channel().ravel() == 0)
        count = min(spec.spurious_vertex_count, len(free))
        chosen = rng.choice(free, size=count, replace=False)
        scores = rng.uniform(0.5, 1.0, size=count).astype(np.float32)
        offs = rng.uniform(-0.5, 0.5, size=(count, 2)).astype(np.float32)
        r, c = np.divmod(chosen, heat.shape[1])  # distinct pixels, so one assignment each
        heat[r, c] = scores
        off[r, c] = offs
    return (
        RasterGrid.from_array(soft),
        VertexGrids(RasterGrid.from_array(heat), RasterGrid(off)),
    )


def downscale_targets(instances: InstanceSet, s: float) -> InstanceSet:
    """Divide every vertex coordinate by the down-sampling factor s (s >= 1)."""
    if s < 1:
        raise RasterError(f"down-sampling factor must be >= 1, got {s}")
    return instances.scaled(1.0 / s)
