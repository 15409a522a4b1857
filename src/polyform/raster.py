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
import operator
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import (
    InstanceSet, Polygon, edge_arrays, edge_tolerance, expand_ranges, on_edge, outside_frame, pack_rings,
    project_points_to_segments,
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


def _shown(value: object) -> str:
    """repr(value) for a config error message; an int too long for Python's
    int-to-text limit shows as its sign and bit length instead."""
    try:
        return repr(value)
    except ValueError:
        return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"


def _check_numbers(config: object, error: type[ValueError], integers: Sequence[str], reals: Sequence[str]) -> None:
    """Raise error, naming the field, at the first field of config among
    integers that operator.index rejects, or among reals that is not a
    finite number (math.isfinite rejects a string, and overflows on an int
    that no float holds)."""
    for field in integers:
        try:
            operator.index(getattr(config, field))
        except TypeError:
            raise error(f"{field} must be an integer, got {getattr(config, field)!r}") from None
    for field in reals:
        try:
            finite = math.isfinite(getattr(config, field))
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise error(f"{field} must be a finite number, got {_shown(getattr(config, field))}")


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
        _check_numbers(
            self, RasterError, ("dilate_radius", "erode_radius", "spurious_vertex_count", "rng_seed"),
            ("boundary_jitter_sigma", "heatmap_noise_sigma", "vertex_dropout_prob"),
        )
        if min(self.dilate_radius, self.erode_radius, self.boundary_jitter_sigma,
               self.heatmap_noise_sigma, self.spurious_vertex_count) < 0:
            raise RasterError("degradation parameters must be nonnegative")
        if not 0.0 <= self.vertex_dropout_prob <= 1.0:
            raise RasterError(f"vertex_dropout_prob {self.vertex_dropout_prob} outside [0, 1]")
        if not 0 <= self.rng_seed < 2**128:  # the key range of np.random.Philox
            raise RasterError(f"rng_seed {_shown(self.rng_seed)} outside [0, 2**128)")


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


def content_rows(mask: np.ndarray, reach: int) -> np.ndarray | None:
    """The ascending indices of the rows of a 2-D boolean mask within reach
    rows of a row holding a set pixel, or None when that is every row.

    polygonize labels and suppresses only these rows of a frame, and
    degrade morphs and jitters only these rows of its mask. Each removed
    run of rows is bordered, on each side where the frame goes on, by
    reach kept rows without set pixels (the kept row next to the run is
    within reach of a set row and the run's first row is not, so that set
    row lies reach + 1 rows from the run, and none lies nearer); with
    reach >= 1 the 3 x 3 neighbourhood of a set pixel is therefore the
    same in the kept rows as in the frame. A reach of at least the frame
    height keeps every row of a mask with a set pixel, and is clamped
    there: the loop runs at most h times."""
    near = mask.any(axis=1)
    held = near.copy()
    for k in range(1, min(reach, len(near)) + 1):
        near[k:] |= held[:-k]
        near[:-k] |= held[k:]
    return None if near.all() else np.flatnonzero(near)


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
    return RasterGrid.from_array(grid.view(np.uint8))  # a bool is one byte, 0 or 1


def _separable_terms(
    u: np.ndarray, au: np.ndarray, av: np.ndarray, bu: np.ndarray, bv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """encode_afm's separable kernel for segments a-b that run along the u
    axis (av == bv), over the coordinates u: (feet, du2), each of shape
    (segments, len(u)), the u coordinate of the foot of (u[i], av[k]) on
    segment k and its squared distance to it. The foot of a point (u[i], v)
    is then (feet[k, i], av[k]), and its squared distance du2[k, i] +
    (v - av[k]) ** 2. Horizontal segments pass (x, ax, ay, bx, by),
    vertical ones (y, ay, ax, by, bx)."""
    feet, _, du2 = project_points_to_segments(u, av[:, None], au[:, None], av[:, None], bu[:, None], bv[:, None])
    return feet, du2


def _keep_nearer(d2: np.ndarray, fx, fy, best_d2: np.ndarray, field: np.ndarray, better: np.ndarray) -> None:
    """encode_afm's sweep step on one rectangle: where d2 is strictly below
    best_d2, write it there and the foot (fx, fy), each broadcast to the
    rectangle, into the field's two channels. better is a boolean scratch
    array of d2's shape."""
    np.less(d2, best_d2, out=better)
    np.copyto(best_d2, d2, where=better)
    np.copyto(field[:, :, 0], fx, where=better)
    np.copyto(field[:, :, 1], fy, where=better)


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

    Horizontal segments (by - ay == 0) and vertical ones (bx - ax == 0)
    take a separable kernel (_separable_terms), both in the centre sample
    and in the sweep: the squared distance from (x, y) to a horizontal
    segment is the squared distance from (x, ay), which
    project_points_to_segments gives once per pixel column with its foot,
    plus (y - ay) ** 2, and a vertical segment is the transpose. That is
    the general kernel's arithmetic with one component of b - a zero. The
    products (p - a) * 0 of that component are +0 or -0, so t and the foot
    can differ from the general kernel's only in the sign of a zero, and
    the squared distance not at all: the zero component's term is an exact
    +0, and the other side's difference is the same number. The centre
    sample takes the least of the oblique and the axis-aligned segments'
    distances, which min gives exactly in any order (a cell whose every
    distance is NaN reads inf, which prunes nothing too). The displacement
    foot - centre, with every centre at least 0.5, erases the sign of a
    zero foot, so the ties and every byte of the field are the general
    kernel's. Oblique segments keep the general kernel.
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
    # horizontal and vertical segments take the separable kernel: their
    # feet and squared distances along the segment are tabulated once per
    # tile, over the cell centres for the bound and over the padded frame's
    # pixel centres for the sweep, as (segments, columns or rows); built
    # after the field is allocated, which keeps the peak heap lower
    flat = by - ay == 0
    upright = (bx - ax == 0) & ~flat
    oblique = ~(flat | upright)
    slot = np.where(flat, np.cumsum(flat), np.cumsum(upright)) - 1  # a segment's row in its tables
    h_ends = ax[flat], ay[flat], bx[flat], by[flat]
    v_ends = ay[upright], ax[upright], by[upright], bx[upright]  # running along y
    o_ends = ax[oblique], ay[oblique], bx[oblique], by[oblique]
    h_fx, h_cols = _separable_terms(xs, *h_ends)
    v_fy, v_rows = _separable_terms(ys, *v_ends)
    sample_terms = (  # (column terms, row terms) over the cell centres
        (_separable_terms(q_x[:, 0], *h_ends)[1], (q_y[:, 0] - h_ends[1][:, None]) ** 2),
        ((q_x[:, 0] - v_ends[1][:, None]) ** 2, _separable_terms(q_y[:, 0], *v_ends)[1]),
    )
    for b0 in range(0, len(y_lo), _AFM_BAND):
        band = slice(b0, b0 + _AFM_BAND)
        # NaN distances bound nothing: fmin skips a segment with a NaN
        # distance, and either set of segments may be empty
        f2 = np.fmin.reduce(project_points_to_segments(q_x, q_y[band, None], *o_ends)[2], axis=-1, initial=np.inf)
        for cols, rows in sample_terms:
            np.fmin(f2, np.fmin.reduce(cols[:, None, :] + rows[:, band, None], axis=0, initial=np.inf), out=f2)
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
            d2 = buffers[2][:n].reshape(shape)
            j = slot[k]
            if flat[k]:
                fx, fy = h_fx[j, c0:c1], ay[k]
                np.add(h_cols[j, c0:c1], ((ys[r0:r1] - ay[k]) ** 2)[:, None], out=d2)
            elif upright[k]:
                fx, fy = ax[k], v_fy[j, r0:r1, None]
                np.add((xs[c0:c1] - ax[k]) ** 2, v_rows[j, r0:r1, None], out=d2)
            else:
                out = [buf[:n].reshape(shape) for buf in buffers]
                fx, fy, d2 = project_points_to_segments(xs[c0:c1], ys[r0:r1, None], ax[k], ay[k], bx[k], by[k], out=out)
            _keep_nearer(d2, fx, fy, best_d2[r0:r1, c0:c1], field[r0:r1, c0:c1], better_buffer[:n].reshape(shape))
    field[:, :, 0] -= xs[:w]
    field[:, :, 1] -= ys[:h, None]
    return RasterGrid(field)


# offsets are clamped into [-0.5, 0.5) after rounding to f32: rounding may
# push a value just below 0.5 onto 0.5 itself, and a vertex on the frame's
# far edge or just past an edge lies 0.5 or more from its clamped pixel's
# center; both would leave the range
_MIN_F32_OFFSET = np.float32(-0.5)
_MAX_F32_OFFSET = np.nextafter(np.float32(0.5), np.float32(0.0))


def encode_vertices(instances: InstanceSet, h: int, w: int) -> VertexGrids:
    """Vertex heatmap and center-relative offsets.

    A vertex v lands in pixel (floor(v.y), floor(v.x)), clamped into the
    grid so that a vertex on the right or bottom edge, or within
    geometry.FRAME_TOL outside any edge, lands in the border pixel; the
    heatmap is 1 there and the offsets store v - pixel center, clamped into
    [-0.5, 0.5). When two vertices fall into one pixel the later write wins
    (warned).
    """
    xy, bounds, firsts = pack_rings([sp.polygon for sp in instances])
    outside = outside_frame(xy, h, w)
    if outside.any():
        at = int(np.argmax(outside))
        idx = int(np.searchsorted(bounds[firsts], at, "right")) - 1
        x, y = xy[at].tolist()
        raise RasterError(f"vertex ({x}, {y}) of instance {idx} outside [0,{w}]x[0,{h}]")
    c = np.clip(np.floor(xy[:, 0]), 0, w - 1).astype(np.int64)
    r = np.clip(np.floor(xy[:, 1]), 0, h - 1).astype(np.int64)
    # each pixel's last vertex wins: the first of the reversed order
    pixels, last = np.unique((r * w + c)[::-1], return_index=True)
    last = len(xy) - 1 - last
    heat = np.zeros(h * w, dtype=np.float32)
    heat[pixels] = 1.0
    off = np.zeros((h * w, 2), dtype=np.float32)
    centres = np.stack([c[last], r[last]], axis=1) + 0.5
    off[pixels] = np.clip((xy[last] - centres).astype(np.float32), _MIN_F32_OFFSET, _MAX_F32_OFFSET)
    collisions = len(xy) - len(pixels)
    if collisions:
        warnings.warn(f"{collisions} vertex pixel collisions; later vertices won", stacklevel=2)
    return VertexGrids(RasterGrid.from_array(heat.reshape(h, w)), RasterGrid(off.reshape(h, w, 2)))


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


# frame rows of jitter noise per draw: one reused buffer of 128 KB on a
# 512-pixel-wide grid, where one full-frame draw allocated 2 MB
_JITTER_BLOCK = 32


def _normal_at(rng: np.random.Generator, at: np.ndarray, h: int, w: int) -> np.ndarray:
    """The standard normal values at the ascending flat indices `at` (all
    below h * w) of an h x w frame drawn from rng in raster order.
    The frame is drawn _JITTER_BLOCK rows at a time into one buffer:
    Generator.standard_normal takes each value from the bit generator in
    turn, so the blocks hold the values that one call for the whole frame
    gives, and leave rng where that call leaves it."""
    out = np.empty(len(at))
    buf = np.empty(min(_JITTER_BLOCK, h) * w)
    hi = 0
    for r0 in range(0, h, _JITTER_BLOCK):
        first = r0 * w
        block = rng.standard_normal(out=buf[: (min(r0 + _JITTER_BLOCK, h) - r0) * w])
        lo, hi = hi, int(np.searchsorted(at, first + block.size))
        out[lo:hi] = block[at[lo:hi] - first]
    return out


def degrade(mask: RasterGrid, grids: VertexGrids, spec: DegradeSpec) -> tuple[RasterGrid, VertexGrids]:
    """Deterministically corrupt a mask and vertex grids.

    Applies, in order: square dilation, square erosion, Gaussian jitter on
    the boundary band (clamped to [0, 1]), full-grid heatmap noise (also
    clamped), vertex dropout, and spurious vertex injection. A counter-based
    Philox generator keyed by rng_seed makes runs reproducible. The jitter
    draws a frame of noise in raster order, as one rng.normal call of the
    frame's shape would, and uses it on the band pixels only.

    The morphology and the band run on the rows within R = dilate_radius + 1
    rows of a row holding a set pixel (content_rows), gathered; the soft
    mask is 0 on the other rows. Next to a removed run of rows, on each
    side where the frame goes on, lie R kept rows without set pixels
    (content_rows), so the dilated mask reaches no removed row and leaves
    the kept row next to the run empty. A window that crosses a run
    therefore gives the same result on the gathered rows as on the frame:
    a dilation window holds fewer than R rows beyond the run, all empty in
    both; an erosion window, or one of the band's 3 x 3 erosion, holds the
    empty row next to the run in both, so is False in both; the band's
    3 x 3 dilation at that row sees beyond the run a removed row or the
    run's other neighbour, both empty. Where a run ends at the frame's
    edge, the gathered rows see the outside of the frame, which counts as
    empty, where the frame sees removed rows. So every kept pixel gets its
    frame value, and the band, within one row of the eroded mask, misses
    the removed rows. A frame whose every row qualifies runs the same code
    on all rows.

    The noise is drawn _JITTER_BLOCK rows at a time (_normal_at), and
    rng.normal(0, sigma) is 0.0 + sigma * the standard normal value. When
    no later stage draws (heatmap noise, dropout and spurious vertices all
    off) the draw stops after the last band row; otherwise it covers the
    whole frame, so that those stages see the generator as a full-frame
    draw leaves it.

    The heatmap and offsets are returned as f32. A vertex grid is copied
    only when a stage writes into it (heatmap noise the heatmap; dropout
    and spurious vertices both grids); one that none does comes back
    sharing the input's read-only data, converted only if it is not f32.
    """
    rng = np.random.Generator(np.random.Philox(key=spec.rng_seed))
    binary = mask.channel() > 0.5
    h, w = binary.shape
    rows = content_rows(binary, spec.dilate_radius + 1)
    kept = slice(None) if rows is None else rows
    binary = _square_morph(binary[kept], spec.dilate_radius, dilate=True)
    binary = _square_morph(binary, spec.erode_radius, dilate=False)
    soft = np.zeros((h, w), dtype=np.float32)
    soft[kept] = binary
    vertex_edits = spec.vertex_dropout_prob > 0 or spec.spurious_vertex_count > 0
    heat_written = vertex_edits or spec.heatmap_noise_sigma > 0
    if spec.boundary_jitter_sigma > 0:
        band = _square_morph(binary, 1, dilate=True) & ~_square_morph(binary, 1, dilate=False)
        r, c = np.nonzero(band)
        if rows is not None:
            r = rows[r]
        at = r * w + c
        # the stages after the jitter that draw are those that write the heatmap
        drawn = h if heat_written else int(r.max(initial=-1)) + 1
        noise = 0.0 + spec.boundary_jitter_sigma * _normal_at(rng, at, drawn, w)
        flat = soft.reshape(-1)
        flat[at] = np.clip(flat[at] + noise.astype(np.float32), 0.0, 1.0)

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
