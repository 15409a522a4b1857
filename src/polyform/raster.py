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
from typing import Iterable

import numpy as np
from scipy import ndimage

from .geometry import InstanceSet, Point2, Polygon, project_points_to_segments

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
        if not 0.0 <= self.vertex_dropout_prob <= 1.0:
            raise RasterError(f"vertex_dropout_prob {self.vertex_dropout_prob} outside [0, 1]")


def polygon_mask_crop(poly: Polygon, h: int, w: int) -> tuple[int, int, np.ndarray]:
    """polygon_mask cropped to (r0, c0, crop): crop[i, j] is frame pixel
    (r0 + i, c0 + j); the crop spans the polygon's bounding box within the frame."""
    xs = [v.x for v in poly.all_vertices()]
    ys = [v.y for v in poly.all_vertices()]
    c0 = max(0, int(math.floor(min(xs) - 0.5)) - 1)
    c1 = min(w - 1, int(math.ceil(max(xs) - 0.5)) + 1)
    r0 = max(0, int(math.floor(min(ys) - 0.5)) - 1)
    r1 = min(h - 1, int(math.ceil(max(ys) - 0.5)) + 1)
    if c0 > c1 or r0 > r1:
        return 0, 0, np.zeros((0, 0), dtype=bool)
    x = np.arange(c0, c1 + 1, dtype=np.float64)[None, :] + 0.5
    y = np.arange(r0, r1 + 1, dtype=np.float64)[:, None] + 0.5
    parity = np.zeros((r1 - r0 + 1, c1 - c0 + 1), dtype=bool)
    boundary = np.zeros_like(parity)
    for ring in poly.rings():
        vs = ring.vertices
        n = len(vs)
        for i in range(n):
            ax, ay = vs[i]
            bx, by = vs[(i + 1) % n]
            ex, ey = bx - ax, by - ay
            crossing = (ay > y) != (by > y)
            if crossing.any():
                denom = ey if ey != 0 else 1.0
                x_int = ax + (y - ay) * ex / denom
                parity ^= crossing & (x < x_int)
            seg_len2 = ex * ex + ey * ey
            scale = max(1.0, abs(ax), abs(ay), abs(bx), abs(by))
            tol = 1e-9 * scale * math.sqrt(seg_len2)
            cross = ex * (y - ay) - ey * (x - ax)
            dot = (x - ax) * ex + (y - ay) * ey
            boundary |= (np.abs(cross) <= tol) & (dot >= -tol) & (dot <= seg_len2 + tol)
    return r0, c0, parity | boundary


def bounding_crop(mask: np.ndarray) -> tuple[int, int, np.ndarray]:
    """A full-frame boolean mask as (r0, c0, crop) on the bounding box of its
    pixels; an empty mask gives (0, 0, 0 x 0 crop)."""
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return 0, 0, mask[:0, :0]
    band = mask[rows[0] : rows[-1] + 1]
    cols = np.flatnonzero(band.any(axis=0))
    return int(rows[0]), int(cols[0]), band[:, cols[0] : cols[-1] + 1]


def union_of_crops(crops: Iterable[tuple[int, int, np.ndarray]], h: int, w: int) -> np.ndarray:
    """The h x w boolean frame set wherever any (r0, c0, crop) is set."""
    out = np.zeros((h, w), dtype=bool)
    for r0, c0, crop in crops:
        out[r0 : r0 + crop.shape[0], c0 : c0 + crop.shape[1]] |= crop
    return out


def polygon_mask(poly: Polygon, h: int, w: int) -> np.ndarray:
    """Boolean mask of pixel centers inside the polygon (boundary inclusive)."""
    return union_of_crops([polygon_mask_crop(poly, h, w)], h, w)


def rasterize_mask(instances: InstanceSet, h: int, w: int) -> RasterGrid:
    """Binary u8 mask: 1 where a pixel center falls in any instance, holes excluded."""
    if h < 1 or w < 1:
        raise RasterError(f"mask shape must be positive, got {h}x{w}")
    grid = union_of_crops((polygon_mask_crop(sp.polygon, h, w) for sp in instances), h, w)
    return RasterGrid.from_array(grid.astype(np.uint8))


# encode_afm prunes on square pixel blocks, _AFM_BAND block rows at a time,
# with a relative slack on each block's upper bound of _AFM_SLACK per unit
# of coordinate magnitude
_AFM_BLOCK = 16
_AFM_BAND = 4
_AFM_SLACK = 1e-12


def encode_afm(instances: InstanceSet, h: int, w: int) -> RasterGrid:
    """Attraction field: for every pixel center x, the displacement x' - x to its
    projection x' on the nearest boundary segment over all instances.

    Ties between equidistant segments go to the lowest segment index
    (instance order, outer ring then holes, edges in ring order). Returned
    at f64 precision; convert to f32 explicitly before serializing.

    The result is bitwise equal to sweeping every segment over every pixel
    in index order, keeping a segment's foot wherever its squared distance
    is strictly below the best so far. The frame is padded to whole blocks
    of _AFM_BLOCK x _AFM_BLOCK pixels (and cropped at the end). A block's
    upper bound is the least, over segments, of the squared distance from
    the segment to the block's farthest pixel-centre corner: distance to a
    segment is convex, so its maximum over the block sits at a corner. A
    segment is a candidate for a block when the squared distance from the
    block's pixel-centre box to the segment's bounding box, a lower bound
    for every pixel in the block, is within that upper bound. The winner of
    a pixel is never farther than the bound, so it is a candidate of its
    block, ties included, and sweeping the candidates in index order with
    the same arithmetic picks it as the full sweep does. Per band of
    _AFM_BAND block rows, each segment visits the block rectangle that holds
    its candidates there; extra blocks cannot change a result. The upper
    bound is widened by a relative slack of _AFM_SLACK per unit of the
    largest pixel or vertex coordinate, well above the rounding error of the
    bounds and of the kernel's squared distances, which on a 16 x 16 block
    (upper bound at least 112.5) stays below 1e-14 per unit. A NaN or
    infinite upper bound prunes nothing.
    """
    segs = [seg for sp in instances for seg in sp.polygon.segment_coords()]
    if not segs:
        raise RasterError("no segments")
    if h == 0 or w == 0:
        return RasterGrid(np.zeros((h, w, 2)))
    block = _AFM_BLOCK
    coords = np.array(segs)
    ax, ay, bx, by = coords.T
    xs = np.arange(-(-w // block) * block, dtype=np.float64) + 0.5
    ys = np.arange(-(-h // block) * block, dtype=np.float64) + 0.5
    # each block column's (row's) pixel-centre span, and its squared gap
    # to each segment's bounding box: (block columns or rows, segments)
    x_lo, x_hi = xs[::block, None], xs[block - 1 :: block, None]
    y_lo, y_hi = ys[::block, None], ys[block - 1 :: block, None]
    gap_x = np.maximum(np.maximum(np.minimum(ax, bx) - x_hi, x_lo - np.maximum(ax, bx)), 0.0) ** 2
    gap_y = np.maximum(np.maximum(np.minimum(ay, by) - y_hi, y_lo - np.maximum(ay, by)), 0.0) ** 2
    slack = 1.0 + _AFM_SLACK * max(1.0, xs[-1], ys[-1], float(np.abs(coords).max()))
    best_d2 = np.full((ys.size, xs.size), np.inf)
    best_fx = np.zeros_like(best_d2)
    best_fy = np.zeros_like(best_d2)
    for b0 in range(0, len(y_lo), _AFM_BAND):
        band = slice(b0, b0 + _AFM_BAND)
        corners = [
            project_points_to_segments(cx, cy, ax, ay, bx, by)[2]
            for cy in (y_lo[band, None], y_hi[band, None])
            for cx in (x_lo, x_hi)
        ]
        # NaN distances bound nothing: fmin skips a segment with a NaN corner
        upper = np.fmin.reduce(np.maximum.reduce(corners), axis=-1)
        limit = np.where(np.isfinite(upper), upper * slack, np.inf)
        cand = gap_y[band, None, :] + gap_x[None, :, :] <= limit[:, :, None]
        in_row, in_col = cand.any(axis=1), cand.any(axis=0)
        r_first, r_last = in_row.argmax(axis=0), len(in_row) - in_row[::-1].argmax(axis=0)
        c_first, c_last = in_col.argmax(axis=0), len(in_col) - in_col[::-1].argmax(axis=0)
        for k in np.flatnonzero(in_col.any(axis=0)).tolist():
            rows = slice((b0 + r_first[k]) * block, (b0 + r_last[k]) * block)
            cols = slice(c_first[k] * block, c_last[k] * block)
            fx, fy, d2 = project_points_to_segments(xs[cols], ys[rows, None], *segs[k])
            win_d2 = best_d2[rows, cols]
            better = d2 < win_d2
            np.copyto(win_d2, d2, where=better)
            np.copyto(best_fx[rows, cols], fx, where=better)
            np.copyto(best_fy[rows, cols], fy, where=better)
    x, y = xs[None, :w], ys[:h, None]
    return RasterGrid(np.stack([best_fx[:h, :w] - x, best_fy[:h, :w] - y], axis=-1))


_MAX_F32_OFFSET = np.nextafter(np.float32(0.5), np.float32(0.0))


def _f32_offset(value: float) -> np.float32:
    # rounding to f32 may push a value just below 0.5 onto 0.5 itself,
    # which would leave the stated [-0.5, 0.5) range
    out = np.float32(value)
    return min(out, _MAX_F32_OFFSET)


def encode_vertices(instances: InstanceSet, h: int, w: int) -> VertexGrids:
    """Vertex heatmap and center-relative offsets.

    A vertex v lands in pixel (floor(v.y), floor(v.x)); the heatmap is 1
    there and the offsets store v - pixel center, in [-0.5, 0.5). When two
    vertices fall into one pixel the later write wins (warned).
    """
    heat = np.zeros((h, w), dtype=np.float32)
    off = np.zeros((h, w, 2), dtype=np.float32)
    collisions = 0
    for idx, scored in enumerate(instances):
        for ring in scored.polygon.rings():
            for v in ring.vertices:
                c = math.floor(v.x)
                r = math.floor(v.y)
                if not (0 <= c < w and 0 <= r < h):
                    raise RasterError(
                        f"vertex ({v.x}, {v.y}) of instance {idx} outside [0,{w})x[0,{h})"
                    )
                if heat[r, c] == 1.0:
                    collisions += 1
                heat[r, c] = 1.0
                off[r, c, 0] = _f32_offset(v.x - (c + 0.5))
                off[r, c, 1] = _f32_offset(v.y - (r + 0.5))
    if collisions:
        warnings.warn(f"{collisions} vertex pixel collisions; later vertices won", stacklevel=2)
    return VertexGrids(RasterGrid.from_array(heat), RasterGrid(off))


def offset_points(
    rows: np.ndarray, cols: np.ndarray, offsets: np.ndarray, scores: np.ndarray
) -> list[tuple[Point2, float]]:
    """Scored sub-pixel points of the given pixels in the encode_vertices
    format: pixel (r, c) with offsets (off_x, off_y) is the point
    (c + 0.5 + off_x, r + 0.5 + off_y)."""
    points = []
    for r, c, score in zip(rows.tolist(), cols.tolist(), scores.tolist()):
        x = c + 0.5 + float(offsets[r, c, 0])
        y = r + 0.5 + float(offsets[r, c, 1])
        points.append((Point2(x, y), score))
    return points


def decode_vertices(grids: VertexGrids) -> list[tuple[Point2, float]]:
    """Inverse of encode_vertices: nonzero heatmap pixels back to scored points."""
    heat = grids.heatmap.channel()
    rows, cols = np.nonzero(heat > 0)
    return offset_points(rows, cols, grids.offsets.data, heat[rows, cols])


def _square(radius: int) -> np.ndarray:
    return np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)


def degrade(mask: RasterGrid, grids: VertexGrids, spec: DegradeSpec) -> tuple[RasterGrid, VertexGrids]:
    """Deterministically corrupt a mask and vertex grids.

    Applies, in order: square dilation, square erosion, Gaussian jitter on
    the boundary band (clamped to [0, 1]), full-grid heatmap noise (also
    clamped), vertex dropout, and spurious vertex injection. A counter-based
    Philox generator keyed by rng_seed makes runs reproducible.
    """
    rng = np.random.Generator(np.random.Philox(key=spec.rng_seed))
    binary = mask.channel() > 0.5
    if spec.dilate_radius > 0:
        binary = ndimage.binary_dilation(binary, structure=_square(spec.dilate_radius))
    if spec.erode_radius > 0:
        binary = ndimage.binary_erosion(binary, structure=_square(spec.erode_radius))
    soft = binary.astype(np.float32)
    if spec.boundary_jitter_sigma > 0:
        band = ndimage.binary_dilation(binary, structure=_square(1)) & ~ndimage.binary_erosion(
            binary, structure=_square(1)
        )
        noise = rng.normal(0.0, spec.boundary_jitter_sigma, size=soft.shape)
        soft = np.where(band, soft + noise.astype(np.float32), soft)
        np.clip(soft, 0.0, 1.0, out=soft)

    heat = np.array(grids.heatmap.channel(), dtype=np.float32)
    off = np.array(grids.offsets.data, dtype=np.float32)
    if spec.heatmap_noise_sigma > 0:
        heat = heat + rng.normal(0.0, spec.heatmap_noise_sigma, size=heat.shape).astype(np.float32)
        np.clip(heat, 0.0, 1.0, out=heat)
    if spec.vertex_dropout_prob > 0:
        peaks = np.argwhere(grids.heatmap.channel() > 0)
        drops = rng.random(len(peaks)) < spec.vertex_dropout_prob
        for (r, c), drop in zip(peaks, drops):
            if drop:
                heat[r, c] = 0.0
                off[r, c, :] = 0.0
    if spec.spurious_vertex_count > 0:
        free = np.flatnonzero(grids.heatmap.channel().ravel() == 0)
        count = min(spec.spurious_vertex_count, len(free))
        chosen = rng.choice(free, size=count, replace=False)
        scores = rng.uniform(0.5, 1.0, size=count).astype(np.float32)
        offs = rng.uniform(-0.5, 0.5, size=(count, 2)).astype(np.float32)
        width = heat.shape[1]
        for flat, score, (ox, oy) in zip(chosen, scores, offs):
            r, c = divmod(int(flat), width)
            heat[r, c] = score
            off[r, c, 0] = ox
            off[r, c, 1] = oy
    return (
        RasterGrid.from_array(soft),
        VertexGrids(RasterGrid.from_array(heat), RasterGrid(off)),
    )


def downscale_targets(instances: InstanceSet, s: float) -> InstanceSet:
    """Divide every vertex coordinate by the down-sampling factor s (s >= 1)."""
    if s < 1:
        raise RasterError(f"down-sampling factor must be >= 1, got {s}")
    return instances.scaled(1.0 / s)
