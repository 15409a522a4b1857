"""Evaluation measures for polygon and mask predictions.

Covers plain mask IoU, Boundary IoU, the symmetric vertex-to-boundary
PoLiS distance, complexity-aware IoU, COCO-style AP/AR over IoU thresholds
0.50:0.05:0.95 with 101-point interpolated precision, a greedy vertex F1,
and a corpus-level aggregator producing a flat report.

Instance masks are compared as crops (r0, c0, mask): the boolean mask of
the instance's bounding box at frame offset (r0, c0), background outside
it, so disjoint boxes give intersection 0 and every count equals the
full-frame one.

The Boundary IoU band of a mask is its pixels within Chebyshev distance d
of a pixel outside it, the image border counting as outside. Every crop of
a tile, pred and gt, goes into one atlas (raster.shelf_pack), each crop
followed by one background row and column, and one erosion serves them
all: two ndimage.minimum_filter1d passes of width 2d + 1, with the atlas
border as background (mode "constant", cval 0). The band is mask &
~eroded, sliced back out per crop. This is exact. Erosion by the
(2d + 1) square keeps a pixel exactly when every pixel of the square
around it is set, that is, when its Chebyshev distance to background
exceeds d. A square that stays inside its crop reads what the frame
holds there. A square that leaves its crop covers the pixel just past the
crop's side, in its own row or column, and that pixel is a gap pixel
(another crop's following row or column, or this crop's own) or lies
past the atlas border: background, as the frame is past the crop's
bounding box. So the pixel erodes away in the atlas as on the frame. A
full frame is one crop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import ndimage

from .geometry import InstanceSet, Polygon, edge_arrays, expand_ranges, near_pairs, project_points_to_segments
from .io import TileRecord
from .polygonize import VertexSet
from .raster import RasterGrid, bounding_crop, polygon_mask_crops, shelf_pack, union_of_crops

IOU_THRESHOLDS: tuple[float, ...] = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


class MetricsError(ValueError):
    """Invalid metric input."""


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise MetricsError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class MatchResult:
    """One-to-one pred/gt matching; every pair's IoU meets the threshold."""

    pairs: tuple[tuple[int, int, float], ...]
    unmatched_preds: tuple[int, ...]
    unmatched_gts: tuple[int, ...]


@dataclass(frozen=True)
class EvalConfig:
    """iou_thr in [0, 1]; vertex_dist_thr (pixels) and boundary_d_frac finite and > 0."""

    iou_thr: float = 0.5
    vertex_dist_thr: float = 5.0
    boundary_d_frac: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 <= self.iou_thr <= 1.0:
            raise MetricsError(f"iou_thr must be in [0, 1], got {self.iou_thr}")
        for name in ("vertex_dist_thr", "boundary_d_frac"):
            _check_positive(name, getattr(self, name))


@dataclass(frozen=True)
class EvalReport:
    """Aggregated corpus metrics. polis_mean is in pixels, the rest in [0, 1].

    polis_mean and polis_match_rate describe the pairs matched at the
    configured IoU threshold; an empty match set reports 0 for both.
    """

    ap: float
    ap50: float
    ap75: float
    ar: float
    ar50: float
    ar75: float
    ap_boundary: float
    polis_mean: float
    ciou: float
    iou: float
    vertex_f1: float
    polis_match_rate: float

    def to_json_dict(self) -> dict[str, float]:
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}

    def render_table(self, **leading: float) -> str:
        rows = {**leading, **self.to_json_dict()}
        width = max(len(k) for k in rows)
        lines = [f"{k.ljust(width)}  {v:.6f}" for k, v in rows.items()]
        return "\n".join(lines)


_Crop = tuple[int, int, np.ndarray]  # (r0, c0, bounding-box mask), see the module docstring


def _crop_iou(a: _Crop, b: _Crop, area_a: int, area_b: int) -> float:
    """IoU of two crops with the given pixel counts; two empty masks count as 1."""
    (ar, ac, am), (br, bc, bm) = a, b
    r0, r1 = max(ar, br), min(ar + am.shape[0], br + bm.shape[0])
    c0, c1 = max(ac, bc), min(ac + am.shape[1], bc + bm.shape[1])
    inter = 0
    if r0 < r1 and c0 < c1:
        inter = np.count_nonzero(am[r0 - ar : r1 - ar, c0 - ac : c1 - ac] & bm[r0 - br : r1 - br, c0 - bc : c1 - bc])
    union = area_a + area_b - inter
    if union == 0:
        return 1.0
    return inter / union


def _covered_ranks(starts: Sequence[int], ends: Sequence[int]) -> tuple[list[int], int]:
    """For the half-open spans [starts[k], ends[k]) of one axis, each
    start's rank among the positions that some span covers, and how many
    positions are covered. One pass over the spans in start order: every
    position between the farthest end so far and the next start is
    uncovered, and shifts each later start down by one."""
    ranks = [0] * len(starts)
    shift = reach = 0
    for k in sorted(range(len(starts)), key=starts.__getitem__):
        start = starts[k]
        if start > reach:
            shift += start - reach
        ranks[k] = start - shift
        if ends[k] > reach:
            reach = ends[k]
    return ranks, reach - shift


def _union_iou(a: Sequence[_Crop], b: Sequence[_Crop]) -> float:
    """IoU of the union of crops a with the union of crops b; two empty
    unions count as 1.

    The unions are painted on the rows and columns that some crop covers
    only, each crop moved to the ranks of its first row and column among
    them (_covered_ranks). Every row and column of a crop is covered, so
    the crop stays whole; a row or column that no crop covers holds no
    pixel of either union, so both counts equal the full frame's. No frame
    larger than (covered rows) x (covered columns) is made."""
    crops = [crop for crop in (*a, *b) if crop[2].size]
    if not crops:
        return 1.0
    rows, n_rows = _covered_ranks([r for r, _, _ in crops], [r + m.shape[0] for r, _, m in crops])
    cols, n_cols = _covered_ranks([c for _, c, _ in crops], [c + m.shape[1] for _, c, m in crops])
    moved = [(r0, c0, m) for r0, c0, (_, _, m) in zip(rows, cols, crops)]
    n_a = sum(1 for crop in a if crop[2].size)
    return _iou_counts(union_of_crops(moved[:n_a], n_rows, n_cols), union_of_crops(moved[n_a:], n_rows, n_cols))


def _binary(grid: RasterGrid) -> np.ndarray:
    return grid.channel() > 0.5


def _iou_counts(a: np.ndarray, b: np.ndarray) -> float:
    inter = np.count_nonzero(a & b)
    union = np.count_nonzero(a | b)
    if union == 0:
        return 1.0
    return inter / union


def iou_mask(a: RasterGrid, b: RasterGrid) -> float:
    """Intersection over union of two masks; two empty masks count as 1."""
    if (a.height, a.width) != (b.height, b.width):
        raise MetricsError(f"shape mismatch {a.height}x{a.width} vs {b.height}x{b.width}")
    return _iou_counts(_binary(a), _binary(b))


def _band_distance(h: int, w: int, d_frac: float) -> int:
    return max(1, round(d_frac * math.hypot(h, w)))


def _inner_bands(masks: Sequence[np.ndarray], d: int) -> list[np.ndarray]:
    """The Boundary IoU band at distance d of each boolean mask, from one
    erosion of one atlas (see the module docstring)."""
    if not masks:
        return []
    ys, xs, height, width = shelf_pack([(m.shape[0] + 1, m.shape[1] + 1) for m in masks])
    atlas = np.zeros((height, width), dtype=bool)
    for m, y, x in zip(masks, ys, xs):
        atlas[y : y + m.shape[0], x : x + m.shape[1]] = m
    eroded = ndimage.minimum_filter1d(atlas, 2 * d + 1, axis=0, mode="constant", cval=0)
    eroded = ndimage.minimum_filter1d(eroded, 2 * d + 1, axis=1, mode="constant", cval=0)
    band = atlas & ~eroded
    return [band[y : y + m.shape[0], x : x + m.shape[1]] for m, y, x in zip(masks, ys, xs)]


def boundary_iou(a: RasterGrid, b: RasterGrid, d_frac: float = 0.02) -> float:
    """IoU restricted to pixels within distance d of each mask's contour,
    with d = max(1, round(d_frac * image diagonal))."""
    if (a.height, a.width) != (b.height, b.width):
        raise MetricsError(f"shape mismatch {a.height}x{a.width} vs {b.height}x{b.width}")
    _check_positive("d_frac", d_frac)
    d = _band_distance(a.height, a.width, d_frac)
    return _iou_counts(*(_inner_bands([_binary(g)], d)[0] for g in (a, b)))  # a frame is one crop


# the most (vertex, edge) elements one projection call gathers; pairs are
# split between calls at pair boundaries, and a larger pair goes alone
_POLIS_CHUNK = 2**16


def _mean_distances(p: list[np.ndarray], q: list[np.ndarray], p_ranges: np.ndarray, q_ranges: np.ndarray) -> np.ndarray:
    """Per pair k, the mean distance from the vertices p_ranges[k] = (first,
    count) of edge set p to the nearest edge of q_ranges[k] in edge set q,
    each set the (ax, ay, bx, by) of geometry.edge_arrays (each vertex starts
    one edge). The (vertex, edge) elements of all pairs are gathered into
    one projection call; a lone pair is broadcast instead, vertices against
    edges, so it takes no gathered copies. Each pair's mean is taken over
    its own contiguous slice of vertices."""
    if len(p_ranges) == 1:
        (first, n), (q_first, q_n) = p_ranges[0].tolist(), q_ranges[0].tolist()
        v, e = slice(first, first + n), slice(q_first, q_first + q_n)
        d2 = project_points_to_segments(p[0][v, None], p[1][v, None], *(side[e] for side in q))[2]
        return np.sqrt(d2.min(axis=1)).mean(keepdims=True)
    pair, vertex = expand_ranges(p_ranges[:, 0], p_ranges.sum(axis=1) - 1)
    first, count = q_ranges[pair].T
    row, edge = expand_ranges(first, first + count - 1)
    d2 = project_points_to_segments(p[0][vertex][row], p[1][vertex][row], *(side[edge] for side in q))[2]
    dist = np.sqrt(np.minimum.reduceat(d2, np.cumsum(count) - count))
    ends = np.cumsum(p_ranges[:, 1]).tolist()
    return np.array([dist[end - n : end].mean() for end, n in zip(ends, p_ranges[:, 1].tolist())])


def _edge_ranges(polys: Sequence[Polygon], index: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The (ax, ay, bx, by) of edge_arrays(polys), and the (first edge, edge
    count) of polys[i] for each i of index."""
    *edges, counts = edge_arrays(polys)
    return edges, np.stack([np.cumsum(counts) - counts, counts], axis=1)[index]


def _polis_pairs(p: list[np.ndarray], p_ranges: np.ndarray, q: list[np.ndarray], q_ranges: np.ndarray) -> list[float]:
    """PoLiS of each pair k of polygons, given as edge ranges p_ranges[k] of
    edge set p and q_ranges[k] of q (see _mean_distances), in pair order,
    with one projection per direction for every _POLIS_CHUNK elements."""
    elements = (p_ranges[:, 1] * q_ranges[:, 1]).tolist()  # the same count in both directions
    out: list[float] = []
    start = 0
    while start < len(elements):
        # the next pairs whose elements fit under the cap, at least one
        stop, total = start + 1, elements[start]
        while stop < len(elements) and total + elements[stop] <= _POLIS_CHUNK:
            total += elements[stop]
            stop += 1
        chunk = slice(start, stop)
        a = _mean_distances(p, q, p_ranges[chunk], q_ranges[chunk])
        b = _mean_distances(q, p, q_ranges[chunk], p_ranges[chunk])
        out += (0.5 * a + 0.5 * b).tolist()
        start = stop
    return out


def polis(a: Polygon, b: Polygon) -> float:
    """Symmetric mean vertex-to-boundary distance between two polygons.

    Hole vertices participate in the sums and hole rims belong to the
    boundary; distances are exact per-segment minima, not sampled.
    """
    *edges, (na, nb) = edge_arrays([a, b])
    return _polis_pairs(edges, np.array([[0, na]]), edges, np.array([[na, nb]]))[0]


def _crops_of(a: Sequence[Polygon], b: Sequence[Polygon], h: int, w: int) -> tuple[list[_Crop], list[_Crop]]:
    """The crops of two polygon lists on one h x w frame, filled in one pass."""
    crops = polygon_mask_crops([*a, *b], h, w)
    return crops[: len(a)], crops[len(a) :]


def _vertex_discount(a: Iterable[Polygon], b: Iterable[Polygon]) -> float:
    """The C-IoU factor 1 - |N_A - N_B| / (N_A + N_B) over total vertex counts."""
    na = sum(p.vertex_count() for p in a)
    nb = sum(p.vertex_count() for p in b)
    return 1.0 - (0.0 if na + nb == 0 else abs(na - nb) / (na + nb))


def ciou(a: Sequence[Polygon], b: Sequence[Polygon], h: int, w: int) -> float:
    """Complexity-aware IoU: mask IoU discounted by the relative difference
    of total vertex counts, IoU * (1 - |N_A - N_B| / (N_A + N_B))."""
    return _union_iou(*_crops_of(a, b, h, w)) * _vertex_discount(a, b)


def _iou_matrix(preds: Sequence[_Crop], gts: Sequence[_Crop], band: int = 0) -> np.ndarray:
    """Pred x gt mask IoU, or with band > 0 the Boundary IoU at that distance.

    One vectorised test finds the pairs whose boxes overlap, and only those
    are counted; a disjoint pair has intersection 0, so its IoU is 0, or 1
    when both crops are empty, as _crop_iou gives it.
    """
    if band:
        bands = _inner_bands([m for _, _, m in (*preds, *gts)], band)
        preds = [(r0, c0, m) for (r0, c0, _), m in zip(preds, bands)]
        gts = [(r0, c0, m) for (r0, c0, _), m in zip(gts, bands[len(preds) :])]
    pred_areas = np.array([np.count_nonzero(m) for _, _, m in preds], dtype=np.int64)
    gt_areas = np.array([np.count_nonzero(m) for _, _, m in gts], dtype=np.int64)
    out = np.outer(pred_areas == 0, gt_areas == 0).astype(np.float64)
    if not (preds and gts):
        return out
    pr, pc, ph, pw = np.array([(r0, c0, *m.shape) for r0, c0, m in preds]).T
    gr, gc, gh, gw = np.array([(r0, c0, *m.shape) for r0, c0, m in gts]).T
    overlap = (np.maximum.outer(pr, gr) < np.minimum.outer(pr + ph, gr + gh)) & (
        np.maximum.outer(pc, gc) < np.minimum.outer(pc + pw, gc + gw)
    )
    for i, j in zip(*np.nonzero(overlap)):
        out[i, j] = _crop_iou(preds[i], gts[j], pred_areas[i], gt_areas[j])
    return out


def _score_order(scores: Sequence[float]) -> list[int]:
    """Prediction indices by descending score, the lower index first on ties."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def _greedy_match(ious: np.ndarray, scores: Sequence[float], thresholds: Sequence[float]) -> np.ndarray:
    """The one matching rule, at every threshold in one pass: predictions in
    score order each take the free ground truth of highest IoU >= thr, the
    lowest index on ties. Row t gives each prediction's ground truth at
    thresholds[t], or -1 when it stays unmatched."""
    n_pred, n_gt = ious.shape
    thr = np.asarray(thresholds, dtype=np.float64)[:, None]
    rows = np.arange(len(thr))
    matches = np.full((len(thr), n_pred), -1, dtype=np.intp)
    free = np.ones((len(thr), n_gt), dtype=bool)
    for i in _score_order(scores) if n_gt else ():
        candidates = np.where(free & (ious[i] >= thr), ious[i], -np.inf)
        j = candidates.argmax(axis=1)  # the first maximum
        hit = candidates[rows, j] > -np.inf
        matches[hit, i] = j[hit]
        free[rows[hit], j[hit]] = False
    return matches


def match_instances(
    preds: InstanceSet, gts: InstanceSet, h: int, w: int, iou_thr: float = 0.5
) -> MatchResult:
    """Greedy one-to-one matching in descending prediction score order; each
    prediction takes the highest-IoU unmatched ground truth with IoU >= iou_thr."""
    ious = _iou_matrix(*_crops_of([sp.polygon for sp in preds], [sp.polygon for sp in gts], h, w))
    match = _greedy_match(ious, [sp.score for sp in preds], (iou_thr,))[0]
    matched = np.flatnonzero(match >= 0).tolist()
    return MatchResult(
        tuple((i, int(match[i]), float(ious[i, match[i]])) for i in matched),
        tuple(np.flatnonzero(match < 0).tolist()),
        tuple(np.setdiff1d(np.arange(ious.shape[1]), match).tolist()),
    )


_Table = tuple[np.ndarray, Sequence[float]]  # one tile's (pred x gt IoU, pred scores)


def _coco_summary(tables: Sequence[_Table]) -> tuple[float, float, float, float, float, float]:
    """COCO (ap, ap50, ap75, ar, ar50, ar75) over per-tile tables in tile order.

    Each tile is matched on its own, in one pass for every IoU threshold;
    detections are then ranked over all tiles in score order for 101-point
    interpolated precision, averaged over the thresholds.
    """
    scores = [s for _, tile_scores in tables for s in tile_scores]
    total_gt = sum(ious.shape[1] for ious, _ in tables)
    if total_gt == 0 or not scores:
        value = 1.0 if total_gt == 0 and not scores else 0.0
        return (value,) * 6
    matched = np.concatenate([_greedy_match(ious, s, IOU_THRESHOLDS) for ious, s in tables], axis=1) >= 0
    tp_cum = np.cumsum(matched[:, _score_order(scores)], axis=1)
    recalls = tp_cum / total_gt
    precisions = tp_cum / np.arange(1, len(scores) + 1)
    envelopes = np.maximum.accumulate(precisions[:, ::-1], axis=1)[:, ::-1]
    recall_levels = np.linspace(0.0, 1.0, 101)
    aps, ars = [], []
    for recall, precision in zip(recalls, envelopes):
        idx = np.searchsorted(recall, recall_levels, side="left")
        sampled = np.where(idx < len(precision), precision[np.minimum(idx, len(precision) - 1)], 0.0)
        aps.append(float(sampled.mean()))
        ars.append(float(recall[-1]))
    return float(np.mean(aps)), aps[0], aps[5], float(np.mean(ars)), ars[0], ars[5]


def coco_ap_ar_from_crops(
    preds: Mapping[str, Sequence[tuple[tuple[int, int, np.ndarray], float]]],
    gts: Mapping[str, Sequence[tuple[int, int, np.ndarray]]],
    sizes: Mapping[str, tuple[int, int]],
    mode: str = "mask",
    d_frac: float = 0.02,
) -> tuple[float, float, float, float, float, float]:
    """COCO AP/AR over instance masks given as (r0, c0, crop) as returned by
    raster.polygon_mask_crops. preds maps tile id to (crop, score) pairs, gts
    to crops, and sizes to the frame (h, w) that sets the Boundary IoU
    distance. mode "boundary" matches on Boundary IoU instead of mask IoU.
    """
    if set(preds) != set(gts):
        raise MetricsError(f"tile ids do not align: {sorted(set(preds) ^ set(gts))}")
    if mode not in ("mask", "boundary"):
        raise MetricsError(f"unknown mode {mode!r}")
    _check_positive("d_frac", d_frac)
    tables = []
    for tile in sorted(gts):
        band = _band_distance(*sizes[tile], d_frac) if mode == "boundary" else 0
        ious = _iou_matrix([crop for crop, _ in preds[tile]], gts[tile], band)
        tables.append((ious, [score for _, score in preds[tile]]))
    return _coco_summary(tables)


def coco_ap_ar_from_masks(
    preds: Mapping[str, Sequence[tuple[np.ndarray, float]]],
    gts: Mapping[str, Sequence[np.ndarray]],
    mode: str = "mask",
    d_frac: float = 0.02,
) -> tuple[float, float, float, float, float, float]:
    """COCO AP/AR over pre-rasterized full-frame instance masks.

    preds maps tile id to (boolean mask, score) pairs and gts to boolean
    masks. mode "boundary" matches on Boundary IoU instead of mask IoU.
    """
    pred_crops = {tile: [(bounding_crop(m), s) for m, s in pairs] for tile, pairs in preds.items()}
    gt_crops = {tile: [bounding_crop(m) for m in masks] for tile, masks in gts.items()}
    sizes = {t: next(iter([m.shape for m in gts[t]] + [m.shape for m, _ in preds.get(t, ())]), (1, 1)) for t in gts}
    return coco_ap_ar_from_crops(pred_crops, gt_crops, sizes, mode=mode, d_frac=d_frac)


def coco_ap_ar(
    preds: Mapping[str, InstanceSet],
    gts: Mapping[str, InstanceSet],
    sizes: Mapping[str, tuple[int, int]],
    mode: str = "mask",
    d_frac: float = 0.02,
) -> tuple[float, float, float, float, float, float]:
    """COCO-protocol (ap, ap50, ap75, ar, ar50, ar75) for polygon instances.

    Rasterizes every instance at its tile's native size, matches predictions
    to ground truths greedily in score order per IoU threshold (0.50:0.05:0.95)
    and averages 101-point interpolated precision over the thresholds.
    """
    pred_crops = {
        tile: list(zip(polygon_mask_crops([sp.polygon for sp in inst], *sizes[tile]), (sp.score for sp in inst)))
        for tile, inst in preds.items()
    }
    gt_crops = {tile: polygon_mask_crops([sp.polygon for sp in inst], *sizes[tile]) for tile, inst in gts.items()}
    return coco_ap_ar_from_crops(pred_crops, gt_crops, sizes, mode=mode, d_frac=d_frac)


def vertex_f1(pred: VertexSet, gt: VertexSet, dist_thr: float = 5.0) -> float:
    """F1 of a greedy one-to-one vertex matching by ascending distance; a
    pair matches when its distance is <= dist_thr. Only the pairs of
    geometry.near_pairs(pred, gt, dist_thr + 1) are measured."""
    _check_positive("dist_thr", dist_thr)
    if len(pred) == 0 and len(gt) == 0:
        return 1.0
    if len(pred) == 0 or len(gt) == 0:
        return 0.0
    p = pred.coords()
    g = gt.coords()
    rows, cols = near_pairs(p, g, dist_thr + 1.0)
    d = np.sqrt(((p[rows] - g[cols]) ** 2).sum(axis=1))
    within = d <= dist_thr
    rows, cols, d = rows[within], cols[within], d[within]
    order = np.lexsort((cols, rows, d))  # by distance, then pred, then gt index
    used_p = [False] * len(p)
    used_g = [False] * len(g)
    matches = 0
    for i, j in zip(rows[order].tolist(), cols[order].tolist()):
        if used_p[i] or used_g[j]:
            continue
        used_p[i] = used_g[j] = True
        matches += 1
    precision = matches / len(p)
    recall = matches / len(g)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _vertices_of(instances: InstanceSet) -> VertexSet:
    points = tuple((v, 1.0) for sp in instances for v in sp.polygon.all_vertices())
    return VertexSet(points)


def _by_tile_id(records: Iterable[TileRecord], what: str) -> dict[str, TileRecord]:
    out: dict[str, TileRecord] = {}
    for rec in records:
        if rec.tile_id in out:
            raise MetricsError(f"{what}: tile id {rec.tile_id!r} repeated")
        out[rec.tile_id] = rec
    return out


def evaluate_corpus(
    preds: Iterable[TileRecord],
    gts: Iterable[TileRecord],
    config: EvalConfig | None = None,
    *,
    gt_crops: Mapping[str, Sequence[_Crop]] | None = None,
) -> EvalReport:
    """Aggregate every report metric over a tile collection.

    Tile ids must be unique on each side and align between predictions and
    ground truth, and each tile must have one image size on both sides.
    PoLiS is averaged over pairs matched at config.iou_thr; the per-tile
    union IoU, C-IoU and vertex F1 are averaged over tiles.

    gt_crops, when given, maps each tile id to the
    raster.polygon_mask_crops of its ground-truth polygons on its frame,
    which a caller that filled them already passes so they are not filled
    again; the report is the same.
    """
    cfg = config or EvalConfig()
    pred_by_id = _by_tile_id(preds, "predictions")
    gt_by_id = _by_tile_id(gts, "ground truth")
    if set(pred_by_id) != set(gt_by_id):
        raise MetricsError(f"tile ids do not align: {sorted(set(pred_by_id) ^ set(gt_by_id))}")

    mask_tables: list[_Table] = []
    boundary_tables: list[_Table] = []
    tile_ious: list[float] = []
    tile_cious: list[float] = []
    tile_vertex_f1: list[float] = []
    polis_values: list[float] = []

    for tile in sorted(gt_by_id):
        gt_rec = gt_by_id[tile]
        pred_rec = pred_by_id[tile]
        h, w = gt_rec.image_size
        if pred_rec.image_size != (h, w):
            ph, pw = pred_rec.image_size
            raise MetricsError(f"tile {tile!r}: prediction is {ph}x{pw} but ground truth is {h}x{w}")
        gt_polys = [sp.polygon for sp in gt_rec.instances]
        pred_polys = [sp.polygon for sp in pred_rec.instances]
        scores = [sp.score for sp in pred_rec.instances]
        if gt_crops is None:
            pred_crops, gt_tile_crops = _crops_of(pred_polys, gt_polys, h, w)
        else:
            pred_crops, gt_tile_crops = polygon_mask_crops(pred_polys, h, w), gt_crops[tile]
            if len(gt_tile_crops) != len(gt_polys):
                raise MetricsError(f"tile {tile!r}: {len(gt_tile_crops)} ground-truth crops for {len(gt_polys)} polygons")

        ious = _iou_matrix(pred_crops, gt_tile_crops)
        mask_tables.append((ious, scores))
        boundary_tables.append((_iou_matrix(pred_crops, gt_tile_crops, _band_distance(h, w, cfg.boundary_d_frac)), scores))

        tile_ious.append(_union_iou(pred_crops, gt_tile_crops))
        tile_cious.append(tile_ious[-1] * _vertex_discount(pred_polys, gt_polys))

        match = _greedy_match(ious, scores, (cfg.iou_thr,))[0]
        matched = np.flatnonzero(match >= 0)
        if matched.size:
            polis_values += _polis_pairs(*_edge_ranges(pred_polys, matched), *_edge_ranges(gt_polys, match[matched]))

        tile_vertex_f1.append(
            vertex_f1(_vertices_of(pred_rec.instances), _vertices_of(gt_rec.instances), cfg.vertex_dist_thr)
        )

    ap, ap50, ap75, ar, ar50, ar75 = _coco_summary(mask_tables)
    total_gts = sum(ious.shape[1] for ious, _ in mask_tables)
    return EvalReport(
        ap=ap,
        ap50=ap50,
        ap75=ap75,
        ar=ar,
        ar50=ar50,
        ar75=ar75,
        ap_boundary=_coco_summary(boundary_tables)[0],
        polis_mean=float(np.mean(polis_values)) if polis_values else 0.0,
        ciou=float(np.mean(tile_cious)) if tile_cious else 1.0,
        iou=float(np.mean(tile_ious)) if tile_ious else 1.0,
        vertex_f1=float(np.mean(tile_vertex_f1)) if tile_vertex_f1 else 1.0,
        polis_match_rate=(len(polis_values) / total_gts) if total_gts else 1.0,
    )
