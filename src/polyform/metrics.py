"""Evaluation measures for polygon and mask predictions.

Covers plain mask IoU, Boundary IoU, the symmetric vertex-to-boundary
PoLiS distance, complexity-aware IoU, COCO-style AP/AR over IoU thresholds
0.50:0.05:0.95 with 101-point interpolated precision, a greedy vertex F1,
and a corpus-level aggregator producing a flat report.

Instance masks are compared as crops (r0, c0, mask): the boolean mask of
the instance's bounding box at frame offset (r0, c0), background outside
it, so disjoint boxes give intersection 0 and every count equals the
full-frame one. The Boundary IoU band is taken on the crop padded by one
pixel, which is exact: the pad ring is background (or past the image
border, which counts as background), and no background pixel farther out
is nearer in Chebyshev distance than the ring pixel on the way to it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import ndimage

from .geometry import InstanceSet, Polygon, project_points_to_segments
from .io import TileRecord
from .polygonize import VertexSet
from .raster import RasterGrid, bounding_crop, polygon_mask_crop, union_of_crops

IOU_THRESHOLDS: tuple[float, ...] = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


class MetricsError(ValueError):
    """Invalid metric input."""


@dataclass(frozen=True)
class MatchResult:
    """One-to-one pred/gt matching; every pair's IoU meets the threshold."""

    pairs: tuple[tuple[int, int, float], ...]
    unmatched_preds: tuple[int, ...]
    unmatched_gts: tuple[int, ...]


@dataclass(frozen=True)
class EvalConfig:
    iou_thr: float = 0.5
    vertex_dist_thr: float = 5.0
    boundary_d_frac: float = 0.02


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

    def render_table(self) -> str:
        rows = self.to_json_dict()
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


def _union_iou(a: Sequence[_Crop], b: Sequence[_Crop]) -> float:
    """IoU of the union of crops a with the union of crops b, counted on the
    box that covers every crop; two empty unions count as 1."""
    crops = [crop for crop in (*a, *b) if crop[2].size]
    if not crops:
        return 1.0
    r0 = min(r for r, _, _ in crops)
    c0 = min(c for _, c, _ in crops)
    h = max(r + m.shape[0] for r, _, m in crops) - r0
    w = max(c + m.shape[1] for _, c, m in crops) - c0
    union_a, union_b = (union_of_crops([(r - r0, c - c0, m) for r, c, m in side], h, w) for side in (a, b))
    return _iou_counts(union_a, union_b)


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


def _inner_band(mask: np.ndarray, d: int) -> np.ndarray:
    """Mask pixels within Chebyshev distance d of the contour (the array border
    counts as outside, matching the COCO boundary convention; exact on crops)."""
    padded = np.pad(mask, 1)
    dist = ndimage.distance_transform_cdt(padded, metric="chessboard")
    return (dist[1:-1, 1:-1] <= d) & mask


def boundary_iou(a: RasterGrid, b: RasterGrid, d_frac: float = 0.02) -> float:
    """IoU restricted to pixels within distance d of each mask's contour,
    with d = max(1, round(d_frac * image diagonal))."""
    if (a.height, a.width) != (b.height, b.width):
        raise MetricsError(f"shape mismatch {a.height}x{a.width} vs {b.height}x{b.width}")
    if d_frac <= 0:
        raise MetricsError(f"d_frac must be > 0, got {d_frac}")
    d = _band_distance(a.height, a.width, d_frac)
    return _iou_counts(_inner_band(_binary(a), d), _inner_band(_binary(b), d))


def _min_dists_to_boundary(points: np.ndarray, poly: Polygon) -> np.ndarray:
    """Exact minimum distances from points (q, 2) to the polygon's boundary segments."""
    segs = np.asarray(poly.segment_coords(), dtype=np.float64)
    d2 = project_points_to_segments(points[:, 0:1], points[:, 1:2], *segs.T)[2]
    return np.sqrt(d2.min(axis=1))


def polis(a: Polygon, b: Polygon) -> float:
    """Symmetric mean vertex-to-boundary distance between two polygons.

    Hole vertices participate in the sums and hole rims belong to the
    boundary; distances are exact per-segment minima, not sampled.
    """
    va = np.asarray([(v.x, v.y) for v in a.all_vertices()])
    vb = np.asarray([(v.x, v.y) for v in b.all_vertices()])
    term_a = _min_dists_to_boundary(va, b).mean()
    term_b = _min_dists_to_boundary(vb, a).mean()
    return 0.5 * term_a + 0.5 * term_b


def _instance_crops(instances: InstanceSet, h: int, w: int) -> list[_Crop]:
    return [polygon_mask_crop(sp.polygon, h, w) for sp in instances]


def _vertex_discount(a: Iterable[Polygon], b: Iterable[Polygon]) -> float:
    """The C-IoU factor 1 - |N_A - N_B| / (N_A + N_B) over total vertex counts."""
    na = sum(p.vertex_count() for p in a)
    nb = sum(p.vertex_count() for p in b)
    return 1.0 - (0.0 if na + nb == 0 else abs(na - nb) / (na + nb))


def ciou(a: Sequence[Polygon], b: Sequence[Polygon], h: int, w: int) -> float:
    """Complexity-aware IoU: mask IoU discounted by the relative difference
    of total vertex counts, IoU * (1 - |N_A - N_B| / (N_A + N_B))."""
    crops_a = [polygon_mask_crop(p, h, w) for p in a]
    crops_b = [polygon_mask_crop(p, h, w) for p in b]
    return _union_iou(crops_a, crops_b) * _vertex_discount(a, b)


def _iou_matrix(preds: Sequence[_Crop], gts: Sequence[_Crop], band: int = 0) -> np.ndarray:
    """Pred x gt mask IoU, or with band > 0 the Boundary IoU at that distance."""
    if band:
        preds = [(r0, c0, _inner_band(m, band)) for r0, c0, m in preds]
        gts = [(r0, c0, _inner_band(m, band)) for r0, c0, m in gts]
    pred_areas = [np.count_nonzero(m) for _, _, m in preds]
    gt_areas = [np.count_nonzero(m) for _, _, m in gts]
    out = np.zeros((len(preds), len(gts)))
    for i, p in enumerate(preds):
        for j, g in enumerate(gts):
            out[i, j] = _crop_iou(p, g, pred_areas[i], gt_areas[j])
    return out


def _greedy_match(ious: np.ndarray, scores: Sequence[float], iou_thr: float) -> MatchResult:
    n_pred, n_gt = ious.shape
    order = sorted(range(n_pred), key=lambda i: (-scores[i], i))
    taken = np.zeros(n_gt, dtype=bool)
    pairs = []
    for i in order:
        best_j, best_iou = -1, iou_thr
        for j in range(n_gt):
            if not taken[j] and ious[i, j] >= best_iou and (best_j < 0 or ious[i, j] > best_iou):
                best_j, best_iou = j, ious[i, j]
        if best_j >= 0:
            taken[best_j] = True
            pairs.append((i, best_j, float(ious[i, best_j])))
    matched_preds = {p for p, _, _ in pairs}
    return MatchResult(
        tuple(sorted(pairs)),
        tuple(i for i in range(n_pred) if i not in matched_preds),
        tuple(j for j in range(n_gt) if not taken[j]),
    )


def match_instances(
    preds: InstanceSet, gts: InstanceSet, h: int, w: int, iou_thr: float = 0.5
) -> MatchResult:
    """Greedy one-to-one matching in descending prediction score order; each
    prediction takes the highest-IoU unmatched ground truth with IoU >= iou_thr."""
    ious = _iou_matrix(_instance_crops(preds, h, w), _instance_crops(gts, h, w))
    return _greedy_match(ious, [sp.score for sp in preds], iou_thr)


@dataclass(frozen=True)
class _Detection:
    score: float
    tile: str
    ious: np.ndarray  # IoU against this tile's ground truths


def _coco_curves(
    detections: list[_Detection], gt_counts: Mapping[str, int], thresholds: Sequence[float]
) -> tuple[list[float], list[float]]:
    total_gt = sum(gt_counts.values())
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    aps, ars = [], []
    recall_levels = np.linspace(0.0, 1.0, 101)
    for thr in thresholds:
        if total_gt == 0:
            value = 1.0 if not detections else 0.0
            aps.append(value)
            ars.append(value)
            continue
        taken = {tile: np.zeros(n, dtype=bool) for tile, n in gt_counts.items()}
        tp = np.zeros(len(order), dtype=bool)
        for rank, i in enumerate(order):
            det = detections[i]
            used = taken[det.tile]
            best_j, best_iou = -1, thr
            for j, value in enumerate(det.ious):
                if used[j] or value < best_iou:
                    continue
                if best_j < 0 or value > best_iou:
                    best_j, best_iou = j, value
            if best_j >= 0:
                used[best_j] = True
                tp[rank] = True
        if len(order) == 0:
            aps.append(0.0)
            ars.append(0.0)
            continue
        tp_cum = np.cumsum(tp)
        fp_cum = np.cumsum(~tp)
        recall = tp_cum / total_gt
        precision = tp_cum / np.maximum(tp_cum + fp_cum, 1)
        for k in range(len(precision) - 1, 0, -1):
            precision[k - 1] = max(precision[k - 1], precision[k])
        idx = np.searchsorted(recall, recall_levels, side="left")
        sampled = np.where(idx < len(precision), precision[np.minimum(idx, len(precision) - 1)], 0.0)
        aps.append(float(sampled.mean()))
        ars.append(float(recall[-1]))
    return aps, ars


def _ap_ar_summary(aps: list[float], ars: list[float]) -> tuple[float, float, float, float, float, float]:
    return (
        float(np.mean(aps)),
        aps[0],
        aps[5],
        float(np.mean(ars)),
        ars[0],
        ars[5],
    )


def coco_ap_ar_from_crops(
    preds: Mapping[str, Sequence[tuple[tuple[int, int, np.ndarray], float]]],
    gts: Mapping[str, Sequence[tuple[int, int, np.ndarray]]],
    sizes: Mapping[str, tuple[int, int]],
    mode: str = "mask",
    d_frac: float = 0.02,
) -> tuple[float, float, float, float, float, float]:
    """COCO AP/AR over instance masks given as (r0, c0, crop) as returned by
    raster.polygon_mask_crop. preds maps tile id to (crop, score) pairs, gts
    to crops, and sizes to the frame (h, w) that sets the Boundary IoU
    distance. mode "boundary" matches on Boundary IoU instead of mask IoU.
    """
    if set(preds) != set(gts):
        raise MetricsError(f"tile ids do not align: {sorted(set(preds) ^ set(gts))}")
    if mode not in ("mask", "boundary"):
        raise MetricsError(f"unknown mode {mode!r}")
    detections: list[_Detection] = []
    gt_counts: dict[str, int] = {}
    for tile in sorted(gts):
        band = _band_distance(*sizes[tile], d_frac) if mode == "boundary" else 0
        ious = _iou_matrix([crop for crop, _ in preds[tile]], gts[tile], band)
        gt_counts[tile] = len(gts[tile])
        detections += [_Detection(float(score), tile, row) for (_, score), row in zip(preds[tile], ious)]
    aps, ars = _coco_curves(detections, gt_counts, IOU_THRESHOLDS)
    return _ap_ar_summary(aps, ars)


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
        tile: [(polygon_mask_crop(sp.polygon, *sizes[tile]), sp.score) for sp in inst]
        for tile, inst in preds.items()
    }
    gt_crops = {tile: [polygon_mask_crop(sp.polygon, *sizes[tile]) for sp in inst] for tile, inst in gts.items()}
    return coco_ap_ar_from_crops(pred_crops, gt_crops, sizes, mode=mode, d_frac=d_frac)


def vertex_f1(pred: VertexSet, gt: VertexSet, dist_thr: float = 5.0) -> float:
    """F1 of a greedy one-to-one vertex matching by ascending distance; a
    pair matches when its distance is <= dist_thr."""
    if dist_thr <= 0:
        raise MetricsError(f"dist_thr must be > 0, got {dist_thr}")
    if len(pred) == 0 and len(gt) == 0:
        return 1.0
    if len(pred) == 0 or len(gt) == 0:
        return 0.0
    p = pred.coords()
    g = gt.coords()
    d = np.sqrt(((p[:, None, :] - g[None, :, :]) ** 2).sum(axis=2))
    candidates = [
        (float(d[i, j]), i, j)
        for i in range(len(p))
        for j in range(len(g))
        if d[i, j] <= dist_thr
    ]
    candidates.sort()
    used_p = set()
    used_g = set()
    matches = 0
    for _, i, j in candidates:
        if i in used_p or j in used_g:
            continue
        used_p.add(i)
        used_g.add(j)
        matches += 1
    precision = matches / len(p)
    recall = matches / len(g)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _vertices_of(instances: InstanceSet) -> VertexSet:
    points = tuple((v, 1.0) for sp in instances for v in sp.polygon.all_vertices())
    return VertexSet(points)


def evaluate_corpus(
    preds: Iterable[TileRecord],
    gts: Iterable[TileRecord],
    config: EvalConfig | None = None,
) -> EvalReport:
    """Aggregate every report metric over a tile collection.

    Tile ids must align between predictions and ground truth. PoLiS is
    averaged over pairs matched at config.iou_thr; the per-tile union IoU,
    C-IoU and vertex F1 are averaged over tiles.
    """
    cfg = config or EvalConfig()
    pred_by_id = {r.tile_id: r for r in preds}
    gt_by_id = {r.tile_id: r for r in gts}
    if set(pred_by_id) != set(gt_by_id):
        raise MetricsError(f"tile ids do not align: {sorted(set(pred_by_id) ^ set(gt_by_id))}")

    detections_mask: list[_Detection] = []
    detections_boundary: list[_Detection] = []
    gt_counts: dict[str, int] = {}
    tile_ious: list[float] = []
    tile_cious: list[float] = []
    tile_vertex_f1: list[float] = []
    polis_values: list[float] = []
    matched_gts = 0
    total_gts = 0

    for tile in sorted(gt_by_id):
        gt_rec = gt_by_id[tile]
        pred_rec = pred_by_id[tile]
        h, w = gt_rec.image_size
        gt_polys = [sp.polygon for sp in gt_rec.instances]
        pred_polys = [sp.polygon for sp in pred_rec.instances]
        scores = [sp.score for sp in pred_rec.instances]
        gt_crops = _instance_crops(gt_rec.instances, h, w)
        pred_crops = _instance_crops(pred_rec.instances, h, w)

        ious = _iou_matrix(pred_crops, gt_crops)
        b_ious = _iou_matrix(pred_crops, gt_crops, _band_distance(h, w, cfg.boundary_d_frac))

        gt_counts[tile] = len(gt_crops)
        total_gts += len(gt_crops)
        for i, score in enumerate(scores):
            detections_mask.append(_Detection(float(score), tile, ious[i]))
            detections_boundary.append(_Detection(float(score), tile, b_ious[i]))

        tile_ious.append(_union_iou(pred_crops, gt_crops))
        tile_cious.append(tile_ious[-1] * _vertex_discount(pred_polys, gt_polys))

        match = _greedy_match(ious, scores, cfg.iou_thr)
        matched_gts += len(match.pairs)
        for pi, gi, _ in match.pairs:
            polis_values.append(polis(pred_polys[pi], gt_polys[gi]))

        tile_vertex_f1.append(
            vertex_f1(_vertices_of(pred_rec.instances), _vertices_of(gt_rec.instances), cfg.vertex_dist_thr)
        )

    aps, ars = _coco_curves(detections_mask, gt_counts, IOU_THRESHOLDS)
    ap, ap50, ap75, ar, ar50, ar75 = _ap_ar_summary(aps, ars)
    b_aps, _ = _coco_curves(detections_boundary, gt_counts, IOU_THRESHOLDS)
    return EvalReport(
        ap=ap,
        ap50=ap50,
        ap75=ap75,
        ar=ar,
        ar50=ar50,
        ar75=ar75,
        ap_boundary=float(np.mean(b_aps)),
        polis_mean=float(np.mean(polis_values)) if polis_values else 0.0,
        ciou=float(np.mean(tile_cious)) if tile_cious else 1.0,
        iou=float(np.mean(tile_ious)) if tile_ious else 1.0,
        vertex_f1=float(np.mean(tile_vertex_f1)) if tile_vertex_f1 else 1.0,
        polis_match_rate=(matched_gts / total_gts) if total_gts else 1.0,
    )
