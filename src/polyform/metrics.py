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


def _score_order(scores: Sequence[float]) -> list[int]:
    """Prediction indices by descending score, the lower index first on ties."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def _greedy_match(ious: np.ndarray, scores: Sequence[float], iou_thr: float) -> MatchResult:
    """The one matching rule: predictions in score order each take the free
    ground truth of highest IoU >= iou_thr, the lowest index on ties."""
    n_pred, n_gt = ious.shape
    free_ious = np.where(ious >= iou_thr, ious, -np.inf)  # a taken column drops to -inf too
    pairs = []
    for i in _score_order(scores) if n_gt else ():
        j = int(free_ious[i].argmax())  # the first maximum
        if free_ious[i, j] > -np.inf:
            free_ious[:, j] = -np.inf
            pairs.append((i, j, float(ious[i, j])))
    matched_preds = {i for i, _, _ in pairs}
    matched_gts = {j for _, j, _ in pairs}
    return MatchResult(
        tuple(sorted(pairs)),
        tuple(i for i in range(n_pred) if i not in matched_preds),
        tuple(j for j in range(n_gt) if j not in matched_gts),
    )


def match_instances(
    preds: InstanceSet, gts: InstanceSet, h: int, w: int, iou_thr: float = 0.5
) -> MatchResult:
    """Greedy one-to-one matching in descending prediction score order; each
    prediction takes the highest-IoU unmatched ground truth with IoU >= iou_thr."""
    ious = _iou_matrix(_instance_crops(preds, h, w), _instance_crops(gts, h, w))
    return _greedy_match(ious, [sp.score for sp in preds], iou_thr)


_Table = tuple[np.ndarray, Sequence[float]]  # one tile's (pred x gt IoU, pred scores)


def _coco_summary(tables: Sequence[_Table]) -> tuple[float, float, float, float, float, float]:
    """COCO (ap, ap50, ap75, ar, ar50, ar75) over per-tile tables in tile order.

    Each tile is matched on its own at every IoU threshold; detections are
    then ranked over all tiles in score order for 101-point interpolated
    precision, averaged over the thresholds.
    """
    scores = [s for _, tile_scores in tables for s in tile_scores]
    total_gt = sum(ious.shape[1] for ious, _ in tables)
    if total_gt == 0 or not scores:
        value = 1.0 if total_gt == 0 and not scores else 0.0
        return (value,) * 6
    order = _score_order(scores)
    recall_levels = np.linspace(0.0, 1.0, 101)
    aps, ars = [], []
    for thr in IOU_THRESHOLDS:
        matched = np.zeros(len(scores), dtype=bool)
        offset = 0
        for ious, tile_scores in tables:
            matched[[offset + i for i, _, _ in _greedy_match(ious, tile_scores, thr).pairs]] = True
            offset += len(tile_scores)
        tp = matched[order]
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
    return float(np.mean(aps)), aps[0], aps[5], float(np.mean(ars)), ars[0], ars[5]


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

    mask_tables: list[_Table] = []
    boundary_tables: list[_Table] = []
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
        mask_tables.append((ious, scores))
        boundary_tables.append((_iou_matrix(pred_crops, gt_crops, _band_distance(h, w, cfg.boundary_d_frac)), scores))
        total_gts += len(gt_crops)

        tile_ious.append(_union_iou(pred_crops, gt_crops))
        tile_cious.append(tile_ious[-1] * _vertex_discount(pred_polys, gt_polys))

        match = _greedy_match(ious, scores, cfg.iou_thr)
        matched_gts += len(match.pairs)
        for pi, gi, _ in match.pairs:
            polis_values.append(polis(pred_polys[pi], gt_polys[gi]))

        tile_vertex_f1.append(
            vertex_f1(_vertices_of(pred_rec.instances), _vertices_of(gt_rec.instances), cfg.vertex_dist_thr)
        )

    ap, ap50, ap75, ar, ar50, ar75 = _coco_summary(mask_tables)
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
        polis_match_rate=(matched_gts / total_gts) if total_gts else 1.0,
    )
