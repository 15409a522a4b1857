"""Independent brute-force oracles.

Everything here is deliberately written without reusing the library's
implementations: scalar arithmetic, exhaustive enumeration, or dense
sampling. Tests derive their expected values from these.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from polyform.geometry import Polygon
from polyform.metrics import MatchResult


def point_segment_distance(px, py, ax, ay, bx, by) -> float:
    """Scalar closed-form point-to-segment distance."""
    ex, ey = bx - ax, by - ay
    l2 = ex * ex + ey * ey
    if l2 == 0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * ex + (py - ay) * ey) / l2
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * ex), py - (ay + t * ey))


def min_dist_over_segments(px, py, segs) -> tuple[int, float]:
    """Exhaustive scan over (ax, ay, bx, by) tuples; lowest index wins ties."""
    best_i, best_d = -1, math.inf
    for i, (ax, ay, bx, by) in enumerate(segs):
        d = point_segment_distance(px, py, ax, ay, bx, by)
        if d < best_d:
            best_i, best_d = i, d
    return best_i, best_d


def on_hull_bruteforce(p, points, eps=1e-9) -> bool:
    """p lies on the hull boundary of `points` iff some line through p and
    another point keeps the whole set on one closed side."""
    others = [q for q in points if q != p]
    if not others:
        return True
    for q in others:
        dx, dy = q[0] - p[0], q[1] - p[1]
        sides = [dx * (r[1] - p[1]) - dy * (r[0] - p[0]) for r in points]
        if all(s <= eps for s in sides) or all(s >= -eps for s in sides):
            return True
    return False


def point_in_polygon_scalar(px, py, rings) -> bool:
    """Even-odd membership with boundary-inclusive semantics over coordinate
    ring lists [[(x, y), ...], ...] (outer first, unclosed)."""
    inside = False
    for ring in rings:
        n = len(ring)
        for i in range(n):
            ax, ay = ring[i]
            bx, by = ring[(i + 1) % n]
            d = point_segment_distance(px, py, ax, ay, bx, by)
            if d <= 1e-9:
                return True
            if (ay > py) != (by > py):
                x_int = ax + (py - ay) * (bx - ax) / (by - ay)
                if px < x_int:
                    inside = not inside
    return inside


def rasterize_enum(poly: Polygon, h: int, w: int) -> np.ndarray:
    """Per-pixel enumeration of center membership."""
    rings = [[(v.x, v.y) for v in ring.vertices] for ring in poly.rings()]
    out = np.zeros((h, w), dtype=bool)
    for r in range(h):
        for c in range(w):
            out[r, c] = point_in_polygon_scalar(c + 0.5, r + 0.5, rings)
    return out


def boundary_band_enum(mask: np.ndarray, d: int) -> np.ndarray:
    """Pixels of the mask within Chebyshev distance d of a non-mask pixel,
    the image border counting as outside."""
    h, w = mask.shape
    out = np.zeros_like(mask)
    for r in range(h):
        for c in range(w):
            if not mask[r, c]:
                continue
            found = False
            for dr in range(-d, d + 1):
                for dc in range(-d, d + 1):
                    rr, cc = r + dr, c + dc
                    if not (0 <= rr < h and 0 <= cc < w) or not mask[rr, cc]:
                        found = True
                        break
                if found:
                    break
            out[r, c] = found
    return out


def inner_band_full(mask: np.ndarray, d: int) -> np.ndarray:
    """Full-frame Boundary IoU band: mask pixels within Chebyshev distance d
    of the contour, the image border counting as outside."""
    padded = np.pad(mask, 1)
    dist = ndimage.distance_transform_cdt(padded, metric="chessboard")
    return (dist[1:-1, 1:-1] <= d) & mask


def iou_full(a: np.ndarray, b: np.ndarray) -> float:
    """IoU of two full-frame masks counted over every pixel; two empty masks count as 1."""
    inter = np.count_nonzero(a & b)
    union = np.count_nonzero(a | b)
    if union == 0:
        return 1.0
    return inter / union


def iou_matrix_full(pred_masks, gt_masks) -> np.ndarray:
    """Pred x gt IoU over full frames, every pair counted pixel by pixel."""
    out = np.zeros((len(pred_masks), len(gt_masks)))
    for i, pm in enumerate(pred_masks):
        for j, gm in enumerate(gt_masks):
            out[i, j] = iou_full(pm, gm)
    return out


def greedy_match_scalar(ious, scores, iou_thr) -> MatchResult:
    """Greedy one-to-one matching in scalar loops: predictions by descending
    score (lower index first on equal scores) each take the unmatched ground
    truth of highest IoU >= iou_thr, the lower index on equal IoUs."""
    n_pred, n_gt = ious.shape
    taken = [False] * n_gt
    pairs = []
    for i in sorted(range(n_pred), key=lambda i: (-scores[i], i)):
        best_j, best_iou = -1, iou_thr
        for j in range(n_gt):
            if not taken[j] and ious[i, j] >= best_iou and (best_j < 0 or ious[i, j] > best_iou):
                best_j, best_iou = j, ious[i, j]
        if best_j >= 0:
            taken[best_j] = True
            pairs.append((i, best_j, float(ious[i, best_j])))
    matched = {i for i, _, _ in pairs}
    return MatchResult(
        tuple(sorted(pairs)),
        tuple(i for i in range(n_pred) if i not in matched),
        tuple(j for j in range(n_gt) if not taken[j]),
    )


COCO_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


def coco_curves(detections, gt_counts, thresholds):
    """Per-threshold AP and AR over (score, tile, IoU row) detections ranked
    over all tiles at once, each matched with its own inline greedy loop
    against its tile's ground truths."""
    total_gt = sum(gt_counts.values())
    order = sorted(range(len(detections)), key=lambda i: (-detections[i][0], i))
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
            _, tile, row = detections[i]
            used = taken[tile]
            best_j, best_iou = -1, thr
            for j, value in enumerate(row):
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


def coco_summary(tables) -> tuple:
    """(ap, ap50, ap75, ar, ar50, ar75) over per-tile (pred x gt IoU, pred
    scores) tables, through coco_curves."""
    detections, gt_counts = [], {}
    for tile, (ious, scores) in enumerate(tables):
        gt_counts[tile] = ious.shape[1]
        detections += [(float(s), tile, row) for s, row in zip(scores, ious)]
    aps, ars = coco_curves(detections, gt_counts, COCO_THRESHOLDS)
    return float(np.mean(aps)), aps[0], aps[5], float(np.mean(ars)), ars[0], ars[5]


def _sample_boundary(poly: Polygon, step: float) -> np.ndarray:
    chunks = []
    for seg in poly.boundary_segments():
        n = max(2, int(math.ceil(seg.length / step)) + 1)
        t = np.linspace(0.0, 1.0, n)
        xs = seg.start.x + t * (seg.end.x - seg.start.x)
        ys = seg.start.y + t * (seg.end.y - seg.start.y)
        chunks.append(np.stack([xs, ys], axis=1))
    return np.concatenate(chunks, axis=0)


def polis_sampled(a: Polygon, b: Polygon, step: float = 1e-4) -> float:
    """PoLiS via dense boundary sampling instead of exact projections."""
    samples_a = _sample_boundary(a, step)
    samples_b = _sample_boundary(b, step)

    def mean_min(vertices, samples):
        acc = 0.0
        for v in vertices:
            dx = samples[:, 0] - v.x
            dy = samples[:, 1] - v.y
            acc += float(np.sqrt(np.min(dx * dx + dy * dy)))
        return acc / len(vertices)

    return 0.5 * mean_min(a.all_vertices(), samples_b) + 0.5 * mean_min(b.all_vertices(), samples_a)


def max_chain_deviation(chain_points, ring_points) -> float:
    """Largest distance from any chain point to the ring's edge set."""
    worst = 0.0
    n = len(ring_points)
    for px, py in chain_points:
        best = math.inf
        for i in range(n):
            ax, ay = ring_points[i]
            bx, by = ring_points[(i + 1) % n]
            best = min(best, point_segment_distance(px, py, ax, ay, bx, by))
        worst = max(worst, best)
    return worst


def afm_full_sweep(instances, h: int, w: int) -> np.ndarray:
    """Attraction field (h, w, 2) at f64: every boundary segment swept over the
    whole tile, the lowest segment index winning ties."""
    segs = [(s.start.x, s.start.y, s.end.x, s.end.y) for sp in instances for s in sp.polygon.boundary_segments()]
    x = np.arange(w, dtype=np.float64)[None, :] + 0.5
    y = np.arange(h, dtype=np.float64)[:, None] + 0.5
    best_d2 = np.full((h, w), np.inf)
    best_fx = np.zeros((h, w))
    best_fy = np.zeros((h, w))
    for ax, ay, bx, by in segs:
        ex, ey = bx - ax, by - ay
        l2 = ex * ex + ey * ey
        t = ((x - ax) * ex + (y - ay) * ey) / l2
        np.clip(t, 0.0, 1.0, out=t)
        fx = ax + t * ex
        fy = ay + t * ey
        d2 = (x - fx) ** 2 + (y - fy) ** 2
        better = d2 < best_d2
        best_d2[better] = d2[better]
        best_fx[better] = fx[better]
        best_fy[better] = fy[better]
    return np.stack([best_fx - x, best_fy - y], axis=-1)


def _dp_span(points, tolerance) -> list[int]:
    """Indices kept by Douglas-Peucker on an open polyline: split at the first
    point of greatest point_segment_distance while it exceeds tolerance."""
    keep = {0, len(points) - 1}
    spans = [(0, len(points) - 1)]
    while spans:
        lo, hi = spans.pop()
        (ax, ay), (bx, by) = points[lo], points[hi]
        dists = [point_segment_distance(px, py, ax, ay, bx, by) for px, py in points[lo + 1 : hi]]
        if dists and max(dists) > tolerance:
            split = lo + 1 + dists.index(max(dists))
            keep.add(split)
            spans += [(lo, split), (split, hi)]
    return sorted(keep)


def _drop_repeats(points) -> list:
    out = [p for i, p in enumerate(points) if i == 0 or p != points[i - 1]]
    while len(out) > 1 and out[-1] == out[0]:
        out.pop()
    return out


def douglas_peucker_closed(points, tolerance):
    """Closed-chain Douglas-Peucker over (x, y) points in scalar arithmetic, or
    None when fewer than three vertices remain. Consecutive repeats go first;
    the chain splits at its first point and the first point of greatest
    squared distance from it, and each half is simplified on its own."""
    pts = _drop_repeats([(float(x), float(y)) for x, y in points])
    if len(pts) < 3:
        return None
    sq = [(x - pts[0][0]) ** 2 + (y - pts[0][1]) ** 2 for x, y in pts]
    anchor = sq.index(max(sq))
    first = pts[: anchor + 1]
    second = pts[anchor:] + [pts[0]]
    kept = [first[i] for i in _dp_span(first, tolerance)][:-1] + [second[i] for i in _dp_span(second, tolerance)][:-1]
    out = _drop_repeats(kept)
    return out if len(out) >= 3 else None
