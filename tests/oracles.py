"""Independent brute-force oracles.

Everything here is deliberately written without reusing the library's
implementations: scalar arithmetic, exhaustive enumeration, dense sampling,
or the library's earlier, longer code for a step it has since simplified
(a docstring names any library call such an oracle still makes). Tests
derive their expected values from these.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from polyform.geometry import (
    GeometryError,
    InstanceSet,
    Point2,
    Polygon,
    Ring,
    ScoredPolygon,
    edge_arrays,
    merge_collinear_edges,
    project_points_to_segments,
)
from polyform.metrics import MatchResult
from polyform.raster import RasterGrid, VertexGrids


def segment_foot(px, py, ax, ay, bx, by) -> tuple[float, float]:
    """Scalar closed-form foot of (px, py) on the segment, t clamped to
    [0, 1]; a zero-length segment's foot is its start."""
    ex, ey = bx - ax, by - ay
    l2 = ex * ex + ey * ey
    if l2 == 0:
        return ax, ay
    t = ((px - ax) * ex + (py - ay) * ey) / l2
    t = max(0.0, min(1.0, t))
    return ax + t * ex, ay + t * ey


def point_segment_distance(px, py, ax, ay, bx, by) -> float:
    """Scalar closed-form point-to-segment distance."""
    fx, fy = segment_foot(px, py, ax, ay, bx, by)
    return math.hypot(px - fx, py - fy)


def min_dist_over_segments(px, py, segs) -> tuple[int, float]:
    """Exhaustive scan over (ax, ay, bx, by) tuples; lowest index wins ties."""
    best_i, best_d = -1, math.inf
    for i, (ax, ay, bx, by) in enumerate(segs):
        d = point_segment_distance(px, py, ax, ay, bx, by)
        if d < best_d:
            best_i, best_d = i, d
    return best_i, best_d


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


def _ring_location(p: Point2, ring: Ring) -> int:
    """Even-odd location of p relative to one ring: 1 inside, 0 on the
    boundary (hypot-based tolerance), -1 outside."""
    inside = False
    vs = ring.vertices
    n = len(vs)
    for i in range(n):
        a, b = vs[i], vs[(i + 1) % n]
        ex, ey = b.x - a.x, b.y - a.y
        scale = max(1.0, abs(a.x), abs(a.y), abs(b.x), abs(b.y))
        tol = 1e-9 * scale
        cross = ex * (p.y - a.y) - ey * (p.x - a.x)
        seg_len = math.hypot(ex, ey)
        if abs(cross) <= tol * seg_len:
            dot = (p.x - a.x) * ex + (p.y - a.y) * ey
            if -tol * seg_len <= dot <= seg_len * seg_len + tol * seg_len:
                return 0
        if (a.y > p.y) != (b.y > p.y):
            x_int = a.x + (p.y - a.y) * ex / ey
            if p.x < x_int:
                inside = not inside
    return 1 if inside else -1


def point_in_polygon_ring_by_ring(p: Point2, poly: Polygon) -> bool:
    """The library's earlier point_in_polygon: outside the outer ring is
    outside, on any rim is inside, and otherwise inside unless within the
    first hole that holds p. Equals even-odd only while holes lie inside
    the outer ring and apart from each other."""
    loc = _ring_location(p, poly.outer)
    if loc != 1:
        return loc == 0
    for hole in poly.holes:
        loc = _ring_location(p, hole)
        if loc != -1:
            return loc == 0
    return True


def rasterize_enum(poly: Polygon, h: int, w: int) -> np.ndarray:
    """Per-pixel enumeration of center membership."""
    rings = [[(v.x, v.y) for v in ring.vertices] for ring in poly.rings()]
    out = np.zeros((h, w), dtype=bool)
    for r in range(h):
        for c in range(w):
            out[r, c] = point_in_polygon_scalar(c + 0.5, r + 0.5, rings)
    return out


def polygon_mask_crop_per_edge(poly: Polygon, h: int, w: int) -> tuple[int, int, np.ndarray]:
    """The library's earlier one-polygon fill: every edge's even-odd crossing
    and boundary tolerance tests broadcast over the whole crop."""
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


def near_pairs_banded(a: np.ndarray, b: np.ndarray, r: float) -> list[tuple[int, int]]:
    """The pairs geometry.near_pairs documents, tested pair by pair in
    scalar arithmetic: y bands of height r counted from the least y (one
    band when the largest quotient passes 2**50), bands at most one apart,
    and x within the rounded window [x - r, x + r]."""
    if not (len(a) and len(b)):
        return []
    ys = [float(y) for y in (*a[:, 1], *b[:, 1])]
    y0 = min(ys)
    banded = (max(ys) - y0) / r <= 2**50

    def band(y: float) -> int:
        return math.floor((y - y0) / r) if banded else 0

    return [
        (i, j)
        for i, (ax, ay) in enumerate(a.tolist())
        for j, (bx, by) in enumerate(b.tolist())
        if ax - r <= bx <= ax + r and abs(band(ay) - band(by)) <= 1
    ]


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


def union_iou_bounding_box(a, b) -> float:
    """IoU of the union of (r0, c0, crop) crops a with that of crops b, both
    painted on the box that covers every non-empty crop, as
    metrics._union_iou did before it painted on covered rows and columns
    only; two empty unions count as 1."""
    crops = [crop for crop in (*a, *b) if crop[2].size]
    if not crops:
        return 1.0
    r0 = min(r for r, _, _ in crops)
    c0 = min(c for _, c, _ in crops)
    h = max(r + m.shape[0] for r, _, m in crops) - r0
    w = max(c + m.shape[1] for _, c, m in crops) - c0
    unions = []
    for side in (a, b):
        union = np.zeros((h, w), dtype=bool)
        for r, c, m in side:
            if m.size:
                union[r - r0 : r - r0 + m.shape[0], c - c0 : c - c0 + m.shape[1]] |= m
        unions.append(union)
    return iou_full(*unions)


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
    for a, b in poly.boundary_segments():
        n = max(2, int(math.ceil(math.hypot(b.x - a.x, b.y - a.y) / step)) + 1)
        t = np.linspace(0.0, 1.0, n)
        xs = a.x + t * (b.x - a.x)
        ys = a.y + t * (b.y - a.y)
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


def polis_per_pair(a: Polygon, b: Polygon) -> float:
    """PoLiS of one pair on its own: the library's earlier metrics.polis,
    one geometry.edge_arrays call and one broadcast
    geometry.project_points_to_segments call per direction."""
    ax, ay, bx, by, counts = edge_arrays([a, b])
    # each vertex starts one edge, so edge starts are the vertices in all_vertices order
    of_a, of_b = slice(0, counts[0]), slice(counts[0], None)

    def mean_dist(p: slice, q: slice) -> float:
        d2 = project_points_to_segments(ax[p, None], ay[p, None], ax[q], ay[q], bx[q], by[q])[2]
        return np.sqrt(d2.min(axis=1)).mean()

    return 0.5 * mean_dist(of_a, of_b) + 0.5 * mean_dist(of_b, of_a)


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
    segs = [(*a, *b) for sp in instances for a, b in sp.polygon.boundary_segments()]
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


def _chain_area(pixels) -> float:
    acc = 0.0
    n = len(pixels)
    for i in range(n):
        r1, c1 = pixels[i]
        r2, c2 = pixels[(i + 1) % n]
        acc += c1 * r2 - c2 * r1
    return acc / 2.0


def _oriented(pixels, kind):
    area = _chain_area(pixels)
    if (kind == "outer" and area < 0) or (kind == "hole" and area > 0):
        pixels = pixels[::-1]
    return tuple(pixels)


MOORE = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))  # clockwise from north


def moore_trace_probing(mask: np.ndarray, start, backtrack) -> list:
    """The boundary cycle through `start`, walked by probing: from the
    backtrack pixel, the eight neighbours are tried clockwise with bounds
    checks until one is foreground, and the neighbour tried before it becomes
    the next backtrack. The walk ends on a repeated (pixel, backtrack) state."""
    h, w = mask.shape

    def foreground(r: int, c: int) -> bool:
        return 0 <= r < h and 0 <= c < w and mask[r, c]

    chain = [start]
    seen = {(start, backtrack): 0}
    p, b = start, backtrack
    while True:
        bi = MOORE.index((b[0] - p[0], b[1] - p[1]))
        nxt = None
        for k in range(1, 9):
            dr, dc = MOORE[(bi + k) % 8]
            cand = (p[0] + dr, p[1] + dc)
            if foreground(*cand):
                prev = MOORE[(bi + k - 1) % 8]
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


def trace_window_reoriented(window: np.ndarray, r0: int, c0: int) -> list:
    """(pixels, kind) chains of one component window at frame offset (r0, c0),
    with every check the walk is meant to make redundant: a hole is any
    background region of the padded window that touches none of its four
    sides, its seed comes from a full scan for its raster-first pixel, and
    each chain is reversed when its shoelace sign disagrees with its kind.
    The walk is moore_trace_probing."""
    mask = np.pad(window, 1)
    flat_first = int(np.flatnonzero(mask.ravel())[0])
    start = divmod(flat_first, mask.shape[1])
    chains = [(_oriented(moore_trace_probing(mask, start, (start[0], start[1] - 1)), "outer"), "outer")]
    background, n_bg = ndimage.label(~mask, structure=ndimage.generate_binary_structure(2, 1))
    border = set(np.concatenate([background[0, :], background[-1, :], background[:, 0], background[:, -1]]).tolist())
    for bg_label in range(1, n_bg + 1):
        if bg_label in border:
            continue
        hr, hc = divmod(int(np.flatnonzero((background == bg_label).ravel())[0]), mask.shape[1])
        chains.append((_oriented(moore_trace_probing(mask, (hr - 1, hc), (hr, hc)), "hole"), "hole"))
    return [(tuple((r + r0 - 1, c + c0 - 1) for r, c in pixels), kind) for pixels, kind in chains]


def _shifted(arr, dr, dc, fill):
    out = np.full_like(arr, fill)
    h, w = arr.shape
    out[max(0, dr) : min(h, h + dr), max(0, dc) : min(w, w + dc)] = arr[
        max(0, -dr) : min(h, h - dr), max(0, -dc) : min(w, w - dc)
    ]
    return out


def nms_vertices_shifted(heat, offsets, top_k, tau_v) -> list:
    """((x, y), score) of the top_k 3x3 NMS survivors above tau_v, strongest
    first and raster order on equal scores, with one shifted full-size copy
    of the heatmap per neighbour: a pixel survives iff it is greater than
    each neighbour before it in raster order and no smaller than each after."""
    heat = np.asarray(heat, dtype=np.float64)
    keep = np.ones_like(heat, dtype=bool)
    for dr, dc in MOORE:
        neighbor = _shifted(heat, -dr, -dc, -np.inf)
        earlier = dr < 0 or (dr == 0 and dc < 0)
        keep &= (heat > neighbor) if earlier else (heat >= neighbor)
    keep &= heat > tau_v
    rows, cols = np.nonzero(keep)
    scores = heat[rows, cols]
    order = np.lexsort((rows * heat.shape[1] + cols, -scores))[:top_k]
    return [
        ((c + 0.5 + float(offsets[r, c, 0]), r + 0.5 + float(offsets[r, c, 1])), s)
        for r, c, s in zip(rows[order].tolist(), cols[order].tolist(), scores[order].tolist())
    ]


def snap_ring_loop(pixels, vertices, tau_d, merge_angle):
    """Vertex snapping of a (row, col) pixel chain onto (x, y) vertices, or
    None where the library falls back: each pixel takes its nearest vertex,
    and a loop over the pixels in (vertex, distance, chain index) order keeps
    the first pixel of each vertex; kept pixels closer than tau_d give their
    vertices, in chain order, to a ring with near-collinear joints merged."""
    if not vertices:
        return None
    arr = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    pix = np.stack([arr[:, 1] + 0.5, arr[:, 0] + 0.5], axis=1)
    vtx = np.asarray(vertices, dtype=np.float64)
    diff = pix[:, None, :] - vtx[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    match = np.argmin(d2, axis=1)
    dist = np.sqrt(d2[np.arange(len(pix)), match])
    winners, last_vertex = [], -1
    for i in np.lexsort((np.arange(len(pix)), dist, match)):
        if match[i] != last_vertex:
            winners.append(int(i))
            last_vertex = int(match[i])
    winners = [i for i in sorted(winners) if dist[i] < tau_d]
    if len(winners) < 3:
        return None
    try:
        ring = merge_collinear_edges(Ring(tuple(Point2(*vertices[match[i]]) for i in winners)), merge_angle)
    except GeometryError:
        return None
    return [tuple(v) for v in ring.vertices]


def polygonize_components_per_chain(crops, heatmap, offsets, cfg) -> InstanceSet:
    """polygonize_components one chain at a time, as the library did before
    it worked per tile: each component window traced on its own
    (trace_window_reoriented), each chain snapped on its own against every
    vertex (snap_ring_loop on the nms_vertices_shifted points), and
    Douglas-Peucker (douglas_peucker_closed) where snapping degenerates. A
    component whose outer ring fails both is dropped, as is any such hole.
    cfg is a PolygonizeConfig."""
    vertices = [p for p, _s in nms_vertices_shifted(heatmap.channel(), offsets.data, cfg.top_k, cfg.vertex_threshold)]
    scored = []
    for r0, c0, region, score in crops:
        rings = []
        for pixels, _kind in trace_window_reoriented(region, r0, c0):
            points = snap_ring_loop(pixels, vertices, cfg.attract_dist, cfg.merge_angle)
            if points is None:
                points = douglas_peucker_closed([(c + 0.5, r + 0.5) for r, c in pixels], cfg.dp_fallback_tolerance)
            rings.append(points)
        if rings[0] is not None:
            holes = tuple(Ring.from_coords(h) for h in rings[1:] if h is not None)
            scored.append(ScoredPolygon(Polygon(Ring.from_coords(rings[0]), holes), score))
    return InstanceSet(tuple(scored)).scaled(cfg.scale)


def vertex_f1_pairs(pred, gt, dist_thr) -> float:
    """Vertex F1 over (x, y) point lists: every pred x gt pair within
    dist_thr becomes a (distance, pred index, gt index) tuple, and a greedy
    pass over the sorted tuples matches each point at most once."""
    if not pred and not gt:
        return 1.0
    if not pred or not gt:
        return 0.0
    p = np.asarray(pred, dtype=np.float64).reshape(-1, 2)
    g = np.asarray(gt, dtype=np.float64).reshape(-1, 2)
    d = np.sqrt(((p[:, None, :] - g[None, :, :]) ** 2).sum(axis=2))
    candidates = [(float(d[i, j]), i, j) for i in range(len(p)) for j in range(len(g)) if d[i, j] <= dist_thr]
    candidates.sort()
    used_p, used_g = set(), set()
    for _, i, j in candidates:
        if i not in used_p and j not in used_g:
            used_p.add(i)
            used_g.add(j)
    precision = len(used_p) / len(p)
    recall = len(used_g) / len(g)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def label_raster_order(mask, connectivity: str) -> tuple[np.ndarray, int]:
    """ndimage.label of a boolean frame (int64 labels), renumbered explicitly
    so components are numbered in raster order of their first pixel."""
    structure = np.ones((3, 3), dtype=bool) if connectivity == "eight" else ndimage.generate_binary_structure(2, 1)
    labels, count = ndimage.label(mask, structure=structure)
    flat = labels.ravel()
    nonzero = np.flatnonzero(flat)
    first = np.zeros(count + 1, dtype=np.int64)
    first[flat[nonzero[::-1]]] = nonzero[::-1]  # earliest position wins last
    remap = np.zeros(count + 1, dtype=np.int64)
    remap[np.argsort(first[1:], kind="stable") + 1] = np.arange(1, count + 1)
    return remap[labels], int(count)


def square(radius: int) -> np.ndarray:
    return np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)


def degrade_scipy(mask, grids, spec):
    """raster.degrade with scipy binary morphology on full-frame squares and
    the boundary jitter applied through a full-frame np.where."""
    rng = np.random.Generator(np.random.Philox(key=spec.rng_seed))
    binary = mask.channel() > 0.5
    if spec.dilate_radius > 0:
        binary = ndimage.binary_dilation(binary, structure=square(spec.dilate_radius))
    if spec.erode_radius > 0:
        binary = ndimage.binary_erosion(binary, structure=square(spec.erode_radius))
    soft = binary.astype(np.float32)
    if spec.boundary_jitter_sigma > 0:
        band = ndimage.binary_dilation(binary, structure=square(1)) & ~ndimage.binary_erosion(
            binary, structure=square(1)
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
    return RasterGrid.from_array(soft), VertexGrids(RasterGrid.from_array(heat), RasterGrid(off))
