"""Crop-local instance masks against the full-frame reference.

Every metric that compares instance masks works on bounding-box crops.
These properties pin it to the full-frame oracles in oracles.py with exact
equality: border-touching instances, disjoint boxes, courtyards with a
building inside, and specks that cover no pixel center (two empty masks
have IoU 1) all appear in the drawn tiles.
"""
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import ndimage

from polyform import cli, metrics
from polyform.cli import main
from polyform.geometry import InstanceSet, Polygon, ScoredPolygon
from polyform.io import TileRecord, read_annotations, write_geojson
from polyform.metrics import (
    EvalConfig,
    EvalReport,
    _band_distance,
    ciou,
    coco_ap_ar,
    coco_ap_ar_from_masks,
    evaluate_corpus,
    match_instances,
    polis,
    vertex_f1,
)
from polyform.polygonize import VertexSet, _trace_window, connected_components, threshold_mask, trace_boundary
from polyform.raster import (
    DegradeSpec,
    degrade,
    downscale_targets,
    encode_vertices,
    polygon_mask,
    rasterize_mask,
)

from oracles import coco_summary, greedy_match_scalar, inner_band_full, iou_full, iou_matrix_full
from synth import annulus, random_tile, rectangle

SCORES = (0.25, 0.5, 0.75, 1.0)


@st.composite
def polygons(draw, h: int, w: int) -> list[Polygon]:
    """One drawn shape (two for a courtyard holding a building), quarter-pixel
    coordinates in the h x w frame."""
    far_x, far_y = 4 * w, 4 * h

    def span(far: int, least: int) -> tuple[float, float]:
        a = draw(st.integers(0, far - least))
        b = draw(st.integers(a + least, far))
        return a / 4, b / 4

    kind = draw(st.sampled_from(["rect", "rect", "block", "frame", "courtyard", "speck"]))
    if kind == "block":  # 1 to 4 px a side, so rows and columns around it may hold no crop
        x0, y0 = draw(st.integers(0, far_x - 4)), draw(st.integers(0, far_y - 4))
        x1, y1 = draw(st.integers(x0 + 4, min(far_x, x0 + 16))), draw(st.integers(y0 + 4, min(far_y, y0 + 16)))
        return [rectangle(x0 / 4, y0 / 4, x1 / 4, y1 / 4)]
    if kind == "frame":
        return [rectangle(0, 0, w, h)]
    if kind == "courtyard" and w >= 10 and h >= 10:
        x0, x1 = span(far_x, 36)
        y0, y1 = span(far_y, 36)
        outer = annulus(x0, y0, x1, y1, x0 + 3, y0 + 3, x1 - 3, y1 - 3)
        return [outer, rectangle(x0 + 4, y0 + 4, x1 - 4, y1 - 4)]
    if kind == "speck":
        c = draw(st.integers(0, w - 1))
        r = draw(st.integers(0, h - 1))
        return [rectangle(c + 0.625, r + 0.625, c + 0.875, r + 0.875)]
    x0, x1 = span(far_x, 1)
    y0, y1 = span(far_y, 1)
    return [rectangle(x0, y0, x1, y1)]


@st.composite
def instance_sets(draw, h: int, w: int, max_size: int = 5) -> InstanceSet:
    polys = [p for group in draw(st.lists(polygons(h, w), max_size=max_size)) for p in group]
    scores = draw(st.lists(st.sampled_from(SCORES), min_size=len(polys), max_size=len(polys)))
    return InstanceSet(tuple(ScoredPolygon(p, s) for p, s in zip(polys, scores)))


@st.composite
def tile_pairs(draw, max_side: int = 28) -> tuple[TileRecord, TileRecord]:
    """A ground-truth tile and a prediction tile holding some of its polygons."""
    h = draw(st.integers(6, max_side))
    w = draw(st.integers(6, max_side))
    tile = f"t{draw(st.integers(0, 99))}"
    gts = draw(instance_sets(h, w))
    kept = [sp for sp in gts if draw(st.booleans())]
    extra = draw(instance_sets(h, w, max_size=3))
    preds = InstanceSet(tuple(kept) + extra.instances)
    return TileRecord(tile, (h, w), preds), TileRecord(tile, (h, w), gts)


def corpora(draw_pairs):
    """Up to three tiles with distinct ids."""
    return st.lists(draw_pairs, min_size=1, max_size=3, unique_by=lambda pair: pair[1].tile_id)


def full_masks(instances: InstanceSet, h: int, w: int) -> list[np.ndarray]:
    return [polygon_mask(sp.polygon, h, w) for sp in instances]


def reference_coco(preds: dict, gts: dict, mode: str, d_frac: float = 0.02) -> tuple:
    """COCO AP/AR with every IoU counted over full frames."""
    tables = []
    for tile in sorted(gts):
        gt_masks = gts[tile]
        pred_masks = [m for m, _ in preds[tile]]
        if mode == "boundary":
            shape = (gt_masks or pred_masks or [np.zeros((1, 1))])[0].shape
            d = _band_distance(*shape, d_frac)
            gt_masks = [inner_band_full(m, d) for m in gt_masks]
            pred_masks = [inner_band_full(m, d) for m in pred_masks]
        tables.append((iou_matrix_full(pred_masks, gt_masks), [s for _, s in preds[tile]]))
    return coco_summary(tables)


def reference_report(pairs: list[tuple[TileRecord, TileRecord]], cfg: EvalConfig) -> EvalReport:
    """evaluate_corpus with full-frame masks, bands and unions."""
    preds = {g.tile_id: [(m, sp.score) for m, sp in zip(full_masks(p.instances, *g.image_size), p.instances)]
             for p, g in pairs}
    gts = {g.tile_id: full_masks(g.instances, *g.image_size) for _, g in pairs}
    ap, ap50, ap75, ar, ar50, ar75 = reference_coco(preds, gts, "mask")
    ap_boundary = reference_coco(preds, gts, "boundary", cfg.boundary_d_frac)[0]
    ious, cious, f1s, polis_values, matched = [], [], [], [], 0
    for p, g in sorted(pairs, key=lambda pair: pair[1].tile_id):
        pred_masks = [m for m, _ in preds[g.tile_id]]
        union_p = np.logical_or.reduce(pred_masks) if pred_masks else np.zeros(g.image_size, dtype=bool)
        union_g = np.logical_or.reduce(gts[g.tile_id]) if gts[g.tile_id] else np.zeros(g.image_size, dtype=bool)
        ious.append(iou_full(union_p, union_g))
        na = sum(sp.polygon.vertex_count() for sp in p.instances)
        nb = sum(sp.polygon.vertex_count() for sp in g.instances)
        cious.append(ious[-1] * (1.0 - (0.0 if na + nb == 0 else abs(na - nb) / (na + nb))))
        match = greedy_match_scalar(iou_matrix_full(pred_masks, gts[g.tile_id]), [sp.score for sp in p.instances],
                                    cfg.iou_thr)
        matched += len(match.pairs)
        polis_values += [polis(p.instances.instances[i].polygon, g.instances.instances[j].polygon)
                         for i, j, _ in match.pairs]
        pv, gv = (VertexSet(tuple((v, 1.0) for sp in r.instances for v in sp.polygon.all_vertices())) for r in (p, g))
        f1s.append(vertex_f1(pv, gv, cfg.vertex_dist_thr))
    total = sum(len(g.instances) for _, g in pairs)
    return EvalReport(
        ap=ap, ap50=ap50, ap75=ap75, ar=ar, ar50=ar50, ar75=ar75, ap_boundary=float(ap_boundary),
        polis_mean=float(np.mean(polis_values)) if polis_values else 0.0,
        ciou=float(np.mean(cious)), iou=float(np.mean(ious)), vertex_f1=float(np.mean(f1s)),
        polis_match_rate=(matched / total) if total else 1.0,
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora(tile_pairs()))
def test_crop_metrics_equal_full_frame_reference(pairs):
    cfg = EvalConfig()
    for pred, gt in pairs:
        h, w = gt.image_size
        want = greedy_match_scalar(
            iou_matrix_full(full_masks(pred.instances, h, w), full_masks(gt.instances, h, w)),
            [sp.score for sp in pred.instances], cfg.iou_thr,
        )
        assert match_instances(pred.instances, gt.instances, h, w, cfg.iou_thr) == want
    preds = {g.tile_id: [(m, sp.score) for m, sp in zip(full_masks(p.instances, *g.image_size), p.instances)]
             for p, g in pairs}
    gts = {g.tile_id: full_masks(g.instances, *g.image_size) for _, g in pairs}
    sizes = {g.tile_id: g.image_size for _, g in pairs}
    for mode in ("mask", "boundary"):
        want = reference_coco(preds, gts, mode)
        assert coco_ap_ar_from_masks(preds, gts, mode=mode) == want
        assert coco_ap_ar({p.tile_id: p.instances for p, _ in pairs},
                          {g.tile_id: g.instances for _, g in pairs}, sizes, mode=mode) == want
    assert evaluate_corpus([p for p, _ in pairs], [g for _, g in pairs], cfg) == reference_report(pairs, cfg)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tile_pairs(max_side=64))  # larger frames, so blocks and specks leave rows and columns no crop covers
def test_ciou_equals_full_frame_union_iou(pair):
    pred, gt = pair
    h, w = gt.image_size
    a = [sp.polygon for sp in pred.instances]
    b = [sp.polygon for sp in gt.instances]
    union_a = np.zeros((h, w), dtype=bool)
    union_b = np.zeros((h, w), dtype=bool)
    for m in full_masks(pred.instances, h, w):
        union_a |= m
    for m in full_masks(gt.instances, h, w):
        union_b |= m
    na = sum(p.vertex_count() for p in a)
    nb = sum(p.vertex_count() for p in b)
    discount = 1.0 - (0.0 if na + nb == 0 else abs(na - nb) / (na + nb))
    assert ciou(a, b, h, w) == iou_full(union_a, union_b) * discount


def test_ciou_of_empty_sides():
    square = rectangle(2, 2, 6, 6)
    speck = rectangle(3.625, 3.625, 3.875, 3.875)
    assert ciou([], [], 8, 8) == 1.0
    assert ciou([speck], [speck], 8, 8) == 1.0  # no pixel centre on either side
    assert ciou([square], [], 8, 8) == 0.0
    assert ciou([], [square], 8, 8) == 0.0


def test_two_specks_have_iou_one():
    speck = rectangle(3.625, 3.625, 3.875, 3.875)
    other = rectangle(10.625, 1.625, 10.875, 1.875)
    preds = InstanceSet.of([speck])
    gts = InstanceSet.of([other])
    assert not polygon_mask(speck, 16, 16).any()
    assert match_instances(preds, gts, 16, 16).pairs == ((0, 0, 1.0),)
    masks = {"t": [(polygon_mask(speck, 16, 16), 1.0)]}
    assert coco_ap_ar_from_masks(masks, {"t": [polygon_mask(other, 16, 16)]}, mode="boundary")[0] == 1.0


def reference_mask_ap(rec: TileRecord, scale: int, spec: DegradeSpec) -> float:
    """cmd_roundtrip's mask AP rebuilt with full-frame upscaled component masks."""
    h, w = rec.image_size
    inst = downscale_targets(rec.instances, scale)
    soft, _ = degrade(rasterize_mask(inst, h // scale, w // scale), encode_vertices(inst, h // scale, w // scale), spec)
    labels, count = connected_components(threshold_mask(soft, 0.5))
    lab, values = labels.channel(), soft.channel().astype(np.float64)
    preds = [
        (np.repeat(np.repeat(lab == k, scale, axis=0), scale, axis=1), float(values[lab == k].mean()))
        for k in range(1, count + 1)
    ]
    return reference_coco({rec.tile_id: preds}, {rec.tile_id: full_masks(rec.instances, h, w)}, "mask")[0]


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2**32 - 1), st.integers(12, 24).map(lambda k: 4 * k), st.sampled_from([1, 2, 4]),
       st.integers(0, 3))
def test_roundtrip_mask_ap_equals_full_frame_reference(tmp_path, tile_seed, side, scale, seed):
    buildings = random_tile(np.random.default_rng(tile_seed), side, side, n_min=1, n_max=6, min_side=12, max_side=32)
    gt = TileRecord("t", (side, side), buildings)
    src, report = tmp_path / "gt.geojson", tmp_path / "report.json"
    src.write_bytes(write_geojson([gt]))
    flags = ["--scale", str(scale), "--dilate", "1", "--jitter-sigma", "0.5", "--seed", str(seed)]
    assert main(["roundtrip", str(src), str(report), *flags]) == 0
    spec = DegradeSpec(dilate_radius=1, boundary_jitter_sigma=0.5, rng_seed=seed)
    assert json.loads(report.read_text())["mask_ap"] == reference_mask_ap(gt, scale, spec)


@pytest.mark.parametrize("scale", [1, 4])
def test_roundtrip_fills_each_ground_truth_once(tmp_path, monkeypatch, scale):
    # the crops made for mask AP go to evaluate_corpus, which fills only the
    # predictions; with every vertex dropped, each prediction is the
    # Douglas-Peucker ring of a dilated mask, never a ground-truth polygon
    side = 96 * scale
    tiles = [
        TileRecord(f"t{k}", (side, side), random_tile(np.random.default_rng(k), 96, 96, n_min=2, n_max=5).scaled(scale))
        for k in range(3)
    ]
    src = tmp_path / "gt.geojson"
    src.write_bytes(write_geojson(tiles))
    filled = []
    for module in (cli, metrics):
        fill = module.polygon_mask_crops
        monkeypatch.setattr(module, "polygon_mask_crops",
                            lambda polys, h, w, fill=fill: filled.append(list(polys)) or fill(polys, h, w))
    flags = ["--scale", str(scale), "--dilate", "1", "--vertex-dropout", "1"]
    assert main(["roundtrip", str(src), str(tmp_path / "r.json"), *flags]) == 0
    gts = [[sp.polygon for sp in rec.instances] for rec in read_annotations(src)]
    assert sorted(map(gts.index, (polys for polys in filled if polys in gts))) == [0, 1, 2]
    every_gt = [poly for polys in gts for poly in polys]
    assert not any(poly in every_gt for polys in filled if polys not in gts for poly in polys)
    assert len(filled) == 2 * len(tiles)


def test_trace_boundary_equals_windowed_trace_on_degraded_tile():
    rng = np.random.default_rng(7)
    inst = random_tile(rng, 160, 160, n_min=10, n_max=14, min_side=14, max_side=40)
    spec = DegradeSpec(dilate_radius=1, boundary_jitter_sigma=0.5, heatmap_noise_sigma=0.02,
                       vertex_dropout_prob=0.3, spurious_vertex_count=20, rng_seed=3)
    soft, _ = degrade(rasterize_mask(inst, 160, 160), encode_vertices(inst, 160, 160), spec)
    labels, count = connected_components(threshold_mask(soft, 0.5))
    lab = labels.channel()
    slices = ndimage.find_objects(lab.astype(np.int32))
    assert count >= 10
    for comp, (rows, cols) in enumerate(slices, start=1):
        chains = trace_boundary(labels, comp)
        assert chains == _trace_window(lab[rows, cols] == comp, rows.start, cols.start)
        assert chains == _trace_window(lab == comp, 0, 0)  # the whole frame as the window
