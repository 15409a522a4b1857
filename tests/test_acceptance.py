"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The corpus is 200
synthetic 512x512 tiles of random rectilinear polygons with integer
corners, edges >= 4 px and 4..12 vertices (rectilinear polygons have even
vertex counts, so the 3..12 range realizes as {4, 6, 8, 10, 12}).
"""
import time
from fractions import Fraction

import numpy as np
import pytest

from polyform.geometry import InstanceSet, Point2, Polygon, Ring
from polyform.io import (
    TileRecord,
    read_coco_annotations,
    read_geojson,
    read_rgf,
    write_coco_annotations,
    write_geojson,
    write_rgf,
)
from polyform.metrics import (
    boundary_iou,
    ciou,
    coco_ap_ar,
    coco_ap_ar_from_crops,
    evaluate_corpus,
    match_instances,
    polis,
)
from polyform.polygonize import (
    FallbackRequired,
    VertexSet,
    component_crops,
    connected_components,
    extract_vertices,
    mav_attract_simplify,
    polygonize_pipeline,
    trace_boundary,
)
from polyform.raster import (
    DegradeSpec,
    RasterGrid,
    degrade,
    encode_afm,
    encode_vertices,
    polygon_mask,
    polygon_mask_crops,
    rasterize_mask,
)

from oracles import min_dist_over_segments, polis_sampled
from synth import annulus, random_star_polygon, random_tile, rectangle

TILE = 512


def _ok(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


@pytest.fixture(scope="session")
def corpus():
    rng = np.random.default_rng(20240612)
    records = []
    for i in range(200):
        inst = random_tile(rng, TILE, TILE, n_min=3, n_max=7)
        assert len(inst) >= 3
        records.append(TileRecord(f"tile{i:03d}", (TILE, TILE), inst))
    return records


def _encode(inst: InstanceSet):
    mask = rasterize_mask(inst, TILE, TILE)
    grids = encode_vertices(inst, TILE, TILE)
    soft = RasterGrid(mask.data.astype(np.float32))
    return soft, grids


def test_criterion_1_roundtrip_reversibility(corpus):
    t0 = time.perf_counter()
    preds = []
    mask_preds = {}
    for rec in corpus:
        soft, grids = _encode(rec.instances)
        instances = polygonize_pipeline(soft, grids.heatmap, grids.offsets)  # default flags
        preds.append(TileRecord(rec.tile_id, rec.image_size, instances))
        mask_preds[rec.tile_id] = [((r0, c0, crop), score) for r0, c0, crop, score in component_crops(soft, 0.5)]
    elapsed = time.perf_counter() - t0

    gt_masks = {
        rec.tile_id: polygon_mask_crops([sp.polygon for sp in rec.instances], TILE, TILE)
        for rec in corpus
    }
    mask_ap = coco_ap_ar_from_crops(mask_preds, gt_masks, {rec.tile_id: rec.image_size for rec in corpus})[0]
    report = evaluate_corpus(preds, corpus)

    matched_equal = 0
    total_gt = 0
    for pred, gt in zip(preds, corpus):
        total_gt += len(gt.instances)
        result = match_instances(pred.instances, gt.instances, TILE, TILE)
        for pi, gi, _iou in result.pairs:
            if (
                pred.instances.instances[pi].polygon.vertex_count()
                == gt.instances.instances[gi].polygon.vertex_count()
            ):
                matched_equal += 1

    assert report.ap >= mask_ap - 0.01, (report.ap, mask_ap)
    assert report.iou >= 0.99, report.iou
    assert report.polis_mean <= 0.5, report.polis_mean
    assert matched_equal / total_gt >= 0.95
    assert elapsed <= 60.0, f"encode+polygonize took {elapsed:.1f}s"
    _ok(1, f"roundtrip reversibility, ap_gap={report.ap - mask_ap:+.4f}, "
           f"iou={report.iou:.4f}, polis={report.polis_mean:.4f}, "
           f"vertex_match={matched_equal / total_gt:.3f}, {elapsed:.1f}s")


def test_criterion_2_afm_oracle_equivalence():
    rng = np.random.default_rng(515)
    for _ in range(20):
        inst = random_tile(rng, 48, 48, n_min=2, n_max=4, min_side=12, max_side=20)
        segs = [(*a, *b) for sp in inst for a, b in sp.polygon.boundary_segments()]
        afm = encode_afm(inst, 48, 48)
        mag = np.hypot(afm.data[:, :, 0], afm.data[:, :, 1])
        for r in range(48):
            for c in range(48):
                _i, d = min_dist_over_segments(c + 0.5, r + 0.5, segs)
                assert abs(mag[r, c] - d) <= 1e-6
                fx = c + 0.5 + afm.data[r, c, 0]
                fy = r + 0.5 + afm.data[r, c, 1]
                _i, foot_d = min_dist_over_segments(fx, fy, segs)
                assert foot_d <= 1e-4
    _ok(2, "attraction field matches brute force at 1e-6 / foot on segment at 1e-4")


def test_criterion_3_polis_oracle():
    rng = np.random.default_rng(616)
    for _ in range(100):
        a = random_star_polygon(rng, 6.0, 6.0, 1.5, 5.0, int(rng.integers(4, 9)))
        b = random_star_polygon(rng, 6.5, 5.5, 1.5, 5.0, int(rng.integers(4, 9)))
        exact = polis(a, b)
        sampled = polis_sampled(a, b, step=1e-4)
        assert abs(exact - sampled) <= 1e-3, (exact, sampled)
        assert polis(a, a) == 0.0
        assert polis(a, b) == polis(b, a)
    _ok(3, "exact PoLiS agrees with 1e-4 boundary sampling within 1e-3")


def test_criterion_4_metric_fixtures():
    # translated square
    assert polis(rectangle(0, 0, 2, 2), rectangle(1, 0, 3, 2)) == pytest.approx(0.5, abs=1e-12)
    # doubled vertex count
    a = rectangle(1, 1, 5, 5)
    b = Polygon.from_coords([(1, 1), (3, 1), (5, 1), (5, 3), (5, 5), (3, 5), (1, 5), (1, 3)])
    assert ciou([a], [b], 8, 8) == pytest.approx(2 / 3, abs=1e-12)
    # identical masks
    arr = np.zeros((24, 24), dtype=np.uint8)
    arr[4:20, 6:18] = 1
    g = RasterGrid.from_array(arr)
    assert boundary_iou(g, g) == 1.0
    # 3 predictions, 2 ground truths, false positive at score rank 2:
    # interpolated AP50 = (51 * 1 + 50 * 2/3) / 101 = 253/303
    g1 = rectangle(2, 2, 10, 10)
    g2 = rectangle(20, 20, 28, 28)
    fp = rectangle(2, 20, 10, 28)
    _, ap50, *_ = coco_ap_ar(
        {"t": InstanceSet.of([g1, fp, g2], scores=[0.9, 0.8, 0.7])},
        {"t": InstanceSet.of([g1, g2])},
        {"t": (32, 32)},
    )
    assert ap50 == pytest.approx(float(Fraction(253, 303)), abs=1e-6)
    _ok(4, "hand-computed metric fixtures reproduce")


def test_criterion_5_mav_containment_property():
    rng = np.random.default_rng(717)
    produced = 0
    for _ in range(1000):
        inst = random_tile(rng, 40, 40, n_min=1, n_max=1, min_side=12, max_side=24)
        if len(inst) == 0:
            continue
        labels, _count = connected_components(rasterize_mask(inst, 40, 40))
        chain = trace_boundary(labels, 1)[0]
        n = int(rng.integers(1, 16))
        points = tuple(
            (Point2(float(x), float(y)), float(s))
            for x, y, s in zip(
                rng.uniform(0, 40, n), rng.uniform(0, 40, n), rng.uniform(0.05, 1.0, n)
            )
        )
        try:
            ring = mav_attract_simplify(chain, VertexSet(points), 5.0, 10.0)
        except FallbackRequired:
            continue
        produced += 1
        allowed = {tuple(p) for p, _s in points}
        assert all(tuple(v) in allowed for v in ring.vertices)
        assert len(ring) <= len(chain)
    assert produced >= 300, produced
    _ok(5, f"containment held on {produced} simplified rings out of 1000 draws")


def test_criterion_6_dp_baseline_dominance(corpus):
    spec = DegradeSpec(dilate_radius=1, boundary_jitter_sigma=0.5, rng_seed=42)
    mav_preds, dp_preds, gts, sizes = {}, {}, {}, {}
    zero_heat = RasterGrid.from_array(np.zeros((TILE, TILE), dtype=np.float32))
    zero_off = RasterGrid(np.zeros((TILE, TILE, 2), dtype=np.float32))
    with pytest.warns(UserWarning):
        for rec in corpus:
            mask = rasterize_mask(rec.instances, TILE, TILE)
            grids = encode_vertices(rec.instances, TILE, TILE)
            soft, dgrids = degrade(mask, grids, spec)
            mav_preds[rec.tile_id] = polygonize_pipeline(soft, dgrids.heatmap, dgrids.offsets)
            # an empty vertex set forces the Douglas-Peucker fallback (tol=1)
            dp_preds[rec.tile_id] = polygonize_pipeline(soft, zero_heat, zero_off)
            gts[rec.tile_id] = rec.instances
            sizes[rec.tile_id] = rec.image_size
    mav_ap = coco_ap_ar(mav_preds, gts, sizes)[0]
    dp_ap = coco_ap_ar(dp_preds, gts, sizes)[0]
    assert mav_ap > dp_ap, (mav_ap, dp_ap)
    _ok(6, f"degraded corpus: MaV-Attr AP {mav_ap:.4f} > DP(tol=1) AP {dp_ap:.4f}")


def test_criterion_7_hole_handling():
    rng = np.random.default_rng(818)
    for _ in range(10):
        x0 = int(rng.integers(4, 16))
        y0 = int(rng.integers(4, 16))
        w = int(rng.integers(26, 40))
        h = int(rng.integers(26, 40))
        hx0 = x0 + int(rng.integers(5, 9))
        hy0 = y0 + int(rng.integers(5, 9))
        hx1 = x0 + w - int(rng.integers(5, 9))
        hy1 = y0 + h - int(rng.integers(5, 9))
        poly = annulus(x0, y0, x0 + w, y0 + h, hx0, hy0, hx1, hy1)
        inst = InstanceSet.of([poly])
        soft, grids = _encode_small(inst, 64)
        out = polygonize_pipeline(soft, grids.heatmap, grids.offsets)
        assert len(out) == 1
        pred = out.instances[0].polygon
        assert len(pred.holes) == 1
        want = polygon_mask(Polygon(poly.holes[0].reversed()), 64, 64)
        got = polygon_mask(Polygon(pred.holes[0].reversed()), 64, 64)
        inter = np.count_nonzero(want & got)
        union = np.count_nonzero(want | got)
        assert inter / union >= 0.99
    _ok(7, "annulus round trips preserve the hole ring at IoU >= 0.99")


def _encode_small(inst, size):
    mask = rasterize_mask(inst, size, size)
    grids = encode_vertices(inst, size, size)
    return RasterGrid(mask.data.astype(np.float32)), grids


def test_criterion_8_format_roundtrips(tmp_path):
    rng = np.random.default_rng(919)
    u8 = RasterGrid(rng.integers(0, 256, size=(9, 5, 2)).astype(np.uint8))
    f32 = RasterGrid(rng.normal(size=(7, 6, 2)).astype(np.float32))
    assert write_rgf(read_rgf(write_rgf(u8))) == write_rgf(u8)
    assert write_rgf(read_rgf(write_rgf(f32))) == write_rgf(f32)

    records = [
        TileRecord(
            "fixture-a",
            (32, 32),
            InstanceSet.of(
                [
                    annulus(1 / 3, 0.2, 21.75, 19.125, 5.5, 5.25, 11.0625, 10.5),
                    Polygon.from_coords([(2.125, 22.0), (30.5, 23.75), (17.0, 31.5)]),
                ],
                scores=[0.625, 0.3125],
            ),
        ),
        TileRecord("fixture-b", (16, 48), InstanceSet()),
    ]
    assert read_geojson(write_geojson(records)) == records
    coco_path = tmp_path / "fixture.json"
    coco_path.write_bytes(write_coco_annotations(records))
    assert read_coco_annotations(coco_path) == records
    _ok(8, "RGF bitwise and GeoJSON/COCO value-exact round trips")


def test_criterion_9_vertex_encode_extract_roundtrip():
    rng = np.random.default_rng(1020)
    for _ in range(50):
        triangles = int(rng.integers(2, 9))
        cells: list[tuple[int, int]] = []
        while len(cells) < 3 * triangles:
            r = int(rng.integers(0, 64))
            c = int(rng.integers(0, 64))
            if all(max(abs(r - rr), abs(c - cc)) >= 2 for rr, cc in cells):
                cells.append((r, c))
        verts = [
            Point2(
                c + 0.5 + float(np.float32(rng.uniform(-0.5, 0.4999))),
                r + 0.5 + float(np.float32(rng.uniform(-0.5, 0.4999))),
            )
            for r, c in cells
        ]
        polys = [
            Polygon(Ring(tuple(verts[3 * i : 3 * i + 3]))) for i in range(triangles)
        ]
        grids = encode_vertices(InstanceSet.of(polys), 64, 64)
        extracted = extract_vertices(grids.heatmap, grids.offsets, 300, 0.008)
        got = sorted(tuple(p) for p, _s in extracted.points)
        want = sorted(tuple(v) for v in verts)
        assert got == want
        assert all(s == 1.0 for _p, s in extracted.points)
    _ok(9, "50 well-separated vertex sets decode exactly through NMS extraction")
