import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polyform import metrics
from polyform.geometry import InstanceSet, Point2, Polygon
from polyform.io import TileRecord
from polyform.metrics import (
    EvalConfig,
    MatchResult,
    MetricsError,
    _coco_summary,
    _greedy_match,
    _inner_bands,
    _iou_matrix,
    _union_iou,
    boundary_iou,
    ciou,
    coco_ap_ar,
    coco_ap_ar_from_crops,
    evaluate_corpus,
    iou_mask,
    match_instances,
    polis,
    vertex_f1,
)
from polyform.polygonize import PolygonizeConfig, VertexSet, polygonize_pipeline
from polyform.raster import (
    DegradeSpec, RasterGrid, degrade, downscale_targets, encode_vertices, polygon_mask_crops, rasterize_mask,
)

from oracles import (
    boundary_band_enum,
    coco_summary,
    greedy_match_arrays,
    greedy_match_scalar,
    inner_band_full,
    polis_per_pair,
    polis_sampled,
    union_iou_bounding_box,
    vertex_f1_pairs,
)
from synth import annulus, random_rectilinear_polygon, random_star_polygon, random_tile, rectangle


def grid_of(arr):
    return RasterGrid.from_array(np.asarray(arr, dtype=np.uint8))


def tile(tile_id, size, polys, scores=None):
    return TileRecord(tile_id, size, InstanceSet.of(polys, scores))


class TestIouMask:
    def test_identical(self):
        arr = np.zeros((6, 6), dtype=np.uint8)
        arr[1:4, 1:4] = 1
        assert iou_mask(grid_of(arr), grid_of(arr)) == 1.0

    def test_disjoint(self):
        a = np.zeros((6, 6), dtype=np.uint8)
        b = np.zeros((6, 6), dtype=np.uint8)
        a[0:2, 0:2] = 1
        b[4:6, 4:6] = 1
        assert iou_mask(grid_of(a), grid_of(b)) == 0.0

    def test_shifted_blocks(self):
        a = np.zeros((6, 6), dtype=np.uint8)
        b = np.zeros((6, 6), dtype=np.uint8)
        a[1:3, 1:3] = 1
        b[1:3, 2:4] = 1
        assert iou_mask(grid_of(a), grid_of(b)) == pytest.approx(2 / 6)

    def test_both_empty_defined_as_one(self):
        z = grid_of(np.zeros((4, 4), dtype=np.uint8))
        assert iou_mask(z, z) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(MetricsError):
            iou_mask(grid_of(np.zeros((4, 4), dtype=np.uint8)), grid_of(np.zeros((5, 4), dtype=np.uint8)))


@st.composite
def band_crop_sets(draw):
    """A frame of up to 40 x 40 pixels, a band distance d from 1 to 60, and
    crops (r0, c0, mask) of it: random masks in random boxes, which may be
    empty or flush with a frame edge, or the whole frame as one crop."""
    h, w = draw(st.integers(1, 40), label="h"), draw(st.integers(1, 40), label="w")
    d = draw(st.integers(1, 4) | st.integers(1, 60), label="d")
    if draw(st.integers(0, 4), label="whole frame") == 0:
        boxes = [(0, 0, h, w)]
    else:
        boxes = []
        for _ in range(draw(st.integers(1, 6), label="crops")):
            r0, c0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
            boxes.append((r0, c0, draw(st.integers(0, h - r0)), draw(st.integers(0, w - c0))))
    density = draw(st.sampled_from([0.3, 0.7, 0.95, 1.0]), label="density")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    return h, w, d, [(r0, c0, rng.random((bh, bw)) < density) for r0, c0, bh, bw in boxes]


@st.composite
def side_threshold_crops(draw):
    """A band distance d from 1 to 4 and 1-8 masks whose sides are each
    2d - 1, 2d or 2d + 1, of drawn densities: the crops that erode to
    nothing and those that may not, mixed in one list."""
    d = draw(st.integers(1, 4), label="d")
    sides = st.sampled_from((2 * d - 1, 2 * d, 2 * d + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    shapes = draw(st.lists(st.tuples(sides, sides), min_size=1, max_size=8), label="shapes")
    densities = st.sampled_from([0.5, 0.9, 1.0])
    return d, [rng.random(shape) < draw(densities) for shape in shapes]


class TestBoundaryIou:
    def test_identical_masks(self):
        arr = np.zeros((20, 20), dtype=np.uint8)
        arr[3:16, 3:16] = 1
        assert boundary_iou(grid_of(arr), grid_of(arr)) == 1.0

    def test_disjoint_masks(self):
        a = np.zeros((20, 20), dtype=np.uint8)
        b = np.zeros((20, 20), dtype=np.uint8)
        a[1:4, 1:4] = 1
        b[14:18, 14:18] = 1
        assert boundary_iou(grid_of(a), grid_of(b)) == 0.0

    def test_erosion_hurts_boundary_more_than_plain_iou(self):
        big = np.zeros((64, 64), dtype=np.uint8)
        big[4:60, 4:60] = 1
        eroded = np.zeros_like(big)
        eroded[5:59, 5:59] = 1
        plain = iou_mask(grid_of(big), grid_of(eroded))
        boundary = boundary_iou(grid_of(big), grid_of(eroded))
        assert 0.0 < boundary < plain

    def test_band_matches_enumeration_oracle(self):
        from polyform.metrics import _band_distance

        rng = np.random.default_rng(41)
        for _ in range(5):
            arr = (rng.random((14, 14)) < 0.45)
            d = _band_distance(14, 14, 0.02)
            assert d == 1  # small image: band collapses to the 1-px rim
            assert np.array_equal(_inner_bands([arr], d)[0], boundary_band_enum(arr, d))
        big = np.zeros((40, 40), dtype=bool)
        big[3:36, 6:31] = True
        from polyform.metrics import _band_distance as bd

        d = bd(40, 40, 0.05)
        assert np.array_equal(_inner_bands([big], d)[0], boundary_band_enum(big, d))

    @settings(max_examples=150, deadline=None)
    @given(band_crop_sets())
    def test_atlas_bands_equal_full_frame_oracles(self, case):
        h, w, d, crops = case
        bands = _inner_bands([m for _, _, m in crops], d)
        assert len(bands) == len(crops)
        for (r0, c0, m), band in zip(crops, bands):
            frame = np.zeros((h, w), dtype=bool)
            rows, cols = slice(r0, r0 + m.shape[0]), slice(c0, c0 + m.shape[1])
            frame[rows, cols] = m
            assert np.array_equal(band, inner_band_full(frame, d)[rows, cols])
            assert np.array_equal(band, boundary_band_enum(m, d))

    @settings(max_examples=150, deadline=None)
    @given(side_threshold_crops())
    @example((2, [np.ones((5, 5), bool), np.ones((3, 4), bool), np.ones((4, 5), bool), np.ones((6, 5), bool)]))
    def test_shallow_crops_are_their_own_bands(self, case):
        # a crop with a side of at most 2d erodes to nothing; the others go
        # through the atlas, and every band comes back in input order
        d, masks = case
        bands = _inner_bands(masks, d)
        assert len(bands) == len(masks)
        for m, band in zip(masks, bands):
            assert np.array_equal(band, boundary_band_enum(m, d))
            if min(m.shape) <= 2 * d:
                assert band is m

    def test_range(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            a = rng.random((12, 12)) < 0.5
            b = rng.random((12, 12)) < 0.5
            v = boundary_iou(grid_of(a.astype(np.uint8)), grid_of(b.astype(np.uint8)))
            assert 0.0 <= v <= 1.0


class TestPolis:
    def test_identical_zero(self):
        sq = rectangle(0, 0, 2, 2)
        assert polis(sq, sq) == 0.0

    def test_translated_square_half_pixel(self):
        a = rectangle(0, 0, 2, 2)
        b = rectangle(1, 0, 3, 2)
        assert polis(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            a = random_star_polygon(rng, 8, 8, 2, 6, int(rng.integers(3, 9)))
            b = random_star_polygon(rng, 9, 7, 2, 6, int(rng.integers(3, 9)))
            assert polis(a, b) == pytest.approx(polis(b, a), rel=1e-12)

    def test_translation_equivariant(self):
        rng = np.random.default_rng(53)
        a = random_star_polygon(rng, 8, 8, 2, 6, 7)
        b = random_star_polygon(rng, 9, 7, 2, 6, 5)
        shift = lambda p, tx, ty: Polygon.from_coords([(v.x + tx, v.y + ty) for v in p.outer.vertices])
        assert polis(shift(a, 11, -3), shift(b, 11, -3)) == pytest.approx(polis(a, b), rel=1e-9)

    def test_agrees_with_dense_sampling(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            a = random_star_polygon(rng, 6, 6, 1.5, 5, int(rng.integers(4, 9)))
            b = random_star_polygon(rng, 7, 6, 1.5, 5, int(rng.integers(4, 9)))
            assert polis(a, b) == pytest.approx(polis_sampled(a, b), abs=1e-3)

    def test_hole_vertices_participate(self):
        plain = rectangle(0, 0, 10, 10)
        holed = Polygon.from_coords(
            [(0, 0), (10, 0), (10, 10), (0, 10)], holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]]
        )
        assert polis(plain, holed) > 0.0


# the dense benchmark profile: dilation, jitter, dropout, spurious vertices, noise
DENSE_PROFILE = dict(
    dilate_radius=1, boundary_jitter_sigma=0.5, vertex_dropout_prob=0.3, spurious_vertex_count=10, heatmap_noise_sigma=0.02
)


def degraded_dense_tile(seed: int, tile_id: str, side: int = 120) -> tuple[TileRecord, TileRecord]:
    """A (prediction, ground truth) tile pair. The ground truth puts a notched
    building, a courtyard annulus or nothing in each 40 px cell, at least 8 px
    from the next; the prediction polygonizes its rasters degraded with the
    dense profile."""
    rng = np.random.default_rng(seed)
    polys = []
    for y0 in range(4, side, 40):
        for x0 in range(4, side, 40):
            kind = rng.integers(3)
            if kind == 1:
                w, h = (int(v) for v in rng.integers(12, 33, size=2))
                polys.append(random_rectilinear_polygon(rng, x0, y0, w, h, int(rng.integers(0, 5))))
            elif kind == 2:
                left, top, right, bottom = (int(v) for v in rng.integers(5, 9, size=4))
                polys.append(annulus(x0, y0, x0 + 32, y0 + 32, x0 + left, y0 + top, x0 + 32 - right, y0 + 32 - bottom))
    gt = InstanceSet.of(polys)
    mask, grids = rasterize_mask(gt, side, side), encode_vertices(gt, side, side)
    soft, grids = degrade(mask, grids, DegradeSpec(**DENSE_PROFILE, rng_seed=seed))
    pred = polygonize_pipeline(soft, grids.heatmap, grids.offsets)
    return TileRecord(tile_id, (side, side), pred), TileRecord(tile_id, (side, side), gt)


def polis_of_matches(pairs: list[tuple[TileRecord, TileRecord]], cfg: EvalConfig) -> tuple[float, float]:
    """(polis_mean, polis_match_rate) from the per-pair oracle over each
    tile's matches at cfg.iou_thr, tiles in id order."""
    values, total = [], 0
    for pred, gt in sorted(pairs, key=lambda pair: pair[1].tile_id):
        total += len(gt.instances)
        match = match_instances(pred.instances, gt.instances, *gt.image_size, cfg.iou_thr)
        values += [polis_per_pair(pred.instances.instances[i].polygon, gt.instances.instances[j].polygon) for i, j, _ in match.pairs]
    return float(np.mean(values)) if values else 0.0, (len(values) / total) if total else 1.0


NO_MATCH = (tile("far", (32, 32), [rectangle(2, 2, 10, 10)]), tile("far", (32, 32), [rectangle(18, 18, 28, 28)]))
ONE_MATCH = (
    tile("one", (32, 32), [rectangle(3, 2, 11, 10)]),
    tile("one", (32, 32), [rectangle(2, 2, 10, 10), rectangle(18, 18, 28, 30)]),
)


@pytest.mark.filterwarnings("ignore::UserWarning")  # degraded tiles drop components that fail simplification
class TestPolisOverTiles:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3).map(
        lambda seeds: [degraded_dense_tile(seed, f"d{k}") for k, seed in enumerate(seeds)]
    ))
    @example([NO_MATCH, ONE_MATCH])
    @example([NO_MATCH])
    def test_equals_the_per_pair_oracle(self, pairs):
        cfg = EvalConfig()
        report = evaluate_corpus([p for p, _ in pairs], [g for _, g in pairs], cfg)
        want_mean, want_rate = polis_of_matches(pairs, cfg)
        assert report.polis_mean.hex() == want_mean.hex()
        assert report.polis_match_rate.hex() == want_rate.hex()

    def test_capped_projection_calls_give_the_same_report(self, monkeypatch):
        pairs = [degraded_dense_tile(seed, f"d{seed}") for seed in (3, 4)]
        calls = []  # (elements, whether the call gathered them)
        project = metrics.project_points_to_segments
        monkeypatch.setattr(metrics, "project_points_to_segments",
                            lambda *a: calls.append((np.broadcast(*a).size, a[0].ndim == 1)) or project(*a))
        want = evaluate_corpus([p for p, _ in pairs], [g for _, g in pairs])
        assert len(calls) == 4  # one call per direction per tile
        calls.clear()
        monkeypatch.setattr(metrics, "_POLIS_CHUNK", 300)
        got = evaluate_corpus([p for p, _ in pairs], [g for _, g in pairs])
        assert got == want and got.polis_mean.hex() == want.polis_mean.hex()
        assert len(calls) > 8
        assert all(elements <= 300 for elements, gathered in calls if gathered)  # a larger pair goes alone


@st.composite
def union_crop_sides(draw):
    """(h, w, a, b): two lists of (r0, c0, crop) on one h x w frame. Crops are
    small against the frame, so rows and columns no crop covers lie between
    them; some are flush with the frame's last row or column, some are
    0 x 0, and either side may be empty."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def crop():
        if draw(st.integers(0, 5)) == 0:
            return draw(st.integers(0, h)), draw(st.integers(0, w)), np.zeros((0, 0), dtype=bool)
        rows, cols = draw(st.integers(1, max(1, h // 3))), draw(st.integers(1, max(1, w // 3)))
        r0 = h - rows if draw(st.booleans()) else draw(st.integers(0, h - rows))
        c0 = w - cols if draw(st.booleans()) else draw(st.integers(0, w - cols))
        return r0, c0, rng.random((rows, cols)) < draw(st.sampled_from((0.0, 0.5, 1.0)))

    a = [crop() for _ in range(draw(st.integers(0, 5)))]
    b = [crop() for _ in range(draw(st.integers(0, 5)))]
    return h, w, a, b


def _ones(rows: int, cols: int) -> np.ndarray:
    return np.ones((rows, cols), dtype=bool)


class TestUnionIou:
    @settings(max_examples=300, deadline=None)
    @given(union_crop_sides())
    @example((20, 20, [(0, 0, _ones(3, 3))], [(10, 12, _ones(2, 2))]))  # uncovered rows and columns between
    @example((12, 12, [(2, 2, _ones(4, 4)), (4, 4, _ones(4, 4))], [(3, 3, _ones(2, 5))]))  # overlap within a side
    @example((8, 8, [(0, 0, _ones(0, 0)), (5, 5, _ones(2, 1))], []))  # a 0 x 0 crop, one side empty
    @example((8, 8, [(0, 0, _ones(0, 0))], [(0, 0, _ones(0, 0))]))  # nothing on either side
    @example((9, 9, [(6, 6, _ones(3, 3))], [(8, 0, _ones(1, 9)), (0, 8, _ones(9, 1))]))  # the last row and column
    def test_equals_bounding_box_oracle(self, case):
        h, w, a, b = case
        with mock.patch.object(metrics, "union_of_crops", wraps=metrics.union_of_crops) as paint:
            got = _union_iou(a, b)
        assert got.hex() == union_iou_bounding_box(a, b).hex()
        # both unions are painted on (covered rows) x (covered columns), no larger
        covered_rows, covered_cols = np.zeros(h, dtype=bool), np.zeros(w, dtype=bool)
        for r0, c0, m in (*a, *b):
            if m.size:
                covered_rows[r0 : r0 + m.shape[0]] = True
                covered_cols[c0 : c0 + m.shape[1]] = True
        shapes = [call.args[1:] for call in paint.call_args_list]
        assert shapes == ([(covered_rows.sum(), covered_cols.sum())] * 2 if covered_rows.any() else [])


def frame_pair(seed: int, tile_id: str) -> tuple[TileRecord, TileRecord]:
    """A (prediction, ground truth) pair on a 2048 px frame, as roundtrip
    --scale 4 --dilate 1 --jitter-sigma 0.5 makes it: 3 to 7 buildings drawn
    on the 512 px grid and scaled up, the grid rasters degraded and
    polygonized back at scale 4."""
    rng = np.random.default_rng(seed)
    gt = random_tile(rng, 512, 512, n_min=3, n_max=7).scaled(4)
    grid = downscale_targets(gt, 4)
    spec = DegradeSpec(dilate_radius=1, boundary_jitter_sigma=0.5, rng_seed=seed)
    soft, grids = degrade(rasterize_mask(grid, 512, 512), encode_vertices(grid, 512, 512), spec)
    pred = polygonize_pipeline(soft, grids.heatmap, grids.offsets, PolygonizeConfig(scale=4.0))
    return TileRecord(tile_id, (2048, 2048), pred), TileRecord(tile_id, (2048, 2048), gt)


def gt_crops_of(gts: list[TileRecord]) -> dict:
    return {g.tile_id: polygon_mask_crops([sp.polygon for sp in g.instances], *g.image_size) for g in gts}


@pytest.mark.filterwarnings("ignore::UserWarning")  # degraded tiles drop components that fail simplification
class TestGivenGroundTruthCrops:
    @pytest.mark.parametrize("make", [degraded_dense_tile, frame_pair])
    def test_report_equals_the_one_that_fills_them(self, make):
        pairs = [make(seed, f"t{seed}") for seed in (5, 6)]
        preds, gts = [p for p, _ in pairs], [g for _, g in pairs]
        assert all(len(p.instances) for p in preds)
        want = evaluate_corpus(preds, gts)
        got = evaluate_corpus(preds, gts, gt_crops=gt_crops_of(gts))
        assert {k: v.hex() for k, v in got.to_json_dict().items()} == {k: v.hex() for k, v in want.to_json_dict().items()}

    def test_only_the_predictions_are_filled(self, monkeypatch):
        pairs = [degraded_dense_tile(seed, f"t{seed}") for seed in (5, 6)]
        crops = gt_crops_of([g for _, g in pairs])
        filled = []
        fill = metrics.polygon_mask_crops
        monkeypatch.setattr(metrics, "polygon_mask_crops", lambda polys, h, w: filled.append(list(polys)) or fill(polys, h, w))
        evaluate_corpus([p for p, _ in pairs], [g for _, g in pairs], gt_crops=crops)
        assert filled == [[sp.polygon for sp in p.instances] for p, _ in sorted(pairs, key=lambda pair: pair[1].tile_id)]

    def test_crops_of_other_polygons_are_rejected(self):
        pred, gt = ONE_MATCH
        crops = {gt.tile_id: gt_crops_of([gt])[gt.tile_id][:1]}
        with pytest.raises(MetricsError, match="1 ground-truth crops for 2 polygons"):
            evaluate_corpus([pred], [gt], gt_crops=crops)

    def test_a_tile_without_crops_is_named(self):
        pred, gt = ONE_MATCH
        with pytest.raises(MetricsError, match=f"^tile {gt.tile_id!r}: no ground-truth crops given$"):
            evaluate_corpus([pred], [gt], gt_crops={})


class TestCiou:
    def test_identical_equals_iou_one(self):
        sq = rectangle(1, 1, 5, 5)
        assert ciou([sq], [sq], 8, 8) == 1.0

    def test_doubled_vertices_two_thirds(self):
        a = rectangle(1, 1, 5, 5)
        b = Polygon.from_coords([(1, 1), (3, 1), (5, 1), (5, 3), (5, 5), (3, 5), (1, 5), (1, 3)])
        assert ciou([a], [b], 8, 8) == pytest.approx(2 / 3)

    def test_equal_counts_equal_iou(self):
        a = rectangle(1, 1, 5, 5)
        b = rectangle(2, 1, 6, 5)
        masks_iou = iou_mask(rasterize_mask(InstanceSet.of([a]), 8, 8), rasterize_mask(InstanceSet.of([b]), 8, 8))
        assert ciou([a], [b], 8, 8) == pytest.approx(masks_iou)

    def test_never_exceeds_iou(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            a = random_star_polygon(rng, 8, 8, 2, 6, int(rng.integers(3, 10)))
            b = random_star_polygon(rng, 8, 8, 2, 6, int(rng.integers(3, 10)))
            masks_iou = iou_mask(rasterize_mask(InstanceSet.of([a]), 16, 16), rasterize_mask(InstanceSet.of([b]), 16, 16))
            assert ciou([a], [b], 16, 16) <= masks_iou + 1e-12


class TestMatchInstances:
    def test_exact_match(self):
        sq = rectangle(1, 1, 5, 5)
        result = match_instances(InstanceSet.of([sq]), InstanceSet.of([sq]), 8, 8)
        assert result.pairs == ((0, 0, 1.0),)
        assert result.unmatched_preds == ()
        assert result.unmatched_gts == ()

    def test_pred_takes_higher_iou_gt(self):
        pred = rectangle(1, 1, 9, 9)
        gt_close = rectangle(1, 1, 8, 9)
        gt_far = rectangle(6, 1, 14, 9)
        result = match_instances(InstanceSet.of([pred]), InstanceSet.of([gt_far, gt_close]), 16, 16)
        assert len(result.pairs) == 1
        assert result.pairs[0][1] == 1  # the closer ground truth
        assert result.unmatched_gts == (0,)

    def test_empty_preds(self):
        gt = rectangle(1, 1, 5, 5)
        result = match_instances(InstanceSet(), InstanceSet.of([gt]), 8, 8)
        assert result.pairs == ()
        assert result.unmatched_gts == (0,)


# IoUs exactly at the thresholds 0.5, 0.55 and 0.75, repeated values and
# equal scores put every tie-breaking rule of the matcher to work
TIE_IOUS = (0.0, 0.0, 0.3, 0.5, 0.55, 0.6, 0.75, 1.0)
TIE_SCORES = (0.25, 0.5, 0.5, 1.0)


@st.composite
def tie_heavy_tables(draw):
    """One tile's (pred x gt IoU, pred scores) table with some rows and
    columns blanked to zero."""
    n_pred, n_gt = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cells = draw(st.lists(st.sampled_from(TIE_IOUS), min_size=n_pred * n_gt, max_size=n_pred * n_gt))
    ious = np.array(cells, dtype=np.float64).reshape(n_pred, n_gt)
    ious[[i for i in draw(st.sets(st.integers(0, 5))) if i < n_pred], :] = 0.0
    ious[:, [j for j in draw(st.sets(st.integers(0, 5))) if j < n_gt]] = 0.0
    scores = draw(st.lists(st.sampled_from(TIE_SCORES), min_size=n_pred, max_size=n_pred))
    return ious, scores


def matched_gts(match: MatchResult, n_pred: int) -> list[int]:
    """A MatchResult as one row of _greedy_match: each prediction's ground
    truth, or -1."""
    row = [-1] * n_pred
    for i, j, _ in match.pairs:
        row[i] = j
    return row


@settings(max_examples=300, deadline=None)
@given(st.lists(tie_heavy_tables(), max_size=4), st.sampled_from((0.0, 0.5, 0.55, 0.75)))
def test_matcher_and_coco_summary_equal_scalar_oracle(tables, iou_thr):
    for ious, scores in tables:
        got = _greedy_match(ious, scores, (iou_thr,))[0].tolist()
        assert got == matched_gts(greedy_match_scalar(ious, scores, iou_thr), len(scores))
    assert _coco_summary(tables) == coco_summary(tables)


@settings(max_examples=300, deadline=None)
@given(
    tie_heavy_tables(),
    st.lists(st.sampled_from(TIE_IOUS + (0.52, 0.97)) | st.floats(0.0, 1.0), min_size=1, max_size=12),
)
def test_one_matcher_pass_equals_a_scalar_match_per_threshold(table, thresholds):
    # thresholds on the table's IoU values, between them and repeated
    ious, scores = table
    rows = _greedy_match(ious, scores, thresholds)
    assert rows.shape == (len(thresholds), len(scores))
    for thr, row in zip(thresholds, rows):
        assert row.tolist() == matched_gts(greedy_match_scalar(ious, scores, thr), len(scores))


@settings(max_examples=400, deadline=None)
@given(
    tie_heavy_tables(),
    st.lists(st.sampled_from(TIE_IOUS + (0.0, 0.52, 0.97)) | st.floats(0.0, 1.0), min_size=1, max_size=12),
)
def test_candidate_matcher_equals_the_array_pass(table, thresholds):
    # each prediction visits only the ground truths at or above the lowest
    # threshold; the matches equal one (thresholds x gts) pass per prediction
    ious, scores = table
    got = _greedy_match(ious, scores, thresholds)
    want = greedy_match_arrays(ious, scores, thresholds)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tolist() == want.tolist()


def _ap_fixture():
    g1 = rectangle(2, 2, 10, 10)
    g2 = rectangle(20, 20, 28, 28)
    fp = rectangle(2, 20, 10, 28)
    preds = {"t": InstanceSet.of([g1, fp, g2], scores=[0.9, 0.8, 0.7])}
    gts = {"t": InstanceSet.of([g1, g2])}
    sizes = {"t": (32, 32)}
    return preds, gts, sizes


class TestCocoApAr:
    def test_perfect_predictions(self):
        sq1 = rectangle(1, 1, 9, 9)
        sq2 = rectangle(12, 12, 20, 20)
        preds = {"a": InstanceSet.of([sq1]), "b": InstanceSet.of([sq2])}
        gts = {"a": InstanceSet.of([sq1]), "b": InstanceSet.of([sq2])}
        sizes = {"a": (24, 24), "b": (24, 24)}
        ap, ap50, ap75, ar, ar50, ar75 = coco_ap_ar(preds, gts, sizes)
        assert (ap, ap50, ap75, ar, ar50, ar75) == (1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    def test_empty_predictions(self):
        gt = rectangle(1, 1, 9, 9)
        ap, *_ = coco_ap_ar({"a": InstanceSet()}, {"a": InstanceSet.of([gt])}, {"a": (16, 16)})
        assert ap == 0.0

    def test_hand_computed_ap50(self):
        # ranks: TP(0.9), FP(0.8), TP(0.7)
        # precision after envelope: [1, 2/3, 2/3]; recall: [1/2, 1/2, 1]
        # 101-pt AP = (51 * 1 + 50 * 2/3) / 101 = 253/303
        preds, gts, sizes = _ap_fixture()
        ap, ap50, ap75, ar, _, _ = coco_ap_ar(preds, gts, sizes)
        expect = float(Fraction(253, 303))
        assert ap50 == pytest.approx(expect, abs=1e-6)
        assert ap75 == pytest.approx(expect, abs=1e-6)
        assert ap == pytest.approx(expect, abs=1e-6)
        assert ar == 1.0

    def test_removing_false_positive_never_decreases_ap(self):
        preds, gts, sizes = _ap_fixture()
        with_fp, *_ = coco_ap_ar(preds, gts, sizes)
        kept = InstanceSet(tuple(sp for sp in preds["t"] if sp.score != 0.8))
        without_fp, *_ = coco_ap_ar({"t": kept}, gts, sizes)
        assert without_fp >= with_fp
        assert without_fp == 1.0

    def test_boundary_mode_penalizes_edge_error(self):
        big = rectangle(4, 4, 60, 60)
        shrunk = rectangle(5, 5, 59, 59)
        preds = {"a": InstanceSet.of([shrunk])}
        gts = {"a": InstanceSet.of([big])}
        sizes = {"a": (64, 64)}
        ap_mask, *_ = coco_ap_ar(preds, gts, sizes, mode="mask")
        ap_boundary, *_ = coco_ap_ar(preds, gts, sizes, mode="boundary")
        assert ap_boundary <= ap_mask

    def test_misaligned_tiles_rejected(self):
        with pytest.raises(MetricsError):
            coco_ap_ar({"a": InstanceSet()}, {"b": InstanceSet()}, {"a": (8, 8), "b": (8, 8)})


def vset(coords):
    return VertexSet(tuple((Point2(x, y), 1.0) for x, y in coords))


HALF_LATTICE = st.tuples(st.integers(0, 24).map(lambda k: k / 2), st.integers(0, 24).map(lambda k: k / 2))
# vertex F1 inputs: the half-pixel lattice, free floats on the same square,
# and points far from everything else
F1_POINT = HALF_LATTICE | st.tuples(st.floats(0, 12), st.floats(0, 12)) | st.tuples(st.floats(-1e15, 1e15), st.floats(-1e15, 1e15))


class TestVertexF1:
    def test_identical_sets(self):
        v = vset([(1, 1), (5, 5), (9, 2)])
        assert vertex_f1(v, v, 5.0) == 1.0

    def test_empty_pred_nonempty_gt(self):
        assert vertex_f1(vset([]), vset([(0, 0)]), 5.0) == 0.0

    def test_threshold_boundary_inclusive(self):
        # distance exactly 5 still matches
        assert vertex_f1(vset([(3, 4)]), vset([(0, 0)]), 5.0) == 1.0

    def test_greedy_by_ascending_distance(self):
        pred = vset([(0, 0), (2, 0)])
        gt = vset([(1, 0)])
        assert vertex_f1(pred, gt, 5.0) == pytest.approx(2 * 0.5 * 1.0 / 1.5)

    def test_both_empty(self):
        assert vertex_f1(vset([]), vset([]), 5.0) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(F1_POINT, max_size=14),
        st.lists(F1_POINT, max_size=14),
        st.sampled_from([0.5, 1.0, 2.5, 5.0]) | st.floats(0.01, 20),
        st.data(),
    )
    def test_equals_all_pairs_tuple_sort(self, pred, gt, dist_thr, data):
        # repeats of drawn points make duplicates common; on the half-pixel
        # lattice 3-4-5 triangles put pairs at exactly dist_thr
        pred += data.draw(st.lists(st.sampled_from(pred), max_size=4)) if pred else []
        gt += data.draw(st.lists(st.sampled_from(gt), max_size=4)) if gt else []
        assert vertex_f1(vset(pred), vset(gt), dist_thr) == vertex_f1_pairs(pred, gt, dist_thr)


class TestIouMatrix:
    def test_disjoint_boxes_score_without_counting(self):
        empty_a = (1, 1, np.zeros((2, 2), dtype=bool))
        empty_b = (10, 12, np.zeros((3, 1), dtype=bool))
        full = (20, 20, np.ones((2, 2), dtype=bool))
        assert _iou_matrix([empty_a], [empty_b]).tolist() == [[1.0]]
        assert _iou_matrix([empty_a, full], [empty_b, full]).tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert _iou_matrix([empty_a], [empty_b], band=1).tolist() == [[1.0]]
        assert _iou_matrix([], [empty_b]).shape == (0, 1)
        assert _iou_matrix([full], []).shape == (1, 0)


class TestEvaluateCorpus:
    def _corpus(self):
        t1_polys = [rectangle(2, 2, 10, 10), rectangle(14, 14, 26, 22)]
        t2_polys = [rectangle(4, 4, 16, 12)]
        gts = [tile("t1", (32, 32), t1_polys), tile("t2", (32, 32), t2_polys)]
        return gts

    def test_self_evaluation_is_perfect(self):
        gts = self._corpus()
        report = evaluate_corpus(gts, gts)
        assert report.ap == report.ar == report.iou == report.ciou == 1.0
        assert report.ap_boundary == 1.0
        assert report.polis_mean == 0.0
        assert report.vertex_f1 == 1.0
        assert report.polis_match_rate == 1.0

    def test_single_tile_aggregation_identity(self):
        gt_poly = rectangle(2, 2, 10, 10)
        pred_poly = rectangle(3, 2, 11, 10)
        gt = [tile("t", (16, 16), [gt_poly])]
        pred = [tile("t", (16, 16), [pred_poly])]
        report = evaluate_corpus(pred, gt)
        want_iou = iou_mask(
            rasterize_mask(InstanceSet.of([pred_poly]), 16, 16),
            rasterize_mask(InstanceSet.of([gt_poly]), 16, 16),
        )
        assert report.iou == pytest.approx(want_iou)
        assert report.ciou == pytest.approx(ciou([pred_poly], [gt_poly], 16, 16))
        assert report.polis_mean == pytest.approx(polis(pred_poly, gt_poly))

    def test_shuffled_tile_order_same_report(self):
        gts = self._corpus()
        preds = [tile(r.tile_id, r.image_size, [sp.polygon for sp in r.instances]) for r in gts]
        a = evaluate_corpus(preds, gts)
        rng = random.Random(5)
        shuffled = list(preds)
        rng.shuffle(shuffled)
        b = evaluate_corpus(shuffled, list(reversed(gts)))
        assert a == b

    def test_missing_tile_listed(self):
        gts = self._corpus()
        with pytest.raises(MetricsError, match="t2"):
            evaluate_corpus([gts[0]], gts)

    @pytest.mark.parametrize("side", ["preds", "gts"])
    def test_repeated_tile_id_rejected(self, side):
        gts = self._corpus()
        repeated = gts + [tile("t1", (32, 32), [])]
        preds, gts = (repeated, gts) if side == "preds" else (gts, repeated)
        with pytest.raises(MetricsError, match="'t1' repeated"):
            evaluate_corpus(preds, gts)

    def test_tile_size_mismatch_named(self):
        gts = [tile("t1", (16, 16), [rectangle(2, 2, 10, 10)])]
        preds = [tile("t1", (32, 32), [rectangle(2, 2, 30, 30)])]
        with pytest.raises(MetricsError, match=r"'t1'.*32x32.*16x16"):
            evaluate_corpus(preds, gts)

    def test_three_matcher_calls_per_tile(self, monkeypatch):
        # mask AP and boundary AP match each tile once for all ten
        # thresholds, and PoLiS once at config.iou_thr
        calls = []
        match = metrics._greedy_match
        monkeypatch.setattr(metrics, "_greedy_match", lambda *a: calls.append(a[2]) or match(*a))
        gts = self._corpus()
        preds = [tile("t1", (32, 32), [rectangle(2, 2, 10, 10)]), tile("t2", (32, 32), [])]
        report = evaluate_corpus(preds, gts, EvalConfig(iou_thr=0.6))
        assert calls == [(0.6,), (0.6,), metrics.IOU_THRESHOLDS, metrics.IOU_THRESHOLDS,
                         metrics.IOU_THRESHOLDS, metrics.IOU_THRESHOLDS]
        assert report.polis_match_rate == 1 / 3

    def test_report_invariants(self):
        gts = self._corpus()
        preds = [
            tile("t1", (32, 32), [rectangle(2, 2, 10, 10)]),  # one of two found
            tile("t2", (32, 32), [rectangle(5, 4, 17, 12)]),
        ]
        report = evaluate_corpus(preds, gts)
        assert report.ap <= report.ap50
        assert report.ar <= report.ar50
        assert 0.0 <= report.ap_boundary <= 1.0
        payload = report.to_json_dict()
        assert set(payload) == {
            "ap", "ap50", "ap75", "ar", "ar50", "ar75", "ap_boundary",
            "polis_mean", "ciou", "iou", "vertex_f1", "polis_match_rate",
        }
        table = report.render_table()
        assert "polis_mean" in table and len(table.splitlines()) == 12


def test_math_sanity_translated_square_by_hand():
    # vertex distances to the other boundary are (1, 0, 0, 1) in each
    # direction; each direction contributes (1+0+0+1) / (2*4) = 0.25
    a = rectangle(0, 0, 2, 2)
    b = rectangle(1, 0, 3, 2)
    per_direction = (1 + 0 + 0 + 1) / (2 * 4)
    assert polis(a, b) == pytest.approx(per_direction + per_direction)
    assert math.isclose(polis(a, b), 0.5)


@pytest.mark.parametrize("field, value", [
    ("iou_thr", math.nan), ("iou_thr", 1.5), ("iou_thr", -0.1), ("iou_thr", math.inf),
    ("vertex_dist_thr", 0.0), ("vertex_dist_thr", -1.0), ("vertex_dist_thr", math.nan), ("vertex_dist_thr", math.inf),
    ("boundary_d_frac", 0.0), ("boundary_d_frac", math.nan), ("boundary_d_frac", math.inf),
    ("iou_thr", "a"), pytest.param("vertex_dist_thr", 10**400, id="vertex_dist_thr-10**400"),
    pytest.param("iou_thr", 10**5000, id="iou_thr-10**5000"),
])
def test_eval_config_rejects_out_of_range(field, value):
    with pytest.raises(MetricsError, match=field):
        EvalConfig(**{field: value})


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("call", ["vertex_f1", "boundary_iou", "coco_ap_ar", "coco_ap_ar_from_crops"])
def test_metric_parameters_finite_and_positive(call, value):
    square = rectangle(1, 1, 6, 6)
    crops = {"a": [(1, 1, np.ones((5, 5), dtype=bool))]}
    calls = {
        "vertex_f1": lambda: vertex_f1(vset([(1, 1)]), vset([(1, 1)]), value),
        "boundary_iou": lambda: boundary_iou(grid_of(np.ones((4, 4))), grid_of(np.ones((4, 4))), value),
        "coco_ap_ar": lambda: coco_ap_ar(
            {"a": InstanceSet.of([square])}, {"a": InstanceSet.of([square])}, {"a": (8, 8)}, mode="boundary", d_frac=value
        ),
        "coco_ap_ar_from_crops": lambda: coco_ap_ar_from_crops(
            {"a": [(crop, 1.0) for crop in crops["a"]]}, crops, {"a": (8, 8)}, mode="boundary", d_frac=value
        ),
    }
    with pytest.raises(MetricsError, match="must be finite and > 0"):
        calls[call]()


def test_eval_config_accepts_closed_iou_range():
    assert EvalConfig(iou_thr=0.0).iou_thr == 0.0
    assert EvalConfig(iou_thr=1.0, vertex_dist_thr=1e-3, boundary_d_frac=1.0).iou_thr == 1.0
