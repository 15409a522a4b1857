import numpy as np
import pytest

from polyform.geometry import DegenerateRingError, InstanceSet, Point2, Polygon, signed_area
from polyform.polygonize import (
    EIGHT,
    FOUR,
    BoundaryChain,
    FallbackRequired,
    PolygonizeConfig,
    PolygonizeError,
    VertexSet,
    _trace_window,
    component_crops,
    connected_components,
    douglas_peucker,
    extract_vertices,
    mav_attract_simplify,
    polygonize_pipeline,
    rescale_polygons,
    threshold_mask,
    trace_boundary,
)
from polyform.raster import DegradeSpec, RasterGrid, bounding_crop, degrade, encode_vertices, rasterize_mask

from oracles import douglas_peucker_closed, max_chain_deviation
from synth import annulus, random_tile, rectangle


def grid_f32(arr):
    return RasterGrid.from_array(np.asarray(arr, dtype=np.float32))


def grid_u8(arr):
    return RasterGrid.from_array(np.asarray(arr, dtype=np.uint8))


def soft_of(instances, h, w):
    return grid_f32(rasterize_mask(instances, h, w).channel())


def rotate_to_min(points):
    """Cyclic rotation starting at the lexicographically smallest vertex."""
    k = min(range(len(points)), key=lambda i: points[i])
    return points[k:] + points[:k]


class TestThresholdMask:
    def test_below_threshold(self):
        out = threshold_mask(grid_f32(np.full((3, 3), 0.4)), 0.5)
        assert out.channel().sum() == 0

    def test_above_threshold(self):
        out = threshold_mask(grid_f32(np.full((3, 3), 0.6)), 0.5)
        assert out.channel().sum() == 9

    def test_exact_value_is_zero(self):
        out = threshold_mask(grid_f32(np.full((3, 3), 0.5)), 0.5)
        assert out.channel().sum() == 0


class TestConnectedComponents:
    def test_two_blocks(self):
        arr = np.zeros((8, 8), dtype=np.uint8)
        arr[1:3, 1:3] = 1
        arr[5:7, 5:7] = 1
        labels, count = connected_components(grid_u8(arr))
        assert count == 2
        assert labels.channel()[1, 1] == 1
        assert labels.channel()[5, 5] == 2

    def test_diagonal_connectivity(self):
        arr = np.zeros((4, 4), dtype=np.uint8)
        arr[0, 0] = arr[1, 1] = 1
        _, count8 = connected_components(grid_u8(arr), "eight")
        _, count4 = connected_components(grid_u8(arr), "four")
        assert count8 == 1
        assert count4 == 2

    def test_checkerboard_four_connectivity(self):
        arr = np.indices((4, 4)).sum(axis=0) % 2 == 0
        _, count = connected_components(grid_u8(arr.astype(np.uint8)), "four")
        assert count == 8

    def test_raster_scan_label_order(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            arr = (rng.random((16, 16)) < 0.35).astype(np.uint8)
            labels, count = connected_components(grid_u8(arr), "eight")
            lab = labels.channel()
            firsts = [np.flatnonzero(lab.ravel() == k)[0] for k in range(1, count + 1)]
            assert firsts == sorted(firsts)

    def test_unknown_connectivity(self):
        with pytest.raises(PolygonizeError):
            connected_components(grid_u8(np.zeros((2, 2), dtype=np.uint8)), "six")


def labels_of(arr, connectivity="eight"):
    labels, count = connected_components(grid_u8(np.asarray(arr, dtype=np.uint8)), connectivity)
    return labels, count


class TestTraceBoundary:
    def test_single_pixel(self):
        arr = np.zeros((4, 4), dtype=np.uint8)
        arr[2, 1] = 1
        labels, _ = labels_of(arr)
        chains = trace_boundary(labels, 1)
        assert len(chains) == 1
        assert chains[0].pixels == ((2, 1),)

    def test_3x3_block_outer_ring_of_8(self):
        arr = np.zeros((5, 5), dtype=np.uint8)
        arr[1:4, 1:4] = 1
        labels, _ = labels_of(arr)
        chains = trace_boundary(labels, 1)
        assert len(chains) == 1
        assert len(chains[0]) == 8
        assert set(chains[0].pixels) == {(r, c) for r in (1, 2, 3) for c in (1, 2, 3)} - {(2, 2)}

    def test_5x5_block_with_center_hole(self):
        arr = np.zeros((7, 7), dtype=np.uint8)
        arr[1:6, 1:6] = 1
        arr[3, 3] = 0
        labels, _ = labels_of(arr)
        chains = trace_boundary(labels, 1)
        assert [c.ring_kind for c in chains] == ["outer", "hole"]
        assert len(chains[0]) == 16
        # Moore tracing walks the diamond of edge-adjacent pixels around a
        # one-pixel hole; the diagonal neighbors are cut
        assert set(chains[1].pixels) == {(2, 3), (3, 2), (4, 3), (3, 4)}

    def test_chains_closed_and_8_connected(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            inst = random_tile(rng, 48, 48, n_min=1, n_max=3)
            if len(inst) == 0:
                continue
            labels, count = connected_components(rasterize_mask(inst, 48, 48))
            for comp in range(1, count + 1):
                for chain in trace_boundary(labels, comp):
                    px = chain.pixels
                    for i in range(len(px)):
                        r1, c1 = px[i]
                        r2, c2 = px[(i + 1) % len(px)]
                        assert max(abs(r1 - r2), abs(c1 - c2)) <= 1

    def test_orientation_convention(self):
        poly = annulus(1, 1, 9, 9, 4, 4, 6, 6)
        labels, _ = connected_components(rasterize_mask(InstanceSet.of([poly]), 12, 12))
        chains = trace_boundary(labels, 1)
        outer = [(c + 0.5, r + 0.5) for r, c in chains[0].pixels]
        hole = [(c + 0.5, r + 0.5) for r, c in chains[1].pixels]

        def shoelace(pts):
            return sum(
                pts[i][0] * pts[(i + 1) % len(pts)][1] - pts[(i + 1) % len(pts)][0] * pts[i][1]
                for i in range(len(pts))
            )

        assert shoelace(outer) > 0
        assert shoelace(hole) < 0

    def test_missing_component(self):
        labels, _ = labels_of(np.ones((3, 3), dtype=np.uint8))
        with pytest.raises(PolygonizeError):
            trace_boundary(labels, 9)


class TestExtractVertices:
    def test_single_peak(self):
        heat = np.zeros((6, 6), dtype=np.float32)
        heat[2, 3] = 1.0
        offs = np.zeros((6, 6, 2), dtype=np.float32)
        vs = extract_vertices(grid_f32(heat), RasterGrid(offs), 300, 0.008)
        assert len(vs) == 1
        assert tuple(vs.points[0][0]) == (3.5, 2.5)
        assert vs.points[0][1] == 1.0

    def test_uniform_heatmap_single_survivor(self):
        heat = np.full((5, 5), 0.5, dtype=np.float32)
        offs = np.zeros((5, 5, 2), dtype=np.float32)
        vs = extract_vertices(grid_f32(heat), RasterGrid(offs), 300, 0.008)
        assert len(vs) == 1
        assert tuple(vs.points[0][0]) == (0.5, 0.5)

    def test_top_k_and_threshold(self):
        heat = np.zeros((8, 8), dtype=np.float32)
        heat[0, 0] = 0.9
        heat[0, 4] = 0.8
        heat[4, 0] = 0.7
        heat[4, 4] = 0.005  # below tau_v
        offs = np.zeros((8, 8, 2), dtype=np.float32)
        vs = extract_vertices(grid_f32(heat), RasterGrid(offs), 2, 0.008)
        assert [s for _p, s in vs.points] == [pytest.approx(0.9), pytest.approx(0.8)]

    def test_roundtrip_with_encoder(self):
        inst = InstanceSet.of([rectangle(2, 2, 9, 9), rectangle(12, 12, 20, 18)])
        grids = encode_vertices(inst, 24, 24)
        vs = extract_vertices(grids.heatmap, grids.offsets, 300, 0.008)
        got = sorted(tuple(p) for p, _s in vs.points)
        want = sorted(tuple(v) for sp in inst for v in sp.polygon.all_vertices())
        assert got == want

    def test_peaks_pairwise_chebyshev_2(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            heat = rng.random((12, 12)).astype(np.float32)
            offs = np.zeros((12, 12, 2), dtype=np.float32)
            vs = extract_vertices(grid_f32(heat), RasterGrid(offs), 300, 0.008)
            cells = [(int(p.y), int(p.x)) for p, _s in vs.points]
            for i in range(len(cells)):
                for j in range(i + 1, len(cells)):
                    dr = abs(cells[i][0] - cells[j][0])
                    dc = abs(cells[i][1] - cells[j][1])
                    assert max(dr, dc) >= 2


def square_chain(x0, y0, x1, y1, h, w):
    inst = InstanceSet.of([rectangle(x0, y0, x1, y1)])
    labels, _ = connected_components(rasterize_mask(inst, h, w))
    return trace_boundary(labels, 1)[0]


class TestMavAttractSimplify:
    def test_square_recovers_corners_in_order(self):
        chain = square_chain(2, 2, 22, 22, 26, 26)
        corners = [Point2(2, 2), Point2(22, 2), Point2(22, 22), Point2(2, 22)]
        vs = VertexSet(tuple((c, 1.0) for c in corners))
        ring = mav_attract_simplify(chain, vs, 5.0, 10.0)
        got = rotate_to_min([tuple(v) for v in ring.vertices])
        want = rotate_to_min([tuple(c) for c in corners])
        assert got == want

    def test_empty_vertex_set_signals_fallback(self):
        chain = square_chain(2, 2, 10, 10, 14, 14)
        with pytest.raises(FallbackRequired):
            mav_attract_simplify(chain, VertexSet(()), 5.0, 10.0)

    def test_decoy_vertex_filtered_by_distance(self):
        chain = square_chain(2, 2, 12, 12, 30, 30)
        corners = [Point2(2, 2), Point2(12, 2), Point2(12, 12), Point2(2, 12)]
        decoy = Point2(26.0, 26.0)  # >= 5 px from every chain pixel
        vs = VertexSet(tuple((c, 1.0) for c in corners) + ((decoy, 1.0),))
        ring = mav_attract_simplify(chain, vs, 5.0, 10.0)
        assert decoy not in ring.vertices
        assert len(ring) == 4

    def test_containment_and_cardinality(self):
        rng = np.random.default_rng(23)
        produced = 0
        for _ in range(200):
            inst = random_tile(rng, 40, 40, n_min=1, n_max=1, min_side=12, max_side=24)
            if len(inst) == 0:
                continue
            labels, _ = connected_components(rasterize_mask(inst, 40, 40))
            chain = trace_boundary(labels, 1)[0]
            n_vertices = int(rng.integers(1, 14))
            pts = tuple(
                (Point2(float(x), float(y)), float(s))
                for x, y, s in zip(
                    rng.uniform(0, 40, n_vertices),
                    rng.uniform(0, 40, n_vertices),
                    rng.uniform(0.1, 1.0, n_vertices),
                )
            )
            vs = VertexSet(pts)
            try:
                ring = mav_attract_simplify(chain, vs, 5.0, 10.0)
            except FallbackRequired:
                continue
            produced += 1
            allowed = {tuple(p) for p, _s in pts}
            assert all(tuple(v) in allowed for v in ring.vertices)
            assert len(ring) <= len(chain)
        assert produced > 50


def degraded_soft(inst: InstanceSet, side: int, seed: int) -> RasterGrid:
    spec = DegradeSpec(dilate_radius=1, boundary_jitter_sigma=0.5, rng_seed=seed)
    soft, _ = degrade(rasterize_mask(inst, side, side), encode_vertices(inst, side, side), spec)
    return soft


class TestComponentCrops:
    @pytest.mark.parametrize("connectivity", [FOUR, EIGHT])
    def test_equal_full_frame_masks_and_f64_means(self, connectivity):
        inst = random_tile(np.random.default_rng(9), 96, 96, n_min=5, n_max=8, min_side=12, max_side=24)
        soft = degraded_soft(inst, 96, 2)
        labels, count = connected_components(threshold_mask(soft, 0.5), connectivity)
        crops = component_crops(soft, 0.5, connectivity)
        assert len(crops) == count >= 5
        values = soft.channel().astype(np.float64)
        for comp, (r0, c0, crop, score) in enumerate(crops, start=1):
            full = labels.channel() == comp
            fr0, fc0, fcrop = bounding_crop(full)
            assert (r0, c0) == (fr0, fc0) and np.array_equal(crop, fcrop)
            assert score == float(values[full].mean())

    def test_empty_mask_has_no_components(self):
        assert component_crops(grid_f32(np.zeros((6, 5))), 0.5) == []


class TestDouglasPeucker:
    def test_equals_scalar_reference_on_degraded_chains(self):
        # The first two point loops make math.hypot and the square root of the
        # squared distance disagree: a tie for the farthest point, and a
        # distance hypot rounds to exactly the tolerance 2.
        chains = [
            BoundaryChain(((27, 2), (19, 15), (25, 27), (16, 23), (11, 17), (5, 3)), "outer"),
            BoundaryChain(((10, 6), (4, 4), (5, 23), (3, 11), (12, 15), (14, 14), (0, 19), (1, 15)), "outer"),
        ]
        rng = np.random.default_rng(4)
        for seed in range(6):
            inst = random_tile(rng, 512, 512, n_min=25, n_max=40)
            for r0, c0, crop, _score in component_crops(degraded_soft(inst, 512, seed), 0.5):
                chains += _trace_window(crop, r0, c0)
        assert len(chains) >= 150
        for chain in chains:
            for tol in (0.5, 1.0, 1.5, 2.0):
                try:
                    got = [tuple(v) for v in douglas_peucker(chain, tol).vertices]
                except DegenerateRingError:
                    got = None
                assert got == douglas_peucker_closed(chain.centers(), tol)

    def test_rectangle_reduces_to_corners(self):
        chain = square_chain(1, 1, 9, 7, 12, 12)
        ring = douglas_peucker(chain, 1.0)
        got = rotate_to_min([tuple(v) for v in ring.vertices])
        assert got == [(1.5, 1.5), (8.5, 1.5), (8.5, 6.5), (1.5, 6.5)]

    def test_zero_tolerance_keeps_non_collinear(self):
        chain = square_chain(1, 1, 9, 7, 12, 12)
        ring = douglas_peucker(chain, 0.0)
        assert len(ring) == 4  # chain pixels along edges are exactly collinear

    def test_long_straight_stretch_keeps_endpoints(self):
        # 100-px straight top edge collapses to its two corner endpoints
        chain = square_chain(1, 1, 101, 9, 12, 104)
        ring = douglas_peucker(chain, 1.0)
        top = sorted(v for v in ring.vertices if v.y == 1.5)
        assert top == [Point2(1.5, 1.5), Point2(100.5, 1.5)]
        assert len(ring) == 4

    def test_deviation_bounded_by_tolerance(self):
        rng = np.random.default_rng(29)
        for tol in (0.5, 1.0, 2.0):
            for _ in range(10):
                inst = random_tile(rng, 40, 40, n_min=1, n_max=1, min_side=12, max_side=26)
                if len(inst) == 0:
                    continue
                labels, _ = connected_components(rasterize_mask(inst, 40, 40))
                chain = trace_boundary(labels, 1)[0]
                ring = douglas_peucker(chain, tol)
                chain_pts = [(c + 0.5, r + 0.5) for r, c in chain.pixels]
                ring_pts = [(v.x, v.y) for v in ring.vertices]
                assert max_chain_deviation(chain_pts, ring_pts) <= tol + 1e-9

    def test_cardinality_much_smaller_than_chain(self):
        chain = square_chain(2, 2, 30, 30, 36, 36)
        ring = douglas_peucker(chain, 1.0)
        assert len(ring) < len(chain) / 4


class TestPolygonizePipeline:
    def test_clean_roundtrip(self):
        from polyform.metrics import iou_mask

        inst = InstanceSet.of([rectangle(4, 4, 20, 16), annulus(26, 10, 54, 38, 34, 18, 46, 30)])
        soft = soft_of(inst, 64, 64)
        grids = encode_vertices(inst, 64, 64)
        out = polygonize_pipeline(soft, grids.heatmap, grids.offsets)
        assert len(out) == 2
        got = rasterize_mask(out, 64, 64)
        want = rasterize_mask(inst, 64, 64)
        assert iou_mask(got, want) >= 0.99
        assert sorted(sp.polygon.vertex_count() for sp in out) == sorted(
            sp.polygon.vertex_count() for sp in inst
        )

    def test_all_zero_mask_empty_result(self):
        soft = grid_f32(np.zeros((16, 16)))
        heat = grid_f32(np.zeros((16, 16)))
        offs = RasterGrid(np.zeros((16, 16, 2), dtype=np.float32))
        assert len(polygonize_pipeline(soft, heat, offs)) == 0

    def test_annulus_keeps_hole(self):
        inst = InstanceSet.of([annulus(4, 4, 28, 28, 12, 12, 20, 20)])
        soft = soft_of(inst, 32, 32)
        grids = encode_vertices(inst, 32, 32)
        out = polygonize_pipeline(soft, grids.heatmap, grids.offsets)
        assert len(out) == 1
        assert len(out.instances[0].polygon.holes) == 1

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        inst = random_tile(rng, 64, 64, n_min=2, n_max=4)
        soft = soft_of(inst, 64, 64)
        grids = encode_vertices(inst, 64, 64)
        a = polygonize_pipeline(soft, grids.heatmap, grids.offsets)
        b = polygonize_pipeline(soft, grids.heatmap, grids.offsets)
        assert a == b

    def test_instance_score_is_mean_soft_value(self):
        inst = InstanceSet.of([rectangle(2, 2, 10, 10)])
        soft_arr = rasterize_mask(inst, 16, 16).channel().astype(np.float32) * 0.75
        grids = encode_vertices(inst, 16, 16)
        out = polygonize_pipeline(grid_f32(soft_arr), grids.heatmap, grids.offsets, PolygonizeConfig(mask_threshold=0.5))
        assert out.instances[0].score == pytest.approx(0.75)

    def test_scale_applied(self):
        inst = InstanceSet.of([rectangle(2, 2, 10, 10)])
        soft = soft_of(inst, 16, 16)
        grids = encode_vertices(inst, 16, 16)
        out = polygonize_pipeline(soft, grids.heatmap, grids.offsets, PolygonizeConfig(scale=4.0))
        xs = [v.x for v in out.instances[0].polygon.outer.vertices]
        assert min(xs) == 8.0 and max(xs) == 40.0

    def test_outer_ccw_holes_cw(self):
        inst = InstanceSet.of([annulus(4, 4, 28, 28, 12, 12, 20, 20)])
        soft = soft_of(inst, 32, 32)
        grids = encode_vertices(inst, 32, 32)
        out = polygonize_pipeline(soft, grids.heatmap, grids.offsets)
        poly = out.instances[0].polygon
        assert signed_area(poly.outer) > 0
        assert all(signed_area(h) < 0 for h in poly.holes)


class TestRescalePolygons:
    def test_identity(self):
        inst = InstanceSet.of([rectangle(1, 1, 3, 3)])
        assert rescale_polygons(inst, 1) is inst

    def test_scales_coordinates(self):
        inst = InstanceSet.of([Polygon.from_coords([(10, 20), (30, 20), (30, 40)])])
        out = rescale_polygons(inst, 4)
        assert tuple(out.instances[0].polygon.outer.vertices[0]) == (40.0, 80.0)

    def test_area_scales_quadratically(self):
        inst = InstanceSet.of([rectangle(0, 0, 5, 5)])
        out = rescale_polygons(inst, 3)
        assert out.instances[0].polygon.area() == 9 * inst.instances[0].polygon.area()

    def test_rejects_nonpositive(self):
        with pytest.raises(PolygonizeError):
            rescale_polygons(InstanceSet(), 0)


class TestPolygonizeConfig:
    def test_defaults_follow_reference_settings(self):
        cfg = PolygonizeConfig()
        assert cfg.mask_threshold == 0.5
        assert cfg.top_k == 300
        assert cfg.vertex_threshold == 0.008
        assert cfg.attract_dist == 5.0
        assert cfg.merge_angle == 10.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mask_threshold": 0.0},
            {"mask_threshold": 1.0},
            {"top_k": 0},
            {"vertex_threshold": 1.2},
            {"attract_dist": 0.0},
            {"connectivity": "six"},
            {"scale": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(PolygonizeError):
            PolygonizeConfig(**kwargs)
