import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polyform.geometry import InstanceSet, Point2, Polygon, Ring
from polyform.raster import (
    DegradeSpec,
    RasterError,
    RasterGrid,
    decode_vertices,
    degrade,
    downscale_targets,
    encode_afm,
    encode_vertices,
    polygon_mask,
    rasterize_mask,
)

from oracles import afm_full_sweep, min_dist_over_segments, point_segment_distance, rasterize_enum
from synth import annulus, random_star_polygon, random_tile, rectangle


def segments_of(instances):
    return [
        (s.start.x, s.start.y, s.end.x, s.end.y)
        for sp in instances
        for s in sp.polygon.boundary_segments()
    ]


class TestRasterizeMask:
    def test_empty_set_all_zero(self):
        grid = rasterize_mask(InstanceSet(), 8, 8)
        assert grid.dtype_name == "u8"
        assert grid.channel().sum() == 0

    def test_square_covers_16_pixels(self):
        grid = rasterize_mask(InstanceSet.of([rectangle(1, 1, 5, 5)]), 8, 8)
        expect = np.zeros((8, 8), dtype=bool)
        expect[1:5, 1:5] = True
        assert np.array_equal(grid.channel() == 1, expect)
        assert grid.channel().sum() == 16

    def test_annulus(self):
        poly = annulus(1, 1, 7, 7, 3, 3, 5, 5)
        grid = rasterize_mask(InstanceSet.of([poly]), 8, 8)
        assert np.array_equal(grid.channel() == 1, rasterize_enum(poly, 8, 8))
        assert grid.channel().sum() == 36 - 4

    def test_matches_scalar_enumeration_on_random_tiles(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            inst = random_tile(rng, 28, 28, n_min=1, n_max=2, min_side=12, max_side=18)
            grid = rasterize_mask(inst, 28, 28)
            expect = np.zeros((28, 28), dtype=bool)
            for sp in inst:
                expect |= rasterize_enum(sp.polygon, 28, 28)
            assert np.array_equal(grid.channel() == 1, expect)

    def test_invariant_to_ring_rotation_and_instance_order(self):
        a = Polygon.from_coords([(1, 1), (6, 1), (6, 6), (1, 6)])
        rotated = Polygon.from_coords([(6, 6), (1, 6), (1, 1), (6, 1)])
        b = rectangle(10, 10, 14, 14)
        g1 = rasterize_mask(InstanceSet.of([a, b]), 16, 16)
        g2 = rasterize_mask(InstanceSet.of([b, rotated]), 16, 16)
        assert np.array_equal(g1.data, g2.data)

    def test_rejects_bad_shape(self):
        with pytest.raises(RasterError):
            rasterize_mask(InstanceSet(), 0, 8)


@st.composite
def afm_shapes(draw, h: int, w: int) -> list[Polygon]:
    """Polygons for the attraction field property: quarter-pixel rectangles and
    courtyards with corners from 16 px outside the frame, often crossing its
    edge, star polygons, and the exact-tie layout (a square whose centre pixel
    is equidistant from all four sides, and two boxes with a pixel column
    midway between them)."""

    def coord(size: int) -> float:
        return draw(st.integers(-64, 4 * size + 64)) / 4

    def box(least: float) -> tuple[float, float, float, float]:
        x0, y0 = coord(w), coord(h)
        x1 = x0 + draw(st.integers(int(4 * least), 4 * w + 64)) / 4
        y1 = y0 + draw(st.integers(int(4 * least), 4 * h + 64)) / 4
        return x0, y0, x1, y1

    kind = draw(st.sampled_from(["rect", "courtyard", "star", "ties"]))
    if kind == "rect":
        return [rectangle(*box(0.25))]
    if kind == "courtyard":
        x0, y0, x1, y1 = box(2.5)
        wall = draw(st.integers(1, 4)) / 4
        return [annulus(x0, y0, x1, y1, x0 + wall, y0 + wall, x1 - wall, y1 - wall)]
    if kind == "star":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        r_max = draw(st.floats(1.0, 40.0))
        n = draw(st.integers(3, 14))
        return [random_star_polygon(rng, coord(w), coord(h), r_max / 4, r_max, n)]
    dx, dy = draw(st.integers(-8, w)), draw(st.integers(-8, h))
    return [rectangle(dx + 2, dy + 2, dx + 11, dy + 11), rectangle(dx + 20, dy + 2, dx + 26, dy + 11),
            rectangle(dx + 31, dy + 2, dx + 37, dy + 11)]


class TestEncodeAfm:
    def test_perpendicular_vector(self):
        # degenerate-thin box stands in for a single segment ((0,0),(8,0))
        inst = InstanceSet.of([Polygon.from_coords([(0, 0), (8, 0), (8, -1), (0, -1)])])
        afm = encode_afm(inst, 8, 8)
        np.testing.assert_allclose(afm.data[3, 2], [0.0, -3.5], atol=1e-12)

    def test_center_on_segment_gives_zero(self):
        inst = InstanceSet.of([Polygon.from_coords([(0, 0.5), (8, 0.5), (8, -1), (0, -1)])])
        afm = encode_afm(inst, 4, 8)
        np.testing.assert_allclose(afm.data[0, :, :], 0.0, atol=1e-12)

    def test_empty_instances_rejected(self):
        with pytest.raises(RasterError, match="no segments"):
            encode_afm(InstanceSet(), 4, 4)

    def test_empty_frame(self):
        inst = InstanceSet.of([rectangle(1, 1, 5, 5)])
        for h, w in ((0, 7), (7, 0)):
            afm = encode_afm(inst, h, w).data
            assert afm.shape == (h, w, 2) and np.array_equal(afm, afm_full_sweep(inst, h, w))

    def test_matches_bruteforce_on_random_tiles(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            inst = random_tile(rng, 32, 32, n_min=1, n_max=3, min_side=12, max_side=16)
            segs = segments_of(inst)
            afm = encode_afm(inst, 32, 32)
            mag = np.hypot(afm.data[:, :, 0], afm.data[:, :, 1])
            for r in range(32):
                for c in range(32):
                    _idx, d = min_dist_over_segments(c + 0.5, r + 0.5, segs)
                    assert abs(mag[r, c] - d) <= 1e-6

    def test_bitwise_equal_to_full_sweep_oracle(self):
        rng = np.random.default_rng(17)
        tiles = [random_tile(rng, 64, 64, n_min=2, n_max=5, min_side=12, max_side=24) for _ in range(4)]
        tiles += [
            InstanceSet.of([random_star_polygon(rng, 32, 32, 6, 30, int(rng.integers(5, 14)))]) for _ in range(4)
        ]
        # pixel (6, 6) is 4.5 from all four sides of the square, and column 28
        # lies midway between the two boxes
        ties = InstanceSet.of([rectangle(2, 2, 11, 11), rectangle(20, 2, 26, 11), rectangle(31, 2, 37, 11)])
        dists = [point_segment_distance(6.5, 6.5, *s) for s in segments_of(ties)]
        assert dists.count(min(dists)) == 4
        for inst in tiles + [ties]:
            afm = encode_afm(inst, 64, 64).data
            assert afm.dtype == np.float64
            assert np.array_equal(afm, afm_full_sweep(inst, 64, 64))

    def test_rounding_tie_at_a_block_corner_is_kept(self):
        # at the block corner (15.5, 15.5) the first triangle's edge 0, which
        # ends at its vertex nearest the corner, wins with a squared distance
        # that rounds a few ulps below its squared gap to the edge's bounding
        # box; the second triangle sets the block's upper bound at the same
        # corner, between the two, so only the slack keeps edge 0 a candidate
        near = Polygon.from_coords(
            [(55.26932155494529, 81.73035381530212), (18.462126554038303, 25.726318980613318),
             (23.202707844130455, 28.243597477623588)]
        )
        centre = Polygon.from_coords(
            [(8.021453732946739, 7.922194292083313), (6.038097257814394, 7.537276784124809),
             (7.363123835634031, 6.012098445879091)]
        )
        inst = InstanceSet.of([near, centre])
        for h, w in ((16, 16), (20, 30)):
            assert np.array_equal(encode_afm(inst, h, w).data, afm_full_sweep(inst, h, w))

    def test_bitwise_equal_on_dense_tile_with_courtyards(self):
        # a perfbench dense_corpus-style tile: 25-40 buildings, every fifth
        # one a courtyard over its bounding box
        rng = np.random.default_rng(23)
        tile = random_tile(rng, 512, 512, n_min=25, n_max=40, min_side=26, max_side=48)
        polys = []
        for k, sp in enumerate(tile):
            poly = sp.polygon
            if k % 5 == 4:
                xs = [v.x for v in poly.outer.vertices]
                ys = [v.y for v in poly.outer.vertices]
                x0, y0, x1, y1 = min(xs), min(ys), max(xs), max(ys)
                walls = rng.integers(5, 9, size=4)
                poly = annulus(x0, y0, x1, y1, x0 + walls[0], y0 + walls[1], x1 - walls[2], y1 - walls[3])
            polys.append(poly)
        inst = InstanceSet.of(polys)
        assert len(inst) >= 25 and any(sp.polygon.holes for sp in inst)
        assert np.array_equal(encode_afm(inst, 512, 512).data, afm_full_sweep(inst, 512, 512))

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_bitwise_equal_to_full_sweep_on_drawn_frames(self, data):
        h = data.draw(st.integers(1, 80), label="h")
        w = data.draw(st.integers(1, 80), label="w")
        shapes = data.draw(st.lists(afm_shapes(h, w), min_size=1, max_size=4), label="shapes")
        inst = InstanceSet.of([p for group in shapes for p in group])
        assert np.array_equal(encode_afm(inst, h, w).data, afm_full_sweep(inst, h, w))

    def test_foot_lies_on_a_segment(self):
        rng = np.random.default_rng(12)
        inst = random_tile(rng, 32, 32, n_min=2, n_max=3, min_side=12, max_side=16)
        segs = segments_of(inst)
        afm = encode_afm(inst, 32, 32)
        for r in range(0, 32, 3):
            for c in range(0, 32, 3):
                fx = c + 0.5 + afm.data[r, c, 0]
                fy = r + 0.5 + afm.data[r, c, 1]
                _idx, d = min_dist_over_segments(fx, fy, segs)
                assert d <= 1e-4

    def test_boundary_pixels_have_small_attraction(self):
        # rectilinear integer-corner boundaries sit exactly 0.5 px from
        # their edge, so the strict 0.5 bound is met with equality
        rng = np.random.default_rng(13)
        inst = random_tile(rng, 48, 48, n_min=2, n_max=4, min_side=12, max_side=20)
        mask = rasterize_mask(inst, 48, 48).channel() == 1
        afm = encode_afm(inst, 48, 48)
        mag = np.hypot(afm.data[:, :, 0], afm.data[:, :, 1])
        inner = np.zeros_like(mask)
        inner[1:-1, 1:-1] = mask[:-2, 1:-1] & mask[2:, 1:-1] & mask[1:-1, :-2] & mask[1:-1, 2:]
        boundary = mask & ~inner
        assert (mag[boundary] <= 0.5 + 1e-9).all()


class TestEncodeVertices:
    def test_center_vertex_zero_offset(self):
        inst = InstanceSet.of([Polygon.from_coords([(3.5, 2.5), (6.5, 2.5), (6.5, 5.5)])])
        grids = encode_vertices(inst, 8, 8)
        assert grids.heatmap.channel()[2, 3] == 1.0
        np.testing.assert_array_equal(grids.offsets.data[2, 3], [0.0, 0.0])

    def test_corner_vertex_negative_half_offset(self):
        inst = InstanceSet.of([Polygon.from_coords([(3.0, 2.0), (6.5, 2.5), (6.5, 5.5)])])
        grids = encode_vertices(inst, 8, 8)
        assert grids.heatmap.channel()[2, 3] == 1.0
        np.testing.assert_array_equal(grids.offsets.data[2, 3], [-0.5, -0.5])

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            cells = rng.choice(16 * 16, size=6, replace=False)
            verts = []
            for cell in cells:
                r, c = divmod(int(cell), 16)
                ox = float(np.float32(rng.uniform(-0.5, 0.4999)))
                oy = float(np.float32(rng.uniform(-0.5, 0.4999)))
                verts.append(Point2(c + 0.5 + ox, r + 0.5 + oy))
            inst = InstanceSet.of(
                [Polygon(Ring(tuple(verts[:3]))), Polygon.from_coords([tuple(v) for v in verts[3:]])]
            )
            grids = encode_vertices(inst, 16, 16)
            decoded = sorted(tuple(p) for p, _s in decode_vertices(grids))
            assert decoded == sorted(tuple(v) for v in verts)

    def test_collision_later_wins(self):
        inst = InstanceSet.of(
            [
                Polygon.from_coords([(3.25, 2.25), (6.5, 2.5), (6.5, 5.5)]),
                Polygon.from_coords([(3.75, 2.75), (9.5, 2.5), (9.5, 5.5)]),
            ]
        )
        with pytest.warns(UserWarning, match="collision"):
            grids = encode_vertices(inst, 12, 12)
        np.testing.assert_allclose(grids.offsets.data[2, 3], [0.25, 0.25])

    def test_out_of_bounds_names_instance(self):
        inst = InstanceSet.of([Polygon.from_coords([(3, 2), (8.5, 2), (8.5, 5)])])
        with pytest.raises(RasterError, match="instance 0"):
            encode_vertices(inst, 8, 8)

    def test_heatmap_pixels_reproduce_vertices(self):
        rng = np.random.default_rng(31)
        inst = random_tile(rng, 64, 64, n_min=2, n_max=4)
        grids = encode_vertices(inst, 64, 64)
        decoded = {tuple(p) for p, _s in decode_vertices(grids)}
        truth = {tuple(v) for sp in inst for v in sp.polygon.all_vertices()}
        assert decoded == truth


class TestDegrade:
    def _fixture(self):
        inst = InstanceSet.of([rectangle(3, 3, 10, 10)])
        mask = rasterize_mask(inst, 16, 16)
        grids = encode_vertices(inst, 16, 16)
        return mask, grids

    def test_all_zero_spec_is_identity(self):
        mask, grids = self._fixture()
        soft, out = degrade(mask, grids, DegradeSpec())
        assert np.array_equal(soft.channel(), mask.channel().astype(np.float32))
        assert np.array_equal(out.heatmap.data, grids.heatmap.data)
        assert np.array_equal(out.offsets.data, grids.offsets.data)

    def test_dilate_single_pixel_becomes_block(self):
        mask = np.zeros((7, 7), dtype=np.uint8)
        mask[3, 3] = 1
        grids_src = encode_vertices(InstanceSet.of([rectangle(1, 1, 5, 5)]), 7, 7)
        soft, _ = degrade(RasterGrid.from_array(mask), grids_src, DegradeSpec(dilate_radius=1))
        expect = np.zeros((7, 7), dtype=np.float32)
        expect[2:5, 2:5] = 1.0
        assert np.array_equal(soft.channel(), expect)

    def test_same_seed_bit_identical(self):
        mask, grids = self._fixture()
        spec = DegradeSpec(
            dilate_radius=1,
            boundary_jitter_sigma=0.7,
            heatmap_noise_sigma=0.05,
            vertex_dropout_prob=0.5,
            spurious_vertex_count=4,
            rng_seed=77,
        )
        a_soft, a_grids = degrade(mask, grids, spec)
        b_soft, b_grids = degrade(mask, grids, spec)
        assert np.array_equal(a_soft.data, b_soft.data)
        assert np.array_equal(a_grids.heatmap.data, b_grids.heatmap.data)
        assert np.array_equal(a_grids.offsets.data, b_grids.offsets.data)

    def test_different_seed_differs(self):
        mask, grids = self._fixture()
        spec_a = DegradeSpec(boundary_jitter_sigma=0.7, rng_seed=1)
        spec_b = DegradeSpec(boundary_jitter_sigma=0.7, rng_seed=2)
        a, _ = degrade(mask, grids, spec_a)
        b, _ = degrade(mask, grids, spec_b)
        assert not np.array_equal(a.data, b.data)

    def test_noise_stays_clamped(self):
        mask, grids = self._fixture()
        spec = DegradeSpec(boundary_jitter_sigma=5.0, heatmap_noise_sigma=5.0, rng_seed=3)
        soft, out = degrade(mask, grids, spec)
        assert soft.channel().min() >= 0.0 and soft.channel().max() <= 1.0
        assert out.heatmap.channel().min() >= 0.0 and out.heatmap.channel().max() <= 1.0

    def test_dropout_all_removes_peaks(self):
        mask, grids = self._fixture()
        _, out = degrade(mask, grids, DegradeSpec(vertex_dropout_prob=1.0, rng_seed=4))
        assert out.heatmap.channel().max() == 0.0

    def test_spurious_adds_peaks(self):
        mask, grids = self._fixture()
        _, out = degrade(mask, grids, DegradeSpec(spurious_vertex_count=5, rng_seed=5))
        assert np.count_nonzero(out.heatmap.channel()) == np.count_nonzero(grids.heatmap.channel()) + 5

    def test_invalid_spec_rejected(self):
        with pytest.raises(RasterError):
            DegradeSpec(vertex_dropout_prob=1.5)


class TestDownscaleTargets:
    def test_identity(self):
        inst = InstanceSet.of([rectangle(4, 4, 12, 12)])
        assert downscale_targets(inst, 1) is inst

    def test_divides_coordinates(self):
        inst = InstanceSet.of([Polygon.from_coords([(512, 256), (512, 512), (256, 512)])])
        out = downscale_targets(inst, 4)
        assert tuple(out.instances[0].polygon.outer.vertices[0]) == (128.0, 64.0)

    def test_inverse_of_rescale(self):
        from polyform.polygonize import rescale_polygons

        inst = InstanceSet.of([rectangle(8, 16, 40, 48)])
        back = rescale_polygons(downscale_targets(inst, 4), 4)
        assert back.instances[0].polygon == inst.instances[0].polygon

    def test_rejects_fractional_shrink(self):
        with pytest.raises(RasterError):
            downscale_targets(InstanceSet(), 0.5)


class TestRasterGrid:
    def test_requires_3d(self):
        with pytest.raises(RasterError):
            RasterGrid(np.zeros((4, 4), dtype=np.uint8))

    def test_from_array_promotes_2d(self):
        g = RasterGrid.from_array(np.zeros((4, 4), dtype=np.float32))
        assert g.channels == 1 and g.dtype_name == "f32"

    def test_rejects_unknown_dtype(self):
        with pytest.raises(RasterError):
            RasterGrid(np.zeros((2, 2, 1), dtype=np.int16))

    def test_data_is_immutable(self):
        g = RasterGrid.from_array(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            g.data[0, 0, 0] = 1


def test_polygon_mask_matches_point_in_polygon():
    from polyform.geometry import point_in_polygon

    poly = annulus(2, 2, 14, 14, 5, 5, 9, 9)
    mask = polygon_mask(poly, 16, 16)
    for r in range(16):
        for c in range(16):
            assert mask[r, c] == point_in_polygon(Point2(c + 0.5, r + 0.5), poly)
