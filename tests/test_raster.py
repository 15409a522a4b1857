import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import ndimage

from polyform import raster
from polyform.geometry import (
    FRAME_TOL, InstanceSet, Point2, Polygon, Ring, point_in_polygon, project_points_to_segments,
)
from polyform.io import FormatError, TileRecord
from polyform.raster import (
    DegradeSpec,
    RasterError,
    RasterGrid,
    VertexGrids,
    _square_morph,
    degrade,
    downscale_targets,
    encode_afm,
    encode_vertices,
    offset_coords,
    polygon_mask,
    rasterize_mask,
)

from oracles import (
    afm_full_sweep,
    degrade_scipy,
    min_dist_over_segments,
    point_segment_distance,
    rasterize_enum,
    square,
)
from synth import annulus, random_star_polygon, random_tile, rectangle
from test_fill import coordinate, free_ring, polygon_in


def segments_of(instances):
    return [(*a, *b) for sp in instances for a, b in sp.polygon.boundary_segments()]


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

    def test_empty_instances_give_zero_field(self):
        afm = encode_afm(InstanceSet(), 4, 4).data
        assert afm.dtype == np.float64 and afm.shape == (4, 4, 2) and not afm.any()

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
        # at the pixel centre (15.5, 15.5) the first triangle's edge 0, which
        # ends at its vertex nearest that pixel, wins with a squared distance
        # that rounds a few ulps below its squared gap to the edge's bounding
        # box. The pixel is the corner of the cell centred at (12, 12), and
        # the second triangle, near that cell's diagonal, is the nearest to
        # its centre: the cell's bound, about 113.356, clears edge 0's squared
        # gap, about 113.352, by far more than rounding
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

    def test_rounding_tie_at_a_cell_centre_bound_is_kept(self):
        # the pixel centre p = (8.5, 0.5) is the corner of the cell centred at
        # q = (12, 4). The first triangle's vertex v and the second's u lie on
        # the diagonal through p and q, both a = 6.498... * sqrt(2) from p: an
        # exact tie at p, which the first triangle wins by index. u is
        # a - r from q, so the cell's bound (|q - u| + r) ** 2 equals a ** 2,
        # the squared gap from the cell's pixel-centre box to the first
        # triangle's edges, but rounds an ulp below it; only the slack keeps
        # them candidates
        near = Polygon.from_coords(
            [(2.001812933737847, -5.998187066262153), (-12.945868206570806, -11.086062376070814),
             (0.7964637774336552, -9.783484303479446)]
        )
        far = Polygon.from_coords(
            [(14.998187066262153, 6.998187066262153), (19.76028419501813, 8.404888744909055),
             (23.635017681955997, 19.202183227637263)]
        )
        inst = InstanceSet.of([near, far])
        for h, w in ((8, 16), (20, 30)):
            assert np.array_equal(encode_afm(inst, h, w).data, afm_full_sweep(inst, h, w))

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_bitwise_equal_with_vertices_up_to_2_29_px_away(self, data):
        # the slack grows with the largest coordinate, and nothing in the
        # sweep may warn (the suite turns a RuntimeWarning into an error).
        # Coordinates are quarter pixels, near the frame or anywhere within
        # 2**29 px of it
        h = data.draw(st.integers(1, 40), label="h")
        w = data.draw(st.integers(1, 40), label="w")
        coord = st.one_of(st.integers(-32, 192), st.integers(-(2**31), 2**31)).map(lambda v: v / 4)
        polys = []
        for _ in range(data.draw(st.integers(1, 3), label="polygons")):
            pts = data.draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=5, unique=True), label="ring")
            polys.append(Polygon.from_coords(pts))
        inst = InstanceSet.of(polys)
        assert np.array_equal(encode_afm(inst, h, w).data, afm_full_sweep(inst, h, w))

    def test_projected_pixels_on_a_sparse_tile(self, monkeypatch):
        # the sweep's work: pixels projected onto candidate segments, summed
        # over the kernel's out= buffers. The cell-centre bound projects
        # 1,152,704 (4.40 per pixel) on this tile; the 16 px block-corner
        # bound it replaced projected 1,647,872, so a looser bound fails
        inst = random_tile(np.random.default_rng(20), 512, 512)
        projected = []

        def counting(*args, out=None):
            if out is not None:
                projected.append(out[0].size)
            return project_points_to_segments(*args, out=out)

        monkeypatch.setattr(raster, "project_points_to_segments", counting)
        encode_afm(inst, 512, 512)
        assert len(inst) == 7 and 0 < sum(projected) <= 1_152_704

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
            rows, cols = np.nonzero(grids.heatmap.channel())
            decoded = sorted(map(tuple, offset_coords(rows, cols, grids.offsets.data).tolist()))
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

    # corners on the right or bottom edge, and within FRAME_TOL outside an edge
    @pytest.mark.parametrize(
        "x, y", [(8.0, 3.0), (3.0, 8.0), (8.0, 8.0), (8.0 + FRAME_TOL, 3.0), (-FRAME_TOL, 3.0), (3.0, -1e-9)]
    )
    def test_vertex_on_frame_edge_lands_in_border_pixel(self, x, y):
        inst = InstanceSet.of([Polygon.from_coords([(x, y), (4.5, 4.5), (3.5, 5.5)])])
        TileRecord("t", (8, 8), inst)  # the readers accept the same frame
        grids = encode_vertices(inst, 8, 8)
        r, c = min(max(math.floor(y), 0), 7), min(max(math.floor(x), 0), 7)
        assert grids.heatmap.channel()[r, c] == 1.0
        off_x, off_y = grids.offsets.data[r, c].tolist()
        assert -0.5 <= off_x < 0.5 and -0.5 <= off_y < 0.5
        # decoded within the tolerance plus the offset's f32 rounding
        assert abs(c + 0.5 + off_x - x) <= FRAME_TOL + 1e-7 and abs(r + 0.5 + off_y - y) <= FRAME_TOL + 1e-7

    @pytest.mark.parametrize("x, y", [(8.0 + 1e-5, 3.0), (-1e-5, 3.0), (3.0, 8.5)])
    def test_vertex_past_the_tolerance_raises(self, x, y):
        inst = InstanceSet.of([Polygon.from_coords([(x, y), (4.5, 4.5), (3.5, 5.5)])])
        with pytest.raises(FormatError):
            TileRecord("t", (8, 8), inst)
        with pytest.raises(RasterError, match="instance 0"):
            encode_vertices(inst, 8, 8)

    def test_heatmap_pixels_reproduce_vertices(self):
        rng = np.random.default_rng(31)
        inst = random_tile(rng, 64, 64, n_min=2, n_max=4)
        grids = encode_vertices(inst, 64, 64)
        rows, cols = np.nonzero(grids.heatmap.channel())
        decoded = set(map(tuple, offset_coords(rows, cols, grids.offsets.data).tolist()))
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

    @pytest.mark.parametrize("heat_dtype, off_dtype", [(np.float32, np.float32), (np.uint8, np.float64)])
    @pytest.mark.parametrize("noise, dropout, spurious", list(itertools.product((0.0, 0.05), (0.0, 0.4), (0, 6))))
    def test_vertex_grids_are_copied_only_when_written(self, noise, dropout, spurious, heat_dtype, off_dtype):
        # each vertex-side stage on or off: the outputs equal the copying
        # oracle bit for bit, are f32 and read-only, and a grid no stage
        # writes into shares the input's data when that is already f32
        mask, f32_grids = self._fixture()
        grids = VertexGrids(RasterGrid(f32_grids.heatmap.data.astype(heat_dtype)),
                            RasterGrid(f32_grids.offsets.data.astype(off_dtype)))
        before = [g.data.copy() for g in (grids.heatmap, grids.offsets)]
        spec = DegradeSpec(dilate_radius=1, boundary_jitter_sigma=0.5, heatmap_noise_sigma=noise,
                           vertex_dropout_prob=dropout, spurious_vertex_count=spurious, rng_seed=9)
        soft, out = degrade(mask, grids, spec)
        want_soft, want = degrade_scipy(mask, grids, spec)
        for got, expect in ((soft, want_soft), (out.heatmap, want.heatmap), (out.offsets, want.offsets)):
            assert got.data.dtype == np.float32 and got.data.shape == expect.data.shape
            assert got.data.tobytes() == expect.data.tobytes()
            assert not got.data.flags.writeable
        heat_written = noise > 0 or dropout > 0 or spurious > 0
        off_written = dropout > 0 or spurious > 0
        assert np.shares_memory(out.heatmap.data, grids.heatmap.data) == (not heat_written and heat_dtype == np.float32)
        assert np.shares_memory(out.offsets.data, grids.offsets.data) == (not off_written and off_dtype == np.float32)
        for grid, data in zip((grids.heatmap, grids.offsets), before):
            assert np.array_equal(grid.data, data)

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

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_key_range_rejected(self, seed):
        with pytest.raises(RasterError):
            DegradeSpec(rng_seed=seed)

    @pytest.mark.parametrize("field", ["boundary_jitter_sigma", "heatmap_noise_sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, field, value):
        with pytest.raises(RasterError):
            DegradeSpec(**{field: value})

    def test_erosion_clears_frame_border(self):
        # the outside of the frame counts as background, as in scipy's default border_value=0
        mask = RasterGrid.from_array(np.ones((5, 6), dtype=np.uint8))
        soft, _ = degrade(mask, encode_vertices(InstanceSet(), 5, 6), DegradeSpec(erode_radius=1))
        expect = np.zeros((5, 6), dtype=np.float32)
        expect[1:4, 1:5] = 1.0
        assert np.array_equal(soft.channel(), expect)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bitwise_equal_to_scipy_oracle(self, data):
        """Every stage on, erosion included, on frames down to 1 x 1."""
        mask, grids = data.draw(degrade_inputs())
        spec = DegradeSpec(
            dilate_radius=data.draw(st.integers(1, 3)),
            erode_radius=data.draw(st.integers(1, 3)),
            boundary_jitter_sigma=data.draw(st.floats(0.01, 3.0)),
            heatmap_noise_sigma=data.draw(st.floats(0.001, 0.5)),
            vertex_dropout_prob=data.draw(st.floats(0.05, 1.0)),
            spurious_vertex_count=data.draw(st.integers(1, 30)),
            rng_seed=data.draw(st.integers(0, 2**32 - 1)),
        )
        got_soft, got = degrade(mask, grids, spec)
        want_soft, want = degrade_scipy(mask, grids, spec)
        for a, b in ((got_soft, want_soft), (got.heatmap, want.heatmap), (got.offsets, want.offsets)):
            assert a.data.dtype == b.data.dtype and a.data.shape == b.data.shape
            assert a.data.tobytes() == b.data.tobytes()


def bool_frames(max_side: int = 40):
    """Bool frames from 1 x 1 to max_side x max_side, 1-row and 1-column ones
    often: speckle at a drawn density, boxes that may run off any edge, and
    whole border rows and columns set, so foreground touches every border."""

    @st.composite
    def frames(draw):
        side = st.one_of(st.just(1), st.integers(1, max_side))
        h, w = draw(side), draw(side)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        mask = rng.random((h, w)) < draw(st.sampled_from((0.0, 0.1, 0.4, 0.8, 1.0)))
        for r, c, a, b in draw(st.lists(st.tuples(*[st.integers(-3, max_side)] * 4), max_size=4)):
            mask[max(r, 0) : max(r + a, 0), max(c, 0) : max(c + b, 0)] = True
        for edge in draw(st.sets(st.sampled_from(("top", "bottom", "left", "right")))):
            mask[{"top": (0, slice(None)), "bottom": (-1, slice(None)),
                  "left": (slice(None), 0), "right": (slice(None), -1)}[edge]] = True
        return mask

    return frames()


@st.composite
def degrade_inputs(draw):
    """(u8 mask, vertex grids) on one small frame: the mask from bool_frames,
    the heatmap 1 on a drawn share of pixels with f32 offsets there."""
    mask = draw(bool_frames(32))
    h, w = mask.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    peaks = rng.random((h, w)) < draw(st.sampled_from((0.0, 0.05, 0.3)))
    offsets = np.where(peaks[:, :, None], rng.uniform(-0.5, 0.5, (h, w, 2)), 0.0).astype(np.float32)
    grids = VertexGrids(RasterGrid.from_array(peaks.astype(np.float32)), RasterGrid(offsets))
    return RasterGrid.from_array(mask.astype(np.uint8)), grids


class TestSquareMorph:
    @settings(max_examples=400, deadline=None)
    @given(bool_frames(), st.one_of(st.integers(0, 3), st.just(10**9)), st.booleans())
    def test_equals_scipy_binary_morphology(self, mask, radius, dilate):
        before = mask.copy()
        got = _square_morph(mask, radius, dilate)
        scipy_op = ndimage.binary_dilation if dilate else ndimage.binary_erosion
        assert got.dtype == bool and got.shape == mask.shape
        # no structure holds 10**9; passes beyond max(h, w) change nothing
        clamped = min(radius, max(mask.shape))
        want = scipy_op(mask, structure=square(clamped))
        assert np.array_equal(got, want)
        if clamped < radius:
            assert np.array_equal(want, scipy_op(mask, structure=square(clamped + 2)))
        assert np.array_equal(mask, before)


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


@st.composite
def membership_cases(draw) -> tuple[Polygon, int, int]:
    """A frame up to 24 x 24 and one polygon: any kind the fill properties
    draw within 3 px of the frame (half-lattice, quarter-lattice and free
    vertices, self-intersecting rings, holes touching the outer ring); a
    free outer ring there with 1-3 free holes that may overlap each other or
    leave it; or a triangle with a vertex in the frame and two at a distance
    of 1e8 to 5.3e8, whose edge tolerance reaches half a pixel while its
    coordinates stay below 2**29."""
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    box = (-3.0, -3.0, w + 3.0, h + 3.0)
    kind = draw(st.sampled_from(["fill", "holes", "far"]))
    if kind == "fill":
        return draw(polygon_in(h, w, *box, far=False)), h, w
    if kind == "holes":
        holes = draw(st.lists(free_ring(*box), min_size=1, max_size=3))
        return Polygon.from_coords(draw(free_ring(*box)), holes), h, w
    px, py, dist = draw(coordinate(0, w)), draw(coordinate(0, h)), draw(st.floats(1e8, 5.3e8))
    theta = draw(st.floats(0.0, 2 * math.pi))
    phi = theta + draw(st.floats(0.01, math.pi))
    coords = [(px, py), (px + dist * math.cos(theta), py + dist * math.sin(theta))]
    coords.append((px + dist * math.cos(phi), py + dist * math.sin(phi)))
    return Polygon.from_coords(coords), h, w


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(membership_cases())
def test_polygon_mask_matches_point_in_polygon(case):
    poly, h, w = case
    mask = polygon_mask(poly, h, w)
    for r in range(h):
        for c in range(w):
            assert mask[r, c] == point_in_polygon(Point2(c + 0.5, r + 0.5), poly), (r, c)
