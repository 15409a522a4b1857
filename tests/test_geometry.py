import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyform.geometry import (
    DegenerateRingError,
    GeometryError,
    InstanceSet,
    LineSegment,
    Point2,
    Polygon,
    Ring,
    ScoredPolygon,
    classify_vertices,
    merge_collinear_edges,
    nearest_segment,
    point_in_polygon,
    project_point_to_segment,
    signed_area,
)

from oracles import min_dist_over_segments, on_hull_bruteforce
from synth import annulus, random_rectilinear_polygon, random_star_polygon

coord = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


def seg(a, b):
    return LineSegment(Point2(*a), Point2(*b))


class TestProjectPointToSegment:
    def test_perpendicular_drop(self):
        foot, t, dist = project_point_to_segment(Point2(2, 3), seg((0, 0), (4, 0)))
        assert foot == Point2(2, 0)
        assert t == 0.5
        assert dist == 3.0

    def test_clamped_to_endpoint(self):
        foot, t, dist = project_point_to_segment(Point2(5, 1), seg((0, 0), (4, 0)))
        assert foot == Point2(4, 0)
        assert t == 1.0
        assert dist == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_point_on_segment(self):
        foot, t, dist = project_point_to_segment(Point2(1, 1), seg((0, 0), (2, 2)))
        assert foot == Point2(1, 1)
        assert t == 0.5
        assert dist == 0.0

    def test_degenerate_segment_rejected(self):
        with pytest.raises(GeometryError):
            LineSegment(Point2(1, 1), Point2(1, 1))

    @given(coord, coord, coord, coord, coord, coord)
    def test_dist_never_exceeds_endpoint_dists(self, px, py, ax, ay, bx, by):
        if (ax, ay) == (bx, by):
            return
        p = Point2(px, py)
        _, _, dist = project_point_to_segment(p, seg((ax, ay), (bx, by)))
        assert dist <= math.hypot(px - ax, py - ay) + 1e-9
        assert dist <= math.hypot(px - bx, py - by) + 1e-9


def resize_per_axis(instances: InstanceSet, fx: float, fy: float) -> InstanceSet:
    """The per-axis resize the command line used before InstanceSet.scaled took two factors."""
    out = []
    for sp in instances:
        rings = [Ring(tuple(Point2(v.x * fx, v.y * fy) for v in ring.vertices)) for ring in sp.polygon.rings()]
        out.append(ScoredPolygon(Polygon(rings[0], tuple(rings[1:])), sp.score))
    return InstanceSet(tuple(out))


class TestScaled:
    def _instances(self):
        rng = np.random.default_rng(8)
        polys = [annulus(2, 2, 30, 20, 8, 6, 16, 14), random_rectilinear_polygon(rng, 40, 4, 20, 16, 3)]
        polys.append(random_star_polygon(rng, 20, 50, 4, 12, 9))
        return InstanceSet.of(polys, [0.25, 0.5, 1.0])

    @pytest.mark.parametrize("fx, fy", [(2.0, 0.5), (0.25, 3.0), (1.0, 4.0), (1.5, 1.0), (0.7, 0.7)])
    def test_anisotropic_keeps_orientation_and_matches_per_axis_resize(self, fx, fy):
        inst = self._instances()
        out = inst.scaled(fx, fy)
        assert out == resize_per_axis(inst, fx, fy)
        assert [sp.score for sp in out] == [0.25, 0.5, 1.0]
        for sp in out:
            assert signed_area(sp.polygon.outer) > 0
            assert all(signed_area(h) < 0 for h in sp.polygon.holes)
        assert len(out.instances[0].polygon.holes) == 1

    def test_one_factor_scales_both_axes(self):
        inst = self._instances()
        assert inst.scaled(2.5) == inst.scaled(2.5, 2.5)
        assert inst.scaled(1.0) is inst and inst.scaled(1.0, 1.0) is inst


class TestNearestSegment:
    def test_simple(self):
        idx, _foot, dist = nearest_segment(Point2(0, 1), [seg((0, 0), (4, 0)), seg((0, 3), (4, 3))])
        assert idx == 0
        assert dist == 1.0

    def test_tie_goes_to_lowest_index(self):
        idx, _foot, dist = nearest_segment(Point2(0, 1.5), [seg((0, 0), (4, 0)), seg((0, 3), (4, 3))])
        assert idx == 0
        assert dist == 1.5

    def test_empty_list_rejected(self):
        with pytest.raises(GeometryError):
            nearest_segment(Point2(0, 0), [])

    def test_agrees_with_exhaustive_scan(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            n = int(rng.integers(1, 21))
            raw = rng.uniform(-50, 50, size=(n, 4))
            raw = raw[np.any(raw[:, :2] != raw[:, 2:], axis=1)]
            if len(raw) == 0:
                continue
            segs = [seg((a, b), (c, d)) for a, b, c, d in raw]
            px, py = rng.uniform(-60, 60, size=2)
            idx, _foot, dist = nearest_segment(Point2(px, py), segs)
            oracle_idx, oracle_dist = min_dist_over_segments(px, py, raw)
            assert idx == oracle_idx
            assert dist == pytest.approx(oracle_dist, abs=1e-9)


L_SHAPE = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]


class TestClassifyVertices:
    def test_rectangle_all_convex(self):
        cls = classify_vertices(Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)]))
        assert cls.convex == frozenset({0, 1, 2, 3})
        assert cls.concave == frozenset()

    def test_l_shape_single_concave(self):
        # hull of the six points excludes only (1, 1), per the brute-force
        # supporting-line oracle
        poly = Polygon.from_coords(L_SHAPE)
        order = list(poly.outer.vertices)
        assert on_hull_bruteforce((1, 1), L_SHAPE) is False
        for pt in L_SHAPE:
            if pt != (1, 1):
                assert on_hull_bruteforce(pt, L_SHAPE) is True
        cls = classify_vertices(poly)
        assert cls.concave == frozenset({order.index(Point2(1, 1))})
        assert cls.convex | cls.concave == frozenset(range(6))

    def test_hole_vertices_all_concave(self):
        poly = Polygon.from_coords(
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]],
        )
        cls = classify_vertices(poly)
        assert cls.convex == frozenset({0, 1, 2, 3})
        assert cls.concave == frozenset({4, 5, 6, 7})

    def test_random_polygons_match_bruteforce_hull(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            poly = random_rectilinear_polygon(rng, 0, 0, int(rng.integers(12, 40)), int(rng.integers(12, 40)), int(rng.integers(0, 5)))
            cls = classify_vertices(poly)
            verts = poly.outer.vertices
            assert cls.convex | cls.concave == frozenset(range(len(verts)))
            assert cls.convex & cls.concave == frozenset()
            coords = [(v.x, v.y) for v in verts]
            for i, v in enumerate(coords):
                assert (i in cls.convex) == on_hull_bruteforce(v, coords), (poly, v)


class TestMergeCollinearEdges:
    def test_exactly_collinear(self):
        ring = Ring.from_coords([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
        merged = merge_collinear_edges(ring, 10.0)
        assert [tuple(v) for v in merged.vertices] == [(0, 0), (2, 0), (2, 2), (0, 2)]

    def test_square_unchanged(self):
        ring = Ring.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert merge_collinear_edges(ring, 10.0) == ring

    def test_small_turn_removed(self):
        # turn at (10, 0.1) is about 1.15 degrees, well under 10
        ring = Ring.from_coords([(0, 0), (10, 0.1), (20, 0), (20, 5), (0, 5)])
        merged = merge_collinear_edges(ring, 10.0)
        assert Point2(10, 0.1) not in merged.vertices
        assert len(merged) == 4

    def test_degenerate_result_raises(self):
        ring = Ring.from_coords([(0, 0), (1, 0.001), (2, 0)])
        with pytest.raises(DegenerateRingError):
            merge_collinear_edges(ring, 10.0)

    def test_idempotent_on_random_rings(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(4, 12))
            angles = np.sort(rng.uniform(0, 2 * np.pi, size=n))
            angles += np.linspace(0, 1e-3, n)
            radii = rng.uniform(2, 10, size=n)
            coords = [(10 + r * np.cos(a), 10 + r * np.sin(a)) for r, a in zip(radii, angles)]
            try:
                once = merge_collinear_edges(Ring.from_coords(coords), 15.0)
                twice = merge_collinear_edges(once, 15.0)
            except DegenerateRingError:
                continue
            assert once == twice


class TestPointInPolygon:
    SQUARE = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
    HOLED = Polygon.from_coords([(0, 0), (8, 0), (8, 8), (0, 8)], holes=[[(2, 2), (6, 2), (6, 6), (2, 6)]])

    def test_inside(self):
        assert point_in_polygon(Point2(1, 1), self.SQUARE) is True

    def test_outside(self):
        assert point_in_polygon(Point2(5, 5), self.SQUARE) is False

    def test_boundary_counts_as_inside(self):
        assert point_in_polygon(Point2(0, 2), self.SQUARE) is True
        assert point_in_polygon(Point2(4, 4), self.SQUARE) is True

    def test_hole_center_outside(self):
        assert point_in_polygon(Point2(4, 4), self.HOLED) is False

    def test_hole_rim_counts_as_inside(self):
        assert point_in_polygon(Point2(2, 4), self.HOLED) is True


class TestSignedArea:
    def test_square_positive(self):
        assert signed_area(Ring.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])) == 16.0

    def test_reversed_negative(self):
        assert signed_area(Ring.from_coords([(0, 4), (4, 4), (4, 0), (0, 0)])) == -16.0

    def test_degenerate_collinear_zero(self):
        assert signed_area(Ring.from_coords([(0, 0), (2, 0), (4, 0)])) == 0.0

    @given(st.lists(st.tuples(coord, coord), min_size=3, max_size=10, unique=True))
    def test_reverse_negates(self, coords):
        try:
            ring = Ring.from_coords(coords)
        except GeometryError:
            return
        assert signed_area(ring.reversed()) == pytest.approx(-signed_area(ring), rel=1e-12, abs=1e-12)


class TestInvariants:
    def test_ring_requires_three_vertices(self):
        with pytest.raises(GeometryError):
            Ring.from_coords([(0, 0), (1, 1)])

    def test_ring_rejects_consecutive_duplicates(self):
        with pytest.raises(GeometryError):
            Ring.from_coords([(0, 0), (0, 0), (1, 1), (2, 0)])

    def test_point_rejects_non_finite(self):
        with pytest.raises(GeometryError):
            Point2(float("nan"), 0)

    def test_polygon_normalizes_orientation(self):
        poly = Polygon.from_coords(
            [(0, 4), (4, 4), (4, 0), (0, 0)],  # CW input
            holes=[[(1, 1), (3, 1), (3, 3), (1, 3)]],  # CCW input
        )
        assert signed_area(poly.outer) > 0
        assert all(signed_area(h) < 0 for h in poly.holes)
