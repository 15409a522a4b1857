import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from polyform.geometry import (
    DegenerateRingError,
    GeometryError,
    InstanceSet,
    Point2,
    Polygon,
    Ring,
    ScoredPolygon,
    edge_arrays,
    merge_collinear_edges,
    pack_rings,
    near_pairs,
    point_in_polygon,
    project_points_to_segments,
    signed_area,
)

from polyform.raster import encode_afm, polygon_mask

from oracles import min_dist_over_segments, near_pairs_banded, point_in_polygon_ring_by_ring, segment_foot
from synth import annulus, random_rectilinear_polygon, random_star_polygon, rect_coords

coord = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


def project_one(px, py, ax, ay, bx, by) -> tuple[float, float, float]:
    """project_points_to_segments on one point and segment, as Python floats."""
    fx, fy, d2 = project_points_to_segments(*(np.array([float(v)]) for v in (px, py, ax, ay, bx, by)))
    return fx[0].item(), fy[0].item(), d2[0].item()


class TestProjectPointToSegment:
    """geometry.project_points_to_segments, the one point-to-segment projection."""

    def test_perpendicular_drop(self):
        assert project_one(2, 3, 0, 0, 4, 0) == (2.0, 0.0, 9.0)

    def test_clamped_to_endpoint(self):
        fx, fy, d2 = project_one(5, 1, 0, 0, 4, 0)
        assert (fx, fy) == (4.0, 0.0)
        assert d2 == pytest.approx(2.0, abs=1e-12)

    def test_point_on_segment(self):
        assert project_one(1, 1, 0, 0, 2, 2) == (1.0, 1.0, 0.0)

    @given(coord, coord, coord, coord, coord, coord)
    def test_dist_never_exceeds_endpoint_dists(self, px, py, ax, ay, bx, by):
        assume((bx - ax) * (bx - ax) + (by - ay) * (by - ay) > 0)  # the kernel takes nonzero-length segments
        dist = math.sqrt(project_one(px, py, ax, ay, bx, by)[2])
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
    """The nearest-segment rule as encode_afm applies it at every pixel centre:
    the foot on the nearest boundary segment over all instances, ties to the
    lowest segment index."""

    def test_simple(self):
        afm = encode_afm(InstanceSet.of([Polygon.from_coords(rect_coords(0, 0, 4, 3))]), 3, 4).data
        assert tuple(afm[0, 1]) == (0.0, -0.5)
        assert tuple(afm[2, 1]) == (0.0, 0.5)

    def test_tie_goes_to_lowest_index(self):
        # the centre (1.5, 1.5) is 0.5 from the left rectangle's right edge
        # and 0.5 from the right rectangle's left edge
        left = Polygon.from_coords(rect_coords(0, 0, 1, 4))
        right = Polygon.from_coords(rect_coords(2, 0, 3, 4))
        assert tuple(encode_afm(InstanceSet.of([left, right]), 4, 4).data[1, 1]) == (-0.5, 0.0)
        assert tuple(encode_afm(InstanceSet.of([right, left]), 4, 4).data[1, 1]) == (0.5, 0.0)

    def test_empty_list_gives_zero_field(self):
        afm = encode_afm(InstanceSet(), 4, 4).data
        assert afm.dtype == np.float64 and afm.shape == (4, 4, 2) and not afm.any()

    def test_agrees_with_exhaustive_scan(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            polys = [
                random_star_polygon(rng, *rng.uniform(4, 20, size=2), 2, 10, int(rng.integers(3, 9)))
                for _ in range(int(rng.integers(1, 4)))
            ]
            ax, ay, bx, by, _ = (c.tolist() for c in edge_arrays(polys))
            segs = list(zip(ax, ay, bx, by))
            afm = encode_afm(InstanceSet.of(polys), 24, 24).data
            for r in range(24):
                for c in range(24):
                    px, py = c + 0.5, r + 0.5
                    idx, dist = min_dist_over_segments(px, py, segs)
                    fx, fy = segment_foot(px, py, *segs[idx])
                    assert afm[r, c, 0] == pytest.approx(fx - px, abs=1e-9)
                    assert afm[r, c, 1] == pytest.approx(fy - py, abs=1e-9)
                    assert math.hypot(*afm[r, c]) == pytest.approx(dist, abs=1e-9)


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

    @pytest.mark.parametrize("angle_tol", [math.nan, math.inf])
    def test_non_finite_tolerance_raises(self, angle_tol):
        # NaN compares false with every turn, so unchecked it would merge nothing
        ring = Ring.from_coords([(0, 0), (2, 0), (4, 0.01), (4, 4), (0, 4)])
        with pytest.raises(GeometryError, match="non-finite angle tolerance"):
            merge_collinear_edges(ring, angle_tol)

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

    def test_overlapping_holes_follow_even_odd(self):
        # (5.5, 5.5) lies in both holes, (11.5, 4.5) in the hole that leaves the outer ring
        poly = Polygon.from_coords(
            rect_coords(0, 0, 10, 10), holes=[rect_coords(2, 2, 6, 6), rect_coords(4, 4, 8, 8), rect_coords(9, 3, 12, 5)]
        )
        mask = polygon_mask(poly, 12, 13)
        for (x, y), even_odd, ring_by_ring in [((5.5, 5.5), True, False), ((11.5, 4.5), True, False), ((3.5, 3.5), False, False), ((9.5, 4.5), False, False)]:
            assert point_in_polygon(Point2(x, y), poly) is even_odd
            assert point_in_polygon_ring_by_ring(Point2(x, y), poly) is ring_by_ring
            assert mask[int(y), int(x)] == even_odd

    def test_huge_coordinates_raise_no_warning(self):
        poly = Polygon.from_coords([(-1e308, -1e308), (1e308, -1e308), (1e308, 1e308), (0.5, 1e308)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in [(0, 0), (1e308, 0), (-1e308, 1e308), (3, -1e308)]:
                assert isinstance(point_in_polygon(Point2(*p), poly), bool)


@st.composite
def valid_polygons(draw) -> Polygon:
    """A star-shaped outer ring of 8-12 vertices around (cx, cy), whose
    angular gaps stay below 64 degrees and radii within [6, 10], so it
    holds the disc of radius 5.1 and the square of half-side 2.9 about the
    centre; 0-4 holes, each inside its own quadrant of that square."""
    cx, cy = draw(coord), draw(coord)
    n = draw(st.integers(8, 12))
    jitter = st.floats(-0.2, 0.2)
    angles = [(k + draw(jitter)) * 2 * math.pi / n for k in range(n)]
    radii = [draw(st.floats(6, 10)) for _ in range(n)]
    outer = [(cx + r * math.cos(a), cy + r * math.sin(a)) for r, a in zip(radii, angles)]
    holes = []
    for qx, qy in draw(st.lists(st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]), max_size=4, unique=True)):
        x0, y0 = cx - 2.9 + 2.9 * qx, cy - 2.9 + 2.9 * qy
        a, b = sorted([draw(st.floats(0.1, 2.8)), draw(st.floats(0.1, 2.8))])
        c, d = sorted([draw(st.floats(0.1, 2.8)), draw(st.floats(0.1, 2.8))])
        assume(b - a > 1e-3 and d - c > 1e-3)
        holes.append(rect_coords(x0 + a, y0 + c, x0 + b, y0 + d))
    return Polygon.from_coords(outer, holes)


@settings(max_examples=200, deadline=None)
@given(valid_polygons(), st.lists(st.tuples(st.floats(-12, 12), st.floats(-12, 12)), max_size=20))
def test_point_in_polygon_equals_ring_by_ring_oracle_on_valid_polygons(poly, offsets):
    """Pixel centres around the polygon, its vertices, its edge midpoints and free points."""
    cx = round(sum(v.x for v in poly.outer.vertices) / len(poly.outer))
    cy = round(sum(v.y for v in poly.outer.vertices) / len(poly.outer))
    points = [(cx + dx + 0.5, cy + dy + 0.5) for dx in range(-11, 11) for dy in range(-11, 11)]
    points += [(v.x, v.y) for v in poly.all_vertices()]
    points += [((a.x + b.x) / 2, (a.y + b.y) / 2) for a, b in poly.boundary_segments()]
    points += [(cx + dx, cy + dy) for dx, dy in offsets]
    for x, y in points:
        assert point_in_polygon(Point2(x, y), poly) == point_in_polygon_ring_by_ring(Point2(x, y), poly), (x, y)


class TestEdgeArrays:
    def test_empty(self):
        arrays = edge_arrays([])
        assert [a.shape for a in arrays] == [(0,)] * 5

    @settings(max_examples=100, deadline=None)
    @given(st.lists(valid_polygons(), max_size=4))
    def test_boundary_segment_order_and_counts(self, polys):
        ax, ay, bx, by, counts = edge_arrays(polys)
        want = [
            (*ring[i], *ring[(i + 1) % len(ring)])
            for poly in polys
            for ring in (poly.outer.vertices, *(h.vertices for h in poly.holes))
            for i in range(len(ring))
        ]
        assert all(a.dtype == np.float64 for a in (ax, ay, bx, by))
        assert list(zip(ax.tolist(), ay.tolist(), bx.tolist(), by.tolist())) == want
        segs = [(*a, *b) for poly in polys for a, b in poly.boundary_segments()]
        assert segs == want
        assert counts.tolist() == [poly.vertex_count() for poly in polys]


@st.composite
def near_pair_sets(draw):
    """Two point sets on a common offset up to 1e15 and a radius r. Points
    lie on the half-pixel lattice or anywhere in a 20-pixel square; some
    points of b are a point of a moved by exactly r (along an axis, or on a
    3-4-5 triangle)."""
    r = draw(st.sampled_from([0.5, 1.0, 2.5, 5.0]) | st.floats(0.01, 20))
    coord = st.integers(0, 40).map(lambda k: k / 2) | st.floats(0, 20)
    a = draw(st.lists(st.tuples(coord, coord), max_size=12))
    b = draw(st.lists(st.tuples(coord, coord), max_size=12))
    steps = [(r, 0.0), (-r, 0.0), (0.0, r), (0.6 * r, 0.8 * r), (-0.8 * r, -0.6 * r)]
    for (x, y), (dx, dy) in draw(st.lists(st.tuples(st.sampled_from(a), st.sampled_from(steps)), max_size=4)) if a else []:
        b.append((x + dx, y + dy))
    offset = draw(st.sampled_from([0.0, 1e6, 1e15]) | st.floats(-1e15, 1e15))
    return np.array(a).reshape(-1, 2) + offset, np.array(b).reshape(-1, 2) + offset, r


@st.composite
def wide_pair_sets(draw):
    """Two point sets with quarter-pixel coordinates up to 2**29 in
    magnitude and a radius r: each point lies anywhere in that range or
    within 40 px of one drawn centre, and some points of b are a point of a
    moved by exactly r."""
    r = draw(st.sampled_from([0.5, 1.0, 2.5, 5.0]) | st.floats(0.01, 20))
    cx, cy = (draw(st.integers(-(2**31), 2**31)) / 4 for _ in range(2))
    near = st.tuples(st.integers(-160, 160).map(lambda v: cx + v / 4), st.integers(-160, 160).map(lambda v: cy + v / 4))
    anywhere = st.integers(-(2**31), 2**31).map(lambda v: v / 4)
    far = st.tuples(anywhere, anywhere)
    a = draw(st.lists(near | far, max_size=12))
    b = draw(st.lists(near | far, max_size=12))
    steps = [(r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r), (0.6 * r, 0.8 * r)]
    for (x, y), (dx, dy) in draw(st.lists(st.tuples(st.sampled_from(a), st.sampled_from(steps)), max_size=4)) if a else []:
        b.append((x + dx, y + dy))
    return np.array(a).reshape(-1, 2), np.array(b).reshape(-1, 2), r


class TestNearPairs:
    @staticmethod
    def check(a, b, r):
        """near_pairs(a, b, r + 1) lists exactly the documented pairs, with i
        ascending, and holds every pair within distance r."""
        i, j = near_pairs(a, b, r + 1)
        assert np.all(np.diff(i) >= 0)
        got = list(zip(i.tolist(), j.tolist()))
        assert sorted(got) == near_pairs_banded(a, b, r + 1)
        d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
        assert set(zip(*(k.tolist() for k in np.nonzero(d <= r)))) <= set(got)
        return set(got)

    @settings(max_examples=300, deadline=None)
    @given(near_pair_sets())
    def test_every_pair_within_r_with_i_ascending(self, sets):
        self.check(*sets)

    @settings(max_examples=300, deadline=None)
    @given(wide_pair_sets())
    def test_banded_pairs_with_coordinates_up_to_2_29(self, sets):
        self.check(*sets)

    def test_one_band_past_2_50_bands(self):
        # with r + 1 = 1.5, points 1.5 * 2**50 apart in y make the last band
        # quotient exactly 2**50: the bands hold, and the far pair at equal x
        # is cut. A quarter pixel farther the quotient rounds up past 2**50,
        # every point is in band 0, and the search is the x-window, which
        # lists the far pair too
        top = 0.75 * 2**50
        a = np.array([[0.0, -top], [3.0, top]])
        near = [[0.25, -top + 0.25], [2.75, top - 0.375]]
        assert self.check(a, np.array([*near, [0.0, top]]), 0.5) == {(0, 0), (1, 1)}
        assert self.check(a, np.array([*near, [0.0, top + 0.25]]), 0.5) == {(0, 0), (0, 2), (1, 1)}

    def test_empty_side_gives_no_pairs(self):
        for a, b in ((np.zeros((0, 2)), np.ones((3, 2))), (np.ones((3, 2)), np.zeros((0, 2)))):
            i, j = near_pairs(a, b, 2.0)
            assert i.size == j.size == 0 and i.dtype.kind == j.dtype.kind == "i"


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

    def test_ring_keeps_its_points_and_checks_raw_pairs(self):
        pts = (Point2(0, 0), Point2(4, 0), Point2(0, 3))
        assert all(v is p for v, p in zip(Ring(pts).vertices, pts))
        raw = Ring(((0, 0), (4, 0), (0, 3))).vertices
        assert raw == pts and all(type(v) is Point2 for v in raw)
        with pytest.raises(GeometryError):
            Ring(((0, 0), (4, float("nan")), (0, 3)))

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


class TestRingValues:
    """A ring is one read-only (n, 2) f64 array with value semantics."""

    def test_negative_zero_equals_zero_and_hashes_alike(self):
        a = Ring([(-0.0, 0.0), (4.0, -0.0), (0.0, 3.0)])
        b = Ring([(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)])
        assert a == b and hash(a) == hash(b)
        pa, pb = Polygon(a), Polygon(b)
        assert pa == pb and hash(pa) == hash(pb)
        assert len({a, b}) == 1 and len({pa, pb}) == 1
        assert a != Ring([(0.0, 0.0), (4.0, 0.0), (0.0, 3.5)]) and a != Ring([(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (0.0, 3.0)])

    def test_coords_are_read_only_and_a_callers_array_is_copied(self):
        source = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
        ring = Ring(source)
        source[0, 0] = 9.0
        assert ring.coords.tolist() == [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]
        assert ring.coords.dtype == np.float64 and ring.coords.shape == (3, 2)
        with pytest.raises(ValueError):
            ring.coords[0, 0] = 1.0
        for derived in (ring.reversed(), ring.scaled(2.0), Polygon(ring).outer, Polygon(ring).scaled(0.5).outer):
            assert not derived.coords.flags.writeable
        with pytest.raises(AttributeError):
            ring.coords = np.zeros((3, 2))

    def test_points_pairs_and_arrays_make_equal_rings(self):
        pairs = [(0, 0), (4.5, 0), (0, 3)]
        rings = [Ring([Point2(*p) for p in pairs]), Ring(pairs), Ring(np.array(pairs)), Ring.from_coords(pairs)]
        assert all(r == rings[0] for r in rings)
        assert all(r.coords.tolist() == [[0.0, 0.0], [4.5, 0.0], [0.0, 3.0]] for r in rings)

    def test_vertices_is_the_tuple_of_points(self):
        pairs = [(0.25, 0.0), (4.0, -0.0), (0.0, 3.0), (-1.0, 2.0)]
        want = tuple(Point2(x, y) for x, y in pairs)
        for ring in (Ring(pairs), Ring(np.array(pairs))):
            assert ring.vertices == want and all(type(v) is Point2 for v in ring.vertices)
            assert repr(ring.vertices) == repr(want)  # -0.0 stays -0.0
        poly = Polygon(Ring(pairs))
        assert poly.all_vertices() == [v for r in poly.rings() for v in r.vertices]

    def test_array_faults_raise_as_points_do(self):
        with pytest.raises(GeometryError, match=r"^non-finite coordinates \(4.0, nan\)$"):
            Ring(np.array([[0.0, 0.0], [4.0, np.nan], [0.0, 3.0]]))
        with pytest.raises(GeometryError, match=r"^ring needs >= 3 vertices, got 2$"):
            Ring(np.array([[0.0, 0.0], [4.0, 1.0]]))
        with pytest.raises(GeometryError, match=r"^consecutive duplicate vertex Point2\(x=0.0, y=0.0\) at index 2$"):
            Ring(np.array([[0.0, 0.0], [4.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(GeometryError, match=r"shape \(n, 2\)"):
            Ring(np.zeros((3, 3)))

    def test_copy_and_pickle_keep_the_value(self):
        poly = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)], holes=[[(1, 1), (2, 1), (2, 2)]])
        assert copy.deepcopy(poly) == poly and pickle.loads(pickle.dumps(poly)) == poly


def test_zero_area_rings_keep_their_order():
    flat = Ring([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)])
    poly = Polygon(flat, (flat,))
    assert signed_area(flat) == 0.0
    assert poly.outer.coords.tolist() == flat.coords.tolist() == poly.holes[0].coords.tolist()


def test_pack_rings_lays_rings_out_in_order():
    polys = [Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)], holes=[[(1, 1), (1, 2), (2, 2)]]),
             Polygon.from_coords([(5, 5), (6, 5), (6, 6)])]
    xy, bounds, firsts = pack_rings(polys)
    assert bounds.tolist() == [0, 4, 7, 10] and firsts.tolist() == [0, 2, 3]
    assert xy.tolist() == [list(v) for p in polys for v in p.all_vertices()]
    xy, bounds, firsts = pack_rings([])
    assert xy.shape == (0, 2) and bounds.tolist() == [0] and firsts.tolist() == [0]
