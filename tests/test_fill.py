"""polygon_mask_crops against the per-edge fill it replaced: offsets, shape
and every bit of every crop, for batches of polygons on one frame."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from polyform.geometry import Polygon
from polyform.raster import polygon_mask_crops

from oracles import polygon_mask_crop_per_edge


def _distinct_ring(coords: list[tuple[float, float]]) -> bool:
    return len(coords) >= 3 and all(coords[i] != coords[(i + 1) % len(coords)] for i in range(len(coords)))


@st.composite
def coordinate(draw, lo: float, hi: float) -> float:
    """A value in [lo, hi]: on the integer or half-integer lattice (pixel
    borders and centres), on the quarter lattice, or anywhere."""
    kind = draw(st.sampled_from(["half", "half", "quarter", "float"]))
    if kind == "float":
        return draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))
    step = 2 if kind == "half" else 4
    return draw(st.integers(math.ceil(lo * step), math.floor(hi * step))) / step


@st.composite
def free_ring(draw, x0: float, y0: float, x1: float, y1: float) -> list[tuple[float, float]]:
    """3-8 vertices in the box, self-intersections allowed."""
    n = draw(st.integers(3, 8))
    coords = [(draw(coordinate(x0, x1)), draw(coordinate(y0, y1))) for _ in range(n)]
    assume(_distinct_ring(coords))
    return coords


def rect(x0: float, y0: float, x1: float, y1: float) -> list[tuple[float, float]]:
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


@st.composite
def near_axis(draw, x0: float, y0: float, x1: float, y1: float) -> Polygon:
    """A quadrilateral whose edges are horizontal or vertical up to a tiny
    tilt, corners on or near the lattice."""
    tilt = st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-7, 1e-4, -1e-3, 0.02])
    xa, xb = sorted([draw(coordinate(x0, x1)), draw(coordinate(x0, x1))])
    ya, yb = sorted([draw(coordinate(y0, y1)), draw(coordinate(y0, y1))])
    xb, yb = xb + 1.0, yb + 1.0
    corners = [(x + draw(tilt), y + draw(tilt)) for x, y in rect(xa, ya, xb, yb)]
    assume(_distinct_ring(corners))
    return Polygon.from_coords(corners)


@st.composite
def touching_hole(draw, x0: float, y0: float, x1: float, y1: float) -> Polygon:
    """A lattice rectangle with a hole that shares an edge, part of an edge,
    or a single vertex with the outer ring."""
    xa = draw(coordinate(x0, x1))
    ya = draw(coordinate(y0, y1))
    xb = xa + draw(st.integers(6, 24)) / 2
    yb = ya + draw(st.integers(6, 24)) / 2
    xm, ym = (xa + xb) / 2, (ya + yb) / 2
    hole = draw(st.sampled_from([
        rect(xa, ya + 1, xm, yb - 1),  # along part of the left edge
        rect(xa, ya, xm, ym),  # in the lower-left corner, two edges shared
        [(xa, ym), (xm, ym - 1), (xm, ym + 1)],  # one vertex on the left edge
        [(xa, ya), (xm, ya + 1), (xm - 1, ym)],  # one vertex on the outer corner
        rect(xa, ya, xb, ym),  # the whole lower half
    ]))
    return Polygon.from_coords(rect(xa, ya, xb, yb), holes=[hole])


@st.composite
def speck(draw, x0: float, y0: float, x1: float, y1: float) -> Polygon:
    """A sub-pixel triangle, placed anywhere or at a pixel centre."""
    cx = draw(st.one_of(st.integers(math.ceil(x0), math.floor(x1)).map(lambda c: c + 0.5), coordinate(x0, x1)))
    cy = draw(st.one_of(st.integers(math.ceil(y0), math.floor(y1)).map(lambda r: r + 0.5), coordinate(y0, y1)))
    size = draw(st.sampled_from([1e-9, 1e-6, 1e-3, 0.1, 0.49]))
    dx, dy = draw(st.sampled_from([(0.0, 0.0), (-0.5, -0.5), (-1.0, 0.0), (0.0, -1.0)]))
    coords = [(cx + dx * size, cy + dy * size), (cx + (dx + 1) * size, cy + dy * size), (cx + dx * size, cy + (dy + 1) * size)]
    assume(_distinct_ring(coords))
    return Polygon.from_coords(coords)


@st.composite
def far_edges(draw, h: int, w: int) -> Polygon:
    """A triangle with far vertices, whose largest coordinate (the scale of
    the edge tolerance) runs from 1e8 to 1e10: the tolerance reaches half a
    pixel near 5e8, and above 2**29 an edge is tested on its whole crop.
    Either one edge crosses the frame, or two edges meet at a vertex in it."""
    px, py = draw(coordinate(0, w)), draw(coordinate(0, h))
    scale = draw(st.one_of(st.floats(4.5e8, 5.4e8), st.floats(1e8, 1e10)))

    def far(theta: float) -> tuple[float, float]:
        s = scale / max(abs(math.cos(theta)), abs(math.sin(theta)))
        return px + s * math.cos(theta), py + s * math.sin(theta)

    theta = draw(st.floats(0.0, 2 * math.pi))
    if draw(st.booleans()):
        coords = [far(theta + math.pi), far(theta), draw(st.sampled_from([far(theta + math.pi / 2), (px + 0.5, py - 0.5)]))]
    else:
        coords = [(px, py), far(theta), far(theta + draw(st.floats(0.01, math.pi)))]
    assume(_distinct_ring(coords))
    return Polygon.from_coords(coords)


@st.composite
def polygon_in(draw, h: int, w: int, x0: float, y0: float, x1: float, y1: float, far: bool) -> Polygon:
    """One polygon of any kind within the box (x0, y0)-(x1, y1), which may
    reach past the h x w frame or lie wholly outside it."""
    kinds = ["free", "free_holed", "near_axis", "touching_hole", "speck"] + (["far"] if far else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "free":
        return Polygon.from_coords(draw(free_ring(x0, y0, x1, y1)))
    if kind == "free_holed":
        return Polygon.from_coords(draw(free_ring(x0, y0, x1, y1)), holes=[draw(free_ring(x0, y0, x1, y1))])
    if kind == "near_axis":
        return draw(near_axis(x0, y0, x1, y1))
    if kind == "touching_hole":
        return draw(touching_hole(x0, y0, x1, y1))
    if kind == "speck":
        return draw(speck(x0, y0, x1, y1))
    return draw(far_edges(h, w))


@st.composite
def small_frames(draw) -> tuple[list[Polygon], int, int]:
    """Frames up to 40 px, 0-8 polygons within 6 px of the frame or
    shifted wholly off it."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    polys = []
    for _ in range(draw(st.integers(0, 8))):
        off_x, off_y = draw(st.sampled_from([(0, 0), (0, 0), (0, 0), (w + 8, 0), (0, -h - 30), (-w - 30, h + 8)]))
        polys.append(draw(polygon_in(h, w, off_x - 6, off_y - 6, off_x + w + 6, off_y + h + 6, far=True)))
    return polys, h, w


@st.composite
def large_frames(draw) -> tuple[list[Polygon], int, int]:
    """Frames up to 2048 px, 0-4 polygons within 40 px windows anywhere on
    the frame or across its borders."""
    h, w = draw(st.integers(1, 2048)), draw(st.integers(1, 2048))
    polys = []
    for _ in range(draw(st.integers(0, 4))):
        x0 = draw(st.integers(-20, w - 20))
        y0 = draw(st.integers(-20, h - 20))
        polys.append(draw(polygon_in(h, w, x0, y0, x0 + 40, y0 + 40, far=False)))
    return polys, h, w


def assert_matches_oracle(polys: list[Polygon], h: int, w: int) -> None:
    got = polygon_mask_crops(polys, h, w)
    assert len(got) == len(polys)
    for poly, (r0, c0, crop) in zip(polys, got):
        want_r0, want_c0, want = polygon_mask_crop_per_edge(poly, h, w)
        assert (r0, c0) == (want_r0, want_c0)
        assert crop.dtype == bool and crop.shape == want.shape
        assert np.array_equal(crop, want), np.argwhere(crop != want)[:5].tolist()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_frames())
def test_fill_equals_per_edge_oracle(case):
    assert_matches_oracle(*case)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(large_frames())
def test_fill_equals_per_edge_oracle_on_large_frames(case):
    assert_matches_oracle(*case)


# edges with coordinates near 5.2e8, whose tolerance (0.52 px) accepts pixel
# centres outside the pixel that holds the line at their column centre (the
# 45 degree line), or half a pixel past a vertex on the integer lattice
FAR_TOLERANCE = [
    [(-5.2e8 + 0.3, -5.2e8), (5.2e8 + 0.3, 5.2e8), (-5.2e8, 5.2e8)],
    [(10.0, 10.5), (10 + 5.2e8, 10.5), (10 + 5.2e8, 10.5 + 5.2e8)],
    [(10.5, 10.0), (10.5, 10 + 5.2e8), (1010.5, 10 + 5.2e8)],
]


@pytest.mark.parametrize("coords", FAR_TOLERANCE)
def test_fill_covers_wide_tolerances(coords):
    assert_matches_oracle([Polygon.from_coords(coords)], 24, 24)
