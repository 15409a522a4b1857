"""Exact 2D primitives for polygonal footprints.

Coordinates are continuous pixels in an image frame: x grows right, y grows
down, origin at the top-left corner of the top-left pixel. A ring whose
shoelace area is positive is counted CCW; polygons store a CCW outer ring
and CW holes. All values are immutable and every operation is a pure
function, so everything here is safe to share across threads.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


class GeometryError(ValueError):
    """Invalid geometric input."""


class DegenerateRingError(GeometryError):
    """An operation would leave a ring with fewer than three vertices."""


class Point2(namedtuple("Point2", ["x", "y"])):
    """A 2D point in continuous pixel coordinates. Coordinates must be finite."""

    __slots__ = ()

    def __new__(cls, x: float, y: float) -> "Point2":
        fx, fy = float(x), float(y)
        if not (math.isfinite(fx) and math.isfinite(fy)):
            raise GeometryError(f"non-finite coordinates ({x!r}, {y!r})")
        return super().__new__(cls, fx, fy)


# how far a vertex may lie outside its image frame and still belong to it
FRAME_TOL = 1e-6


def outside_frame(xy: np.ndarray, h: int, w: int) -> np.ndarray:
    """Which (x, y) rows of xy lie outside the closed w x h frame [0, w] x
    [0, h] widened by FRAME_TOL."""
    x, y = xy[:, 0], xy[:, 1]
    return ~((-FRAME_TOL <= x) & (x <= w + FRAME_TOL) & (-FRAME_TOL <= y) & (y <= h + FRAME_TOL))


class Ring:
    """Closed vertex loop; the first vertex is not repeated in storage.

    coords holds the vertices as one read-only (n, 2) f64 array of (x, y)
    rows. Requires at least three finite vertices and no two consecutive
    equal vertices (including the implicit closing edge). Rings are values:
    equal when their coordinates are equal (-0.0 equals 0.0 and hashes
    alike), and immutable.
    """

    __slots__ = ("coords", "_points")

    def __init__(self, vertices: Sequence[Point2 | tuple[float, float]] | np.ndarray) -> None:
        """Vertices as Point2s, (x, y) pairs or an (n, 2) array, which is copied."""
        if isinstance(vertices, np.ndarray):
            points = None
            coords = np.array(vertices, dtype=np.float64)
            if coords.ndim != 2 or coords.shape[1] != 2:
                raise GeometryError(f"ring coordinates need shape (n, 2), got {coords.shape}")
            finite = np.isfinite(coords).all(axis=1)
            if not finite.all():
                Point2(*coords[np.argmin(finite)].tolist())  # raises the GeometryError every Point2 would
        else:
            points = tuple(v if isinstance(v, Point2) else Point2(*v) for v in vertices)
            coords = np.array(points, dtype=np.float64).reshape(-1, 2)
        if len(coords) < 3:
            raise GeometryError(f"ring needs >= 3 vertices, got {len(coords)}")
        repeats = (coords == np.roll(coords, -1, axis=0)).all(axis=1)
        if repeats.any():
            i = int(np.argmax(repeats))
            raise GeometryError(f"consecutive duplicate vertex {Point2(*coords[i].tolist())} at index {i}")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_points", points)

    @classmethod
    def from_coords(cls, coords: Sequence[tuple[float, float]]) -> "Ring":
        return cls(tuple(Point2(x, y) for x, y in coords))

    @property
    def vertices(self) -> tuple[Point2, ...]:
        """The vertices as Point2s, made from coords on first use (the
        constructor's own Point2s when it was given a sequence)."""
        if self._points is None:
            object.__setattr__(self, "_points", tuple(map(Point2._make, self.coords.tolist())))
        return self._points

    def __len__(self) -> int:
        return len(self.coords)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.coords, other.coords)

    def __hash__(self) -> int:
        return hash((self.coords + 0.0).tobytes())  # + 0.0 turns -0.0 into 0.0

    def __repr__(self) -> str:
        return f"Ring({self.coords.tolist()!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Ring is immutable: cannot set {name!r}")

    def __reduce__(self):
        return Ring, (self.coords,)

    def reversed(self) -> "Ring":
        return ring_of(self.coords[::-1])

    def scaled(self, fx: float, fy: float | None = None) -> "Ring":
        """Multiply x by fx and y by fy (default fx)."""
        fy = fx if fy is None else fy
        with np.errstate(over="ignore", under="ignore"):  # the constructor rejects what overflows
            return Ring(self.coords * np.array([fx, fy], dtype=np.float64))


_set_coords, _set_points = Ring.coords.__set__, Ring._points.__set__


def ring_of(coords: np.ndarray) -> Ring:
    """A ring on coords as they are, with no copy and no check: a read-only
    (n, 2) f64 array that passes the constructor's checks (ring_faults)."""
    ring = object.__new__(Ring)
    _set_coords(ring, coords)
    _set_points(ring, None)
    return ring


def pack_rings(polys: Sequence["Polygon"]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rings of the polygons in one array: (xy, bounds, firsts), ring k
    the rows bounds[k]:bounds[k + 1] of the (n, 2) f64 array xy, polygon i
    the rings firsts[i]:firsts[i + 1], outer ring first, then its holes."""
    rings = [ring.coords for poly in polys for ring in poly.rings()]
    xy = np.concatenate(rings) if rings else np.zeros((0, 2))
    return xy, offsets([len(c) for c in rings]), offsets([1 + len(poly.holes) for poly in polys])


def offsets(counts: Sequence[int]) -> np.ndarray:
    """The int64 offsets [0, c0, c0 + c1, ...] of consecutive runs of the
    given lengths."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    out[1:] = np.cumsum(counts)
    return out


def ring_successors(bounds: np.ndarray) -> np.ndarray:
    """The index of each row's next vertex in its ring, the last row of a
    ring wrapping to its first."""
    succ = np.arange(1, bounds[-1] + 1)
    starts, ends = bounds[:-1], bounds[1:]
    nonempty = ends > starts
    succ[ends[nonempty] - 1] = starts[nonempty]
    return succ


def ring_faults(xy: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Which rings of (xy, bounds) (see pack_rings) the Ring constructor
    rejects: fewer than three vertices, a non-finite coordinate, or two
    consecutive equal vertices."""
    starts = bounds[:-1]
    bad = np.diff(bounds) < 3
    flawed = ~np.isfinite(xy).all(axis=1) | (xy == xy[ring_successors(bounds)]).all(axis=1)
    run = bounds[1:] > starts
    bad[run] |= np.logical_or.reduceat(flawed, starts[run])
    return bad


def scale_polygons(polys: Sequence["Polygon"], fx: float, fy: float) -> list["Polygon"]:
    """Polygon.scaled(fx, fy) of each polygon, every scaled ring checked in
    one pass; the first ring the Ring constructor rejects raises its
    GeometryError."""
    xy, bounds, firsts = pack_rings(polys)
    with np.errstate(over="ignore", under="ignore"):  # the ring checks reject what overflows
        xy *= np.array([fx, fy], dtype=np.float64)
    bad = ring_faults(xy, bounds)
    if bad.any():
        k = int(np.argmax(bad))
        Ring(xy[bounds[k] : bounds[k + 1]])  # raises the ring's GeometryError
    xy.flags.writeable = False
    cuts = bounds.tolist()
    rings = [ring_of(xy[a:b]) for a, b in zip(cuts, cuts[1:])]
    firsts = firsts.tolist()
    return [Polygon(rings[f], tuple(rings[f + 1 : e])) for f, e in zip(firsts, firsts[1:])]


@dataclass(frozen=True)
class Polygon:
    """Simple polygon with optional holes.

    Construction normalizes orientation: the outer ring is made CCW
    (positive shoelace area) and every hole CW, regardless of input order.
    """

    outer: Ring
    holes: tuple[Ring, ...] = ()

    def __post_init__(self) -> None:
        outer = self.outer if signed_area(self.outer) >= 0 else self.outer.reversed()
        holes = tuple(h if signed_area(h) <= 0 else h.reversed() for h in self.holes)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "holes", holes)

    @classmethod
    def from_coords(
        cls,
        outer: Sequence[tuple[float, float]],
        holes: Sequence[Sequence[tuple[float, float]]] = (),
    ) -> "Polygon":
        return cls(Ring.from_coords(outer), tuple(Ring.from_coords(h) for h in holes))

    def rings(self) -> Iterator[Ring]:
        yield self.outer
        yield from self.holes

    def all_vertices(self) -> list[Point2]:
        return [v for ring in self.rings() for v in ring.vertices]

    def vertex_count(self) -> int:
        return sum(len(r) for r in self.rings())

    def boundary_segments(self) -> list[tuple[Point2, Point2]]:
        """The edges of edge_arrays([self]) as (start, end) pairs, in its order."""
        ax, ay, bx, by, _ = (c.tolist() for c in edge_arrays([self]))
        return [(Point2(x0, y0), Point2(x1, y1)) for x0, y0, x1, y1 in zip(ax, ay, bx, by)]

    def scaled(self, fx: float, fy: float | None = None) -> "Polygon":
        """Multiply x by fx and y by fy (default fx); orientation is renormalized."""
        return scale_polygons([self], fx, fx if fy is None else fy)[0]

    def area(self) -> float:
        return abs(signed_area(self.outer)) - sum(abs(signed_area(h)) for h in self.holes)


class ScoredPolygon(namedtuple("ScoredPolygon", ["polygon", "score"])):
    """A polygon instance with a confidence score."""

    __slots__ = ()


@dataclass(frozen=True)
class InstanceSet:
    """Scored polygon instances belonging to one image tile."""

    instances: tuple[ScoredPolygon, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "instances", tuple(ScoredPolygon(p, float(s)) for p, s in self.instances)
        )

    @classmethod
    def of(cls, polygons: Sequence[Polygon], scores: Sequence[float] | None = None) -> "InstanceSet":
        if scores is None:
            scores = [1.0] * len(polygons)
        return cls(tuple(ScoredPolygon(p, s) for p, s in zip(polygons, scores)))

    def __iter__(self) -> Iterator[ScoredPolygon]:
        return iter(self.instances)

    def __len__(self) -> int:
        return len(self.instances)

    def scaled(self, fx: float, fy: float | None = None) -> "InstanceSet":
        """Multiply x by fx and y by fy (default fx); factors of 1 return self."""
        fy = fx if fy is None else fy
        if fx == 1 and fy == 1:
            return self
        polys = scale_polygons([sp.polygon for sp in self], fx, fy)
        return InstanceSet(tuple(ScoredPolygon(p, sp.score) for p, sp in zip(polys, self)))


def signed_area(ring: Ring) -> float:
    """Shoelace area of a ring; positive iff the ring is CCW."""
    xs, ys = ring.coords.T.tolist()
    acc = 0.0
    for ax, ay, bx, by in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1]):
        acc += ax * by - bx * ay
    return acc / 2.0


def project_points_to_segments(px, py, ax, ay, bx, by, out=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project points (px, py) onto nonzero-length segments (ax, ay)-(bx, by),
    broadcast elementwise to an array: the foot (fx, fy) = a + t * (b - a)
    with t clamped to [0, 1], and d2 the squared distance to it.

    out, if given, is four f64 arrays of the broadcast shape: (fx, fy, d2)
    are written into the first three and returned, and the fourth is
    scratch. Either way the arithmetic is the same, so the results are
    bitwise equal.

    A segment whose squared length underflows to 0 (shorter than about
    1e-154 px) raises no warning: its t is +-inf, clipped to an end, or
    nan where the numerator is 0 too."""
    fx, fy, d2, t = (None,) * 4 if out is None else out
    ex, ey = bx - ax, by - ay
    l2 = ex * ex + ey * ey
    # each ufunc writes into its buffer, or allocates it when there is none
    t = np.add((px - ax) * ex, (py - ay) * ey, out=t)
    with np.errstate(divide="ignore", invalid="ignore"):
        t /= l2
    np.clip(t, 0.0, 1.0, out=t)
    fx = np.multiply(t, ex, out=fx)
    fx += ax
    fy = np.multiply(t, ey, out=fy)
    fy += ay
    d2 = np.subtract(px, fx, out=d2)
    d2 *= d2
    t = np.subtract(py, fy, out=t)
    t *= t
    d2 += t
    return fx, fy, d2


def _turn_angle_deg(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> float:
    """Absolute change of direction at b on the path a -> b -> c, in degrees within [0, 180]."""
    ux, uy = bx - ax, by - ay
    vx, vy = cx - bx, cy - by
    cross = ux * vy - uy * vx
    dot = ux * vx + uy * vy
    return math.degrees(math.atan2(abs(cross), dot))


def merged_collinear(xy: np.ndarray, angle_tol: float) -> np.ndarray:
    """merge_collinear_edges on a ring's (n, 2) vertices, as a new (m, 2)
    array: vertices are visited in order and each whose turn between its
    current neighbours is at most angle_tol is removed, in sweeps repeated
    until one removes nothing. Raises DegenerateRingError when fewer than
    three would remain."""
    verts = xy.tolist()
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(verts):
            if len(verts) < 3:
                raise DegenerateRingError("degenerate ring after collinear merge")
            if _turn_angle_deg(*verts[i - 1], *verts[i], *verts[(i + 1) % len(verts)]) <= angle_tol:
                del verts[i]
                changed = True
            else:
                i += 1
    return np.array(verts, dtype=np.float64)


def merge_collinear_edges(ring: Ring, angle_tol: float) -> Ring:
    """Remove vertices whose adjacent edges differ in direction by <= angle_tol degrees.

    Runs to a fixpoint, so the result is idempotent. Raises
    DegenerateRingError if merging would leave fewer than three vertices.
    """
    if not math.isfinite(angle_tol):
        raise GeometryError(f"non-finite angle tolerance {angle_tol}")
    if angle_tol < 0:
        raise GeometryError(f"negative angle tolerance {angle_tol}")
    return Ring(merged_collinear(ring.coords, angle_tol))


def edge_arrays(polys: Sequence[Polygon]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every boundary edge a -> b of the polygons as f64 arrays (ax, ay, bx,
    by), plus counts, each polygon's number of edges (its vertex_count).
    Edges come polygon by polygon, outer ring then holes, each ring in
    vertex order with its closing edge last: boundary_segments order."""
    return packed_edges(*pack_rings(polys))


def packed_edges(xy: np.ndarray, bounds: np.ndarray, firsts: np.ndarray) -> tuple[np.ndarray, ...]:
    """edge_arrays of the polygons that pack_rings laid out as (xy, bounds, firsts)."""
    b = xy[ring_successors(bounds)]
    return xy[:, 0], xy[:, 1], b[:, 0], b[:, 1], np.diff(bounds[firsts])


def expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every integer of the inclusive int64 ranges [lo[i], hi[i]] (none where
    hi[i] < lo[i]), as (range index i, value) arrays in range order."""
    counts = np.maximum(hi - lo + 1, 0)
    item = np.repeat(np.arange(len(counts)), counts)
    return item, np.arange(item.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)


_NO_PAIRS = np.zeros(0, dtype=np.int64)
_NO_PAIRS.flags.writeable = False
_MAX_BANDS = 2**50
_OWN = np.array([0.0])
_NEIGHBOURS = np.array([-1.0, 0.0, 1.0])


def _lex_keys(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """Complex keys major + minor * 1j, which numpy sorts and searches in
    lexicographic (major, minor) order; both parts are stored exactly."""
    keys = np.empty(len(major), dtype=np.complex128)
    keys.real, keys.imag = major, minor
    return keys


def near_pairs(a: np.ndarray, b: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of points a[i], b[j] ((n, 2) and (m, 2) arrays of finite
    (x, y)) that lie in neighbouring y bands and within r in x, as index
    arrays (i, j) with i ascending; a superset of the pairs within distance
    r - 1 (see below).

    The bands have height r: band(y) = floor((y - y0) / r), y0 the least y
    of a and b, with every point in band 0 (so the search is an x-window)
    when the largest such quotient passes 2**50 or is not a number. Pair
    (i, j) is listed exactly when |band(a[i].y) - band(b[j].y)| <= 1 and
    a[i].x - r <= b[j].x <= a[i].x + r, each expression rounded as written.

    The points of b are sorted once on the key band + x * 1j: numpy orders
    complex numbers by real part, then by imaginary part, so the key orders
    by band, then by x. It is exact, since both parts are stored as
    computed and a band below 2**50 is an integer that a float holds. Each
    query, a point of a in one band, takes two searchsorted calls, for
    (band, x - r) and (band, x + r), to find the run of b in that band whose
    x lies in its window, and expand_ranges lists the runs. The three bands
    of a pair are covered on the larger side once and on the smaller side
    three times: with n > m each point of b is entered in its own band and
    the two next to it, else each point of a queries those three bands.
    The work grows with the pairs returned, not with n * m.

    A caller that wants every pair whose computed distance is at most d
    passes r = d + 1. While coordinates stay below 2**50 in magnitude and r
    below 2**48, the roundings stay inside that margin of 1. Each
    difference of two coordinates (the window ends, y - y0, and the
    caller's own x and y differences) rounds by at most 1/8, the caller's
    squares and square root add at most 3 * 2**-53 * r < 3/32, and each
    quotient (y - y0) / r rounds by at most 1/4 px. So the points of a pair
    within computed distance d lie within r - 25/32 of each other in x and
    in y: b[j].x is inside the rounded window, and the two band quotients
    differ by less than 1 - 1 / (32 r), so the bands are neighbours.
    """
    if len(a) == 0 or len(b) == 0:
        return _NO_PAIRS, _NO_PAIRS
    y0 = min(a[:, 1].min(), b[:, 1].min())
    if (max(a[:, 1].max(), b[:, 1].max()) - y0) / r <= _MAX_BANDS:
        band_a, band_b = (np.floor((p[:, 1] - y0) / r) for p in (a, b))
    else:
        band_a, band_b = np.zeros(len(a)), np.zeros(len(b))
    shift_b, shift_a = (_NEIGHBOURS, _OWN) if len(a) > len(b) else (_OWN, _NEIGHBOURS)
    keys = _lex_keys((band_b + shift_b[:, None]).ravel(), np.tile(b[:, 0], len(shift_b)))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    band_q = (band_a[:, None] + shift_a).ravel()
    lo = np.searchsorted(keys, _lex_keys(band_q, np.repeat(a[:, 0] - r, len(shift_a))), "left")
    hi = np.searchsorted(keys, _lex_keys(band_q, np.repeat(a[:, 0] + r, len(shift_a))), "right") - 1
    i, k = expand_ranges(lo, hi)
    return i // len(shift_a), order[k] % len(b)


def edge_tolerance(ax, ay, bx, by, len2) -> tuple[np.ndarray, np.ndarray]:
    """(scale, tol) of edges a -> b with squared length len2: scale =
    max(1, |ax|, |ay|, |bx|, |by|) and the on_edge tolerance tol =
    1e-9 * scale * sqrt(len2)."""
    scale = np.maximum.reduce([np.ones_like(ax), np.abs(ax), np.abs(ay), np.abs(bx), np.abs(by)])
    return scale, 1e-9 * scale * np.sqrt(len2)


def on_edge(ax, ay, ex, ey, len2, tol, x, y) -> np.ndarray:
    """Whether points (x, y) lie on edges from (ax, ay) along (ex, ey), all
    broadcast together: |ex * (y - ay) - ey * (x - ax)| <= tol and
    -tol <= (x - ax) * ex + (y - ay) * ey <= len2 + tol."""
    cross = ex * (y - ay) - ey * (x - ax)
    dot = (x - ax) * ex + (y - ay) * ey
    return (np.abs(cross) <= tol) & (dot >= -tol) & (dot <= len2 + tol)


def point_in_polygon(p: Point2, poly: Polygon) -> bool:
    """Even-odd membership over all rings, boundary inclusive: the rule
    raster.polygon_mask applies to pixel centres, for any point.

    p is inside when it lies on an edge (on_edge, with edge_tolerance) or
    when an odd number of edges a -> b have (ay > y) != (by > y) and
    x < ax + (y - ay) * ex / ey, so holes that overlap each other or leave
    the outer ring follow the same parity. polygon_mask sets a pixel exactly
    when this accepts its centre while coordinates stay below 2**29 in
    magnitude; beyond, the tolerance can reach centres outside the crop the
    mask fills. Overflow (huge coordinates) raises no warning.
    """
    x, y = Point2(*p)
    ax, ay, bx, by, _ = edge_arrays([poly])
    with np.errstate(over="ignore", invalid="ignore"):
        ex, ey = bx - ax, by - ay
        len2 = ex * ex + ey * ey
        _, tol = edge_tolerance(ax, ay, bx, by, len2)
        if on_edge(ax, ay, ex, ey, len2, tol, x, y).any():
            return True
        crossing = (ay > y) != (by > y)
        x_int = ax[crossing] + (y - ay[crossing]) * ex[crossing] / ey[crossing]
        return bool(np.count_nonzero(x < x_int) % 2)
