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
from enum import Enum
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


@dataclass(frozen=True)
class LineSegment:
    """Directed segment between two distinct points."""

    start: Point2
    end: Point2

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", Point2(*self.start))
        object.__setattr__(self, "end", Point2(*self.end))
        if self.start == self.end:
            raise GeometryError(f"degenerate segment at {self.start}")

    @property
    def length(self) -> float:
        return math.hypot(self.end.x - self.start.x, self.end.y - self.start.y)


class Orientation(Enum):
    CCW = "ccw"
    CW = "cw"


@dataclass(frozen=True)
class Ring:
    """Closed vertex loop; the first vertex is not repeated in storage.

    Requires at least three vertices and no two consecutive equal vertices
    (including the implicit closing edge).
    """

    vertices: tuple[Point2, ...]

    def __post_init__(self) -> None:
        vs = tuple(Point2(*v) for v in self.vertices)
        if len(vs) < 3:
            raise GeometryError(f"ring needs >= 3 vertices, got {len(vs)}")
        for i, v in enumerate(vs):
            if v == vs[(i + 1) % len(vs)]:
                raise GeometryError(f"consecutive duplicate vertex {v} at index {i}")
        object.__setattr__(self, "vertices", vs)

    @classmethod
    def from_coords(cls, coords: Sequence[tuple[float, float]]) -> "Ring":
        return cls(tuple(Point2(x, y) for x, y in coords))

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def orientation(self) -> Orientation:
        return Orientation.CCW if signed_area(self) > 0 else Orientation.CW

    def reversed(self) -> "Ring":
        return Ring(tuple(reversed(self.vertices)))

    def scaled(self, fx: float, fy: float | None = None) -> "Ring":
        """Multiply x by fx and y by fy (default fx)."""
        fy = fx if fy is None else fy
        return Ring(tuple(Point2(v.x * fx, v.y * fy) for v in self.vertices))

    def edges(self) -> list[LineSegment]:
        vs = self.vertices
        return [LineSegment(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


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

    def boundary_segments(self) -> list[LineSegment]:
        return [e for ring in self.rings() for e in ring.edges()]

    def segment_coords(self) -> list[tuple[float, float, float, float]]:
        """boundary_segments as (ax, ay, bx, by) tuples, in the same order."""
        pairs = (zip(r.vertices, r.vertices[1:] + r.vertices[:1]) for r in self.rings())
        return [(a.x, a.y, b.x, b.y) for ring_pairs in pairs for a, b in ring_pairs]

    def scaled(self, fx: float, fy: float | None = None) -> "Polygon":
        """Multiply x by fx and y by fy (default fx); orientation is renormalized."""
        return Polygon(self.outer.scaled(fx, fy), tuple(h.scaled(fx, fy) for h in self.holes))

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
        return InstanceSet(tuple(ScoredPolygon(sp.polygon.scaled(fx, fy), sp.score) for sp in self))


@dataclass(frozen=True)
class VertexClassification:
    """Partition of polygon vertex indices into convex and concave sets.

    Indices enumerate the outer ring first, then each hole ring in order.
    """

    convex: frozenset[int]
    concave: frozenset[int]


def signed_area(ring: Ring) -> float:
    """Shoelace area of a ring; positive iff the ring is CCW."""
    vs = ring.vertices
    acc = 0.0
    for i, a in enumerate(vs):
        b = vs[(i + 1) % len(vs)]
        acc += a.x * b.y - b.x * a.y
    return acc / 2.0


def project_points_to_segments(px, py, ax, ay, bx, by) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project points (px, py) onto nonzero-length segments (ax, ay)-(bx, by),
    broadcast elementwise to an array: the foot (fx, fy) = a + t * (b - a)
    with t clamped to [0, 1], and d2 the squared distance to it."""
    ex, ey = bx - ax, by - ay
    l2 = ex * ex + ey * ey
    t = ((px - ax) * ex + (py - ay) * ey) / l2
    np.clip(t, 0.0, 1.0, out=t)
    fx = ax + t * ex
    fy = ay + t * ey
    return fx, fy, (px - fx) ** 2 + (py - fy) ** 2


def point_segment_foot(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> tuple[float, float, float, float]:
    """Scalar project_points_to_segments as (fx, fy, t, dist), dist by math.hypot.
    A segment whose squared length is 0 (coincident or numerically coincident
    endpoints) projects onto its nearer endpoint, the start on a tie."""
    ex, ey = bx - ax, by - ay
    l2 = ex * ex + ey * ey
    if l2 == 0.0:
        d_start = math.hypot(px - ax, py - ay)
        d_end = math.hypot(px - bx, py - by)
        return (ax, ay, 0.0, d_start) if d_start <= d_end else (bx, by, 1.0, d_end)
    t = ((px - ax) * ex + (py - ay) * ey) / l2
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    fx = ax + t * ex
    fy = ay + t * ey
    return fx, fy, t, math.hypot(px - fx, py - fy)


def project_point_to_segment(p: Point2, seg: LineSegment) -> tuple[Point2, float, float]:
    """Project a point onto a segment.

    Returns (foot, t, dist) where foot = start + t * (end - start) with t
    clamped to [0, 1] and dist the Euclidean distance from p to the foot.
    """
    p = Point2(*p)
    fx, fy, t, dist = point_segment_foot(p.x, p.y, *seg.start, *seg.end)
    return Point2(fx, fy), t, dist


def nearest_segment(p: Point2, segments: Sequence[LineSegment]) -> tuple[int, Point2, float]:
    """Index, foot and distance of the closest segment; ties go to the lowest index."""
    if not segments:
        raise GeometryError("empty segment list")
    projections = enumerate(project_point_to_segment(p, seg) for seg in segments)
    i, (foot, _t, dist) = min(projections, key=lambda item: item[1][2])  # min keeps the first of ties
    return i, foot, dist


def _convex_hull(points: Sequence[Point2]) -> list[Point2]:
    """Strict convex hull (Andrew's monotone chain), CCW, no collinear points."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return list(pts)

    def cross(o: Point2, a: Point2, b: Point2) -> float:
        return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)

    lower: list[Point2] = []
    for pt in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], pt) <= 0:
            lower.pop()
        lower.append(pt)
    upper: list[Point2] = []
    for pt in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], pt) <= 0:
            upper.pop()
        upper.append(pt)
    return lower[:-1] + upper[:-1]


def _on_hull_boundary(p: Point2, hull: Sequence[Point2]) -> bool:
    if len(hull) < 3:
        return True
    scale = max(1.0, max(abs(v.x) for v in hull), max(abs(v.y) for v in hull))
    tol = 1e-9 * scale * scale
    n = len(hull)
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
        # hull is CCW: a point of the set sits strictly inside iff every
        # edge sees it strictly to the left
        if cross <= tol:
            return True
    return False


def classify_vertices(poly: Polygon) -> VertexClassification:
    """Split vertex indices by convexity.

    Outer-ring vertices lying on the convex hull of the outer ring's vertex
    set are convex; the remaining outer vertices and every hole vertex are
    concave. A hole vertex can never lie on the hull of a simple polygon
    enclosing it, so holes are concave wholesale.
    """
    outer = poly.outer.vertices
    hull = _convex_hull(outer)
    convex = {i for i, v in enumerate(outer) if _on_hull_boundary(v, hull)}
    total = poly.vertex_count()
    concave = set(range(total)) - convex
    return VertexClassification(frozenset(convex), frozenset(concave))


def _turn_angle_deg(a: Point2, b: Point2, c: Point2) -> float:
    """Absolute change of direction at b, in degrees within [0, 180]."""
    ux, uy = b.x - a.x, b.y - a.y
    vx, vy = c.x - b.x, c.y - b.y
    cross = ux * vy - uy * vx
    dot = ux * vx + uy * vy
    return math.degrees(math.atan2(abs(cross), dot))


def merge_collinear_edges(ring: Ring, angle_tol: float) -> Ring:
    """Remove vertices whose adjacent edges differ in direction by <= angle_tol degrees.

    Runs to a fixpoint, so the result is idempotent. Raises
    DegenerateRingError if merging would leave fewer than three vertices.
    """
    if angle_tol < 0:
        raise GeometryError(f"negative angle tolerance {angle_tol}")
    verts = list(ring.vertices)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(verts):
            if len(verts) < 3:
                raise DegenerateRingError("degenerate ring after collinear merge")
            a = verts[i - 1]
            b = verts[i]
            c = verts[(i + 1) % len(verts)]
            if _turn_angle_deg(a, b, c) <= angle_tol:
                del verts[i]
                changed = True
            else:
                i += 1
    if len(verts) < 3:
        raise DegenerateRingError("degenerate ring after collinear merge")
    return Ring(tuple(verts))


_INSIDE, _BOUNDARY, _OUTSIDE = 1, 0, -1


def _ring_location(p: Point2, ring: Ring) -> int:
    """Even-odd location of p relative to a ring: inside, boundary or outside."""
    inside = False
    vs = ring.vertices
    n = len(vs)
    for i in range(n):
        a, b = vs[i], vs[(i + 1) % n]
        ex, ey = b.x - a.x, b.y - a.y
        scale = max(1.0, abs(a.x), abs(a.y), abs(b.x), abs(b.y))
        tol = 1e-9 * scale
        cross = ex * (p.y - a.y) - ey * (p.x - a.x)
        seg_len = math.hypot(ex, ey)
        if abs(cross) <= tol * seg_len:
            dot = (p.x - a.x) * ex + (p.y - a.y) * ey
            if -tol * seg_len <= dot <= seg_len * seg_len + tol * seg_len:
                return _BOUNDARY
        if (a.y > p.y) != (b.y > p.y):
            x_int = a.x + (p.y - a.y) * ex / ey
            if p.x < x_int:
                inside = not inside
    return _INSIDE if inside else _OUTSIDE


def point_in_polygon(p: Point2, poly: Polygon) -> bool:
    """Even-odd membership test; boundary points (outer or hole rim) count as inside."""
    p = Point2(*p)
    loc = _ring_location(p, poly.outer)
    if loc == _OUTSIDE:
        return False
    if loc == _BOUNDARY:
        return True
    for hole in poly.holes:
        loc = _ring_location(p, hole)
        if loc == _BOUNDARY:
            return True
        if loc == _INSIDE:
            return False
    return True
