"""Seeded synthetic corpora for the benchmark workloads.

A self-contained copy of the rectilinear-tile generator used by the
acceptance suite, extended with courtyard annuli for the dense workload.
Building counts and notch counts are stratified over the tile index, so a
seed changes shapes and positions but not how much geometry a corpus
holds; that keeps per-run work comparable across seeds.
"""
from __future__ import annotations

import numpy as np

from polyform.geometry import InstanceSet, Polygon


def _rect(x0: int, y0: int, x1: int, y1: int) -> list[tuple[float, float]]:
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def rectilinear_polygon(rng: np.random.Generator, x0: int, y0: int, w: int, h: int, cuts: int) -> Polygon:
    """Rectangle with `cuts` notched corners (0..4), integer coordinates,
    every edge at least 4 px; needs w, h >= 12."""
    amax = w // 2 - 2
    bmax = h // 2 - 2
    notch = {}
    for corner in rng.choice(4, size=cuts, replace=False):
        notch[int(corner)] = (int(rng.integers(4, amax + 1)), int(rng.integers(4, bmax + 1)))
    x1, y1 = x0 + w, y0 + h
    coords: list[tuple[float, float]] = []
    if 0 in notch:
        a, b = notch[0]
        coords += [(x0, y0 + b), (x0 + a, y0 + b), (x0 + a, y0)]
    else:
        coords.append((x0, y0))
    if 1 in notch:
        a, b = notch[1]
        coords += [(x1 - a, y0), (x1 - a, y0 + b), (x1, y0 + b)]
    else:
        coords.append((x1, y0))
    if 2 in notch:
        a, b = notch[2]
        coords += [(x1, y1 - b), (x1 - a, y1 - b), (x1 - a, y1)]
    else:
        coords.append((x1, y1))
    if 3 in notch:
        a, b = notch[3]
        coords += [(x0 + a, y1), (x0 + a, y1 - b), (x0, y1 - b)]
    else:
        coords.append((x0, y1))
    return Polygon.from_coords(coords)


def courtyard(rng: np.random.Generator, x0: int, y0: int, w: int, h: int) -> Polygon:
    """Rectangular annulus with walls 5..8 px thick; needs w, h >= 26."""
    wall = [int(rng.integers(5, 9)) for _ in range(4)]
    return Polygon.from_coords(
        _rect(x0, y0, x0 + w, y0 + h),
        holes=[_rect(x0 + wall[0], y0 + wall[1], x0 + w - wall[2], y0 + h - wall[3])],
    )


def random_tile(
    rng: np.random.Generator,
    size: int,
    count: int,
    first_cut: int = 0,
    courtyard_every: int = 0,
    min_side: int = 14,
    max_side: int = 48,
    separation: int = 5,
) -> InstanceSet:
    """Up to `count` non-touching buildings with >= `separation` px between
    bounding boxes and >= 2 px margin to the tile border. Building k gets
    (first_cut + k) % 5 notches, or is a courtyard when courtyard_every > 0
    and k % courtyard_every == courtyard_every - 1."""
    boxes: list[tuple[int, int, int, int]] = []
    polys: list[Polygon] = []
    attempts = 0
    while len(polys) < count and attempts < 600:
        attempts += 1
        k = len(polys)
        is_court = courtyard_every > 0 and k % courtyard_every == courtyard_every - 1
        lo = 26 if is_court else min_side
        bw = int(rng.integers(lo, max_side + 1))
        bh = int(rng.integers(lo, max_side + 1))
        x0 = int(rng.integers(2, size - 2 - bw))
        y0 = int(rng.integers(2, size - 2 - bh))
        box = (x0 - separation, y0 - separation, x0 + bw + separation, y0 + bh + separation)
        if any(not (box[2] <= b[0] or b[2] <= box[0] or box[3] <= b[1] or b[3] <= box[1]) for b in boxes):
            continue
        boxes.append(box)
        if is_court:
            polys.append(courtyard(rng, x0, y0, bw, bh))
        else:
            polys.append(rectilinear_polygon(rng, x0, y0, bw, bh, (first_cut + k) % 5))
    return InstanceSet.of(polys)


def sparse_corpus(seed: int, tiles: int, size: int = 512) -> list[tuple[str, InstanceSet]]:
    """The acceptance distribution: 3..7 rectilinear buildings per tile."""
    rng = np.random.default_rng([seed, 1])
    return [
        (f"s{seed}_{i:03d}", random_tile(rng, size, 3 + i % 5, first_cut=i))
        for i in range(tiles)
    ]


def dense_corpus(seed: int, tiles: int, size: int = 512) -> list[tuple[str, InstanceSet]]:
    """25..40 buildings per tile; every fifth one is a courtyard annulus."""
    rng = np.random.default_rng([seed, 2])
    return [
        (f"d{seed}_{i:03d}", random_tile(rng, size, 25 + (i * 7) % 16, first_cut=i, courtyard_every=5))
        for i in range(tiles)
    ]


def frame_corpus(seed: int, tiles: int, size: int = 2048, scale: int = 4) -> list[tuple[str, InstanceSet]]:
    """Sparse buildings in a size x size frame: acceptance tiles drawn on the
    size / scale grid and scaled up, so down-sampling by `scale` lands every
    corner back on an integer grid point."""
    rng = np.random.default_rng([seed, 3])
    return [
        (f"f{seed}_{i:03d}", random_tile(rng, size // scale, 3 + i % 5, first_cut=i).scaled(scale))
        for i in range(tiles)
    ]
