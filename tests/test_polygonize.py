import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy import ndimage

from polyform.geometry import DegenerateRingError, InstanceSet, Point2, Polygon, signed_area
from polyform import polygonize
from polyform.polygonize import (
    EIGHT,
    FOUR,
    BoundaryChain,
    FallbackRequired,
    PolygonizeConfig,
    PolygonizeError,
    VertexSet,
    _dp_rings,
    _trace_window,
    component_crops,
    connected_components,
    douglas_peucker,
    extract_vertices,
    mav_attract_simplify,
    polygonize_components,
    polygonize_pipeline,
    rescale_polygons,
    threshold_mask,
    trace_boundary,
)
from polyform.raster import DegradeSpec, RasterGrid, bounding_crop, degrade, encode_vertices, rasterize_mask

from oracles import (
    douglas_peucker_closed,
    label_raster_order,
    max_chain_deviation,
    nms_vertices_shifted,
    polygonize_components_per_chain,
    snap_ring_loop,
    trace_window_reoriented,
)
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


@st.composite
def row_run_masks(draw, max_width=16, max_run=3):
    """Bool masks of 1-4 row bands of speckle, the bands and the frame's two
    ends separated by runs of 0 to max_run empty rows: a run of three between
    bands, or of two or three at an end, holds rows the labelling drops."""
    w = draw(st.integers(1, max_width))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        parts.append(np.zeros((draw(st.integers(0, max_run)), w), dtype=bool))
        density = draw(st.sampled_from((0.1, 0.3, 0.6, 1.0)))
        parts.append(rng.random((draw(st.integers(1, 4)), w)) < density)
    parts.append(np.zeros((draw(st.integers(0, max_run)), w), dtype=bool))
    return np.concatenate(parts)


def mask_of(shape, *pixels):
    mask = np.zeros(shape, dtype=bool)
    for r, c in pixels:
        mask[r, c] = True
    return mask


# pixels diagonally apart across one empty row, and across three (the
# middle one dropped); components on the first and last rows; no component
ROW_RUN_EXAMPLES = (
    mask_of((3, 3), (0, 0), (2, 1)),
    mask_of((9, 3), (0, 0), (4, 1), (4, 2), (8, 1), (7, 0)),
    mask_of((9, 5), (0, 1), (0, 2), (8, 0), (8, 4)),
    mask_of((6, 4)),
)


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

    @pytest.mark.parametrize("connectivity", [FOUR, EIGHT])
    @settings(max_examples=150, deadline=None)
    @given(mask=st.deferred(lambda: trace_masks(max_side=24)))
    def test_equals_scipy_labels_renumbered(self, mask, connectivity):
        want, want_count = label_raster_order(mask, connectivity)
        labels, count = connected_components(grid_u8(mask), connectivity)
        assert labels.dtype_name == "u32" and count == want_count
        assert np.array_equal(labels.channel(), want)
        crops = component_crops(grid_f32(mask), 0.5, connectivity)
        assert [(r0, c0, crop.tolist()) for r0, c0, crop, _ in crops] == [
            (*bounding_crop(want == comp)[:2], bounding_crop(want == comp)[2].tolist())
            for comp in range(1, count + 1)
        ]

    @pytest.mark.parametrize("connectivity", [FOUR, EIGHT])
    @settings(max_examples=200, deadline=None)
    @given(mask=row_run_masks(), seed=st.integers(0, 2**32 - 1))
    @example(mask=ROW_RUN_EXAMPLES[0], seed=0)
    @example(mask=ROW_RUN_EXAMPLES[1], seed=1)
    @example(mask=ROW_RUN_EXAMPLES[2], seed=2)
    @example(mask=ROW_RUN_EXAMPLES[3], seed=3)
    def test_row_runs_equal_scipy_labels_renumbered(self, mask, seed, connectivity):
        # the labelling drops the empty rows more than one row from the
        # foreground; labels, crops and scores are the whole frame's
        rng = np.random.default_rng(seed)
        soft = (mask * 0.75 + rng.random(mask.shape) * 0.2).astype(np.float32)
        want, want_count = label_raster_order(mask, connectivity)
        labels, count = connected_components(grid_u8(mask), connectivity)
        assert count == want_count and np.array_equal(labels.channel(), want)
        crops = component_crops(grid_f32(soft), 0.5, connectivity)
        assert [(r0, c0, crop.tolist(), score) for r0, c0, crop, score in crops] == [
            (*bounding_crop(want == comp)[:2], bounding_crop(want == comp)[2].tolist(),
             float(soft[want == comp].astype(np.float64).mean()))
            for comp in range(1, count + 1)
        ]

    @settings(max_examples=100, deadline=None)
    @given(mask=st.deferred(lambda: trace_masks(max_side=24)), tau=st.floats(1e-6, 1 - 1e-6))
    def test_u8_mask_crops_equal_f32_crops(self, mask, tau):
        # the CLI passes RGF u8 masks on without a cast to f32
        u8 = component_crops(grid_u8(mask), tau)
        f32 = component_crops(grid_f32(mask), tau)
        assert [(r0, c0, crop.tolist(), score) for r0, c0, crop, score in u8] == [
            (r0, c0, crop.tolist(), score) for r0, c0, crop, score in f32
        ]

    @pytest.mark.parametrize("connectivity", [FOUR, EIGHT])
    def test_renumbers_labels_out_of_raster_order(self, monkeypatch, connectivity):
        # components 1 and 2 start on the same row, so only the column order
        # tells them apart; the second mask widens the empty row 3 into a
        # run of five, whose middle three rows the labelling drops
        mask = np.zeros((9, 12), dtype=bool)
        mask[1, 2] = mask[1, 8] = mask[2, 5:7] = True
        mask[4:8, 1:4] = mask[6, 9:11] = mask[8, 0] = True
        spread = np.concatenate([mask[:3], np.zeros((4, 12), dtype=bool), mask[3:]])
        real_label = ndimage.label
        for mask, dropped in ((mask, 0), (spread, 3)):
            want, want_count = label_raster_order(mask, connectivity)
            want_crops = component_crops(grid_f32(mask), 0.5, connectivity)
            reversals, labelled_rows = [], []

            def reversed_label(*args, **kwargs):  # scipy's labels, numbered last to first
                labels, count = real_label(*args, **kwargs)
                reversals.append(count)
                labelled_rows.append(len(args[0]))
                return np.where(labels > 0, count + 1 - labels, 0).astype(labels.dtype), count

            monkeypatch.setattr(ndimage, "label", reversed_label)
            labels, count = connected_components(grid_u8(mask), connectivity)
            crops = component_crops(grid_f32(mask), 0.5, connectivity)
            monkeypatch.undo()
            assert reversals == [want_count, want_count] and want_count >= 5
            assert labelled_rows == [len(mask) - dropped] * 2
            assert count == want_count and np.array_equal(labels.channel(), want)
            assert [(r0, c0, crop.tolist(), score) for r0, c0, crop, score in crops] == [
                (r0, c0, crop.tolist(), score) for r0, c0, crop, score in want_crops
            ]


def paint(mask, op, r, c, a, b):
    """One drawing step on a bool mask; anything past the frame is clipped."""
    h, w = mask.shape
    if op in ("fill", "clear"):
        mask[r : r + a, c : c + b] = op == "fill"
    elif op == "hline":
        mask[r, c : c + b] = True
    elif op == "vline":
        mask[r : r + a, c] = True
    elif op in ("diag", "antidiag"):  # one-pixel diagonal lines and diagonal pinches
        step = 1 if op == "diag" else -1
        for i in range(a):
            if r + i < h and 0 <= c + step * i < w:
                mask[r + i, c + step * i] = True
    elif op == "frames":  # concentric alternating frames: holes nested in holes
        for k in range((min(a, b) + 1) // 2):
            mask[r + k : r + a - k, c + k : c + b - k] = k % 2 == 0


@st.composite
def trace_masks(draw, max_side=20):
    """Small bool masks: speckle at a drawn density, then up to six filled or
    cleared boxes, straight or diagonal one-pixel lines and nested frames."""
    h, w = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    mask = np.zeros((h, w), dtype=bool)
    density = draw(st.sampled_from((0.0, 0.1, 0.3, 0.5, 0.7)))
    if density:
        mask |= np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((h, w)) < density
    op = st.tuples(
        st.sampled_from(("fill", "clear", "hline", "vline", "diag", "antidiag", "frames")),
        st.integers(0, h - 1), st.integers(0, w - 1), st.integers(1, max_side), st.integers(1, max_side),
    )
    for step in draw(st.lists(op, max_size=6)):
        paint(mask, *step)
    return mask


def degraded_tile_mask(seed, jitter):
    rng = np.random.default_rng(seed)
    inst = random_tile(rng, 64, 64, n_min=2, n_max=6, min_side=12, max_side=28, separation=1)
    spec = DegradeSpec(dilate_radius=int(rng.integers(0, 2)), erode_radius=int(rng.integers(0, 2)),
                       boundary_jitter_sigma=jitter, rng_seed=seed)
    soft, _ = degrade(rasterize_mask(inst, 64, 64), encode_vertices(inst, 64, 64), spec)
    return soft.channel() > 0.5


def traced_chains(mask, connectivity):
    """(crop, r0, c0, chains) for every component of a bool mask."""
    for r0, c0, crop, _score in component_crops(grid_f32(mask), 0.5, connectivity):
        yield crop, r0, c0, _trace_window(crop, r0, c0)


def shoelace(pixels):
    pts = [(c + 0.5, r + 0.5) for r, c in pixels]
    return sum(
        pts[i][0] * pts[(i + 1) % len(pts)][1] - pts[(i + 1) % len(pts)][0] * pts[i][1]
        for i in range(len(pts))
    )


ANNULUS_MASK = rasterize_mask(InstanceSet.of([annulus(1, 1, 9, 9, 4, 4, 6, 6)]), 12, 12).channel() > 0


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

    @settings(max_examples=300, deadline=None)
    @given(trace_masks(), st.sampled_from([FOUR, EIGHT]))
    @example(ANNULUS_MASK, EIGHT)
    def test_orientation_convention(self, mask, connectivity):
        # outer chains CCW, hole chains CW, with no reorienting pass behind
        # them; only a component without a 2x2 block may trace to zero area
        for crop, _r0, _c0, chains in traced_chains(mask, connectivity):
            assert [c.ring_kind for c in chains] == ["outer"] + ["hole"] * (len(chains) - 1)
            block = (crop[:-1, :-1] & crop[1:, :-1] & crop[:-1, 1:] & crop[1:, 1:]).any()
            assert shoelace(chains[0].pixels) > 0 if block else shoelace(chains[0].pixels) >= 0
            assert all(shoelace(c.pixels) < 0 for c in chains[1:])

    @settings(max_examples=300, deadline=None)
    @given(trace_masks(), st.sampled_from([FOUR, EIGHT]))
    def test_equals_reorienting_oracle(self, mask, connectivity):
        for crop, r0, c0, chains in traced_chains(mask, connectivity):
            assert [(c.pixels, c.ring_kind) for c in chains] == trace_window_reoriented(crop, r0, c0)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([FOUR, EIGHT]))
    def test_equals_reorienting_oracle_on_degraded_tiles(self, seed, jitter, connectivity):
        for crop, r0, c0, chains in traced_chains(degraded_tile_mask(seed, jitter), connectivity):
            assert [(c.pixels, c.ring_kind) for c in chains] == trace_window_reoriented(crop, r0, c0)
            assert all(shoelace(c.pixels) < 0 for c in chains[1:])

    @pytest.mark.parametrize("shape", [(3, 3), (3, 4)])
    @pytest.mark.parametrize("connectivity", [FOUR, EIGHT])
    def test_equals_probing_walk_on_every_small_mask(self, shape, connectivity):
        n = shape[0] * shape[1]
        for bits in range(1, 2**n):
            mask = ((bits >> np.arange(n)) & 1).astype(bool).reshape(shape)
            for crop, r0, c0, chains in traced_chains(mask, connectivity):
                assert [(c.pixels, c.ring_kind) for c in chains] == trace_window_reoriented(crop, r0, c0)

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


HEAT_VALUES = (0.0, 0.005, 0.008, 0.25, 0.5, 0.5, 1.0, float("nan"), float("inf"))


@st.composite
def tie_heavy_heatmaps(draw):
    """(heat f32, offsets f32) with values from a small palette holding NaN."""
    h, w = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    values = draw(st.lists(st.sampled_from(HEAT_VALUES), min_size=h * w, max_size=h * w))
    offsets = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-0.5, 0.5, (h, w, 2))
    return np.array(values, dtype=np.float32).reshape(h, w), offsets.astype(np.float32)


@st.composite
def plateau_heatmaps(draw):
    """(heat f32, offsets f32, tau_v): a background of zeros, a few quantised
    levels or f32 noise, then flat plateaus at float32(tau_v), the f32 values
    either side of it, 0 or 1, some with noise added on top. float32(tau_v)
    lies above tau_v for 0.008 and 0.3 and equals it for 0.25 and 0.5."""
    tau_v = draw(st.sampled_from((0.008, 0.25, 0.3, 0.5)))
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    background = draw(st.sampled_from(("zero", "levels", "noise")))
    if background == "zero":
        heat = np.zeros((h, w), dtype=np.float32)
    elif background == "levels":
        heat = (rng.integers(0, 4, (h, w)) / 8).astype(np.float32)
    else:
        heat = rng.random((h, w), dtype=np.float32)
    at = np.float32(tau_v)
    levels = (at, at, np.nextafter(at, np.float32(0)), np.nextafter(at, np.float32(1)), np.float32(0), np.float32(1))
    for r, c, a, b, level, noisy in draw(st.lists(st.tuples(
        st.integers(0, h - 1), st.integers(0, w - 1), st.integers(1, 8), st.integers(1, 8),
        st.sampled_from(levels), st.booleans(),
    ), max_size=6)):
        patch = heat[r : r + a, c : c + b]
        patch[...] = level
        if noisy:
            patch += rng.normal(0.0, 1e-3, patch.shape).astype(np.float32)
    offsets = rng.uniform(-0.5, 0.5, (h, w, 2)).astype(np.float32)
    return heat, offsets, tau_v


@st.composite
def row_run_heatmaps(draw):
    """(heat f32, offsets f32, tau_v): quiet rows (0, 0.005, NaN or -inf,
    never above tau_v) with 1-3 bands of 1-2 rows drawn from HEAT_VALUES,
    -inf, float32(tau_v) and the f32 values either side of it, the bands
    and the frame's two ends separated by runs of 0-3 quiet rows, so only a
    few rows hold candidates. float32(tau_v) lies above tau_v for 0.008
    and 0.3, equals it for 0.25 and lies below it for 0.7."""
    tau_v = draw(st.sampled_from((0.008, 0.25, 0.3, 0.7)))
    w = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    quiet = np.array([0.0, 0.005, np.nan, -np.inf], dtype=np.float32)
    at = np.float32(tau_v)
    near = (at, np.nextafter(at, np.float32(0)), np.nextafter(at, np.float32(1)))
    loud = np.array([*HEAT_VALUES, -np.inf, *near], dtype=np.float32)
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        parts.append(rng.choice(quiet, (draw(st.integers(0, 3)), w)))
        parts.append(rng.choice(loud, (draw(st.integers(1, 2)), w)))
    parts.append(rng.choice(quiet, (draw(st.integers(0, 3)), w)))
    heat = np.concatenate(parts)
    return heat, rng.uniform(-0.5, 0.5, (*heat.shape, 2)).astype(np.float32), tau_v


def heat_of(shape, cells):
    """(heat, offsets, tau_v 0.008): a zero f32 heatmap holding the values
    of cells, {(row, col): value}, and zero offsets."""
    heat = np.zeros(shape, dtype=np.float32)
    for at, value in cells.items():
        heat[at] = value
    return heat, np.zeros((*shape, 2), dtype=np.float32), 0.008


NAN, INF = float("nan"), float("inf")
# NaN and +-inf beside peaks; peaks on the first and last rows; equal
# peaks on both sides of a run of empty rows whose middle rows are dropped
ROW_RUN_HEATMAPS = (
    heat_of((8, 3), {(1, 0): NAN, (1, 1): 0.5, (1, 2): -INF, (2, 0): INF, (2, 1): NAN, (2, 2): 0.5,
                     (6, 1): -INF, (7, 1): 0.5}),
    heat_of((7, 4), {(0, 2): 0.5, (6, 1): 0.5, (6, 2): 0.25}),
    heat_of((8, 3), {(1, 2): 0.5, (6, 2): 0.5, (6, 0): 0.5}),
)


class TestExtractVerticesOracle:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_heatmaps(), st.integers(1, 40), st.sampled_from([0.008, 0.25, 0.5]))
    def test_equals_shifted_copy_nms(self, heat_offs, top_k, tau_v):
        heat, offs = heat_offs
        got = extract_vertices(grid_f32(heat), RasterGrid(offs), top_k, tau_v)
        assert [(tuple(p), s) for p, s in got.points] == nms_vertices_shifted(heat, offs, top_k, tau_v)

    @settings(max_examples=300, deadline=None)
    @given(plateau_heatmaps(), st.integers(1, 60))
    def test_equals_shifted_copy_nms_on_plateaus(self, heat_offs_tau, top_k):
        heat, offs, tau_v = heat_offs_tau
        got = extract_vertices(grid_f32(heat), RasterGrid(offs), top_k, tau_v)
        assert [(tuple(p), s) for p, s in got.points] == nms_vertices_shifted(heat, offs, top_k, tau_v)

    @settings(max_examples=300, deadline=None)
    @given(row_run_heatmaps(), st.integers(1, 20))
    @example(ROW_RUN_HEATMAPS[0], 20)
    @example(ROW_RUN_HEATMAPS[1], 20)
    @example(ROW_RUN_HEATMAPS[2], 1)
    @example(ROW_RUN_HEATMAPS[2], 2)
    def test_equals_shifted_copy_nms_on_row_runs(self, heat_offs_tau, top_k):
        # the NMS runs on the rows within one row of a candidate only
        heat, offs, tau_v = heat_offs_tau
        got = extract_vertices(grid_f32(heat), RasterGrid(offs), top_k, tau_v)
        assert [(tuple(p), s) for p, s in got.points] == nms_vertices_shifted(heat, offs, top_k, tau_v)

    def test_f32_peak_just_above_threshold_kept(self):
        # float32(0.3) is 0.30000001192..., above tau_v = 0.3, though equal to float32(0.3)
        heat = np.zeros((3, 3), dtype=np.float32)
        heat[1, 1] = np.float32(0.3)
        got = extract_vertices(grid_f32(heat), RasterGrid(np.zeros((3, 3, 2), dtype=np.float32)), 5, 0.3)
        assert [(tuple(p), s) for p, s in got.points] == [((1.5, 1.5), float(np.float32(0.3)))]


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

    def test_empty_chain_signals_fallback(self):
        # the one input that reaches the snapping pass without chain pixels
        vs = VertexSet(((Point2(2.0, 2.0), 1.0), (Point2(9.0, 2.0), 1.0), (Point2(9.0, 9.0), 1.0)))
        with pytest.raises(FallbackRequired, match="no vertices"):
            mav_attract_simplify(BoundaryChain((), "outer"), vs, 5.0, 10.0)

    @pytest.mark.parametrize(
        "coords, merge_angle, message",
        [
            ([(2, 2), (12, 2), (22, 2)], 10.0, "degenerate ring after collinear merge"),
            ([(2, 2), (22, 2), (22, 22), (2, 22)], -1.0, "negative angle tolerance -1.0"),
        ],
    )
    def test_fallback_carries_the_geometry_message(self, coords, merge_angle, message):
        chain = square_chain(2, 2, 22, 22, 26, 26)
        vs = VertexSet(tuple((Point2(*c), 1.0) for c in coords))
        with pytest.raises(FallbackRequired) as info:
            mav_attract_simplify(chain, vs, 5.0, merge_angle)
        assert str(info.value) == message

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


@st.composite
def chains_and_vertices(draw):
    """A traced chain, a snapping distance tau_d and vertices on the
    half-pixel lattice of its frame widened by tau_d + 2 px on every side, so
    that equal pixel-to-vertex distances, repeated vertices and vertices
    outside every pixel's near_pairs window (sometimes all of them) are
    common."""
    mask = draw(trace_masks().filter(lambda m: m.any()))
    chains = [c for _crop, _r0, _c0, cs in traced_chains(mask, EIGHT) for c in cs]
    chain = draw(st.sampled_from(chains))
    tau_d = draw(st.sampled_from([0.5, 1.0, 2.0, 5.0]))
    h, w = mask.shape
    margin = int(2 * (tau_d + 2))  # in half pixels
    half = st.integers(-margin, 2 * w + margin).map(lambda k: k / 2)
    lattice = st.tuples(half, st.integers(-margin, 2 * h + margin).map(lambda k: k / 2))
    return chain, tau_d, draw(st.lists(lattice, max_size=12))


def snap_or_none(chain, coords, tau_d, merge_angle):
    vs = VertexSet(tuple((Point2(x, y), 1.0) for x, y in coords))
    try:
        return [tuple(v) for v in mav_attract_simplify(chain, vs, tau_d, merge_angle).vertices]
    except FallbackRequired:
        return None


class TestMavAttractSimplifyOracle:
    @settings(max_examples=300, deadline=None)
    @given(chains_and_vertices(), st.sampled_from([0.0, 10.0, 45.0]))
    def test_equals_winners_loop(self, chain_vertices, merge_angle):
        chain, tau_d, coords = chain_vertices
        assert snap_or_none(chain, coords, tau_d, merge_angle) == snap_ring_loop(
            chain.pixels, coords, tau_d, merge_angle
        )

    @pytest.mark.parametrize(
        "tau_d, x, kept",
        [
            (5.0, 26.5, False),  # exactly tau_d from the pixel centre (21.5, 12.5)
            (5.0, float(np.nextafter(26.5, 0.0)), True),
            (0.7, 21.5 + 0.7, True),  # the edge rounds to 0.6999999999999993 beyond the centre
        ],
    )
    def test_vertex_on_the_widened_box_edge(self, tau_d, x, kept):
        # pixel centres span x in [2.5, 21.5]; x is tau_d, or just under it, past the last
        chain = square_chain(2, 2, 22, 22, 40, 40)
        coords = [(2.5, 2.5), (21.5, 2.5), (21.5, 21.5), (2.5, 21.5), (x, 12.5)]
        got = snap_or_none(chain, coords, tau_d, 0.0)
        assert got == snap_ring_loop(chain.pixels, coords, tau_d, 0.0)
        assert ((x, 12.5) in got) == kept

    def test_no_vertex_in_the_box_falls_back_to_douglas_peucker(self):
        chain = square_chain(2, 2, 12, 12, 40, 40)
        cfg = PolygonizeConfig()
        far = VertexSet(((Point2(30.0, 30.0), 1.0), (Point2(-6.0, 7.0), 1.0), (Point2(7.0, 17.5), 1.0)))
        with pytest.raises(FallbackRequired, match="no vertices"):
            mav_attract_simplify(chain, far, cfg.attract_dist, cfg.merge_angle)
        # the tile pass, given the two vertices inside the frame, falls back alike
        heat = np.zeros((40, 40), dtype=np.float32)
        offs = np.zeros((40, 40, 2), dtype=np.float32)
        heat[29, 29], offs[29, 29] = 1.0, (0.5, 0.5)
        heat[17, 6], offs[17, 6] = 1.0, (0.5, 0.0)
        soft = soft_of(InstanceSet.of([rectangle(2, 2, 12, 12)]), 40, 40)
        got = polygonize_components(component_crops(soft, 0.5), grid_f32(heat), RasterGrid(offs), cfg)
        assert got.instances[0].polygon.outer == douglas_peucker(chain, cfg.dp_fallback_tolerance)

    def test_coords_built_once_and_read_only(self):
        vs = VertexSet(((Point2(1.0, 2.0), 0.5), (Point2(3.0, 4.0), 0.25)))
        assert vs.coords() is vs.coords()
        assert vs.coords().tolist() == [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(ValueError):
            vs.coords()[0, 0] = 9.0
        assert VertexSet(()).coords().shape == (0, 2)


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


LATTICE = st.tuples(st.integers(0, 6), st.integers(0, 6))


@st.composite
def closed_lattice_chain(draw):
    """A closed chain of lattice points (x + 0.5, y + 0.5) with consecutive
    repeats, out-and-back spurs and, at times, a last point equal to the first."""
    out = []
    for p in draw(st.lists(LATTICE, max_size=14)):
        out.append(p)
        step = draw(st.sampled_from(["plain", "repeat", "spur"]))
        if step == "repeat":
            out.append(p)
        elif step == "spur":
            out += [draw(LATTICE), p]
    if out and draw(st.booleans()):
        out.append(out[0])
    return [(x + 0.5, y + 0.5) for x, y in out]


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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(closed_lattice_chain(), min_size=1, max_size=25), st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    @example(
        [
            [],
            [(0.5, 0.5)],
            [(0.5, 0.5), (0.5, 0.5), (2.5, 0.5)],  # a repeat leaves two points
            [(0.5, 0.5), (2.5, 0.5), (0.5, 0.5)],  # the closing point equals the first
            # a repeat, a spur and a closing point equal to the first
            [(0.5, 0.5), (2.5, 0.5), (2.5, 0.5), (2.5, 2.5), (4.5, 4.5), (2.5, 2.5), (0.5, 2.5), (0.5, 0.5)],
            [(0.5, 0.5), (1.5, 1.5), (2.5, 0.5), (1.5, 1.5)],  # collapses below 3 under the tolerance
        ],
        1.0,
    )
    def test_batched_chains_equal_the_scalar_reference(self, chains, tol):
        lengths = np.array([len(chain) for chain in chains], dtype=np.int64)
        pts = np.array([p for chain in chains for p in chain], dtype=np.float64).reshape(-1, 2)
        rings = _dp_rings(pts, np.cumsum(lengths) - lengths, np.cumsum(lengths), tol)
        got = [None if ring is None else [tuple(v) for v in ring.vertices] for ring in rings]
        assert got == [douglas_peucker_closed(chain, tol) for chain in chains]

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

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_tolerance(self, tol):
        with pytest.raises(PolygonizeError):
            douglas_peucker(square_chain(1, 1, 9, 7, 12, 12), tol)


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


# directions (dx, dy) of length 5 between lattice points
_FIVE = ((3, 4), (4, 3), (-3, 4), (-4, -3), (5, 0), (0, -5))


@st.composite
def polygonize_tiles(draw):
    """(soft, heatmap, offsets, attract_dist) of a degraded 64 x 64 tile.

    Sparse tiles hold 1-3 buildings; dense ones a building inside a courtyard
    and up to 8 more at 1 px separation. On top of the degrade's jitter come
    1-2 px speckles and pinholes. Vertices sit on the integer corners of the
    buildings and, where heatmap noise makes NMS peaks all over the tile, on
    pixel centres (offset 0): a pixel at equal distance from two vertices,
    and a vertex at equal distance from two pixels, are common. Without the
    noise a chain meets few vertices, so both ways of pairing pixels with
    vertices run. One vertex lies exactly attract_dist from the tile's
    raster-first mask pixel, where the first component's outer chain starts."""
    side = 64
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        polys = [annulus(2, 2, 30, 30, 8, 8, 24, 24), rectangle(12, 12, 20, 20)]
        others = random_tile(rng, side, side, n_min=4, n_max=8, min_side=12, max_side=20, separation=1)
        polys += [sp.polygon for sp in others if min(v.x for v in sp.polygon.outer.vertices) > 31
                  or min(v.y for v in sp.polygon.outer.vertices) > 31]
    else:
        polys = [sp.polygon for sp in random_tile(rng, side, side, n_min=1, n_max=3, min_side=12, max_side=30)]
    inst = InstanceSet.of(polys)
    spec = DegradeSpec(
        dilate_radius=draw(st.integers(0, 1)), erode_radius=draw(st.integers(0, 1)),
        boundary_jitter_sigma=draw(st.sampled_from([0.0, 0.5, 1.0])),
        heatmap_noise_sigma=draw(st.sampled_from([0.0, 0.02])),
        vertex_dropout_prob=0.3, spurious_vertex_count=draw(st.integers(0, 6)), rng_seed=seed,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # vertices sharing a pixel
        soft, grids = degrade(rasterize_mask(inst, side, side), encode_vertices(inst, side, side), spec)
    mask = soft.channel().copy()
    for _ in range(draw(st.integers(0, 6))):
        r, c = (int(v) for v in rng.integers(0, side - 1, 2))
        mask[r, c : c + int(rng.integers(1, 3))] = 0.0 if mask[r, c] > 0.5 else 1.0  # pinhole or speckle
    heat, offs = grids.heatmap.channel().copy(), grids.offsets.data.copy()
    attract_dist = draw(st.sampled_from([2.5, 5.0]))
    if (mask > 0.5).any():
        r, c = divmod(int(np.argmax(mask > 0.5)), side)
        dx, dy = draw(st.sampled_from(_FIVE))
        x, y = c + 0.5 + dx * attract_dist / 5, r + 0.5 + dy * attract_dist / 5
        vr, vc = int(np.floor(y)), int(np.floor(x))
        if 0 <= vr < side and 0 <= vc < side:
            heat[vr, vc] = 1.0
            offs[vr, vc] = (x - (vc + 0.5), y - (vr + 0.5))
    return grid_f32(mask), grid_f32(heat), RasterGrid(offs), attract_dist


def polygonize_both(soft, heat, offs, cfg):
    """The per-tile polygonize_components and the per-chain oracle on the same crops."""
    crops = component_crops(soft, cfg.mask_threshold, cfg.connectivity)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # dropped components
        got = polygonize_components(crops, heat, offs, cfg)
    return got, polygonize_components_per_chain(crops, heat, offs, cfg)


class TestPolygonizeComponentsOracle:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(polygonize_tiles(), st.sampled_from([FOUR, EIGHT]))
    def test_equals_per_chain_oracle_on_degraded_tiles(self, tile, connectivity):
        soft, heat, offs, attract_dist = tile
        cfg = PolygonizeConfig(connectivity=connectivity, attract_dist=attract_dist)
        got, want = polygonize_both(soft, heat, offs, cfg)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("connectivity", [FOUR, EIGHT])
    def test_equals_per_chain_oracle_on_dense_benchmark_tile(self, connectivity):
        rng = np.random.default_rng(14)
        inst = random_tile(rng, 256, 256, n_min=25, n_max=30, min_side=12, max_side=36, separation=1)
        spec = DegradeSpec(dilate_radius=1, boundary_jitter_sigma=0.5, vertex_dropout_prob=0.3,
                           spurious_vertex_count=40, heatmap_noise_sigma=0.02, rng_seed=14)
        soft, grids = degrade(rasterize_mask(inst, 256, 256), encode_vertices(inst, 256, 256), spec)
        got, want = polygonize_both(soft, grids.heatmap, grids.offsets, PolygonizeConfig(connectivity=connectivity))
        assert len(got) >= 20
        assert repr(got) == repr(want)

    def test_one_douglas_peucker_call_per_tile(self, monkeypatch):
        rng = np.random.default_rng(15)
        inst = random_tile(rng, 256, 256, n_min=25, n_max=30, min_side=12, max_side=36, separation=1)
        spec = DegradeSpec(dilate_radius=1, boundary_jitter_sigma=0.5, vertex_dropout_prob=0.3,
                           spurious_vertex_count=40, heatmap_noise_sigma=0.02, rng_seed=15)
        soft, grids = degrade(rasterize_mask(inst, 256, 256), encode_vertices(inst, 256, 256), spec)
        calls = []
        dp_rings = polygonize._dp_rings
        monkeypatch.setattr(polygonize, "_dp_rings", lambda pts, lo, hi, tol: calls.append(len(lo)) or dp_rings(pts, lo, hi, tol))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            polygonize_pipeline(soft, grids.heatmap, grids.offsets)
        assert len(calls) == 1 and calls[0] >= 2  # every fallback chain of the tile in one call

    def test_pinhole_near_three_vertices_keeps_its_hole(self):
        # a one-pixel hole traces to a 4-pixel diamond; three vertices 2 px
        # off three of its pixels snap it to a triangle, so no rule on chain
        # size alone may drop such a chain
        mask = np.zeros((26, 26), dtype=np.float32)
        mask[2:24, 2:24] = 1.0
        mask[12, 12] = 0.0
        heat = np.zeros((26, 26), dtype=np.float32)
        for r, c in ((9, 12), (12, 9), (12, 15)):
            heat[r, c] = 1.0
        offs = RasterGrid(np.zeros((26, 26, 2), dtype=np.float32))
        crops = component_crops(grid_f32(mask), 0.5)
        (hole_chain,) = _trace_window(crops[0][2], crops[0][0], crops[0][1])[1:]
        assert len(set(hole_chain.pixels)) <= 6
        got, want = polygonize_both(grid_f32(mask), grid_f32(heat), offs, PolygonizeConfig())
        (hole,) = got.instances[0].polygon.holes
        assert sorted(tuple(v) for v in hole.vertices) == [(9.5, 12.5), (12.5, 9.5), (15.5, 12.5)]
        assert got == want


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
        inst = InstanceSet.of([rectangle(1, 1, 3, 3)])
        for s in (0, math.nan, math.inf):
            with pytest.raises(PolygonizeError):
                rescale_polygons(inst, s)


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
            {"attract_dist": float("nan")},
            {"attract_dist": float("inf")},
            {"connectivity": "six"},
            {"scale": 0.0},
            {"scale": float("nan")},
            {"scale": float("inf")},
            {"merge_angle": float("nan")},
            {"merge_angle": float("inf")},
            {"dp_fallback_tolerance": float("nan")},
            {"dp_fallback_tolerance": float("inf")},
            {"mask_threshold": "a"},
            {"top_k": "3"},
            {"top_k": 2.5},  # np.partition takes only an integer
            {"attract_dist": 10**400},  # no float holds it
            {"top_k": -10**5000},  # past Python's int-to-text limit
            {"scale": 10**5000},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(PolygonizeError, match=field):
            PolygonizeConfig(**kwargs)
