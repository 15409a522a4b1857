import copy
import json
import math
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polyform.geometry import InstanceSet, Polygon
from polyform.io import (
    CocoError,
    FormatError,
    GeoJsonError,
    ManifestError,
    ManifestTile,
    RgfError,
    SvgStyle,
    TileRecord,
    map_rgf,
    read_coco_annotations,
    read_geojson,
    read_manifest,
    _coco_records,
    read_rgf,
    render_svg,
    rgf_parts,
    write_coco_annotations,
    write_geojson,
    write_manifest,
    write_rgf,
)
from polyform.raster import RasterGrid

from oracles import coco_records_objects, geojson_records_objects
from synth import annulus, rectangle


def records_fixture():
    holed = annulus(2, 2, 14, 14, 5.25, 5.5, 9.75, 9.125)
    plain = Polygon.from_coords([(1.125, 1.0), (7.625, 1.5), (6.0, 11.25)])
    return [
        TileRecord("tile-a", (16, 16), InstanceSet.of([holed, plain], scores=[0.875, 0.5])),
        TileRecord("tile-b", (24, 20), InstanceSet()),
    ]


def edge_arrays(dtype) -> list[np.ndarray]:
    """Grids with a zero side, and views that are not C-contiguous (a
    transpose, a strided slice), which RasterGrid copies into its own layout."""
    base = np.arange(8 * 9 * 4).reshape(8, 9, 4).astype(dtype)
    return [np.zeros((0, 0, 1), dtype), np.zeros((3, 0, 2), dtype), base.transpose(1, 0, 2), base[::2, 1::3, ::3]]


def assert_parts_are(grid: RasterGrid, blob: bytes) -> None:
    """rgf_parts is the header and a flat byte view of the little-endian
    payload, laid out from the format's definition, and together they are
    write_rgf's bytes; on a little-endian host the view is the grid's own
    buffer."""
    header, payload = rgf_parts(grid)
    code = {np.uint8: 0, np.float32: 1}[grid.data.dtype.type]
    assert header == struct.pack("<4sIIII", b"RGF1", grid.height, grid.width, grid.channels, code)
    assert payload.dtype == np.uint8 and payload.ndim == 1
    assert payload.tobytes() == grid.data.astype(grid.data.dtype.newbyteorder("<")).tobytes()
    assert header + payload.tobytes() == blob
    if sys.byteorder == "little" and payload.size:
        assert np.shares_memory(payload, grid.data)


class TestRgf:
    def test_header_arithmetic(self):
        grid = RasterGrid(np.array([[[7]]], dtype=np.uint8))
        blob = write_rgf(grid)
        assert len(blob) == 20 + 1
        assert blob[:4] == b"RGF1"
        assert struct.unpack("<IIII", blob[4:20]) == (1, 1, 1, 0)
        assert blob[20] == 7

    def test_u8_roundtrip_bitwise(self):
        rng = np.random.default_rng(3)
        for array in (rng.integers(0, 256, size=(5, 7, 3)).astype(np.uint8), *edge_arrays(np.uint8)):
            grid = RasterGrid(array)
            blob = write_rgf(grid)
            assert_parts_are(grid, blob)
            again = read_rgf(blob)
            assert again.data.dtype == np.uint8
            assert np.array_equal(again.data, array)

    def test_f32_roundtrip_bitwise(self):
        rng = np.random.default_rng(4)
        for array in (rng.normal(size=(6, 4, 2)).astype(np.float32), *edge_arrays(np.float32)):
            grid = RasterGrid(array)
            blob = write_rgf(grid)
            assert_parts_are(grid, blob)
            again = read_rgf(blob)
            assert again.data.dtype == np.float32
            assert np.array_equal(again.data.view(np.uint32), array.view(np.uint32))
            assert write_rgf(again) == blob

    def test_read_does_not_alias_its_input(self):
        grid = RasterGrid(np.arange(12, dtype=np.float32).reshape(2, 3, 2))
        data = bytearray(write_rgf(grid))
        again = read_rgf(data)
        data[20:] = bytes(len(data) - 20)
        assert np.array_equal(again.data, grid.data)

    def test_bad_magic(self):
        with pytest.raises(RgfError, match="magic"):
            read_rgf(b"NOPE" + b"\0" * 16)

    def test_unknown_dtype_code(self):
        blob = struct.pack("<4sIIII", b"RGF1", 1, 1, 1, 9) + b"\0"
        with pytest.raises(RgfError, match="unknown dtype"):
            read_rgf(blob)

    def test_truncated_header(self):
        with pytest.raises(RgfError, match="header"):
            read_rgf(b"RGF1\0\0")

    def test_truncated_payload(self):
        grid = RasterGrid(np.zeros((2, 2, 1), dtype=np.uint8))
        blob = write_rgf(grid)
        with pytest.raises(RgfError, match="payload"):
            read_rgf(blob[:-1])

    def test_zero_channels_rejected(self):
        for side in (0, 1, 2**31, 2**32 - 1):
            with pytest.raises(RgfError, match="0 channels"):
                read_rgf(struct.pack("<4sIIII", b"RGF1", side, side, 0, 0))

    def test_f64_not_serializable(self):
        grid = RasterGrid(np.zeros((2, 2, 2), dtype=np.float64))
        with pytest.raises(RgfError, match="f64"):
            write_rgf(grid)


_VALID_U8 = write_rgf(RasterGrid(np.arange(4, dtype=np.uint8).reshape(2, 2, 1)))
# every malformed blob of TestRgf, by the fault it holds
MALFORMED_RGF = {
    "empty": b"",
    "19 bytes": _VALID_U8[:19],
    "bad magic": b"NOPE" + _VALID_U8[4:],
    "unknown dtype": struct.pack("<4sIIII", b"RGF1", 1, 1, 1, 9) + b"\0",
    "0 channels": struct.pack("<4sIIII", b"RGF1", 2, 2, 0, 0),
    "payload one byte short": _VALID_U8[:-1],
    "payload one byte long": _VALID_U8 + b"\0",
}


def mapped_outcome(blob: bytes, path) -> RasterGrid:
    """map_rgf of the blob written to path, checked against read_rgf of the
    blob: the same RgfError, or a read-only grid bitwise equal to its grid."""
    path.write_bytes(blob)
    try:
        want = read_rgf(blob)
    except RgfError as exc:
        with pytest.raises(RgfError) as got:
            map_rgf(path)
        assert str(got.value) == str(exc)
        raise
    grid = map_rgf(path)
    assert not grid.data.flags.writeable
    assert grid.data.dtype == want.data.dtype and grid.data.shape == want.data.shape
    assert grid.data.tobytes() == want.data.tobytes()
    return grid


class TestMappedRgf:
    @pytest.mark.parametrize("fault", sorted(MALFORMED_RGF))
    def test_malformed_file_raises_the_read_rgf_error(self, tmp_path, fault):
        with pytest.raises(RgfError):
            mapped_outcome(MALFORMED_RGF[fault], tmp_path / "bad.rgf")

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    @pytest.mark.parametrize("shape", [(5, 7, 1), (6, 4, 2), (0, 0, 1), (3, 0, 2)])
    def test_equals_read_rgf_and_is_read_only(self, tmp_path, dtype, shape):
        array = np.random.default_rng(5).normal(scale=100, size=shape).astype(dtype)
        grid = mapped_outcome(write_rgf(RasterGrid(array)), tmp_path / "grid.rgf")
        assert np.array_equal(grid.data.view(np.uint8), array.view(np.uint8))
        with pytest.raises(ValueError, match="read-only"):
            grid.data[...] = 0


_TILE_T = '{"type": "FeatureCollection", "tiles": [{"tile_id": "t", "image_size": [8, 8]}], '
_SQUARE = '{"type": "Polygon", "coordinates": [[[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]]]}'


class TestGeoJson:
    def test_empty_records(self):
        doc = json.loads(write_geojson([]))
        assert doc["type"] == "FeatureCollection"
        assert doc["features"] == []

    def test_roundtrip_value_exact(self):
        records = records_fixture()
        again = read_geojson(write_geojson(records))
        assert again == records

    def test_hole_produces_two_rings(self):
        records = [TileRecord("t", (16, 16), InstanceSet.of([annulus(1, 1, 9, 9, 3, 3, 6, 6)]))]
        doc = json.loads(write_geojson(records))
        coords = doc["features"][0]["geometry"]["coordinates"]
        assert len(coords) == 2
        assert coords[0][0] == coords[0][-1]  # closed on write

    def test_empty_tiles_survive(self):
        records = records_fixture()
        again = read_geojson(write_geojson(records))
        assert again[1].tile_id == "tile-b"
        assert len(again[1].instances) == 0

    def test_unclosed_ring_rejected(self):
        doc = json.loads(write_geojson(records_fixture()))
        doc["features"][0]["geometry"]["coordinates"][0].pop()
        bad = doc["features"][0]["geometry"]["coordinates"][0]
        bad[-1] = [bad[-1][0] + 1, bad[-1][1]]
        with pytest.raises(GeoJsonError, match="unclosed|positions"):
            read_geojson(json.dumps(doc))

    def test_too_few_positions_rejected(self):
        doc = json.loads(write_geojson(records_fixture()))
        doc["features"][0]["geometry"]["coordinates"][0] = [[0, 0], [1, 1], [0, 0]]
        with pytest.raises(GeoJsonError, match="positions"):
            read_geojson(json.dumps(doc))

    def test_malformed_json_names_offset(self):
        with pytest.raises(GeoJsonError, match="byte"):
            read_geojson('{"type": "FeatureCollection", ')

    @pytest.mark.parametrize(
        "doc",
        [
            '{"type": "FeatureCollection", "features": []}',  # no tiles member
            '{"type": "FeatureCollection", "tiles": [{"tile_id": "t"}], "features": []}',
            '{"type": "FeatureCollection", "tiles": "nope", "features": []}',
            '{"type": "Feature"}',
            "[1, 2, 3]",
            _TILE_T + '"features": [3]}',
            _TILE_T + '"features": 5}',
            _TILE_T + '"features": [{"geometry": [1], "properties": {"tile_id": "t"}}]}',
            _TILE_T + '"features": [{"geometry": ' + _SQUARE + ', "properties": [1]}]}',
            _TILE_T + '"features": [{"geometry": ' + _SQUARE.replace("[0, 0]", '["x", 0]') + "}]}",
            _TILE_T + '"features": [{"geometry": ' + _SQUARE.replace("[0, 0]", "[null, 0]") + "}]}",
            b"\xff\xfe{\x00}\x00",
            pytest.param("1" * 5000, id="integer-past-digit-limit"),
            pytest.param("[" * 100000 + "]" * 100000, id="nesting-past-recursion-limit"),
        ],
    )
    def test_malformed_documents_raise_typed_errors(self, doc):
        with pytest.raises(GeoJsonError):
            read_geojson(doc)

    def test_repeated_tile_id_rejected(self):
        doc = json.loads(write_geojson([TileRecord("a", (16, 16), InstanceSet()), TileRecord("b", (8, 8), InstanceSet())]))
        doc["tiles"][1]["tile_id"] = "a"
        with pytest.raises(GeoJsonError, match="'a' appears twice"):
            read_geojson(json.dumps(doc))

    @pytest.mark.parametrize("tile_id", [1, True, None], ids=str)
    def test_tile_id_must_be_a_string(self, tile_id):
        # never str()-ed: 1 would read as tile '1' and take features of "1"
        doc = json.loads(write_geojson([TileRecord("1", (8, 8), InstanceSet.of([rectangle(0, 0, 4, 4)]))]))
        doc["tiles"][0]["tile_id"] = tile_id
        with pytest.raises(GeoJsonError, match="tile_id .* is not a string"):
            read_geojson(json.dumps(doc))
        doc["tiles"][0]["tile_id"] = "1"
        doc["features"][0]["properties"]["tile_id"] = tile_id
        with pytest.raises(GeoJsonError, match="feature 0: tile_id .* is not a string"):
            read_geojson(json.dumps(doc))

    def test_feature_without_tile_id_rejected(self):
        # not even by a tile whose id is the empty string
        doc = json.loads(write_geojson([TileRecord("", (8, 8), InstanceSet.of([rectangle(0, 0, 4, 4)]))]))
        del doc["features"][0]["properties"]["tile_id"]
        with pytest.raises(GeoJsonError, match="feature 0: tile_id None is not a string"):
            read_geojson(json.dumps(doc))

    @pytest.mark.parametrize(
        "size", [[512.9, True], [512.9, 512], [True, 512], ["64", 64], [0, 8], [8], [8, 8, 8]], ids=str
    )
    def test_image_size_must_be_positive_ints(self, size):
        tile = _TILE_T.replace("[8, 8]", json.dumps(size))
        with pytest.raises(GeoJsonError, match="image_size must be a pair of positive ints"):
            read_geojson(tile + '"features": []}')

    def test_side_past_float_range_rejected(self):
        tile = _TILE_T.replace("[8, 8]", "[8, 1" + "0" * 400 + "]")
        with pytest.raises(FormatError, match="bad image size"):
            read_geojson(tile + '"features": [{"geometry": ' + _SQUARE + ', "properties": {"tile_id": "t"}}]}')

    @pytest.mark.parametrize("size", [(2**29 + 1, 8), (8, 2**29 + 1)], ids=["height", "width"])
    def test_side_past_fill_bound_rejected(self, size):
        with pytest.raises(FormatError, match="bad image size"):
            TileRecord("t", size, InstanceSet())

    def test_side_at_fill_bound_accepted(self):
        side = 2**29
        rec = TileRecord("t", (side, side), InstanceSet.of([rectangle(side - 4, side - 4, side, side)]))
        assert rec.image_size == (side, side)

    def test_out_of_bounds_coordinates_rejected(self):
        with pytest.raises(FormatError, match="bounds"):
            TileRecord("t", (8, 8), InstanceSet.of([rectangle(0, 0, 9, 4)]))

    def test_exactly_on_bounds_tolerated(self):
        TileRecord("t", (8, 8), InstanceSet.of([rectangle(0, 0, 8, 8)]))


@pytest.mark.parametrize("score", [float("inf"), float("nan")], ids=str)
@pytest.mark.parametrize("write, error", [(write_geojson, GeoJsonError), (write_coco_annotations, CocoError)])
def test_writers_reject_non_finite_score(write, error, score):
    records = [TileRecord("t", (8, 8), InstanceSet.of([rectangle(0, 0, 4, 4)], scores=[score]))]
    with pytest.raises(error, match="non-finite score"):
        write(records)


class TestCoco:
    def test_single_square(self, tmp_path):
        path = tmp_path / "coco.json"
        path.write_bytes(write_coco_annotations([TileRecord("img1.png", (8, 8), InstanceSet.of([rectangle(1, 1, 5, 5)]))]))
        records = read_coco_annotations(path)
        assert len(records) == 1
        assert records[0].tile_id == "img1.png"
        assert records[0].instances.instances[0].polygon.vertex_count() == 4

    def test_two_rings_become_outer_and_hole(self, tmp_path):
        doc = {
            "images": [{"id": 1, "file_name": "a", "height": 16, "width": 16}],
            "annotations": [
                {
                    "id": 1,
                    "image_id": 1,
                    "category_id": 1,
                    "segmentation": [
                        [4.0, 4.0, 6.0, 4.0, 6.0, 6.0, 4.0, 6.0],  # small ring first
                        [1.0, 1.0, 9.0, 1.0, 9.0, 9.0, 1.0, 9.0],
                    ],
                    "iscrowd": 0,
                }
            ],
            "categories": [{"id": 1, "name": "building"}],
        }
        path = tmp_path / "coco.json"
        path.write_text(json.dumps(doc))
        records = read_coco_annotations(path)
        poly = records[0].instances.instances[0].polygon
        assert len(poly.holes) == 1
        assert abs(poly.area() - (64 - 4)) < 1e-9  # big ring became the outer

    def test_roundtrip_value_exact(self, tmp_path):
        records = records_fixture()
        path = tmp_path / "coco.json"
        path.write_bytes(write_coco_annotations(records))
        again = read_coco_annotations(path)
        assert again == records

    def test_rle_rejected(self, tmp_path):
        doc = {
            "images": [{"id": 1, "file_name": "a", "height": 8, "width": 8}],
            "annotations": [
                {"id": 1, "image_id": 1, "segmentation": {"counts": [0, 64], "size": [8, 8]}}
            ],
        }
        path = tmp_path / "coco.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CocoError, match="unsupported encoding"):
            read_coco_annotations(path)

    def test_malformed_json_names_byte_offset(self, tmp_path):
        path = tmp_path / "coco.json"
        path.write_text('{"images": [')
        with pytest.raises(CocoError, match=r"byte \d+"):
            read_coco_annotations(path)

    @pytest.mark.parametrize(
        "doc",
        [
            {"images": [{"file_name": "a"}]},  # image without id/size
            {"images": [{"id": 1, "height": 8, "width": 8}], "annotations": [{"id": 1}]},
            {"images": [{"id": 1, "height": 8, "width": 8}], "annotations": [{"image_id": 1, "segmentation": [[1, 1]]}]},
            {"annotations": []},
        ],
    )
    def test_malformed_documents_raise_typed_errors(self, tmp_path, doc):
        path = tmp_path / "coco.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CocoError):
            read_coco_annotations(path)

    @pytest.mark.parametrize(
        "images, match",
        [
            ([{"id": 1, "file_name": "a"}, {"id": 1, "file_name": "b"}], "image id 1 appears twice"),
            ([{"id": 1, "file_name": "a"}, {"id": 2, "file_name": "a"}], "'a' appears twice"),
            ([{"id": 1, "file_name": "2"}, {"id": 2}], "'2' appears twice"),  # file_name defaults to the id
        ],
    )
    def test_repeated_ids_rejected(self, tmp_path, images, match):
        doc = {"images": [{**img, "height": 8, "width": 8} for img in images], "annotations": []}
        path = tmp_path / "coco.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CocoError, match=match):
            read_coco_annotations(path)

    @pytest.mark.parametrize("file_name", [7, None, ["a"]], ids=str)
    def test_file_name_must_be_a_string(self, tmp_path, file_name):
        path = tmp_path / "coco.json"
        path.write_text(json.dumps({"images": [{"id": 1, "file_name": file_name, "height": 8, "width": 8}]}))
        with pytest.raises(CocoError, match="file_name .* is not a string"):
            read_coco_annotations(path)

    @pytest.mark.parametrize(
        "images, annotation_image_id, match",
        [
            ([{"id": 1, "height": 64.5, "width": 64}], 1, r"image 1 size must be a pair of positive ints, got \[64.5, 64\]"),
            ([{"id": 1, "height": 64, "width": "64"}], 1, "image 1 size must be a pair of positive ints"),
            ([{"id": 1, "height": True, "width": 64}], 1, "image 1 size must be a pair of positive ints"),
            ([{"id": 1, "height": 0, "width": 64}], 1, "image 1 size must be a pair of positive ints"),
            ([{"id": 1.7, "height": 8, "width": 8}, {"id": 1, "height": 8, "width": 8}], 1, "image id 1.7 is not an int"),
            ([{"id": True, "height": 8, "width": 8}], 1, "image id True is not an int"),
            ([{"id": "1", "height": 8, "width": 8}], 1, "image id '1' is not an int"),
            ([{"id": 1, "height": 8, "width": 8}], 1.0, "unknown image_id 1.0"),
            ([{"id": 1, "height": 8, "width": 8}], True, "unknown image_id True"),
        ],
        ids=[
            "height-float", "width-string", "height-bool", "height-zero", "id-float", "id-bool", "id-string",
            "annotation-image-id-float", "annotation-image-id-bool",
        ],
    )
    def test_sizes_and_image_ids_must_be_ints(self, tmp_path, images, annotation_image_id, match):
        annotation = {"id": 1, "image_id": annotation_image_id, "segmentation": [[1, 1, 5, 1, 5, 5, 1, 5]]}
        path = tmp_path / "coco.json"
        path.write_text(json.dumps({"images": images, "annotations": [annotation]}))
        with pytest.raises(CocoError, match=match):
            read_coco_annotations(path)

    def test_unreadable_files_raise_format_errors(self, tmp_path):
        path = tmp_path / "coco.json"
        path.write_bytes(b"\xff\xfe" + '{"images": []}'.encode("utf-16-le"))
        with pytest.raises(FormatError, match="UTF-8"):
            read_coco_annotations(path)
        with pytest.raises(FormatError, match="directory"):
            read_coco_annotations(tmp_path)

    def test_iscrowd_warns(self, tmp_path):
        doc = {
            "images": [{"id": 1, "file_name": "a", "height": 8, "width": 8}],
            "annotations": [
                {
                    "id": 1,
                    "image_id": 1,
                    "segmentation": [[1.0, 1.0, 5.0, 1.0, 5.0, 5.0]],
                    "iscrowd": 1,
                }
            ],
        }
        path = tmp_path / "coco.json"
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="iscrowd"):
            read_coco_annotations(path)


# values a hostile or broken writer may put anywhere: non-finite floats (as
# NaN / Infinity literals), integers too large for a float, numeric strings
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "x", "1", "nan", "inf", "-Infinity", "1e999"]),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["id", "tile_id"]), inner, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Every key path in a JSON document, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """A valid document with a few of its values replaced or removed."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()) or isinstance(parent, list):
            parent[path[-1]] = draw(JSON_VALUES)
        else:
            del parent[path[-1]]
    return doc


HEADER_FIELDS = st.one_of(st.sampled_from((0, 1, 2, 3, 2**31 - 1, 2**31, 2**32 - 1)), st.integers(0, 2**32 - 1))


@st.composite
def rgf_blobs(draw):
    """RGF bytes from drawn header fields, dtype code and magic, with a
    payload of the declared length, a few bytes short or long, or arbitrary."""
    h, w, c = draw(HEADER_FIELDS), draw(HEADER_FIELDS), draw(HEADER_FIELDS)
    code = draw(st.one_of(st.sampled_from((0, 1, 2)), HEADER_FIELDS))
    magic = draw(st.sampled_from((b"RGF1", b"RGF1", b"RGF2", b"\0\0\0\0")))
    declared = h * w * c * (4 if code == 1 else 1)
    if declared <= 4096 and draw(st.booleans()):
        payload = bytes(max(0, declared + draw(st.integers(-3, 3))))
    else:
        payload = draw(st.binary(max_size=64))
    blob = struct.pack("<4sIIII", magic, h, w, c, code) + payload
    return blob[: draw(st.integers(0, len(blob)))] if draw(st.integers(0, 9)) == 0 else blob


MANIFEST_TILES = [
    ManifestTile("tile-a", (16, 16), (4, 4), {kind: f"tile-a.{kind}.rgf" for kind in ("mask", "afm", "heatmap", "offsets")}),
    ManifestTile("tile/b", (24, 20), (6, 5), {kind: f"tile_b.{kind}.rgf" for kind in ("mask", "heatmap", "offsets")}),
]
VALID_GEOJSON = json.loads(write_geojson(records_fixture()))
VALID_COCO = json.loads(write_coco_annotations(records_fixture()))
VALID_MANIFEST = json.loads(write_manifest(4, MANIFEST_TILES))


class TestReaderFuzz:
    """Whatever the damage to a valid document, only FormatError escapes."""

    @settings(max_examples=400, deadline=None)
    @given(mutated(VALID_GEOJSON))
    def test_read_geojson_raises_only_format_errors(self, doc):
        try:
            read_geojson(json.dumps(doc))
        except FormatError:
            pass

    @settings(max_examples=400, deadline=None)
    @given(rgf_blobs())
    @example(struct.pack("<4sIIII", b"RGF1", 2**32 - 1, 2**32 - 1, 0, 0))
    @example(struct.pack("<4sIIII", b"RGF1", 0, 2**32 - 1, 2**32 - 1, 1))
    def test_read_rgf_raises_only_format_errors(self, tmp_path_factory, blob):
        try:
            grid = read_rgf(blob)
        except FormatError:
            grid = None
        else:
            assert write_rgf(grid) == blob
        # the mapped reader agrees on the blob written to a file
        try:
            mapped = mapped_outcome(blob, tmp_path_factory.mktemp("rgf") / "blob.rgf")
        except RgfError:
            assert grid is None
            return
        assert write_rgf(mapped) == blob

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=400, deadline=None)
    @given(mutated(VALID_COCO))
    def test_read_coco_annotations_raises_only_format_errors(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("coco") / "coco.json"
        path.write_text(json.dumps(doc))
        try:
            read_coco_annotations(path)
        except FormatError:
            pass


    @settings(max_examples=400, deadline=None)
    @given(mutated(VALID_MANIFEST))
    def test_read_manifest_raises_only_manifest_errors(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("rasters") / "manifest.json"
        path.write_text(json.dumps(doc))
        try:
            scale, tiles = read_manifest(path)
        except ManifestError as exc:
            assert str(exc).startswith(f"corrupt manifest {path}: ")
            return
        for tile in tiles:
            assert tile.image_size == (tile.grid_size[0] * scale, tile.grid_size[1] * scale)
            assert all("/" not in name and name != ".." for name in tile.files.values())


# a coordinate that the document's text spells 1e999, which json reads as inf
OVERFLOW_MARK = 123456.789
READER_COORDS = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.25, 3.0, 6.0, 7.5, 8.0]) | st.floats(0.0, 8.0)
READER_FAULTS = ("non-list", "three", "short", "unclosed", "1e999", "duplicate", "outside", "unknown tile", "none")


@st.composite
def feature_collections(draw):
    """The text of a FeatureCollection of two tiles whose features hold
    random closed rings, with up to three faults applied: a non-list
    position, a 3-element position, fewer than 4 positions, an unclosed
    ring, 1e999, a consecutive duplicate, a vertex outside the frame, an
    unknown tile_id, or a null coordinate."""
    tiles = [{"tile_id": "a", "image_size": [8, 8]}, {"tile_id": "b", "image_size": [9, 10]}]
    features = []
    for _ in range(draw(st.integers(0, 4))):
        rings = []
        for _ in range(draw(st.integers(1, 3))):
            pts = draw(st.lists(st.tuples(READER_COORDS, READER_COORDS), min_size=3, max_size=6, unique=True))
            rings.append([list(p) for p in pts] + [list(pts[0])])
        props = {"tile_id": draw(st.sampled_from("ab")), "score": draw(st.floats(0.0, 1.0))}
        features.append({"type": "Feature", "geometry": {"type": "Polygon", "coordinates": rings}, "properties": props})
    for _ in range(draw(st.integers(0, 3)) if features else 0):
        feature = draw(st.sampled_from(features))
        rings = feature["geometry"]["coordinates"]
        r = draw(st.integers(0, len(rings) - 1))
        ring = rings[r]
        p = draw(st.integers(0, len(ring) - 1))
        fault = draw(st.sampled_from(READER_FAULTS))
        if fault == "non-list":
            ring[p] = draw(st.sampled_from(["12", 3.5, None, {"x": 1.0, "y": 2.0}]))
        elif fault == "three" and isinstance(ring[p], list):
            ring[p] = [*ring[p], 0.0]
        elif fault == "short":
            rings[r] = ring[:3]
        elif fault == "unclosed" and isinstance(ring[-1], list) and ring[-1] and isinstance(ring[-1][0], float):
            ring[-1] = [ring[-1][0] + 0.5, *ring[-1][1:]]
        elif fault == "1e999" and isinstance(ring[p], list) and ring[p]:
            ring[p] = [OVERFLOW_MARK, *ring[p][1:]]
        elif fault == "duplicate":
            ring.insert(p, copy.deepcopy(ring[p]))
        elif fault == "outside":
            ring[p] = [draw(st.sampled_from([10.5, -0.5, 8.0 + 1e-7])), 1.0]
        elif fault == "unknown tile":
            feature["properties"]["tile_id"] = "z"
        elif fault == "none" and isinstance(ring[p], list) and ring[p]:
            ring[p] = [None, *ring[p][1:]]
    doc = {"type": "FeatureCollection", "tiles": tiles, "features": features}
    return json.dumps(doc).replace(repr(OVERFLOW_MARK), "1e999")


def reader_outcome(read, text):
    """The records read, with their GeoJSON bytes (which tell -0.0 from
    0.0), or the class and message of the FormatError raised."""
    try:
        records = read(text)
    except FormatError as exc:
        return type(exc), str(exc)
    return records, write_geojson(records)


class TestReaderOracle:
    """read_geojson, which converts and checks every ring of a file in
    batched array passes, against the object-based reader it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(feature_collections())
    def test_generated_collections_read_as_the_object_reader_reads_them(self, text):
        want = reader_outcome(lambda t: geojson_records_objects(json.loads(t)), text)
        assert reader_outcome(read_geojson, text) == want

    @settings(max_examples=300, deadline=None)
    @given(mutated(VALID_GEOJSON))
    def test_mutated_documents_read_as_the_object_reader_reads_them(self, doc):
        text = json.dumps(doc)
        want = reader_outcome(lambda t: geojson_records_objects(json.loads(t)), text)
        assert reader_outcome(read_geojson, text) == want

    def test_each_fault_is_named_as_before(self):
        ring = [[1.0, 1.0], [4.0, 1.0], [4.0, 4.0], [1.0, 1.0]]
        cases = {
            "bad position '12'": ["12", *ring[1:]],
            "bad position [4.0, 1.0, 0.0]": [ring[0], [4.0, 1.0, 0.0], *ring[2:]],
            "ring needs >= 4 positions": ring[:3],
            "unclosed ring": [*ring[:3], [1.0, 2.0]],
            "non-finite coordinates (inf, 1.0)": [ring[0], [OVERFLOW_MARK, 1.0], *ring[2:]],
            "consecutive duplicate vertex Point2(x=4.0, y=1.0) at index 1": [ring[0], ring[1], ring[1], *ring[2:]],
            "bad position [None, 1.0]": [ring[0], [None, 1.0], *ring[2:]],
        }
        for message, positions in cases.items():
            feature = {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": [positions]}, "properties": {"tile_id": "a"}}
            doc = {"type": "FeatureCollection", "tiles": [{"tile_id": "a", "image_size": [8, 8]}], "features": [feature]}
            text = json.dumps(doc).replace(repr(OVERFLOW_MARK), "1e999")
            with pytest.raises(GeoJsonError) as caught:
                read_geojson(text)
            assert message in str(caught.value)
            assert reader_outcome(read_geojson, text) == reader_outcome(lambda t: geojson_records_objects(json.loads(t)), text)

    @pytest.mark.parametrize("rings, want", [
        pytest.param([[[1.0, 1.0], [4.0, 1.0], [4.0, 4.0], [1.0, 2.0]], [[1.0, 1.0], [None, 1.0], [4.0, 4.0], [1.0, 1.0]]],
                     "feature 0: unclosed ring", id="unclosed-before-null"),
        pytest.param([[[1.0, 1.0], [None, 1.0], [4.0, 4.0], [1.0, 1.0]], [[1.0, 1.0], [4.0, 1.0], [4.0, 4.0], [1.0, 2.0]]],
                     "feature 0: bad position [None, 1.0]", id="null-before-unclosed"),
        pytest.param([[[1.0, 1.0], [4.0, 1.0], [4.0, 1.0], [4.0, 4.0], [1.0, 1.0]], [[1.0, 1.0], ["x", 1.0], [4.0, 4.0], [1.0, 1.0]]],
                     "feature 0: consecutive duplicate vertex Point2(x=4.0, y=1.0) at index 1", id="duplicate-before-string"),
        pytest.param([[["1.5", " 1 "], ["4", "1_0"], ["4e0", 4], ["1.5", "1"]]],
                     [[[1.5, 1.0], [4.0, 10.0], [4.0, 4.0], [1.5, 1.0]]], id="numeric-strings"),
        # json reads every NaN literal as one float object, which Python's
        # comparison finds equal to itself: the ring is closed, and not finite
        pytest.param([[[math.nan, 1.0], [4.0, 1.0], [4.0, 4.0], [math.nan, 1.0]]],
                     "feature 0: non-finite coordinates (nan, 1.0)", id="nan-closing-position"),
    ])
    def test_the_earlier_of_two_faults_is_named(self, rings, want):
        # one feature per ring: a later ring's fault is named only when every
        # earlier ring passes; without a fault, want holds the rings as numbers
        def text(rings):
            features = [{"type": "Feature", "geometry": {"type": "Polygon", "coordinates": [ring]}, "properties": {"tile_id": "a"}}
                        for ring in rings]
            return json.dumps({"type": "FeatureCollection", "tiles": [{"tile_id": "a", "image_size": [16, 16]}], "features": features})

        outcome = reader_outcome(read_geojson, text(rings))
        assert outcome == reader_outcome(lambda t: geojson_records_objects(json.loads(t)), text(rings))
        assert outcome == ((GeoJsonError, want) if isinstance(want, str) else reader_outcome(read_geojson, text(want)))

    def test_an_earlier_ring_fault_comes_before_a_later_feature_fault(self):
        good = [[1.0, 1.0], [4.0, 1.0], [4.0, 4.0], [1.0, 1.0]]
        unclosed = [[1.0, 1.0], [4.0, 1.0], [4.0, 4.0], [1.0, 2.0]]
        features = [
            {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": [good, unclosed]}, "properties": {"tile_id": "a"}},
            {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": [good]}, "properties": {"tile_id": "z"}},
        ]
        text = json.dumps({"type": "FeatureCollection", "tiles": [{"tile_id": "a", "image_size": [8, 8]}], "features": features})
        with pytest.raises(GeoJsonError, match="^feature 0: unclosed ring$"):
            read_geojson(text)
        features.reverse()
        text = json.dumps({"type": "FeatureCollection", "tiles": [{"tile_id": "a", "image_size": [8, 8]}], "features": features})
        with pytest.raises(GeoJsonError, match="^feature 0: unknown tile_id 'z'$"):
            read_geojson(text)


COCO_FAULTS = ("non-number", "short", "odd", "1e999", "duplicate", "outside", "unknown image", "rle", "none", "crowd")


@st.composite
def coco_documents(draw):
    """The text of a COCO document of two images whose annotations hold
    one to three random polygon arrays (closed or not, so holes may lie
    outside the largest ring), with up to three faults applied: a
    non-number value, fewer than 6 values, an odd count, 1e999, a
    consecutive duplicate, a vertex outside the frame, an unknown image_id,
    an RLE segmentation, a null value, or an iscrowd flag."""
    images = [{"id": 1, "file_name": "a", "height": 8, "width": 8}, {"id": 2, "file_name": "b", "height": 9, "width": 10}]
    annotations = []
    for k in range(draw(st.integers(0, 4))):
        seg = []
        for _ in range(draw(st.integers(1, 3))):
            pts = draw(st.lists(st.tuples(READER_COORDS, READER_COORDS), min_size=3, max_size=6, unique=True))
            seg.append([v for p in pts + pts[:1] * draw(st.integers(0, 1)) for v in p])
        annotations.append({"id": k + 1, "image_id": draw(st.sampled_from([1, 2])), "segmentation": seg,
                            "score": draw(st.floats(0.0, 1.0))})
    for _ in range(draw(st.integers(0, 3)) if annotations else 0):
        ann = draw(st.sampled_from(annotations))
        fault = draw(st.sampled_from(COCO_FAULTS))
        seg = ann["segmentation"]
        if not isinstance(seg, list):
            continue
        flat = draw(st.sampled_from(seg))
        i = draw(st.integers(0, len(flat) - 1))
        if fault == "non-number":
            flat[i] = draw(st.sampled_from(["x", [1.0], {"x": 1.0}]))
        elif fault == "short":
            del flat[4:]
        elif fault == "odd":
            flat.append(1.0)
        elif fault == "1e999":
            flat[i] = OVERFLOW_MARK
        elif fault == "duplicate" and len(flat) % 2 == 0:
            flat[i - i % 2 : i - i % 2] = flat[i - i % 2 : i - i % 2 + 2]
        elif fault == "outside":
            flat[i] = 10.5
        elif fault == "unknown image":
            ann["image_id"] = 7
        elif fault == "rle":
            ann["segmentation"] = {"counts": [1, 2], "size": [8, 8]}
        elif fault == "none":
            flat[i] = None
        elif fault == "crowd":
            ann["iscrowd"] = 1
    doc = {"images": images, "annotations": annotations, "categories": [{"id": 1, "name": "building"}]}
    return json.dumps(doc).replace(repr(OVERFLOW_MARK), "1e999")


def coco_outcome(read, text):
    """reader_outcome of a COCO reader on a document's text, with the
    messages of the warnings it gave, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = reader_outcome(read, text)
    return outcome, [str(w.message) for w in caught]


class TestCocoReaderOracle:
    """The COCO reader, which converts and checks every ring of a file in
    batched array passes, against the object-based reader it replaced:
    equal records, faults and warnings."""

    @settings(max_examples=300, deadline=None)
    @given(coco_documents())
    def test_generated_documents_read_as_the_object_reader_reads_them(self, text):
        want = coco_outcome(lambda t: coco_records_objects(json.loads(t)), text)
        assert coco_outcome(lambda t: _coco_records(json.loads(t)), text) == want

    @settings(max_examples=300, deadline=None)
    @given(mutated(VALID_COCO))
    def test_mutated_documents_read_as_the_object_reader_reads_them(self, doc):
        text = json.dumps(doc)
        want = coco_outcome(lambda t: coco_records_objects(json.loads(t)), text)
        assert coco_outcome(lambda t: _coco_records(json.loads(t)), text) == want


    @pytest.mark.parametrize("arrays, want", [
        pytest.param([[1.0, 1.0, 4.0, 1.0, 4.0, 1.0, 4.0, 4.0], [1.0, 1.0, "x", 1.0, 4.0, 4.0]],
                     "annotation 1: consecutive duplicate vertex Point2(x=4.0, y=1.0) at index 1", id="duplicate-before-string"),
        pytest.param([[1.0, 1.0, "x", 1.0, 4.0, 4.0], [1.0, 1.0, 4.0, 1.0, 4.0, 1.0, 4.0, 4.0]],
                     "annotation 1: bad coordinate 'x' at index 2", id="string-before-duplicate"),
        pytest.param([[1.0, 1.0, 4.0, 1.0, 4.0, 4.0], [1.0, None, 4.0, 1.0, 4.0, 4.0]],
                     "annotation 2: bad coordinate None at index 1", id="null"),
        pytest.param([[1.0, 1.0, 4.0, 1.0, 4.0, 4.0], [1.0, 1.0, 1e999, 1.0, 4.0, 4.0]],
                     "annotation 2: non-finite coordinates (inf, 1.0)", id="overflow"),
        pytest.param([["1.5", " 1 ", "4", "1_0", "4e0", 4, "1.5", "1"]],
                     [[1.5, 1.0, 4.0, 10.0, 4.0, 4.0, 1.5, 1.0]], id="numeric-strings"),
    ])
    def test_the_earlier_of_two_faults_is_named(self, arrays, want):
        # one annotation per polygon array: a later array's fault is named
        # only when every earlier array passes; without a fault, want holds
        # the arrays as numbers
        def text(arrays):
            annotations = [{"id": k + 1, "image_id": 1, "segmentation": [flat]} for k, flat in enumerate(arrays)]
            return json.dumps({"images": [{"id": 1, "file_name": "a", "height": 16, "width": 16}], "annotations": annotations})

        outcome = coco_outcome(lambda t: _coco_records(json.loads(t)), text(arrays))
        assert outcome == coco_outcome(lambda t: coco_records_objects(json.loads(t)), text(arrays))
        if isinstance(want, str):
            assert outcome == ((CocoError, want), [])
        else:
            assert outcome == coco_outcome(lambda t: _coco_records(json.loads(t)), text(want))


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_bytes(write_manifest(4, MANIFEST_TILES))
        assert read_manifest(path) == (4, MANIFEST_TILES)

    def test_layout(self):
        doc = {
            "version": 1,
            "scale": 4,
            "tiles": [
                {"tile_id": t.tile_id, "image_size": list(t.image_size), "grid_size": list(t.grid_size), "files": t.files}
                for t in MANIFEST_TILES
            ],
        }
        assert write_manifest(4, MANIFEST_TILES) == (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()

    @pytest.mark.parametrize("name", ["../x.rgf", "/tmp/x.rgf", "sub/x.rgf", "x.rgf/", "..", ".", "", "x\0.rgf", 7, None])
    def test_file_name_must_be_plain(self, tmp_path, name):
        doc = copy.deepcopy(VALID_MANIFEST)
        doc["tiles"][1]["files"]["heatmap"] = name
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="not a plain file name"):
            read_manifest(path)

    def test_plain_names_with_dots_are_kept(self, tmp_path):
        doc = copy.deepcopy(VALID_MANIFEST)
        doc["tiles"][0]["files"]["mask"] = "..a..b..rgf"
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        assert read_manifest(path)[1][0].files["mask"] == "..a..b..rgf"

    @pytest.mark.parametrize("kind", ["mask", "heatmap", "offsets"])
    def test_each_read_raster_is_required(self, tmp_path, kind):
        doc = copy.deepcopy(VALID_MANIFEST)
        del doc["tiles"][0]["files"][kind]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="files must name"):
            read_manifest(path)


class TestRenderSvg:
    def test_empty_document_valid(self):
        svg = render_svg([])
        assert svg.startswith("<?xml")
        assert "<svg" in svg and "</svg>" in svg

    def test_square_single_path_with_four_lines(self):
        records = [TileRecord("t", (16, 16), InstanceSet.of([rectangle(1, 1, 9, 9)]))]
        svg = render_svg(records)
        assert svg.count("<path") == 1
        path = [line for line in svg.splitlines() if "<path" in line][0]
        assert path.count("L ") == 4
        assert 'fill-rule="evenodd"' in path

    def test_deterministic(self):
        records = records_fixture()
        assert render_svg(records) == render_svg(records)

    def test_default_stroke_and_fill(self):
        svg = render_svg(records_fixture())
        assert 'stroke-width="1"' in svg and 'fill-opacity="0.45"' in svg

    def test_checker_background(self):
        svg = render_svg(records_fixture(), SvgStyle(background="checker"))
        assert "pattern" in svg and "url(#checker)" in svg

    def test_unknown_background_rejected(self):
        with pytest.raises(FormatError):
            SvgStyle(background="plaid")
