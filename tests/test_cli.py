import copy
import dataclasses
import json
import os
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from polyform import cli, polygonize, raster
from polyform.cli import main
from polyform.geometry import InstanceSet, Polygon, Ring
from polyform.io import TileRecord, read_geojson, read_rgf, write_coco_annotations, write_geojson, write_rgf
from polyform.metrics import EvalConfig
from polyform.polygonize import PolygonizeConfig
from polyform.raster import DegradeSpec, RasterGrid

from oracles import afm_full_sweep
from synth import annulus, random_tile, rectangle


@pytest.fixture()
def gt_geojson(tmp_path):
    records = [
        TileRecord("t0", (32, 32), InstanceSet.of([rectangle(2, 2, 12, 10), rectangle(18, 18, 28, 28)])),
        TileRecord("t1", (32, 32), InstanceSet.of([annulus(4, 4, 26, 26, 10, 10, 18, 18)])),
    ]
    path = tmp_path / "gt.geojson"
    path.write_bytes(write_geojson(records))
    return path


def read_all_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestEncode:
    def test_writes_four_rasters_and_manifest(self, gt_geojson, tmp_path):
        out = tmp_path / "rasters"
        assert main(["encode", str(gt_geojson), str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["tiles"]) == 2
        for entry in manifest["tiles"]:
            assert set(entry["files"]) == {"mask", "afm", "heatmap", "offsets"}
            for name in entry["files"].values():
                assert (out / name).exists()

    def test_rerun_is_byte_identical(self, gt_geojson, tmp_path):
        out = tmp_path / "rasters"
        main(["encode", str(gt_geojson), str(out)])
        first = read_all_bytes(out)
        main(["encode", str(gt_geojson), str(out)])
        assert read_all_bytes(out) == first

    def test_reencode_leaves_an_open_reader_the_earlier_file(self, tmp_path):
        # the earlier raster is removed and a new file created, so a handle
        # on it still reads the complete earlier bytes, not the new ones
        def gt(x0):
            path = tmp_path / f"gt{x0}.geojson"
            path.write_bytes(write_geojson([TileRecord("t", (32, 32), InstanceSet.of([rectangle(x0, 4, x0 + 10, 14)]))]))
            return path

        out, fresh = tmp_path / "rasters", tmp_path / "fresh"
        assert main(["encode", str(gt(2)), str(out)]) == 0
        earlier = (out / "t.afm.rgf").read_bytes()
        assert main(["encode", str(gt(12)), str(fresh)]) == 0
        with (out / "t.afm.rgf").open("rb") as reader:
            assert main(["encode", str(gt(12)), str(out)]) == 0
            assert reader.read() == earlier
        assert (out / "t.afm.rgf").read_bytes() == (fresh / "t.afm.rgf").read_bytes() != earlier

    def test_reencode_over_an_earlier_run_equals_a_fresh_encode(self, gt_geojson, tmp_path):
        # the earlier run's files are longer (larger frames) and hold other
        # buildings; none of their bytes survive
        records = [
            TileRecord("t0", (48, 40), InstanceSet.of([rectangle(20, 24, 36, 44)])),
            TileRecord("t1", (48, 40), InstanceSet()),
        ]
        earlier = tmp_path / "earlier.geojson"
        earlier.write_bytes(write_geojson(records))
        out, fresh = tmp_path / "rasters", tmp_path / "fresh"
        assert main(["encode", str(earlier), str(out)]) == 0
        assert main(["encode", str(gt_geojson), str(out)]) == 0
        assert main(["encode", str(gt_geojson), str(fresh)]) == 0
        assert read_all_bytes(out) == read_all_bytes(fresh)

    def test_short_writes_are_continued(self, gt_geojson, tmp_path, monkeypatch):
        # os.writev may write less than it was given; the rest follows in
        # further calls, a header and a payload split anywhere (a loop that
        # makes no progress fails on the call count, not on a full disk)
        fresh, out = tmp_path / "fresh", tmp_path / "rasters"
        assert main(["encode", str(gt_geojson), str(fresh)]) == 0
        writev, calls = os.writev, []

        def short(fd, buffers):
            assert len(calls) < 1000
            left, cut = 333, []
            for buffer in buffers:
                cut.append(memoryview(buffer)[:left])
                left -= len(cut[-1])
                if not left:
                    break
            calls.append(len(cut))
            return writev(fd, cut)

        monkeypatch.setattr(cli.os, "writev", short)
        assert main(["encode", str(gt_geojson), str(out)]) == 0
        assert len(calls) > 9 and 2 in calls
        assert read_all_bytes(out) == read_all_bytes(fresh)

    def test_symlink_at_a_raster_path_is_replaced_not_followed(self, gt_geojson, tmp_path):
        out, outside = tmp_path / "rasters", tmp_path / "outside.bin"
        out.mkdir()
        outside.write_bytes(b"not a raster")
        (out / "t0.mask.rgf").symlink_to(outside)
        assert main(["encode", str(gt_geojson), str(out)]) == 0
        assert outside.read_bytes() == b"not a raster"
        assert not (out / "t0.mask.rgf").is_symlink()
        assert read_rgf((out / "t0.mask.rgf").read_bytes()).height == 32

    def test_scale_four_on_512_gives_128_grids(self, tmp_path):
        records = [TileRecord("big", (512, 512), InstanceSet.of([rectangle(40, 40, 200, 160)]))]
        src = tmp_path / "gt.geojson"
        src.write_bytes(write_geojson(records))
        out = tmp_path / "rasters"
        assert main(["encode", str(src), str(out), "--size", "512x512", "--scale", "4"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tiles"][0]["grid_size"] == [128, 128]
        grid = read_rgf((out / manifest["tiles"][0]["files"]["mask"]).read_bytes())
        assert (grid.height, grid.width) == (128, 128)

    def test_coco_input_accepted(self, tmp_path):
        records = [TileRecord("c0", (32, 32), InstanceSet.of([rectangle(2, 2, 12, 10)]))]
        src = tmp_path / "gt_coco.json"
        src.write_bytes(write_coco_annotations(records))
        out = tmp_path / "rasters"
        assert main(["encode", str(src), str(out)]) == 0

    def test_per_tile_error_reported(self, tmp_path, capsys):
        # a 15-row frame does not divide into 2 x 2 grid pixels
        records = [
            TileRecord("good", (16, 16), InstanceSet.of([rectangle(2, 2, 9, 9)])),
            TileRecord("odd", (15, 16), InstanceSet.of([rectangle(2, 2, 9, 9)])),
        ]
        src = tmp_path / "gt.geojson"
        src.write_bytes(write_geojson(records))
        out = tmp_path / "rasters"
        assert main(["encode", str(src), str(out), "--scale", "2"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"errors": [{"tile_id": "odd", "error": "ValueError: size 15x16 not divisible by scale 2"}]}
        manifest = json.loads((out / "manifest.json").read_text())
        assert [t["tile_id"] for t in manifest["tiles"]] == ["good"]

    def test_tile_without_buildings_encodes(self, tmp_path, capsys):
        records = [
            TileRecord("a", (16, 16), InstanceSet()),
            TileRecord("b", (16, 16), InstanceSet.of([rectangle(2, 2, 9, 9)])),
        ]
        gt = tmp_path / "gt.geojson"
        gt.write_bytes(write_geojson(records))
        out, pred, report = tmp_path / "rasters", tmp_path / "pred.geojson", tmp_path / "report.json"
        assert main(["encode", str(gt), str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [t["tile_id"] for t in manifest["tiles"]] == ["a", "b"]
        afm = read_rgf((out / manifest["tiles"][0]["files"]["afm"]).read_bytes())
        assert afm.dtype_name == "f32" and afm.data.shape == (16, 16, 2) and not afm.data.any()
        assert main(["polygonize", str(out), str(pred)]) == 0
        assert main(["eval", str(pred), str(gt), str(report)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(report.read_text())["ap"] == 1.0

    def test_edge_whose_square_underflows_encodes_without_warning(self, tmp_path, capsys):
        # the closing edge (0, 5.8e-242) -> (0, 0) has a squared length of 0,
        # so its projection divides by zero; the suite turns a RuntimeWarning
        # into an error, and the command's stderr holds one JSON object only
        inst = InstanceSet.of([Polygon.from_coords([(0, 0), (0, 0.25), (0, 5.8e-242)])])
        src = tmp_path / "tiny.geojson"
        src.write_bytes(write_geojson([TileRecord("t", (8, 8), inst)]))
        out = tmp_path / "rasters"
        assert main(["encode", str(src), str(out)]) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and isinstance(json.loads(err), dict) and "Warning" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        afm = read_rgf((out / manifest["tiles"][0]["files"]["afm"]).read_bytes())
        with np.errstate(divide="ignore", invalid="ignore"):  # the oracle divides by the same 0
            assert np.array_equal(afm.data, afm_full_sweep(inst, 8, 8))

    def test_raster_write_fault_fails_only_its_tile(self, gt_geojson, tmp_path, capsys):
        out = tmp_path / "rasters"
        out.mkdir()
        (out / "t0.afm.rgf").mkdir()  # in the way of t0's attraction field
        assert main(["encode", str(gt_geojson), str(out)]) == 1
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert [e["tile_id"] for e in errors] == ["t0"]
        assert errors[0]["error"].startswith("IsADirectoryError: ")
        assert not (out / "t0.mask.rgf").exists()  # written before the fault, then removed
        manifest = json.loads((out / "manifest.json").read_text())
        assert [t["tile_id"] for t in manifest["tiles"]] == ["t1"]
        for name in manifest["tiles"][0]["files"].values():
            assert read_rgf((out / name).read_bytes()).height == 32

    @pytest.mark.parametrize("target", ["{file}", "{file}/sub"], ids=["file", "under-a-file"])
    def test_output_directory_fault_is_named_error(self, gt_geojson, tmp_path, capsys, target):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(["encode", str(gt_geojson), target.format(file=blocker)]) == 1
        err = json.loads(capsys.readouterr().err)
        kind = "FileExistsError" if target == "{file}" else "NotADirectoryError"
        assert len(err["errors"]) == 1 and err["errors"][0]["tile_id"] is None
        assert err["errors"][0]["error"].startswith(f"{kind}: ")

    def test_memory_holds_one_tile(self, tmp_path, monkeypatch):
        # rasters are written per tile, so the peak does not grow with the
        # number of tiles in the run
        monkeypatch.setenv("POLYFORM_WORKERS", "1")
        rng = np.random.default_rng(7)
        records = [TileRecord(f"r{i}", (128, 128), random_tile(rng, 128, 128)) for i in range(8)]
        peaks = []
        for count in (2, 8):
            gt = tmp_path / f"gt{count}.geojson"
            gt.write_bytes(write_geojson(records[:count]))
            tracemalloc.start()
            try:
                assert main(["encode", str(gt), str(tmp_path / f"rasters{count}")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks


def _manifest_edit(edit):
    return lambda manifest, outside: edit(manifest)


def _tile_file(name):
    def edit(manifest, outside):
        manifest["tiles"][0]["files"]["mask"] = name(outside)
    return edit


# faults of an encoded (scale 1, two-tile) manifest.json; each was read past,
# or followed out of the raster directory, before the manifest was checked
MANIFEST_FAULTS = {
    "scale-missing": _manifest_edit(lambda m: m.pop("scale")),
    "scale-zero": _manifest_edit(lambda m: m.update(scale=0)),
    "scale-float": _manifest_edit(lambda m: m.update(scale=1.0)),
    "scale-bool": _manifest_edit(lambda m: m.update(scale=True)),
    "image-not-grid-times-scale": _manifest_edit(lambda m: m.update(scale=2)),
    "tile-id-repeated": _manifest_edit(lambda m: m["tiles"][1].update(tile_id=m["tiles"][0]["tile_id"])),
    "tile-id-not-string": _manifest_edit(lambda m: m["tiles"][0].update(tile_id=7)),
    "file-name-parent-dir": _tile_file(lambda outside: f"../{outside.name}"),
    "file-name-absolute": _tile_file(lambda outside: str(outside)),
}


class TestPolygonize:
    def test_roundtrip_through_files(self, gt_geojson, tmp_path):
        out = tmp_path / "rasters"
        main(["encode", str(gt_geojson), str(out)])
        dst = tmp_path / "pred.geojson"
        assert main(["polygonize", str(out), str(dst)]) == 0
        records = read_geojson(dst.read_bytes())
        gt = read_geojson(gt_geojson.read_bytes())
        assert [r.tile_id for r in records] == [r.tile_id for r in gt]
        got = {
            tile.tile_id: sorted(
                sorted((v.x, v.y) for v in sp.polygon.all_vertices()) for sp in tile.instances
            )
            for tile in records
        }
        want = {
            tile.tile_id: sorted(
                sorted((v.x, v.y) for v in sp.polygon.all_vertices()) for sp in tile.instances
            )
            for tile in gt
        }
        assert got == want

    def test_flags_echoed_in_metadata(self, gt_geojson, tmp_path):
        out = tmp_path / "rasters"
        main(["encode", str(gt_geojson), str(out)])
        dst = tmp_path / "pred.geojson"
        main(["polygonize", str(out), str(dst)])
        doc = json.loads(dst.read_bytes())
        assert doc["metadata"]["mask_threshold"] == 0.5
        assert doc["metadata"]["topk"] == 300
        assert doc["metadata"]["vertex_threshold"] == 0.008
        assert doc["metadata"]["attract_dist"] == 5.0
        assert doc["metadata"]["merge_angle"] == 10.0

    def test_missing_raster_fails_only_its_tile(self, gt_geojson, tmp_path, capsys):
        out = tmp_path / "rasters"
        main(["encode", str(gt_geojson), str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        heatmap = out / manifest["tiles"][0]["files"]["heatmap"]
        heatmap.unlink()
        dst = tmp_path / "pred.geojson"
        assert main(["polygonize", str(out), str(dst)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"errors": [{"tile_id": "t0", "error": f"missing raster: {heatmap}"}]}
        assert [r.tile_id for r in read_geojson(dst.read_bytes())] == ["t1"]

    def test_raster_path_that_is_a_directory_fails_only_its_tile(self, gt_geojson, tmp_path, capsys):
        out = tmp_path / "rasters"
        main(["encode", str(gt_geojson), str(out)])
        mask = out / json.loads((out / "manifest.json").read_text())["tiles"][0]["files"]["mask"]
        mask.unlink()
        mask.mkdir()
        dst = tmp_path / "pred.geojson"
        assert main(["polygonize", str(out), str(dst)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"errors": [{"tile_id": "t0", "error": f"IsADirectoryError: [Errno 21] Is a directory: '{mask}'"}]}
        assert [r.tile_id for r in read_geojson(dst.read_bytes())] == ["t1"]

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_rasters_are_released_when_polygonize_returns(self, gt_geojson, tmp_path, monkeypatch, workers):
        # no mapping of a raster, nor the descriptor mmap holds, outlives its tile
        out = tmp_path / "rasters"
        main(["encode", str(gt_geojson), str(out)])
        monkeypatch.setenv("POLYFORM_WORKERS", workers)
        mapped = []
        map_rgf = cli.pio.map_rgf
        monkeypatch.setattr(cli.pio, "map_rgf", lambda path: mapped.append(path) or map_rgf(path))
        assert main(["polygonize", str(out), str(tmp_path / "pred.geojson")]) == 0
        assert len(mapped) == 6
        raster_dir = os.path.realpath(out) + os.sep
        assert raster_dir not in Path("/proc/self/maps").read_text()
        fds = [os.readlink(fd) for fd in Path("/proc/self/fd").iterdir() if fd.is_symlink()]
        assert not [target for target in fds if target.startswith(raster_dir)]

    def test_mapped_grid_keeps_its_values_when_encode_reruns(self, tmp_path):
        def gt(x0):
            path = tmp_path / f"gt{x0}.geojson"
            path.write_bytes(write_geojson([TileRecord("t", (32, 32), InstanceSet.of([rectangle(x0, 4, x0 + 10, 14)]))]))
            return path

        out = tmp_path / "rasters"
        assert main(["encode", str(gt(2)), str(out)]) == 0
        earlier = read_rgf((out / "t.mask.rgf").read_bytes()).data
        mapped = cli.pio.map_rgf(out / "t.mask.rgf")
        assert main(["encode", str(gt(12)), str(out)]) == 0
        later = read_rgf((out / "t.mask.rgf").read_bytes()).data
        assert not np.array_equal(later, earlier)
        assert np.array_equal(mapped.data, earlier)
        assert np.array_equal(cli.pio.map_rgf(out / "t.mask.rgf").data, later)

    def test_raster_not_of_grid_size_fails_its_tile(self, tmp_path, capsys):
        records = [
            TileRecord("big", (16, 16), InstanceSet.of([rectangle(2, 2, 12, 12)])),
            TileRecord("ok", (16, 16), InstanceSet.of([rectangle(2, 2, 12, 12)])),
        ]
        gt = tmp_path / "gt.geojson"
        gt.write_bytes(write_geojson(records))
        out, pred = tmp_path / "rasters", tmp_path / "pred.geojson"
        assert main(["encode", str(gt), str(out)]) == 0
        files = json.loads((out / "manifest.json").read_text())["tiles"][0]["files"]
        for kind in ("mask", "heatmap", "offsets"):
            path = out / files[kind]
            path.write_bytes(write_rgf(RasterGrid(read_rgf(path.read_bytes()).data[:8, :8])))
        assert main(["polygonize", str(out), str(pred)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"errors": [{"tile_id": "big", "error": "ManifestError: tile 'big': mask raster is 8x8, grid_size is 16x16"}]}
        assert [r.tile_id for r in read_geojson(pred.read_bytes())] == ["ok"]

    @pytest.mark.parametrize("kind, channels", [("offsets", 1), ("mask", 3)])
    def test_raster_of_wrong_channel_count_fails_its_tile(self, tmp_path, capsys, kind, channels):
        records = [
            TileRecord("bad", (16, 16), InstanceSet.of([rectangle(2, 2, 12, 12)])),
            TileRecord("ok", (16, 16), InstanceSet.of([rectangle(2, 2, 12, 12)])),
        ]
        gt = tmp_path / "gt.geojson"
        gt.write_bytes(write_geojson(records))
        out, pred = tmp_path / "rasters", tmp_path / "pred.geojson"
        assert main(["encode", str(gt), str(out)]) == 0
        path = out / json.loads((out / "manifest.json").read_text())["tiles"][0]["files"][kind]
        data = read_rgf(path.read_bytes()).data
        path.write_bytes(write_rgf(RasterGrid(np.repeat(data[:, :, :1], channels, axis=2))))
        assert main(["polygonize", str(out), str(pred)]) == 1
        err = json.loads(capsys.readouterr().err)
        want = f"ManifestError: tile 'bad': {kind} raster has channel count {channels}, expected {2 if kind == 'offsets' else 1}"
        assert err == {"errors": [{"tile_id": "bad", "error": want}]}
        assert [r.tile_id for r in read_geojson(pred.read_bytes())] == ["ok"]

    def test_non_finite_soft_mask_fails_its_tile(self, tmp_path, capsys):
        records = [TileRecord(tile_id, (16, 16), InstanceSet.of([rectangle(2, 2, 12, 12)])) for tile_id in ("inf", "ok")]
        gt = tmp_path / "gt.geojson"
        gt.write_bytes(write_geojson(records))
        out, pred = tmp_path / "rasters", tmp_path / "pred.geojson"
        assert main(["encode", str(gt), str(out)]) == 0
        path = out / json.loads((out / "manifest.json").read_text())["tiles"][0]["files"]["mask"]
        soft = read_rgf(path.read_bytes()).data.astype(np.float32)
        soft[6, 6, 0] = np.inf  # one pixel inside the building
        path.write_bytes(write_rgf(RasterGrid(soft)))
        assert main(["polygonize", str(out), str(pred)]) == 1
        err = json.loads(capsys.readouterr().err)
        want = "PolygonizeError: component 1 at row 2, col 2: soft-mask mean inf is not finite"
        assert err == {"errors": [{"tile_id": "inf", "error": want}]}
        assert [r.tile_id for r in read_geojson(pred.read_bytes())] == ["ok"]

    def test_unknown_flag_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["polygonize", "x", "y", "--frobnicate", "1"])
        assert err.value.code == 2

    def test_topk_zero_validation_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["polygonize", str(tmp_path), str(tmp_path / "o.geojson"), "--topk", "0"])
        assert err.value.code == 2

    @pytest.mark.parametrize("text", ['{"tiles": [', "[]", '{"tiles": 5}', '{"tiles": [{"files": {}}]}',
                                      pytest.param("[" * 100000 + "]" * 100000, id="deep-nesting")])
    def test_corrupt_manifest_is_named_error(self, tmp_path, capsys, text):
        raster_dir = tmp_path / "rasters"
        raster_dir.mkdir()
        (raster_dir / "manifest.json").write_text(text)
        assert main(["polygonize", str(raster_dir), str(tmp_path / "o.geojson")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "corrupt manifest" in err["errors"][0]["error"]
        assert not (tmp_path / "o.geojson").exists()

    def test_missing_manifest_is_named_error(self, tmp_path, capsys):
        assert main(["polygonize", str(tmp_path / "nowhere"), str(tmp_path / "o.geojson")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "manifest" in err["errors"][0]["error"]

    @pytest.mark.parametrize("argv", [["polygonize", "{gt}", "{tmp}/o.geojson"],
                                      ["eval", "{gt}/pred.geojson", "{gt}", "{tmp}/o.geojson"]])
    def test_path_under_a_file_is_missing_file(self, gt_geojson, tmp_path, capsys, argv):
        assert main([arg.format(gt=gt_geojson, tmp=tmp_path) for arg in argv]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["errors"][0]["error"].startswith(f"missing file: {gt_geojson}/")
        assert not (tmp_path / "o.geojson").exists()

    def test_output_onto_a_directory_is_named_error(self, gt_geojson, tmp_path, capsys, monkeypatch):
        out, dst = tmp_path / "rasters", tmp_path / "pred.geojson"
        assert main(["encode", str(gt_geojson), str(out)]) == 0
        dst.mkdir()
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(cli, "polygonize_pipeline", lambda *args: calls.append(args))
        assert main(["polygonize", str(out), str(dst)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert len(err["errors"]) == 1 and err["errors"][0]["tile_id"] is None
        assert err["errors"][0]["error"].startswith("IsADirectoryError: ")
        assert calls == []  # the output is opened before any tile is polygonized

    def test_scale_and_frame_come_from_the_manifest(self, tmp_path):
        records = [TileRecord("big", (512, 512), InstanceSet.of([rectangle(40, 40, 200, 160)]))]
        gt = tmp_path / "gt.geojson"
        gt.write_bytes(write_geojson(records))
        out, pred, report = tmp_path / "rasters", tmp_path / "pred.geojson", tmp_path / "report.json"
        assert main(["encode", str(gt), str(out), "--scale", "4"]) == 0
        assert main(["polygonize", str(out), str(pred)]) == 0
        doc = json.loads(pred.read_bytes())
        assert doc["tiles"] == [{"tile_id": "big", "image_size": [512, 512]}]
        assert doc["metadata"]["scale"] == 4.0 and isinstance(doc["metadata"]["scale"], float)
        assert main(["eval", str(pred), str(gt), str(report)]) == 0
        assert json.loads(report.read_text())["iou"] == 1.0

    def test_scale_flag_is_gone(self, gt_geojson, tmp_path):
        out = tmp_path / "rasters"
        main(["encode", str(gt_geojson), str(out), "--scale", "4"])
        with pytest.raises(SystemExit) as err:
            main(["polygonize", str(out), str(tmp_path / "o.geojson"), "--scale", "4"])
        assert err.value.code == 2
        assert not (tmp_path / "o.geojson").exists()

    @pytest.mark.parametrize("fault", sorted(MANIFEST_FAULTS))
    def test_manifest_fault_is_named_error(self, gt_geojson, tmp_path, capsys, monkeypatch, fault):
        out = tmp_path / "rasters"
        assert main(["encode", str(gt_geojson), str(out)]) == 0
        outside = tmp_path / "outside.mask.rgf"  # a real raster, so a reader that follows the name succeeds
        outside.write_bytes((out / "t0.mask.rgf").read_bytes())
        manifest = json.loads((out / "manifest.json").read_text())
        MANIFEST_FAULTS[fault](manifest, outside)
        (out / "manifest.json").write_text(json.dumps(manifest))
        opened = []
        monkeypatch.setattr(cli.pio, "map_rgf", lambda path: opened.append(path))  # polygonize's one raster reader
        capsys.readouterr()
        assert main(["polygonize", str(out), str(tmp_path / "o.geojson")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert len(err["errors"]) == 1 and "corrupt manifest" in err["errors"][0]["error"]
        assert opened == []
        assert not (tmp_path / "o.geojson").exists()


# flag values the command would reject, with the output each would write
BAD_FLAG_VALUES = [
    (["roundtrip", "{gt}", "{tmp}/r.json", "--spurious", "-1"], "r.json"),
    (["roundtrip", "{gt}", "{tmp}/r.json", "--vertex-dropout", "2"], "r.json"),
    (["roundtrip", "{gt}", "{tmp}/r.json", "--dilate", "-1"], "r.json"),
    (["roundtrip", "{gt}", "{tmp}/r.json", "--jitter-sigma", "nan"], "r.json"),
    (["roundtrip", "{gt}", "{tmp}/r.json", "--heatmap-noise-sigma", "inf"], "r.json"),
    (["roundtrip", "{gt}", "{tmp}/r.json", "--seed", "-1"], "r.json"),
    (["roundtrip", "{gt}", "{tmp}/r.json", "--seed", str(2**128)], "r.json"),
    (["encode", "{gt}", "{tmp}/rasters", "--scale", "0"], "rasters"),
    (["encode", "{gt}", "{tmp}/rasters", "--scale", "-2"], "rasters"),
    (["encode", "{gt}", "{tmp}/rasters", "--size", "0x0"], "rasters"),
    (["encode", "{gt}", "{tmp}/rasters", "--size", "512x511", "--scale", "2"], "rasters"),
    (["roundtrip", "{gt}", "{tmp}/r.json", "--size", "0x32"], "r.json"),
    (["roundtrip", "{gt}", "{tmp}/r.json", "--size", "512x510", "--scale", "4"], "r.json"),
    (["polygonize", "{tmp}", "{tmp}/o.geojson", "--attract-dist", "nan"], "o.geojson"),
    (["polygonize", "{tmp}", "{tmp}/o.geojson", "--attract-dist", "inf"], "o.geojson"),
    (["polygonize", "{tmp}", "{tmp}/o.geojson", "--merge-angle", "inf"], "o.geojson"),
    (["polygonize", "{tmp}", "{tmp}/o.geojson", "--dp-fallback-tolerance", "nan"], "o.geojson"),
    (["roundtrip", "{gt}", "{tmp}/r.json", "--attract-dist", "nan"], "r.json"),
    (["eval", "{gt}", "{gt}", "{tmp}/r.json", "--iou-thr", "nan"], "r.json"),
    (["eval", "{gt}", "{gt}", "{tmp}/r.json", "--iou-thr", "1.5"], "r.json"),
    (["eval", "{gt}", "{gt}", "{tmp}/r.json", "--vertex-dist-thr", "0"], "r.json"),
    (["eval", "{gt}", "{gt}", "{tmp}/r.json", "--vertex-dist-thr", "inf"], "r.json"),
]


@pytest.mark.parametrize("argv, output", BAD_FLAG_VALUES, ids=lambda v: " ".join(v[-2:]) if isinstance(v, list) else None)
def test_bad_flag_value_is_usage_error(gt_geojson, tmp_path, capsys, argv, output):
    with pytest.raises(SystemExit) as err:
        main([arg.format(gt=gt_geojson, tmp=tmp_path) for arg in argv])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    # the subcommand's usage and prog, for a value its config rejects as
    # for one argparse's own type check rejects
    assert f"usage: polyform {argv[0]} " in stderr
    assert f"polyform {argv[0]}: error: " in stderr
    assert not (tmp_path / output).exists()
    # a config flag is named as argparse names one with a bad type
    config_dests = {*cli._POLYGONIZE_FLAGS, *cli._EVAL_FLAGS, *cli._DEGRADE_FLAGS}
    for flag in argv:
        if flag.startswith("--") and flag[2:].replace("-", "_") in config_dests:
            assert f"error: argument {flag}: " in stderr


def test_config_flags_come_from_the_dataclasses():
    parser = cli.build_parser()
    commands = {
        ("polygonize", "r", "o.geojson"): [(PolygonizeConfig, cli._POLYGONIZE_FLAGS)],
        ("eval", "p", "g", "r.json"): [(EvalConfig, cli._EVAL_FLAGS)],
        ("roundtrip", "g", "r.json"): [(PolygonizeConfig, cli._POLYGONIZE_FLAGS), (DegradeSpec, cli._DEGRADE_FLAGS)],
    }
    unflagged = set()
    for argv, tables in commands.items():
        args = parser.parse_args(argv)
        for cls, table in tables:
            assert cli._config(cls, table, args) == cls()
            assert len(set(table.values())) == len(table)  # every flag sets its own field
            unflagged |= {(cls.__name__, f.name) for f in dataclasses.fields(cls) if f.name not in table.values()}
    # the scale comes from the manifest (polygonize) or --scale (roundtrip)
    assert unflagged == {("PolygonizeConfig", "scale"), ("EvalConfig", "boundary_d_frac")}


def _read_fifo(path: Path) -> tuple[threading.Thread, list[bytes]]:
    """A thread that reads everything written to the FIFO at path."""
    data: list[bytes] = []

    def read():
        with open(path, "rb") as f:
            data.append(f.read())

    thread = threading.Thread(target=read)
    thread.start()
    return thread, data


@pytest.mark.parametrize("command", ["polygonize", "eval", "render"])
def test_output_to_a_fifo(gt_geojson, tmp_path, command):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    if command == "polygonize":
        assert main(["encode", str(gt_geojson), str(tmp_path / "rasters")]) == 0
        argv = ["polygonize", str(tmp_path / "rasters"), str(fifo)]
    elif command == "eval":
        argv = ["eval", str(gt_geojson), str(gt_geojson), str(fifo)]
    else:
        argv = ["render", str(gt_geojson), str(fifo)]
    thread, data = _read_fifo(fifo)
    try:
        assert main(argv) == 0
    finally:
        if thread.is_alive() and not data:  # the command never opened the FIFO: let the reader end
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        thread.join(timeout=10)
    if command == "polygonize":
        assert [r.tile_id for r in read_geojson(data[0])] == ["t0", "t1"]
    elif command == "eval":
        assert json.loads(data[0])["ap"] == pytest.approx(1.0)
    else:
        assert data[0] == render_bytes(gt_geojson, tmp_path / "file.svg")


class TestEval:
    def test_self_eval_perfect(self, gt_geojson, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["eval", str(gt_geojson), str(gt_geojson), str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["ap"] == 1.0
        assert report["polis_mean"] == 0.0
        out = capsys.readouterr().out
        assert "ap50" in out

    def test_empty_predictions_zero_ap(self, gt_geojson, tmp_path):
        gt = read_geojson(gt_geojson.read_bytes())
        empties = [TileRecord(r.tile_id, r.image_size, InstanceSet()) for r in gt]
        pred_path = tmp_path / "empty.geojson"
        pred_path.write_bytes(write_geojson(empties))
        report_path = tmp_path / "report.json"
        assert main(["eval", str(pred_path), str(gt_geojson), str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["ap"] == 0.0

    def test_report_readable_as_json(self, gt_geojson, tmp_path):
        report_path = tmp_path / "report.json"
        main(["eval", str(gt_geojson), str(gt_geojson), str(report_path)])
        payload = json.loads(report_path.read_text())
        assert set(payload) >= {"ap", "ap50", "ar", "polis_mean", "ciou", "iou", "vertex_f1"}

    def test_tile_mismatch_lists_ids(self, gt_geojson, tmp_path, capsys):
        gt = read_geojson(gt_geojson.read_bytes())
        partial = tmp_path / "partial.geojson"
        partial.write_bytes(write_geojson(gt[:1]))
        assert main(["eval", str(partial), str(gt_geojson), str(tmp_path / "r.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "t1" in err["errors"][0]["error"]

    def test_tile_size_mismatch_named(self, tmp_path, capsys):
        pred, gt = tmp_path / "pred.geojson", tmp_path / "gt.geojson"
        pred.write_bytes(write_geojson([TileRecord("t0", (32, 32), InstanceSet.of([rectangle(2, 2, 30, 30)]))]))
        gt.write_bytes(write_geojson([TileRecord("t0", (16, 16), InstanceSet.of([rectangle(2, 2, 10, 10)]))]))
        assert main(["eval", str(pred), str(gt), str(tmp_path / "r.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "'t0'" in err["errors"][0]["error"] and "32x32" in err["errors"][0]["error"]
        assert not (tmp_path / "r.json").exists()

    def test_report_onto_a_directory_is_named_error(self, gt_geojson, tmp_path, capsys, monkeypatch):
        report = tmp_path / "report.json"
        report.mkdir()
        calls = []
        monkeypatch.setattr(cli, "evaluate_corpus", lambda *args: calls.append(args))
        assert main(["eval", str(gt_geojson), str(gt_geojson), str(report)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert len(err["errors"]) == 1 and err["errors"][0]["tile_id"] is None
        assert err["errors"][0]["error"].startswith("IsADirectoryError: ")
        assert calls == []  # the report is opened before the corpus is evaluated

    def test_earlier_report_survives_a_failed_eval(self, tmp_path, capsys):
        pred, gt, report = tmp_path / "pred.geojson", tmp_path / "gt.geojson", tmp_path / "r.json"
        pred.write_bytes(write_geojson([TileRecord("t0", (32, 32), InstanceSet.of([rectangle(2, 2, 30, 30)]))]))
        gt.write_bytes(write_geojson([TileRecord("t0", (16, 16), InstanceSet.of([rectangle(2, 2, 10, 10)]))]))
        report.write_text('{"ap": 0.5}\n')
        assert main(["eval", str(pred), str(gt), str(report)]) == 1
        assert "MetricsError: " in json.loads(capsys.readouterr().err)["errors"][0]["error"]
        assert report.read_text() == '{"ap": 0.5}\n'

    def test_longer_earlier_report_is_replaced_whole(self, gt_geojson, tmp_path):
        report = tmp_path / "r.json"
        report.write_text("x" * 100_000)
        assert main(["eval", str(gt_geojson), str(gt_geojson), str(report)]) == 0
        assert json.loads(report.read_text())["ap"] == pytest.approx(1.0)

    def test_coco_fault_follows_the_warning_of_the_annotation_before_it(self, gt_geojson, tmp_path, capsys):
        # annotation 1 is read and warned about, then the entry after it ends the run
        gt, report = tmp_path / "gt.coco.json", tmp_path / "r.json"
        disjoint = {"id": 1, "image_id": 1, "segmentation": [[8, 8, 40, 8, 40, 32, 8, 32], [50, 50, 52, 50, 52, 52]]}
        gt.write_text(json.dumps({
            "images": [{"id": 1, "file_name": "t0", "height": 64, "width": 64}], "annotations": [disjoint, 7],
        }))
        assert main(["eval", str(gt_geojson), str(gt), str(report)]) == 1
        assert capsys.readouterr().err == (
            '{"errors": [{"error": "CocoError: annotation 1: not an object", "tile_id": null}], '
            '"warnings": ["annotation 1: disjoint ring treated as hole"]}\n'
        )
        assert not report.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "none.geojson"), str(tmp_path / "g.json"), str(tmp_path / "r.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "missing file" in err["errors"][0]["error"]


class TestUnreadableInput:
    COMMANDS = {
        "eval": lambda src, gt, tmp: ["eval", src, gt, str(tmp / "r.json")],
        "encode": lambda src, gt, tmp: ["encode", src, str(tmp / "rasters")],
        "roundtrip": lambda src, gt, tmp: ["roundtrip", src, str(tmp / "r.json")],
        "render": lambda src, gt, tmp: ["render", src, str(tmp / "o.svg")],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_non_utf8_file_is_named_error(self, gt_geojson, tmp_path, capsys, command):
        bad = tmp_path / "utf16.geojson"
        bad.write_bytes(b"\xff\xfe" + '{"type": "FeatureCollection"}'.encode("utf-16-le"))
        assert main(self.COMMANDS[command](str(bad), str(gt_geojson), tmp_path)) == 1
        err = json.loads(capsys.readouterr().err)
        assert "FormatError" in err["errors"][0]["error"] and "UTF-8" in err["errors"][0]["error"]
        assert err["errors"][0]["error"].count(str(bad)) == 1

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_directory_as_input_is_named_error(self, gt_geojson, tmp_path, capsys, command):
        folder = tmp_path / "folder"
        folder.mkdir()
        assert main(self.COMMANDS[command](str(folder), str(gt_geojson), tmp_path)) == 1
        err = json.loads(capsys.readouterr().err)
        assert "directory" in err["errors"][0]["error"]
        assert err["errors"][0]["error"].count(str(folder)) == 1


COCO_DOC = {
    "images": [{"id": 1, "file_name": "a", "height": 16, "width": 16}],
    "annotations": [{"id": 1, "image_id": 1, "segmentation": [[1, 1, 9, 1, 9, 9, 1, 9]], "score": 0.5}],
}
GEOJSON_DOC = json.loads(write_geojson([TileRecord("a", (16, 16), InstanceSet.of([rectangle(1, 1, 9, 9)]))]))


def _set(path, value):
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


# each ended in a traceback before the readers caught it; json.dumps writes
# float("inf") and float("nan") as the Infinity and NaN literals
READER_FAULTS = {
    "coco-string-coordinate": (COCO_DOC, _set(("annotations", 0, "segmentation", 0, 0), "x")),
    "coco-null-coordinate": (COCO_DOC, _set(("annotations", 0, "segmentation", 0, 0), None)),
    "coco-list-coordinate": (COCO_DOC, _set(("annotations", 0, "segmentation", 0, 0), [1])),
    "coco-null-annotations": (COCO_DOC, _set(("annotations",), None)),
    "coco-infinite-height": (COCO_DOC, _set(("images", 0, "height"), float("inf"))),
    "coco-infinite-image-id": (COCO_DOC, _set(("annotations", 0, "image_id"), float("inf"))),
    "coco-nan-string-score": (COCO_DOC, _set(("annotations", 0, "score"), "nan")),
    "coco-nan-score": (COCO_DOC, _set(("annotations", 0, "score"), float("nan"))),
    "geojson-infinite-size": (GEOJSON_DOC, _set(("tiles", 0, "image_size", 0), float("inf"))),
    "geojson-nan-string-score": (GEOJSON_DOC, _set(("features", 0, "properties", "score"), "nan")),
    "geojson-nan-score": (GEOJSON_DOC, _set(("features", 0, "properties", "score"), float("nan"))),
}


@pytest.mark.parametrize("fault", sorted(READER_FAULTS))
def test_reader_fault_ends_in_error_object(tmp_path, capsys, fault):
    doc, edit = READER_FAULTS[fault]
    doc = copy.deepcopy(doc)
    edit(doc)
    src = tmp_path / "gt.json"
    src.write_text(json.dumps(doc))
    assert main(["encode", str(src), str(tmp_path / "rasters")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert len(err["errors"]) == 1 and "Error: " in err["errors"][0]["error"]


@pytest.mark.parametrize("argv, inputs", [
    (["encode", "{geojson}", "{tmp}/rasters"], 1),
    (["encode", "{coco}", "{tmp}/rasters"], 1),
    (["eval", "{geojson}", "{coco}", "{tmp}/r.json"], 2),
], ids=["encode-geojson", "encode-coco", "eval"])
def test_each_annotation_file_parsed_once(tmp_path, monkeypatch, argv, inputs):
    paths = {"geojson": tmp_path / "a.geojson", "coco": tmp_path / "a.json", "tmp": tmp_path}
    paths["geojson"].write_text(json.dumps(GEOJSON_DOC))
    paths["coco"].write_text(json.dumps(COCO_DOC))
    parsed = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text, *a, **k: parsed.append(text) or loads(text, *a, **k))
    assert main([arg.format(**paths) for arg in argv]) == 0
    assert len(parsed) == inputs


_IMAGE = COCO_DOC["images"][0]
_TILE = GEOJSON_DOC["tiles"][0]

# each read back as duplicate or misnamed records, of which eval kept one per id
DUPLICATE_IDS = {
    "coco-repeated-image-id": (COCO_DOC, _set(("images",), [_IMAGE, {**_IMAGE, "file_name": "b"}])),
    "coco-repeated-file-name": (COCO_DOC, _set(("images",), [_IMAGE, {**_IMAGE, "id": 2}])),
    "geojson-repeated-tile": (GEOJSON_DOC, _set(("tiles",), [_TILE, {**_TILE, "image_size": [8, 8]}])),
}


@pytest.mark.parametrize("command", ["encode", "eval"])
@pytest.mark.parametrize("case", sorted(DUPLICATE_IDS))
def test_duplicate_ids_end_in_error_object(tmp_path, capsys, case, command):
    doc, edit = DUPLICATE_IDS[case]
    doc = copy.deepcopy(doc)
    edit(doc)
    src = tmp_path / "gt.json"
    src.write_text(json.dumps(doc))
    argv = {"encode": ["encode", str(src), str(tmp_path / "rasters")],
            "eval": ["eval", str(src), str(src), str(tmp_path / "r.json")]}[command]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert len(err["errors"]) == 1 and "appears twice" in err["errors"][0]["error"]


class TestRoundtrip:
    def test_clean_roundtrip_no_gap(self, gt_geojson, tmp_path):
        report_path = tmp_path / "rt.json"
        assert main(["roundtrip", str(gt_geojson), str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["polygon_ap"] >= report["mask_ap"] - 0.01
        assert report["iou"] >= 0.99

    def test_zero_degradation_equals_default(self, gt_geojson, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["roundtrip", str(gt_geojson), str(a)])
        main(
            ["roundtrip", str(gt_geojson), str(b), "--dilate", "0", "--jitter-sigma", "0",
             "--vertex-dropout", "0", "--seed", "9"]
        )
        assert a.read_text() == b.read_text()

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_labels_each_tile_once(self, gt_geojson, tmp_path, monkeypatch):
        labelled = []
        label = polygonize._label_boxes  # the one labelling step behind component_crops and connected_components
        monkeypatch.setattr(polygonize, "_label_boxes", lambda *a: labelled.append(1) or label(*a))
        monkeypatch.setenv("POLYFORM_WORKERS", "1")
        flags = ["--scale", "2", "--dilate", "1", "--jitter-sigma", "0.5", "--seed", "3"]
        once = tmp_path / "once.json"
        assert main(["roundtrip", str(gt_geojson), str(once), *flags]) == 0
        assert len(labelled) == 2  # two tiles
        # the two-pass route: polygonize_pipeline labels the soft mask on its
        # own, and the mask-AP crops come from a second labelling
        softs = []
        crops = cli.component_crops
        monkeypatch.setattr(cli, "component_crops", lambda soft, *a: softs.append(soft) or crops(soft, *a))
        monkeypatch.setattr(
            cli, "polygonize_components",
            lambda _crops, heat, offs, cfg: polygonize.polygonize_pipeline(softs[-1], heat, offs, cfg),
        )
        twice = tmp_path / "twice.json"
        assert main(["roundtrip", str(gt_geojson), str(twice), *flags]) == 0
        assert len(labelled) == 2 + 4
        assert once.read_bytes() == twice.read_bytes()

    def test_labelling_and_nms_see_content_rows_only(self, tmp_path, monkeypatch):
        # two buildings with empty grid rows between them: the labelling and
        # the NMS get fewer rows than the 64-row grid; heatmap noise puts a
        # candidate in every row, and the NMS gets the whole frame
        src = tmp_path / "gt.geojson"
        src.write_bytes(write_geojson([
            TileRecord("t", (256, 256), InstanceSet.of([rectangle(16, 16, 96, 48), rectangle(120, 176, 224, 224)])),
        ]))
        real_label, real_pad = polygonize.ndimage.label, np.pad
        labelled, suppressed = [], []

        def label(mask, *args, **kwargs):
            if kwargs.get("output") is np.uint32:  # the component labelling, not the trace atlas
                labelled.append(mask.shape)
            return real_label(mask, *args, **kwargs)

        def pad(array, *args, **kwargs):
            if kwargs.get("constant_values") == -np.inf:  # the NMS's -inf border
                suppressed.append(array.shape)
            return real_pad(array, *args, **kwargs)

        monkeypatch.setattr(polygonize.ndimage, "label", label)
        monkeypatch.setattr(polygonize.np, "pad", pad)
        monkeypatch.setenv("POLYFORM_WORKERS", "1")
        assert main(["roundtrip", str(src), str(tmp_path / "clean.json"), "--scale", "4"]) == 0
        assert len(labelled) == len(suppressed) == 1
        assert labelled[0][1] == suppressed[0][1] == 64
        assert 0 < labelled[0][0] < 64 and 0 < suppressed[0][0] < 64
        noisy = ["--scale", "4", "--heatmap-noise-sigma", "0.05", "--seed", "2"]
        assert main(["roundtrip", str(src), str(tmp_path / "noisy.json"), *noisy]) == 0
        assert suppressed[1:] == [(64, 64)]

    def test_degrade_morphs_content_rows_only(self, tmp_path, monkeypatch):
        # the two-building tile above: the dilation, the erosion and the
        # jitter band's two passes get fewer rows than the 64-row grid; a
        # dilation as wide as the grid reaches every row, and they get it all
        src = tmp_path / "gt.geojson"
        src.write_bytes(write_geojson([
            TileRecord("t", (256, 256), InstanceSet.of([rectangle(16, 16, 96, 48), rectangle(120, 176, 224, 224)])),
        ]))
        real = raster._square_morph
        morphed = []
        monkeypatch.setattr(raster, "_square_morph", lambda binary, *a, **k: morphed.append(binary.shape) or real(binary, *a, **k))
        flags = ["--scale", "4", "--erode", "1", "--jitter-sigma", "0.5"]
        assert main(["roundtrip", str(src), str(tmp_path / "near.json"), *flags, "--dilate", "1"]) == 0
        assert len(morphed) == 4
        assert all(0 < rows < 64 and cols == 64 for rows, cols in morphed)
        morphed.clear()
        assert main(["roundtrip", str(src), str(tmp_path / "wide.json"), *flags, "--dilate", "64"]) == 0
        assert morphed == [(64, 64)] * 4

    def test_huge_radii_end_like_grid_wide_ones(self, tmp_path):
        # radii far past the 64 x 64 grid neither loop nor fail: dilated to
        # the whole grid and eroded to nothing, as by radii of 64
        src = tmp_path / "gt.geojson"
        src.write_bytes(write_geojson([TileRecord("t", (64, 64), InstanceSet.of([rectangle(8, 8, 40, 32)]))]))
        huge, wide = tmp_path / "huge.json", tmp_path / "wide.json"
        argv = ["roundtrip", str(src), str(huge), "--dilate", "1000000000", "--erode", "1000000000", "--jitter-sigma", "0.5"]
        assert main(argv) == 0
        assert main(["roundtrip", str(src), str(wide), "--dilate", "64", "--erode", "64"]) == 0
        assert huge.read_bytes() == wide.read_bytes()

    def test_report_onto_a_directory_fails_before_any_tile(self, gt_geojson, tmp_path, capsys, monkeypatch):
        report = tmp_path / "rt.json"
        report.mkdir()
        calls = []
        monkeypatch.setattr(cli, "polygonize_components", lambda *args: calls.append(args))
        assert main(["roundtrip", str(gt_geojson), str(report)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert len(err["errors"]) == 1 and err["errors"][0]["error"].startswith("IsADirectoryError: ")
        assert calls == []

    def test_fixed_seed_reproducible(self, gt_geojson, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        flags = ["--dilate", "1", "--jitter-sigma", "0.5", "--seed", "42"]
        main(["roundtrip", str(gt_geojson), str(a), *flags])
        main(["roundtrip", str(gt_geojson), str(b), *flags])
        assert a.read_text() == b.read_text()


class TestStderr:
    # tile a's 2 x 2 px building is one grid pixel at --scale 2, which the
    # polygonizer drops with a UserWarning; tile b's width is odd
    @pytest.fixture()
    def warn_geojson(self, tmp_path):
        path = tmp_path / "warn.geojson"
        path.write_bytes(write_geojson([
            TileRecord("a", (32, 32), InstanceSet.of([rectangle(4, 4, 6, 6), rectangle(10, 10, 20, 20)])),
            TileRecord("b", (32, 33), InstanceSet.of([rectangle(5, 5, 15, 15)])),
        ]))
        return path

    def test_errors_and_warnings_share_one_object(self, warn_geojson, tmp_path, capsys):
        assert main(["roundtrip", str(warn_geojson), str(tmp_path / "r.json"), "--scale", "2"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "errors": [{"tile_id": "b", "error": "ValueError: size 32x33 not divisible by scale 2"}],
            "warnings": ["dropped 1 components that failed simplification"],
        }

    def test_warnings_alone_keep_exit_zero(self, warn_geojson, tmp_path, capsys):
        one_tile = tmp_path / "a.geojson"
        one_tile.write_bytes(write_geojson(read_geojson(warn_geojson.read_bytes())[:1]))
        assert main(["roundtrip", str(one_tile), str(tmp_path / "r.json"), "--scale", "2"]) == 0
        err = json.loads(capsys.readouterr().err)
        assert err == {"warnings": ["dropped 1 components that failed simplification"]}

    def test_other_warnings_pass_through(self, gt_geojson, tmp_path, capsys, monkeypatch):
        def warn(*args):
            warnings.warn("not a UserWarning", DeprecationWarning)
            return evaluate(*args)

        evaluate = cli.evaluate_corpus
        monkeypatch.setattr(cli, "evaluate_corpus", warn)
        with pytest.warns(DeprecationWarning, match="not a UserWarning"):
            assert main(["eval", str(gt_geojson), str(gt_geojson), str(tmp_path / "r.json")]) == 0
        assert capsys.readouterr().err == ""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with pytest.raises(DeprecationWarning):
                main(["eval", str(gt_geojson), str(gt_geojson), str(tmp_path / "r.json")])


class TestEdgeVertices:
    def test_building_on_right_and_bottom_edges_encodes(self, tmp_path, capsys):
        src = tmp_path / "edge.geojson"
        src.write_bytes(write_geojson([TileRecord("e", (32, 32), InstanceSet.of([rectangle(20, 4, 32, 32)]))]))
        assert main(["encode", str(src), str(tmp_path / "rasters")]) == 0
        report = tmp_path / "r.json"
        assert main(["roundtrip", str(src), str(report)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(report.read_text())["iou"] == 1.0


def render_bytes(src: Path, dst: Path) -> bytes:
    assert main(["render", str(src), str(dst)]) == 0
    return dst.read_bytes()


class TestRender:
    def test_render_svg(self, gt_geojson, tmp_path):
        dst = tmp_path / "out.svg"
        assert main(["render", str(gt_geojson), str(dst)]) == 0
        svg = dst.read_text()
        assert svg.startswith("<?xml") and "<path" in svg

    def test_deterministic(self, gt_geojson, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        main(["render", str(gt_geojson), str(a)])
        main(["render", str(gt_geojson), str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_checker_flag(self, gt_geojson, tmp_path):
        dst = tmp_path / "out.svg"
        assert main(["render", str(gt_geojson), str(dst), "--background", "checker"]) == 0
        assert "checker" in dst.read_text()

    def test_coco_input_renders_as_its_geojson(self, gt_geojson, tmp_path):
        coco = tmp_path / "gt.coco.json"
        coco.write_bytes(write_coco_annotations(read_geojson(gt_geojson.read_bytes())))
        assert render_bytes(coco, tmp_path / "coco.svg") == render_bytes(gt_geojson, tmp_path / "geojson.svg")

    def test_bad_background_rejected(self, gt_geojson, tmp_path):
        with pytest.raises(SystemExit):
            main(["render", str(gt_geojson), str(tmp_path / "o.svg"), "--background", "plaid"])


class TestWorkers:
    def test_non_integer_env_is_named_error(self, gt_geojson, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("POLYFORM_WORKERS", "two")
        out = tmp_path / "rasters"
        assert main(["encode", str(gt_geojson), str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "POLYFORM_WORKERS" in err["errors"][0]["error"] and "two" in err["errors"][0]["error"]
        assert not out.exists()

    def test_env_override_and_order_independence(self, tmp_path, monkeypatch, capsys):
        # pool threads write the rasters: one tile without buildings and one
        # whose height --scale 2 does not divide, among eight that encode
        rng = np.random.default_rng(3)
        records = [TileRecord(f"t{i}", (64, 64), random_tile(rng, 64, 64, 1, 3)) for i in range(8)]
        records.insert(3, TileRecord("empty", (64, 64), InstanceSet()))
        records.insert(6, TileRecord("odd", (63, 64), InstanceSet.of([rectangle(2, 2, 20, 20)])))
        gt = tmp_path / "gt.geojson"
        gt.write_bytes(write_geojson(records))
        runs = []
        for workers in ("1", "4"):
            monkeypatch.setenv("POLYFORM_WORKERS", workers)
            out = tmp_path / f"r{workers}"
            assert main(["encode", str(gt), str(out), "--scale", "2"]) == 1
            runs.append((read_all_bytes(out), json.loads(capsys.readouterr().err)))
        assert runs[0] == runs[1]
        files, err = runs[0]
        assert err == {"errors": [{"tile_id": "odd", "error": "ValueError: size 63x64 not divisible by scale 2"}]}
        manifest = json.loads(files["manifest.json"])
        assert [t["tile_id"] for t in manifest["tiles"]] == [r.tile_id for r in records if r.tile_id != "odd"]
        assert len(files) == 1 + 4 * 9


def test_no_command_goes_through_per_vertex_points(tmp_path, monkeypatch, capsys):
    # every command path reads, builds and scores rings as coordinate
    # arrays: with Ring.vertices raising, each still succeeds on two dense
    # tiles with courtyards, through snapping, the DP fallback and rescaling
    rng = np.random.default_rng(27)
    records = []
    for k in range(2):
        inst = random_tile(rng, 128, 128, n_min=12, n_max=16, min_side=12, max_side=20, separation=2)
        court = annulus(2, 100, 26, 126, 9, 107, 19, 119)
        records.append(TileRecord(f"t{k}", (128, 128), InstanceSet.of([*(sp.polygon for sp in inst), court])))
    gt = tmp_path / "gt.geojson"
    gt.write_bytes(write_geojson(records))

    def no_points(self):
        raise AssertionError("Ring.vertices was read")

    monkeypatch.setattr(Ring, "vertices", property(no_points))
    d = str(tmp_path)
    for argv in (
        ["encode", str(gt), f"{d}/rasters"],
        ["polygonize", f"{d}/rasters", f"{d}/pred.geojson"],
        ["eval", f"{d}/pred.geojson", str(gt), f"{d}/report.json"],
        ["roundtrip", str(gt), f"{d}/roundtrip.json", "--scale", "2", "--dilate", "1", "--jitter-sigma", "0.5",
         "--vertex-dropout", "0.3", "--spurious", "20", "--seed", "3"],
        ["render", f"{d}/pred.geojson", f"{d}/pred.svg"],
    ):
        assert main(argv) == 0, capsys.readouterr().err
    assert len(read_geojson((tmp_path / "pred.geojson").read_bytes())) == 2
