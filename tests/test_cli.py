import copy
import json
from pathlib import Path

import numpy as np
import pytest

from polyform import cli, polygonize
from polyform.cli import main
from polyform.geometry import InstanceSet
from polyform.io import TileRecord, read_geojson, read_rgf, write_coco_annotations, write_geojson

from synth import annulus, rectangle


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
        # an empty tile cannot produce an attraction field
        records = [
            TileRecord("good", (16, 16), InstanceSet.of([rectangle(2, 2, 9, 9)])),
            TileRecord("empty", (16, 16), InstanceSet()),
        ]
        src = tmp_path / "gt.geojson"
        src.write_bytes(write_geojson(records))
        out = tmp_path / "rasters"
        assert main(["encode", str(src), str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["errors"][0]["tile_id"] == "empty"
        manifest = json.loads((out / "manifest.json").read_text())
        assert [t["tile_id"] for t in manifest["tiles"]] == ["good"]


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

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_directory_as_input_is_named_error(self, gt_geojson, tmp_path, capsys, command):
        folder = tmp_path / "folder"
        folder.mkdir()
        assert main(self.COMMANDS[command](str(folder), str(gt_geojson), tmp_path)) == 1
        err = json.loads(capsys.readouterr().err)
        assert "directory" in err["errors"][0]["error"]


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
        label = polygonize.connected_components
        monkeypatch.setattr(polygonize, "connected_components", lambda *a: labelled.append(1) or label(*a))
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

    def test_fixed_seed_reproducible(self, gt_geojson, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        flags = ["--dilate", "1", "--jitter-sigma", "0.5", "--seed", "42"]
        main(["roundtrip", str(gt_geojson), str(a), *flags])
        main(["roundtrip", str(gt_geojson), str(b), *flags])
        assert a.read_text() == b.read_text()


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

    def test_env_override_and_order_independence(self, gt_geojson, tmp_path, monkeypatch):
        out1 = tmp_path / "r1"
        main(["encode", str(gt_geojson), str(out1)])
        monkeypatch.setenv("POLYFORM_WORKERS", "4")
        out2 = tmp_path / "r2"
        main(["encode", str(gt_geojson), str(out2)])
        a = {p.name: p.read_bytes() for p in sorted(out1.iterdir())}
        b = {p.name: p.read_bytes() for p in sorted(out2.iterdir())}
        assert a == b
