"""CLI surface: strict configs, the run pipeline, grids, exit codes."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from openset.checkpoint import load_checkpoint
from openset.cli import (
    ConfigError,
    load_run_config,
    main,
    parse_dataset_block,
    parse_run_config,
)
from openset.datastore import LabeledSet, load_csv, split_known_unknown
from openset.metrics import evaluate


REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "out" / "blobs6"
# The committed result of configs/blobs6.json. A change that alters these
# bytes must say why, re-freeze out/blobs6 and update the digests.
GOLDEN_SHA256 = {
    "report.json": "07191e16d8b26dc753adaed2313725e81d141119c2957ce637b1cbc93edfe6cd",
    "checkpoint.json": "cee38cfd69584fad7fc93277fbeb0c0e2d4f644cf13228a62b344194cabbfda1",
}


def _tiny_config(out_dir, train_mode="full", train_overrides=None, split_overrides=None):
    train = {
        "batch_size": 16,
        "pretrain_epochs": 15,
        "finetune_epochs": 10,
        "train_mode": train_mode,
        "seed": 3,
    }
    train.update(train_overrides or {})
    split = {
        "known_class_ids": [0, 1, 2],
        "unknown_class_ids": [3, 4],
        "val_fraction": 0.15,
        "test_fraction": 0.3,
        "seed": 3,
    }
    split.update(split_overrides or {})
    return {
        "dataset": {"generator": "blobs", "num_classes": 5, "per_class": 40,
                    "dim": 2, "center_scale": 5.0, "spread": 0.4, "seed": 3},
        "split": split,
        "train": train,
        "calibration": {"target_rate": 0.95, "intervals": 100},
        "output_dir": str(out_dir),
    }


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        doc = _tiny_config(tmp_path / "out")
        doc["learning_rate"] = 0.1  # belongs in the train block
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_run_config(doc)

    def test_unknown_train_key_rejected(self, tmp_path):
        doc = _tiny_config(tmp_path / "out")
        doc["train"]["learning_rte"] = 0.1
        with pytest.raises(ConfigError, match="learning_rte"):
            parse_run_config(doc)

    def test_unknown_generator_arg_rejected(self):
        with pytest.raises(ConfigError):
            parse_dataset_block({"generator": "blobs", "sprad": 0.4})

    def test_defaults_are_explicit_after_load(self, tmp_path):
        doc = _tiny_config(tmp_path / "out")
        del doc["train"]["seed"]
        cfg = parse_run_config(doc)
        assert cfg.train.seed == 0
        assert cfg.train.beta == 1.0
        assert cfg.calibration.target_rate == 0.95
        assert cfg.dataset.params["spread"] == 0.4

    def test_missing_required_block(self, tmp_path):
        doc = _tiny_config(tmp_path / "out")
        del doc["split"]
        with pytest.raises(ConfigError):
            parse_run_config(doc)

    def test_invalid_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_run_config(path)


class TestRun:
    def test_writes_four_artifacts_and_succeeds(self, tmp_path):
        out = tmp_path / "out"
        path = _write_config(tmp_path, _tiny_config(out))
        assert main(["run", "--config", str(path)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["calibration.json", "checkpoint.json", "report.json", "training_log.tsv"]
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["auc"] <= 1.0
        assert report["openness_pct"] == pytest.approx(100 * (1 - (3 / 5) ** 0.5), abs=1e-9)
        log_lines = (out / "training_log.tsv").read_text().splitlines()
        assert len(log_lines) == 15 + 10
        assert all(len(line.split("\t")) == 4 for line in log_lines)

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        path_a = _write_config(tmp_path, _tiny_config(out_a), "a.json")
        path_b = _write_config(tmp_path, _tiny_config(out_b), "b.json")
        assert main(["run", "--config", str(path_a)]) == 0
        assert main(["run", "--config", str(path_b)]) == 0
        for name in ("report.json", "checkpoint.json", "calibration.json", "training_log.tsv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_baseline_mode_reports_max_softmax_auc(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = _write_config(tmp_path, _tiny_config(out, train_mode="baseline"))
        assert main(["run", "--config", str(path)]) == 0
        # baseline never fine-tunes: the log only has pretrain lines
        log_lines = (out / "training_log.tsv").read_text().splitlines()
        assert len(log_lines) == 15
        report = json.loads((out / "report.json").read_text())
        assert report["auc"] is not None

    def test_missing_config_exits_2(self, capsys):
        assert main(["run", "--config", "/nonexistent/config.json"]) == 2

    def test_config_parse_failure_exits_2(self, tmp_path, capsys):
        doc = _tiny_config(tmp_path / "out")
        doc["train"]["batch_size"] = 1  # invalid: needs both halves
        path = _write_config(tmp_path, doc)
        assert main(["run", "--config", str(path)]) == 2


class TestGolden:
    def test_blobs6_reproduces_the_committed_artifacts(self, tmp_path):
        for name, digest in GOLDEN_SHA256.items():
            assert hashlib.sha256((GOLDEN / name).read_bytes()).hexdigest() == digest, name
        doc = json.loads((REPO / "configs" / "blobs6.json").read_text())
        doc["output_dir"] = str(tmp_path / "out")
        assert main(["run", "--config", str(_write_config(tmp_path, doc))]) == 0
        for name in ("report.json", "checkpoint.json", "calibration.json", "training_log.tsv"):
            assert (tmp_path / "out" / name).read_bytes() == (GOLDEN / name).read_bytes(), name


class TestEvaluate:
    def test_load_then_evaluate_matches_in_process(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = _write_config(tmp_path, _tiny_config(out))
        assert main(["run", "--config", str(path)]) == 0
        assert main(["evaluate", "--checkpoint", str(out / "checkpoint.json"),
                     "--config", str(path)]) == 0
        printed = capsys.readouterr().out
        assert printed == (out / "report.json").read_text()

    def test_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        path = _write_config(tmp_path, _tiny_config(tmp_path / "out"))
        assert main(["evaluate", "--checkpoint", str(bad), "--config", str(path)]) == 2

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        path = _write_config(tmp_path, _tiny_config(tmp_path / "out"))
        assert main(["evaluate", "--checkpoint", str(tmp_path / "none.json"),
                     "--config", str(path)]) == 2


class TestBoundaryGrid:
    def _checkpoint(self, tmp_path):
        out = tmp_path / "out"
        path = _write_config(tmp_path, _tiny_config(out))
        assert main(["run", "--config", str(path)]) == 0
        return out / "checkpoint.json"

    def test_grid_row_count_and_columns(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        grid = tmp_path / "grid.csv"
        assert main(["boundary-grid", "--checkpoint", str(ckpt), "--out", str(grid),
                     "--resolution", "3", "--range", "0", "1", "0", "1"]) == 0
        lines = grid.read_text().splitlines()
        assert lines[0] == "x,y,label,score"
        assert len(lines) == 1 + 9
        for line in lines[1:]:
            x, y, label, score = line.split(",")
            assert 0.0 <= float(x) <= 1.0 and 0.0 <= float(y) <= 1.0
            int(label)
            float(score)

    def test_extreme_bias_reduction(self, tmp_path):
        ckpt = self._checkpoint(tmp_path)
        model, cfg, stats = load_checkpoint(ckpt)
        for bias, expect_unknown in ((-1e9, False), (1e9, True)):
            from openset.checkpoint import save_checkpoint

            model.calibration_bias = bias
            biased = tmp_path / f"ckpt_{expect_unknown}.json"
            save_checkpoint(biased, model, cfg, stats)
            grid = tmp_path / f"grid_{expect_unknown}.csv"
            assert main(["boundary-grid", "--checkpoint", str(biased), "--out", str(grid),
                         "--resolution", "5", "--range", "-6", "6", "-6", "6"]) == 0
            labels = [int(line.split(",")[2]) for line in grid.read_text().splitlines()[1:]]
            if expect_unknown:
                assert all(lab == model.num_known for lab in labels)
            else:
                assert all(lab != model.num_known for lab in labels)

    def test_non_2d_model_exits_1(self, tmp_path, capsys):
        doc = _tiny_config(tmp_path / "out")
        doc["dataset"].update({"dim": 3})
        path = _write_config(tmp_path, doc)
        assert main(["run", "--config", str(path)]) == 0
        assert main(["boundary-grid", "--checkpoint", str(tmp_path / "out" / "checkpoint.json"),
                     "--out", str(tmp_path / "g.csv"),
                     "--range", "0", "1", "0", "1"]) == 1


class TestGenData:
    def test_writes_loadable_csv(self, tmp_path):
        path = _write_config(tmp_path, _tiny_config(tmp_path / "out"))
        out_csv = tmp_path / "data.csv"
        assert main(["gen-data", "--config", str(path), "--out", str(out_csv)]) == 0
        data = load_csv(out_csv)
        assert len(data) == 5 * 40
        assert data.dim == 2

    def test_dataset_only_config(self, tmp_path):
        path = _write_config(
            tmp_path,
            {"dataset": {"generator": "rings", "num_classes": 2, "per_class": 10,
                         "noise": 0.0, "seed": 1}},
            "rings.json",
        )
        out_csv = tmp_path / "rings.csv"
        assert main(["gen-data", "--config", str(path), "--out", str(out_csv)]) == 0
        assert len(load_csv(out_csv)) == 20


class TestPipelineConsistency:
    def test_cli_matches_library_calls(self, tmp_path):
        out = tmp_path / "out"
        doc = _tiny_config(out)
        path = _write_config(tmp_path, doc)
        assert main(["run", "--config", str(path)]) == 0
        model, _, stats = load_checkpoint(out / "checkpoint.json")
        cfg = load_run_config(path)
        data = cfg.dataset.load()
        _, _, test = split_known_unknown(data, cfg.split)
        test = LabeledSet(stats.apply(test.features), test.labels)
        report = evaluate(model, test, score="knownness", n_test_classes=5)
        assert report.to_text() == (out / "report.json").read_text()
