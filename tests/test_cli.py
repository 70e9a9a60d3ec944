"""CLI surface: strict configs, the run pipeline, grids, exit codes."""

from __future__ import annotations

import functools
import hashlib
import io
import json
import re
import os
import shlex
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import json_paths, kernel_note
from openset import cli
from openset.checkpoint import load_checkpoint
from openset.cli import (
    MAX_RESOLUTION,
    ConfigError,
    _build_parser,
    load_run_config,
    main,
    parse_dataset_block,
    parse_run_config,
    write_grid_csv,
)
from openset.datastore import LabeledSet, json_text, load_csv, split_known_unknown
from openset.metrics import evaluate
from openset.network import SplitMlp
from openset.trainer import TRAIN_MODES


REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "out" / "blobs6"
# The committed result of configs/blobs6.json. A change that alters these
# bytes must say why, re-freeze out/blobs6 and update the digests.
GOLDEN_SHA256 = {
    "report.json": "07191e16d8b26dc753adaed2313725e81d141119c2957ce637b1cbc93edfe6cd",
    "checkpoint.json": "f3da3962555c866534190c05fca30548d30c3f8deb2a892af843acb00a641a19",
    "calibration.json": "a869615553223404bc529af1da9f421f76780d086676d7ef4a4078bb49c92d96",
    "training_log.tsv": "8ef0afb4185ea83d8c4584d20f0cf3332149676bf83dd7b52c5e670134d274e1",
}
# `boundary-grid --resolution 300 --range -7 7 -7 7` on the committed checkpoint
GRID_300_SHA256 = "9326976b876254652d75531e84bd82eb78700f6e8a4bbe428b2644bd1c04dbfa"


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


# (field, value, the error it gives, or None for "<field> must be an integer of at least")
_BAD_COUNTS = [("per_class", 2.5, None), ("per_class", True, None), ("per_class", 0, None),
               ("num_classes", 5.0, None), ("dim", "2", None), ("seed", -1, None),
               ("per_class", 10 ** 20, "num_classes 5 x per_class 100000000000000000000 rows of 2 features "
                                       "are too many for one array")]


def _no_training(*args, **kwargs):
    raise AssertionError("training started")


# case -> (config for an output directory, the cause `run` names)
MALFORMED_CONFIGS = {
    "root_a_list": (lambda out: [_tiny_config(out)], "config root must be an object"),
    "idx_images_alone": (lambda out: {**_tiny_config(out), "dataset": {"idx_images": "img.idx"}},
                         "idx datasets need both idx_images and idx_labels"),
    "dataset_of_no_kind": (lambda out: {**_tiny_config(out), "dataset": {}},
                           "dataset block needs a 'generator', 'csv', or 'idx_images'/'idx_labels'"),
    "one_known_class": (lambda out: _tiny_config(out, split_overrides={"known_class_ids": [0]}),
                        "invalid split block: need at least 2 known classes"),
    "val_fraction_0": (lambda out: _tiny_config(out, split_overrides={"val_fraction": 0.0}),
                       "invalid split block: val_fraction must be in (0, 1), got 0.0"),
    "test_fraction_1": (lambda out: _tiny_config(out, split_overrides={"test_fraction": 1.0}),
                        "invalid split block: test_fraction must be in (0, 1), got 1.0"),
    "no_room_for_training_rows": (
        lambda out: _tiny_config(out, split_overrides={"val_fraction": 0.5, "test_fraction": 0.5}),
        "invalid split block: val_fraction + test_fraction must leave room for training rows"),
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

    @pytest.mark.parametrize("case", MALFORMED_CONFIGS)
    def test_malformed_config_exits_2_naming_the_cause(self, tmp_path, capsys, monkeypatch, case):
        monkeypatch.setattr("openset.cli.pretrain_closed", _no_training)
        make, cause = MALFORMED_CONFIGS[case]
        out = tmp_path / "out"
        assert main(["run", "--config", str(_write_config(tmp_path, make(out)))]) == 2
        assert capsys.readouterr().err == f"error: {cause}\n"
        assert not out.exists()


class TestUsage:
    @pytest.mark.parametrize("argv,cause", [
        ([], "the following arguments are required: command"),
        (["run"], "the following arguments are required: --config"),
        (["bogus"], "invalid choice: 'bogus'"),
    ], ids=["no_command", "run_without_config", "unknown_command"])
    def test_a_usage_error_exits_2_with_the_usage(self, capsys, argv, cause):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: openset") and cause in captured.err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: openset") and captured.err == ""


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

    @pytest.mark.parametrize("block,key,value", [("train", "batch_size", 16.5),
                                                 ("split", "seed", 1.5),
                                                 ("calibration", "intervals", 2.5)])
    def test_non_integer_field_exits_2_naming_it(self, tmp_path, capsys, block, key, value):
        out = tmp_path / "out"
        doc = _tiny_config(out)
        doc[block][key] = value
        assert main(["run", "--config", str(_write_config(tmp_path, doc))]) == 2
        assert f"{key} must be an integer of at least" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dataset,split,message", [
        ({}, {"unknown_class_ids": [3, 12]}, "class 12 not present in the dataset"),
        ({"per_class": 1}, {}, "known class 0 has 1 rows, need at least 2"),
        ({"per_class": 2}, {}, "known class 0 has 2 rows, too few for val_fraction 0.15 and test_fraction 0.3"),
    ])
    def test_split_that_does_not_fit_the_dataset_exits_2(self, tmp_path, capsys, dataset, split, message):
        out = tmp_path / "out"
        doc = _tiny_config(out, split_overrides=split)
        doc["dataset"].update(dataset)
        path = _write_config(tmp_path, doc)
        assert main(["run", "--config", str(path)]) == 2
        assert main(["evaluate", "--checkpoint", str(GOLDEN / "checkpoint.json"), "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n" * 2
        assert not out.exists()

    @pytest.mark.parametrize("intervals", [1_000_001, 10 ** 30])
    def test_intervals_above_a_million_exit_2_before_training(self, tmp_path, capsys, monkeypatch, intervals):
        monkeypatch.setattr("openset.cli.pretrain_closed", _no_training)
        out = tmp_path / "out"
        doc = _tiny_config(out)
        doc["calibration"]["intervals"] = intervals
        assert main(["run", "--config", str(_write_config(tmp_path, doc))]) == 2
        assert f"intervals must be at most 1000000, got {intervals}" in capsys.readouterr().err
        assert not out.exists()
        doc["calibration"]["intervals"] = 1_000_000
        assert parse_run_config(doc).calibration.intervals == 1_000_000

    @pytest.mark.parametrize("key,value,message", _BAD_COUNTS, ids=[f"{key}-{value}" for key, value, _ in _BAD_COUNTS])
    def test_bad_generator_count_exits_2_naming_it(self, tmp_path, capsys, key, value, message):
        out = tmp_path / "out"
        doc = _tiny_config(out)
        doc["dataset"][key] = value
        path = _write_config(tmp_path, doc)
        csv = tmp_path / "data.csv"
        assert main(["run", "--config", str(path)]) == 2
        assert main(["gen-data", "--config", str(path), "--out", str(csv)]) == 2
        err = capsys.readouterr().err
        assert err.count(message or f"{key} must be an integer of at least") == 2, err
        assert not out.exists() and not csv.exists()

    @pytest.mark.parametrize("num_dummy", [10_001, 10 ** 12])
    def test_num_dummy_above_ten_thousand_exits_2_before_training(self, tmp_path, capsys, monkeypatch, num_dummy):
        monkeypatch.setattr("openset.cli.pretrain_closed", _no_training)
        out = tmp_path / "out"
        doc = _tiny_config(out, train_overrides={"num_dummy": num_dummy})
        assert main(["run", "--config", str(_write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err == f"error: invalid train block: num_dummy must be at most 10000, got {num_dummy}\n"
        assert not out.exists()
        doc["train"]["num_dummy"] = 10_000
        assert parse_run_config(doc).train.num_dummy == 10_000

    @pytest.mark.parametrize("value", [100_001, 10 ** 400], ids=["cap_plus_1", "ten_to_the_400"])
    @pytest.mark.parametrize("key", ["pretrain_epochs", "finetune_epochs"])
    def test_epochs_above_the_cap_exit_2_before_training(self, tmp_path, capsys, monkeypatch, key, value):
        monkeypatch.setattr("openset.cli.pretrain_closed", _no_training)
        out = tmp_path / "out"
        doc = _tiny_config(out, train_overrides={key: value})
        assert main(["run", "--config", str(_write_config(tmp_path, doc))]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"error: invalid train block: {key} must be at most 100000, got {value}\n"
        doc["train"][key] = 100_000
        assert getattr(parse_run_config(doc).train, key) == 100_000

    @pytest.mark.parametrize("generator,key,value,message", [
        ("blobs", "center_scale", -float("inf"), "center_scale must be a finite number of at least 0, got -inf"),
        ("blobs", "spread", "x", "spread must be a finite number of at least 0, got 'x'"),
        ("blobs", "spread", float("nan"), "spread must be a finite number of at least 0, got nan"),
        ("blobs", "spread", float("inf"), "spread must be a finite number of at least 0, got inf"),
        ("blobs", "spread", -1, "spread must be a finite number of at least 0, got -1"),
        ("blobs", "spread", True, "spread must be a finite number of at least 0, got True"),
        ("blobs", "center_scale", 10 ** 400, "center_scale must be a finite number of at least 0, got 1000"),
        ("rings", "noise", -1, "noise must be a finite number of at least 0, got -1"),
        ("rings", "noise", float("nan"), "noise must be a finite number of at least 0, got nan"),
        ("blobs", "center_scale", 1e308, "center_scale 1e+308 is too large"),
        ("blobs", "spread", 1e308, "spread 1e+308 give non-finite features"),
        ("rings", "noise", 1e308, "noise 1e+308 give non-finite features"),
    ])
    def test_bad_generator_float_exits_2_naming_it(self, tmp_path, capsys, generator, key, value, message):
        out = tmp_path / "out"
        doc = _tiny_config(out)
        if generator == "rings":
            doc["dataset"] = {"generator": "rings", "num_classes": 5, "per_class": 40, "seed": 3}
        doc["dataset"][key] = value
        path = _write_config(tmp_path, doc)
        csv = tmp_path / "data.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(path)]) == 2
            assert main(["gen-data", "--config", str(path), "--out", str(csv)]) == 2
        err = capsys.readouterr().err
        assert err.count(message) == 2, err
        assert not out.exists() and not csv.exists()


    @pytest.mark.parametrize("block,key,value,message", [
        ("split", "known_class_ids", [0, 1.5, 2], "known_class_ids[1] must be an integer of at least 0, got 1.5"),
        ("split", "known_class_ids", [0, True, 2], "known_class_ids[1] must be an integer of at least 0, got True"),
        ("split", "known_class_ids", "012", "known_class_ids must be a list of class ids, got '012'"),
        ("split", "unknown_class_ids", [3, 3], "duplicate class ids in unknown_class_ids: [3, 3]"),
        ("split", "val_fraction", True, "val_fraction must be a number, got True"),
        ("calibration", "target_rate", True, "target_rate must be a number, got True"),
        ("train", "learning_rate", True, "learning_rate must be a number, got True"),
        ("train", "momentum", "0.5", "momentum must be a number, got '0.5'"),
        (None, "output_dir", None, "output_dir must be a non-empty string, got None"),
        (None, "output_dir", "", "output_dir must be a non-empty string, got ''"),
    ])
    def test_wrong_json_type_exits_2_naming_the_field(self, tmp_path, capsys, monkeypatch, block, key, value,
                                                      message):
        monkeypatch.chdir(tmp_path)
        doc = _tiny_config("out")
        (doc if block is None else doc[block])[key] = value
        assert main(["run", "--config", str(_write_config(tmp_path, doc))]) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_mutated_config_value_never_raises(self, tmp_path, monkeypatch, data):
        # configs/blobs6.json, shrunk to a fraction of a second of training
        monkeypatch.chdir(tmp_path)
        doc = json.loads((REPO / "configs" / "blobs6.json").read_text())
        doc["dataset"]["per_class"] = 12
        doc["train"].update(pretrain_epochs=2, finetune_epochs=1, batch_size=32)
        doc["output_dir"] = "out"
        *parents, key = data.draw(st.sampled_from(list(json_paths(doc))))
        container = doc
        for step in parents:
            container = container[step]
        container[key] = data.draw(_CONFIG_VALUES)
        path = _write_config(tmp_path, doc)
        with np.errstate(all="ignore"):
            assert main(["run", "--config", str(path)]) in (0, 1, 2)


# small numbers only: a count such as per_class or an epoch count is taken as it is
_CONFIG_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, 1, -1, 2, 0.0, 0.5, 1.5, -0.5, 1e308, float("nan"), float("inf"),
                     "", "x", "1", "012345", "input", "baseline", [], {}, [0, 1], [0, 1.5], [0, 0]]),
    st.floats(-2.0, 2.0),
)


_IDX_IMAGES = struct.pack(">4I", 0x00000803, 2, 2, 2) + bytes(range(8))
_IDX_LABELS = struct.pack(">2I", 0x00000801, 2) + bytes([1, 0])
MALFORMED_DATASETS = {
    "csv_ragged": {"data.csv": b"f0,f1,label\n1.0,2.0,0\n1.0,2.0,3.0,1\n"},
    "csv_non_numeric": {"data.csv": b"1.0,2.0,0\n1.0,x,1\n"},
    "csv_negative_label": {"data.csv": b"1.0,2.0,0\n1.0,2.0,-1\n"},
    "idx_bad_magic": {"img.idx": b"\0\0\x08\x01" + _IDX_IMAGES[4:], "lab.idx": _IDX_LABELS},
    "idx_count_mismatch": {"img.idx": _IDX_IMAGES, "lab.idx": _IDX_LABELS[:7] + b"\3" + _IDX_LABELS[8:]},
    "idx_truncated_header": {"img.idx": _IDX_IMAGES[:10], "lab.idx": _IDX_LABELS},
    "idx_truncated_payload": {"img.idx": _IDX_IMAGES[:-3], "lab.idx": _IDX_LABELS},
    "idx_truncated_labels": {"img.idx": _IDX_IMAGES, "lab.idx": _IDX_LABELS[:-1]},
    "idx_no_pixels": {"img.idx": struct.pack(">4I", 0x00000803, 2, 0, 2), "lab.idx": _IDX_LABELS},
}


class TestDatasetFiles:
    def test_blank_lines_load_as_if_absent(self, tmp_path):
        texts = {"plain": "f0,f1,label\n1.5,2.0,0\n-1.0,0.25,1\n",
                 "blank_lines": "\n  \nf0,f1,label\n1.5,2.0,0\n\n \t\n-1.0,0.25,1\n\n"}
        written = {}
        for name, text in texts.items():
            (tmp_path / f"{name}.csv").write_text(text)
            config = _write_config(tmp_path, {"dataset": {"csv": str(tmp_path / f"{name}.csv")}}, f"{name}.json")
            assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / f"{name}.out")]) == 0
            written[name] = (tmp_path / f"{name}.out").read_text()
        assert written["blank_lines"] == written["plain"] == "f0,f1,label\n1.5,2.0,0\n-1.0,0.25,1\n"

    @pytest.mark.parametrize("case", MALFORMED_DATASETS)
    def test_malformed_file_exits_2_naming_it(self, tmp_path, capsys, case):
        files = MALFORMED_DATASETS[case]
        for name, content in files.items():
            (tmp_path / name).write_bytes(content)
        out = tmp_path / "out"
        doc = _tiny_config(out)
        if "data.csv" in files:
            doc["dataset"] = {"csv": str(tmp_path / "data.csv")}
        else:
            doc["dataset"] = {"idx_images": str(tmp_path / "img.idx"), "idx_labels": str(tmp_path / "lab.idx")}
        path = _write_config(tmp_path, doc)
        csv = tmp_path / "written.csv"
        assert main(["run", "--config", str(path)]) == 2
        assert main(["evaluate", "--checkpoint", str(GOLDEN / "checkpoint.json"), "--config", str(path)]) == 2
        assert main(["gen-data", "--config", str(path), "--out", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 3 and all(line.startswith("error: ") for line in lines), captured.err
        assert all(any(str(tmp_path / name) in line for name in files) for line in lines), captured.err
        assert not out.exists() and not csv.exists()


class TestGolden:
    def test_blobs6_reproduces_the_committed_artifacts(self, tmp_path):
        for name, digest in GOLDEN_SHA256.items():
            assert hashlib.sha256((GOLDEN / name).read_bytes()).hexdigest() == digest, name
        doc = json.loads((REPO / "configs" / "blobs6.json").read_text())
        doc["output_dir"] = str(tmp_path / "out")
        assert main(["run", "--config", str(_write_config(tmp_path, doc))]) == 0
        for name in GOLDEN_SHA256:
            assert (tmp_path / "out" / name).read_bytes() == (GOLDEN / name).read_bytes(), f"{name} {kernel_note()}"


class TestEvaluate:
    def test_load_then_evaluate_matches_in_process(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = _write_config(tmp_path, _tiny_config(out))
        assert main(["run", "--config", str(path)]) == 0
        assert main(["evaluate", "--checkpoint", str(out / "checkpoint.json"),
                     "--config", str(path)]) == 0
        printed = capsys.readouterr().out
        assert printed == (out / "report.json").read_text()

    def test_checkpoint_is_scored_as_it_was_trained(self, tmp_path, capsys):
        # a baseline checkpoint read with a "full" config is still scored by max-softmax
        out = tmp_path / "out"
        assert main(["run", "--config", str(_write_config(tmp_path, _tiny_config(out, "baseline")))]) == 0
        full = _write_config(tmp_path, _tiny_config(out, "full"), "full.json")
        assert main(["evaluate", "--checkpoint", str(out / "checkpoint.json"), "--config", str(full)]) == 0
        assert capsys.readouterr().out == (out / "report.json").read_text()

    @pytest.mark.parametrize("dataset,known,message", [
        ({"dim": 3}, 6, "the dataset has 3 features, but the checkpoint's model takes 2"),
        ({}, 7, "the split has 7 known classes, but the checkpoint's model has 6"),
        ({}, 4, "the split has 4 known classes, but the checkpoint's model has 6"),
    ], ids=["dim_3", "7_known", "4_known"])
    def test_config_the_checkpoint_does_not_fit_exits_2_naming_both(self, tmp_path, capsys, dataset, known, message):
        doc = json.loads((REPO / "configs" / "blobs6.json").read_text())
        doc["dataset"].update(dataset)
        doc["split"].update(known_class_ids=list(range(known)), unknown_class_ids=list(range(known, 10)))
        path = _write_config(tmp_path, doc)
        assert main(["evaluate", "--checkpoint", str(GOLDEN / "checkpoint.json"), "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_config_needs_only_its_dataset_and_split(self, tmp_path, capsys):
        doc = json.loads((REPO / "configs" / "blobs6.json").read_text())
        path = _write_config(tmp_path, {"dataset": doc["dataset"], "split": doc["split"]})
        ckpt = str(GOLDEN / "checkpoint.json")
        assert main(["evaluate", "--checkpoint", ckpt, "--config", str(REPO / "configs" / "blobs6.json")]) == 0
        full = capsys.readouterr()
        assert main(["evaluate", "--checkpoint", ckpt, "--config", str(path)]) == 0
        assert capsys.readouterr() == full
        del doc["split"]
        path = _write_config(tmp_path, doc)
        assert main(["evaluate", "--checkpoint", ckpt, "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: config is missing required key 'split'\n")

    def test_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        path = _write_config(tmp_path, _tiny_config(tmp_path / "out"))
        assert main(["evaluate", "--checkpoint", str(bad), "--config", str(path)]) == 2

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        path = _write_config(tmp_path, _tiny_config(tmp_path / "out"))
        assert main(["evaluate", "--checkpoint", str(tmp_path / "none.json"),
                     "--config", str(path)]) == 2


def _narrow_first_layer(doc):
    layer = doc["pre_layers"][0]
    layer.update({"out": 32, "weights": [row[:32] for row in layer["weights"]], "biases": layer["biases"][:32]})


def _narrow_closed_head(doc):
    head = doc["closed_head"]
    head.update({"in": 15, "weights": head["weights"][:15]})


def _no_dummy_columns(doc):
    head = doc["dummy_head"]
    head.update({"out": 0, "weights": [[] for _ in head["weights"]], "biases": []})


# case -> (edit of the golden checkpoint, the cause its error names)
INCONSISTENT_CHECKPOINTS = {
    "input_dim_3": (lambda doc: doc["architecture"].update(input_dim=3), "layer 0 reads 2 inputs, but gets 3"),
    "input_dim_string": (lambda doc: doc["architecture"].update(input_dim="2"),
                         "input_dim must be an integer of at least 1, got '2'"),
    "32_outputs_into_64_inputs": (_narrow_first_layer, "layer 1 reads 64 inputs, but gets 32"),
    "closed_head_reads_15_of_16": (_narrow_closed_head,
                                   "the closed head reads 15 inputs, but the embedding is 16 wide"),
    "no_dummy_columns": (_no_dummy_columns, "dummy_head.out must be an integer of at least 1, got 0"),
    "num_known_5_declared": (lambda doc: doc["architecture"].update(num_known=5),
                             "head widths do not match the declared architecture"),
    "split_index_1": (lambda doc: doc["architecture"].update(split_index=1),
                      "split_index does not match the stored pre-layers"),
    "mean_of_length_3": (lambda doc: doc["standardization"]["mean"].append(0.0),
                         "standardization.mean has shape (3,), expected (2,)"),
    "std_0": (lambda doc: doc["standardization"]["std"].__setitem__(0, 0.0), "standardization.std must be positive"),
    "std_negative": (lambda doc: doc["standardization"]["std"].__setitem__(1, -1.0),
                     "standardization.std must be positive"),
    "standardization_null": (lambda doc: doc.update(standardization=None),
                             "standardization must be an object with mean and std, got None"),
    "no_standardization": (lambda doc: doc.pop("standardization"), "malformed checkpoint ('standardization')"),
    "bias_true": (lambda doc: doc.update(calibration_bias=True), "calibration_bias must be a number, got True"),
    "bias_string": (lambda doc: doc.update(calibration_bias="1.5"), "calibration_bias must be a number, got '1.5'"),
}


class TestInconsistentCheckpoint:
    @pytest.mark.parametrize("case", INCONSISTENT_CHECKPOINTS)
    def test_evaluate_and_grid_exit_2_naming_the_file(self, tmp_path, capsys, case):
        doc = json.loads((GOLDEN / "checkpoint.json").read_text())
        edit, cause = INCONSISTENT_CHECKPOINTS[case]
        edit(doc)
        ckpt = tmp_path / "bad.json"
        ckpt.write_text(json.dumps(doc))
        grid = tmp_path / "grid.csv"
        assert main(["evaluate", "--checkpoint", str(ckpt), "--config", str(REPO / "configs" / "blobs6.json")]) == 2
        assert main(["boundary-grid", "--checkpoint", str(ckpt), "--out", str(grid),
                     "--resolution", "3", "--range", "0", "1", "0", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not grid.exists()
        lines = captured.err.splitlines()
        assert len(lines) == 2 and all(line.startswith(f"error: {ckpt}: ") for line in lines), captured.err
        assert all(cause in line for line in lines), captured.err


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

    def test_baseline_checkpoint_is_scored_by_max_softmax(self, tmp_path):
        # the grid's score is the one `evaluate` ranks the checkpoint by
        out = tmp_path / "out"
        assert main(["run", "--config", str(_write_config(tmp_path, _tiny_config(out, "baseline")))]) == 0
        ckpt = out / "checkpoint.json"
        grid = tmp_path / "grid.csv"
        assert main(["boundary-grid", "--checkpoint", str(ckpt), "--out", str(grid),
                     "--resolution", "3", "--range", "-2", "2", "-2", "2"]) == 0
        rows = [line.split(",") for line in grid.read_text().splitlines()[1:]]
        model, _, stats = load_checkpoint(ckpt)
        points = stats.apply(np.array([[float(x), float(y)] for x, y, _, _ in rows]))
        expected = model.augmented_logits(points).max_softmax()
        assert [score for *_, score in rows] == list(map(repr, expected.tolist()))

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

    def test_non_2d_model_exits_2(self, tmp_path, capsys):
        # a checkpoint the grid does not fit is bad input, as in evaluate
        doc = _tiny_config(tmp_path / "out")
        doc["dataset"].update({"dim": 3})
        path = _write_config(tmp_path, doc)
        assert main(["run", "--config", str(path)]) == 0
        assert main(["boundary-grid", "--checkpoint", str(tmp_path / "out" / "checkpoint.json"),
                     "--out", str(tmp_path / "g.csv"),
                     "--range", "0", "1", "0", "1"]) == 2
        assert capsys.readouterr().err == "error: boundary grids need a 2-D model, this one takes 3 inputs\n"
        assert not (tmp_path / "g.csv").exists()

    # each exits 2 naming its flag, before the checkpoint is read (the path
    # does not exist) and without writing a grid
    @pytest.mark.parametrize("flags,named", [
        (["--resolution", "0"], "--resolution"),
        (["--resolution", str(MAX_RESOLUTION + 1)], "--resolution"),
        (["--range", "nan", "7", "-7", "7"], "--range"),
    ])
    def test_usage_errors_exit_2_naming_the_flag(self, tmp_path, capsys, flags, named):
        grid = tmp_path / "grid.csv"
        argv = ["boundary-grid", "--checkpoint", str(tmp_path / "missing.json"), "--out", str(grid),
                "--resolution", "3", "--range", "-7", "7", "-7", "7", *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} ") and "missing.json" not in err, err
        assert not grid.exists()


def _grid_csv_row_loop(grid, labels, scores) -> str:
    """The per-row f-string writer `write_grid_csv` replaced, kept as its oracle."""
    lines = ["x,y,label,score\n"]
    for (x, y), label, s in zip(grid, labels, scores):
        lines.append(f"{float(x)!r},{float(y)!r},{int(label)},{float(s)!r}\n")
    return "".join(lines)


def test_grid_csv_matches_the_row_loop():
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 2.0, -3.0, 1e16, 123456789.0, 0.1, 1 / 3]
    rng = np.random.default_rng(0)

    def axis(n):
        return np.concatenate([special, rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)])

    # both axes hold every special value; their lengths differ, so a writer
    # that swapped the loop order would not match
    xs, ys = axis(40), rng.permutation(axis(21))
    gx, gy = np.meshgrid(xs, ys)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    labels = rng.integers(0, 7, len(grid))
    scores = rng.permutation(np.resize(xs, len(grid)))
    out = io.StringIO()
    write_grid_csv(out, xs, ys, labels, scores)
    assert out.getvalue() == _grid_csv_row_loop(grid, labels, scores)


_GRID_FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 2.0, 1e16, 0.1, 1 / 3,
                                           float("nan"), float("inf"), -float("inf")]),
                         st.floats())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_grid_csv_matches_the_row_loop_on_drawn_grids(data):
    xs = data.draw(hnp.arrays(np.float64, st.integers(1, 30), elements=_GRID_FLOATS))
    ys = data.draw(hnp.arrays(np.float64, st.integers(1, 30), elements=_GRID_FLOATS))
    label_count = data.draw(st.integers(1, 8))
    labels = data.draw(hnp.arrays(np.int64, len(xs) * len(ys), elements=st.integers(0, label_count - 1)))
    scores = data.draw(hnp.arrays(np.float64, len(xs) * len(ys), elements=_GRID_FLOATS))
    gx, gy = np.meshgrid(xs, ys)
    out = io.StringIO()
    write_grid_csv(out, xs, ys, labels, scores)
    assert out.getvalue() == _grid_csv_row_loop(np.column_stack([gx.ravel(), gy.ravel()]), labels, scores)


class TestBlobs6Grid:
    def test_300_grid_keeps_its_bytes(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["boundary-grid", "--checkpoint", str(GOLDEN / "checkpoint.json"), "--out", str(out),
                     "--resolution", "300", "--range", "-7", "7", "-7", "7"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GRID_300_SHA256, kernel_note()

    def test_writing_the_300_grid_holds_bounded_memory(self, tmp_path):
        model, _, stats = load_checkpoint(GOLDEN / "checkpoint.json")
        axis = np.linspace(-7.0, 7.0, 300)
        gx, gy = np.meshgrid(axis, axis)
        aug = model.augmented_logits(stats.apply(np.column_stack([gx.ravel(), gy.ravel()])))
        labels, scores = aug.predictions(model.calibration_bias), aug.knownness(model.calibration_bias)
        out = tmp_path / "grid.csv"
        with open(out, "w", encoding="utf-8") as f:
            tracemalloc.start()
            try:
                write_grid_csv(f, axis, axis, labels, scores)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GRID_300_SHA256, kernel_note()
        assert peak < 2e6, f"writing the grid peaked at {peak / 1e6:.2f} MB"


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

    def test_reads_only_the_dataset_block(self, tmp_path):
        doc = _tiny_config(tmp_path / "out")
        full_csv, partial_csv = tmp_path / "full.csv", tmp_path / "partial.csv"
        assert main(["gen-data", "--config", str(_write_config(tmp_path, doc)), "--out", str(full_csv)]) == 0
        del doc["train"], doc["output_dir"]
        path = _write_config(tmp_path, doc, "partial.json")
        assert main(["gen-data", "--config", str(path), "--out", str(partial_csv)]) == 0
        assert partial_csv.read_bytes() == full_csv.read_bytes()


class TestOversizedInput:
    """Input too large to parse or to hold exits 2 with one `error:` line."""

    @pytest.mark.parametrize("command", ["run", "evaluate", "boundary-grid"])
    def test_deeply_nested_json_exits_2_naming_the_file(self, tmp_path, capsys, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        grid = tmp_path / "grid.csv"
        argv = {
            "run": ["run", "--config", str(deep)],
            "evaluate": ["evaluate", "--checkpoint", str(deep), "--config", str(REPO / "configs" / "blobs6.json")],
            "boundary-grid": ["boundary-grid", "--checkpoint", str(deep), "--out", str(grid),
                              "--resolution", "3", "--range", "0", "1", "0", "1"],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not grid.exists()
        assert captured.err.startswith(f"error: {deep}: ") and captured.err.count("\n") == 1, captured.err

    def test_a_count_too_large_to_convert_exits_2(self, tmp_path, capsys):
        doc = _tiny_config(tmp_path / "out")
        doc["dataset"]["per_class"] = 10 ** 20
        out_csv = tmp_path / "data.csv"
        assert main(["gen-data", "--config", str(_write_config(tmp_path, doc)), "--out", str(out_csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out_csv.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err

    @pytest.mark.parametrize("key,rule",[("beta", "nonnegative"), ("gamma", "nonnegative"),
                                          ("alpha", "positive"), ("learning_rate", "positive")])
    def test_a_hyperparameter_above_float_range_exits_2(self, tmp_path, capsys, monkeypatch, key, rule):
        # a JSON integer parses exactly, and 10**400 is above every float;
        # TrainConfig refuses it by name, before the output directory is made
        monkeypatch.setattr("openset.cli.pretrain_closed", _no_training)
        out = tmp_path / "out"
        doc = _tiny_config(out, train_overrides={key: 10 ** 400})
        assert main(["run", "--config", str(_write_config(tmp_path, doc))]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"error: invalid train block: {key} must be {rule} and finite, got 1{'0' * 400}\n"

    @pytest.mark.parametrize("command", ["run", "gen-data"])
    def test_a_dataset_too_large_to_allocate_exits_2(self, tmp_path, capsys, monkeypatch, command):
        # a real multi-TiB request could be granted on a host that overcommits, then killed
        message = "Unable to allocate 146. TiB for an array with shape (10000000000000, 2) and data type float64"

        @functools.wraps(cli.gen_gaussian_blobs)  # the config parser reads its signature
        def too_large(**params):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "gen_gaussian_blobs", too_large)
        monkeypatch.setattr(cli, "pretrain_closed", _no_training)
        path = _write_config(tmp_path, _tiny_config(tmp_path / "out"))
        argv = ["run", "--config", str(path)] if command == "run" else \
            ["gen-data", "--config", str(path), "--out", str(tmp_path / "data.csv")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists() and not (tmp_path / "data.csv").exists()


class TestLeanProcess:
    def test_run_evaluate_and_grid_never_import_numpy_ma(self, tmp_path):
        # np.unique imports all of numpy.ma on its first call (about 11 ms of
        # CPU and 1.2 MB of memory), so no command may reach it
        config = str(_write_config(tmp_path, _tiny_config(tmp_path / "out")))
        checkpoint = str(tmp_path / "out" / "checkpoint.json")
        commands = [["run", "--config", config],
                    ["evaluate", "--checkpoint", checkpoint, "--config", config],
                    ["boundary-grid", "--checkpoint", checkpoint, "--out", str(tmp_path / "grid.csv"),
                     "--resolution", "5", "--range", "-7", "7", "-7", "7"]]
        script = ("import json, sys\n"
                  "from openset.cli import main\n"
                  "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
                  "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [[0, 0, 0], False]


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
        report = evaluate(model, test, cfg.split, cfg.train.train_mode)
        assert json_text(asdict(report)) + "\n" == (out / "report.json").read_text()


def _count_augmented_logits(monkeypatch):
    """Record the row count of every SplitMlp.augmented_logits call."""
    calls = []
    forward = SplitMlp.augmented_logits

    def counted(self, x):
        calls.append(len(x))
        return forward(self, x)

    monkeypatch.setattr(SplitMlp, "augmented_logits", counted)
    return calls


class TestScoreOnce:
    def _run(self, tmp_path):
        out = tmp_path / "out"
        path = _write_config(tmp_path, _tiny_config(out))
        assert main(["run", "--config", str(path)]) == 0
        return path, out / "checkpoint.json"

    def test_evaluate_makes_one_forward_pass(self, tmp_path, capsys, monkeypatch):
        path, ckpt = self._run(tmp_path)
        model, _, stats = load_checkpoint(ckpt)
        cfg = load_run_config(path)
        _, _, test = split_known_unknown(cfg.dataset.load(), cfg.split)
        test = LabeledSet(stats.apply(test.features), test.labels)
        calls = _count_augmented_logits(monkeypatch)
        for mode in TRAIN_MODES:
            evaluate(model, test, cfg.split, mode)
        assert main(["evaluate", "--checkpoint", str(ckpt), "--config", str(path)]) == 0
        assert calls == [len(test)] * (len(TRAIN_MODES) + 1)

    def test_boundary_grid_makes_one_forward_pass(self, tmp_path, monkeypatch):
        _, ckpt = self._run(tmp_path)
        calls = _count_augmented_logits(monkeypatch)
        assert main(["boundary-grid", "--checkpoint", str(ckpt), "--out", str(tmp_path / "g.csv"),
                     "--resolution", "4", "--range", "0", "1", "0", "1"]) == 0
        assert calls == [16]


class TestNonFinite:
    def test_nan_learning_rate_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = _tiny_config(out, train_overrides={"learning_rate": float("nan")})
        path = _write_config(tmp_path, doc)
        assert "NaN" in path.read_text()
        assert main(["run", "--config", str(path)]) == 2
        assert "learning_rate must be positive and finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_divergent_run_exits_1_and_writes_no_artifact(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = _tiny_config(out, train_overrides={"learning_rate": 50.0, "pretrain_epochs": 2,
                                                 "finetune_epochs": 1})
        with np.errstate(all="ignore"):
            assert main(["run", "--config", str(_write_config(tmp_path, doc))]) == 1
        assert ("training diverged: pretrain epoch 0 has a non-finite loss or parameter"
                in capsys.readouterr().err)
        for name in ("report.json", "checkpoint.json", "calibration.json"):
            assert not (out / name).exists(), name

    def test_non_finite_checkpoint_fails_evaluate_and_grid(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = _write_config(tmp_path, _tiny_config(out))
        assert main(["run", "--config", str(path)]) == 0
        # json.loads reads all three tokens as numbers (1e999 overflows to inf)
        for token, field, keys in (("NaN", "closed_head.biases", ("closed_head", "biases", 0)),
                                   ("Infinity", "calibration_bias", ("calibration_bias",)),
                                   ("1e999", "standardization.std", ("standardization", "std", 1))):
            doc = json.loads((out / "checkpoint.json").read_text())
            *parents, last = keys
            node = doc
            for key in parents:
                node = node[key]
            node[last] = "BAD"
            ckpt = tmp_path / f"{token}.json"
            ckpt.write_text(json.dumps(doc).replace('"BAD"', token))
            capsys.readouterr()
            assert main(["evaluate", "--checkpoint", str(ckpt), "--config", str(path)]) == 2
            grid = tmp_path / "g.csv"
            assert main(["boundary-grid", "--checkpoint", str(ckpt), "--out", str(grid),
                         "--resolution", "3", "--range", "0", "1", "0", "1"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count(f"{ckpt}: non-finite number in {field}") == 2, token
            assert not grid.exists()


def _readme_commands() -> list[str]:
    """Every `openset ...` command in README.md's bash blocks, `\\` continuations joined."""
    blocks = re.findall(r"^```bash\n(.*?)^```", (REPO / "README.md").read_text(), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("openset ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 6, commands
    parser = _build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
