"""The shared protocol: the experiment and the two commands on it, `compare` and `sweep`."""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from openset.calibration import CalibrationConfig
from openset.cli import load_run_config, main, parse_run_config
from openset.datastore import LabeledSet, OpenSplit, gen_gaussian_blobs, split_known_unknown
from openset.pipeline import experiment, prepare
from openset.trainer import TRAIN_MODES, TrainConfig, pretrain_closed

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
BLOBS6 = CONFIGS / "blobs6.json"


def _param_bytes(model) -> list[bytes]:
    return [p.tobytes() for p in model.parameters()]


def test_experiment_trains_copies_and_leaves_pretrained_untouched():
    data = gen_gaussian_blobs(5, 40, dim=2, center_scale=5.0, spread=0.4, seed=3)
    split = OpenSplit([0, 1, 2], [3, 4], val_fraction=0.15, test_fraction=0.3, seed=3)
    config = TrainConfig(pretrain_epochs=10, finetune_epochs=5, batch_size=16, seed=3)
    train, val, test, _ = prepare(data, split)
    before = _param_bytes(pretrain_closed(train, config))

    results = experiment(train, val, test, split, config, CalibrationConfig())

    assert list(results) == list(TRAIN_MODES)
    assert len({id(model) for model, _, _ in results.values()}) == len(TRAIN_MODES)
    assert _param_bytes(results["baseline"][0]) == before
    for mode in TRAIN_MODES[1:]:
        assert _param_bytes(results[mode][0]) != before, f"{mode} did not fine-tune"


def test_prepare_holds_one_copy_of_the_split_and_leaves_data_untouched():
    rng = np.random.default_rng(0)
    rows = 3000
    data = LabeledSet(rng.random((rows, 784)), rng.permutation(np.arange(rows) % 10))
    original = data.features.copy()
    split = OpenSplit(list(range(6)), list(range(6, 10)), seed=0)
    prepare(LabeledSet(data.features[:200], data.labels[:200]), split)  # first-call imports
    tracemalloc.start()
    try:
        train, val, test, stats = prepare(data, split)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the split parts (1x) plus fitting the statistics on the train part;
    # copying the parts and standardizing into new arrays peaked at 2.6x
    assert peak <= 1.5 * data.features.nbytes, f"prepare peaked at {peak / data.features.nbytes:.2f}x the data"
    assert data.features.tobytes() == original.tobytes()
    for part, fresh in zip((train, val, test), split_known_unknown(data, split)):
        assert part.features.tobytes() == stats.apply(fresh.features).tobytes()
        assert part.labels.tobytes() == fresh.labels.tobytes()


def _tiny_blobs6() -> dict:
    """configs/blobs6.json with 30 rows per class and 2 + 1 epochs."""
    doc = json.loads(BLOBS6.read_text())
    doc["dataset"]["per_class"] = 30
    doc["train"].update(pretrain_epochs=2, finetune_epochs=1)
    return doc


def _tiny_sweep() -> dict:
    """configs/sweep_blobs.json with 8 classes of 30 rows, unknown classes 6
    and 7, and 2 + 1 epochs."""
    doc = json.loads((CONFIGS / "sweep_blobs.json").read_text())
    doc["dataset"].update(num_classes=8, per_class=30)
    doc["split"]["unknown_class_ids"] = [6, 7]
    doc["train"].update(pretrain_epochs=2, finetune_epochs=1)
    return doc


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.name)
def test_every_bundled_config_loads_and_fits_its_split(path):
    cfg = load_run_config(path, ("dataset", "split", "train"))
    train, val, test, _ = prepare(cfg.dataset.load(), cfg.split)
    assert len(train) and len(val) and len(test)


def test_experiment_calibrates_with_the_calibration_block():
    doc = _tiny_blobs6()
    doc["calibration"] = {"intervals": 7}
    cfg = parse_run_config(doc)
    train, val, test, _ = prepare(cfg.dataset.load(), cfg.split)
    results = experiment(train, val, test, cfg.split, cfg.train, cfg.calibration)
    assert {mode: calib.candidate_count for mode, (_, calib, _) in results.items()} == \
        dict.fromkeys(TRAIN_MODES, 8)


def test_at_seed_sets_the_generator_split_and_train_seeds():
    doc = _tiny_blobs6()
    cfg = parse_run_config(doc).at_seed(3)
    assert (cfg.dataset.params["seed"], cfg.split.seed, cfg.train.seed) == (3, 3, 3)
    doc["dataset"] = {"csv": "rows.csv"}
    assert parse_run_config(doc).at_seed(3).dataset.params == {"csv": "rows.csv"}


def _run(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def _write_tiny(path, doc=None, **blocks) -> str:
    """`doc` (the tiny blobs6 by default), each block named in `blocks`
    updated with its fields, written to `path`."""
    doc = doc or _tiny_blobs6()
    for name, values in blocks.items():
        doc[name].update(values)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def tiny_config(tmp_path) -> str:
    return _write_tiny(tmp_path / "tiny.json")


@pytest.fixture
def tiny_sweep_config(tmp_path) -> str:
    return _write_tiny(tmp_path / "sweep.json", _tiny_sweep())

# Each command's full stdout for these arguments: a change to the task, the
# split, the training or the scoring shows here.
SYNTHETIC_TINY = """\
seed 0 done

6 known / 4 unknown blobs, 1 seeds (mean ± std)
mode                      AUC         macro-F1       closed acc
baseline        0.549 ± 0.000    0.224 ± 0.000    0.296 ± 0.000
dummy_only      0.656 ± 0.000    0.224 ± 0.000    0.296 ± 0.000
mixup_only      0.652 ± 0.000    0.224 ± 0.000    0.296 ± 0.000
full            0.657 ± 0.000    0.224 ± 0.000    0.296 ± 0.000
"""
OPENNESS_TINY = """\
 unknown  openness    baseline  dummy_only  mixup_only        full
       1     7.42%       0.180       0.180       0.180       0.180
       2    13.40%       0.185       0.193       0.189       0.193
"""


def test_synthetic_benchmark_prints_a_row_per_mode(tiny_config, capsys):
    assert _run(["compare", "--seeds", "1", "--config", tiny_config], capsys) == SYNTHETIC_TINY


def test_openness_sweep_prints_a_column_per_mode(tiny_sweep_config, capsys):
    argv = ["sweep", "--unknown-counts", "1", "2", "--config", tiny_sweep_config]
    assert _run(argv, capsys) == OPENNESS_TINY


def test_openness_sweep_without_unknown_classes_prints_the_closed_set_row(tiny_sweep_config, capsys):
    argv = ["sweep", "--unknown-counts", "0", "--config", tiny_sweep_config]
    assert _run(argv, capsys) == OPENNESS_TINY.splitlines(True)[0] + \
        "       0     0.00%       0.180       0.180       0.180       0.180\n"


@pytest.mark.parametrize("argv, message", [
    (["compare", "--config", "{missing}"], "No such file or directory"),
    (["sweep", "--config", "{missing}"], "No such file or directory"),
    (["compare", "--seeds", "0", "--config", "{tiny}"], "--seeds must be at least 1, got 0"),
    (["compare", "--config", "{unknown_12}"], "class 12 not present in the dataset"),
    (["sweep", "--unknown-counts", "2", "--config", "{negative_seed}"], "seed must be an integer of at least 0, got -1"),
    (["sweep", "--unknown-counts", "2", "--config", "{per_class_0}"], "per_class must be an integer of at least 1, got 0"),
    (["sweep", "--unknown-counts", "2", "--config", "{per_class_2}"], "known class 0 has 2 rows, too few for val_fraction"),
    (["sweep", "--unknown-counts", "2", "-1", "--config", "{sweep}"],
     "--unknown-counts must be in [0, 2], the split's unknown classes, got -1"),
    (["sweep", "--unknown-counts", "2", "3", "--config", "{sweep}"],
     "--unknown-counts must be in [0, 2], the split's unknown classes, got 3"),
], ids=["compare_missing_config", "sweep_missing_config", "compare_no_seeds", "compare_split_class_missing",
        "sweep_negative_seed", "sweep_no_rows", "sweep_too_few_rows", "sweep_negative_unknown_count",
        "sweep_count_above_the_unknown_classes"])
def test_experiments_refuse_bad_input_with_exit_2(tmp_path, capsys, argv, message):
    paths = {"missing": str(tmp_path / "missing.json"), "tiny": _write_tiny(tmp_path / "tiny.json"),
             "unknown_12": _write_tiny(tmp_path / "unknown_12.json", split={"unknown_class_ids": [6, 7, 8, 12]}),
             "sweep": _write_tiny(tmp_path / "sweep.json", _tiny_sweep()),
             "negative_seed": _write_tiny(tmp_path / "negative_seed.json", _tiny_sweep(), dataset={"seed": -1}),
             "per_class_0": _write_tiny(tmp_path / "per_class_0.json", _tiny_sweep(), dataset={"per_class": 0}),
             "per_class_2": _write_tiny(tmp_path / "per_class_2.json", _tiny_sweep(), dataset={"per_class": 2})}
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err


@pytest.mark.parametrize("seeds", [1001, 10 ** 400], ids=["cap_plus_1", "ten_to_the_400"])
def test_seeds_above_the_cap_exit_2_before_any_seed_trains(tmp_path, capsys, monkeypatch, seeds):
    def no_training(*args, **kwargs):
        raise AssertionError("a seed trained")

    monkeypatch.setattr("openset.cli.experiment", no_training)
    path = _write_tiny(tmp_path / "tiny.json")
    assert main(["compare", "--seeds", str(seeds), "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --seeds must be at most 1000, got {seeds}\n"


def test_a_diverged_experiment_exits_1(tmp_path, capsys):
    path = _write_tiny(tmp_path / "tiny.json", train={"learning_rate": 1e300})
    with np.errstate(all="ignore"):
        assert main(["compare", "--seeds", "1", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: training diverged: ") and captured.err.count("\n") == 1, captured.err
