"""The benchmark's tracer can wrap every function it names.

`perfbench/tracer.py` wraps named functions and methods of `openset` with
timing spans. A renamed or moved target, or a changed layer signature,
would only fail a traced benchmark run; these tests fail first. They load
the tracer's target table without installing anything, and install it only
in a child process. The benchmark's child process (`perfbench/child.py`)
times training through two `cli` names; one test runs it untraced on a
training workload, and one on the scoring workload.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TRACER = REPO / "perfbench" / "tracer.py"
CHILD = REPO / "perfbench" / "child.py"

# runs `openset run --config argv[1]` with every tracer target installed and
# prints the exit code and the per-layer metrics as one JSON line
TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[2])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import openset.cli as cli
spans = tracer.Tracer()
tracer.install(spans)
code = cli.main(["run", "--config", sys.argv[1]])
print(json.dumps({"exit": code, **tracer.layer_metrics(spans.spans)}))
"""


def _traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_every_traced_target_resolves_in_openset():
    targets = _traced_targets()
    assert targets
    for name, module_name, attr, cls_name, _ in targets:
        assert module_name == "openset" or module_name.startswith("openset."), name
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name, None)
            assert inspect.isclass(owner), f"{name}: no class {module_name}.{cls_name}"
        assert callable(getattr(owner, attr, None)), f"{name}: no {cls_name or module_name}.{attr}"


def test_layer_methods_take_their_rows_first():
    # the layer spans record len(args[1]): the input of forward and the
    # output gradient of backward
    from openset.gradcore import DenseLayer

    for method, arg in ((DenseLayer.forward, "x"), (DenseLayer.backward, "grad_out")):
        assert list(inspect.signature(method).parameters)[1] == arg


def _tiny_config(tmp_path) -> Path:
    config = {
        "dataset": {"generator": "blobs", "num_classes": 4, "per_class": 30, "dim": 2, "seed": 1},
        "split": {"known_class_ids": [0, 1, 2], "unknown_class_ids": [3], "seed": 1},
        "train": {"batch_size": 16, "pretrain_epochs": 2, "finetune_epochs": 2, "seed": 1},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def _run_python(*args) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True, timeout=120, env=env)


def test_the_benchmark_child_marks_the_training_of_a_run(tmp_path):
    # perfbench/child.py rebinds cli.pretrain_closed and
    # cli.finetune_placeholders to time training: a `run` that trained
    # around those two names would leave its marks unset
    from openset.cli import load_run_config
    from openset.datastore import split_known_unknown

    path = _tiny_config(tmp_path)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"workload": "blobs6_run", "config": str(path), "trace": False}))
    result = tmp_path / "result.json"
    done = _run_python(CHILD, spec, result)
    assert done.returncode == 0, done.stderr
    marks = json.loads(result.read_text())
    assert marks["ready_cpu"] <= marks["end_cpu"]
    cfg = load_run_config(path)
    train_rows = len(split_known_unknown(cfg.dataset.load(), cfg.split)[0])
    assert marks["rows"] == train_rows * (cfg.train.pretrain_epochs + cfg.train.finetune_epochs)


def test_the_benchmark_child_scores_the_committed_checkpoint(tmp_path):
    # the open_eval workload, untraced, on blobs6 itself: its report, its
    # calibration and its grid are the ones the program writes
    golden = REPO / "out" / "blobs6"
    spec = tmp_path / "spec.json"
    report, grid = tmp_path / "report.json", tmp_path / "grid.csv"
    spec.write_text(json.dumps({
        "workload": "open_eval", "checkpoint": str(golden / "checkpoint.json"),
        "config": str(REPO / "configs" / "blobs6.json"), "report": str(report), "grid": str(grid),
        "grid_resolution": 3, "grid_range": [-7.0, 7.0, -7.0, 7.0], "test_rows": 6 * 90 + 4 * 300, "trace": False,
    }))
    result = tmp_path / "result.json"
    done = _run_python(CHILD, spec, result)
    assert done.returncode == 0, done.stderr
    assert report.read_bytes() == (golden / "report.json").read_bytes()
    calibration = json.loads((golden / "calibration.json").read_text())
    marks = json.loads(result.read_text())
    for key in ("chosen_bias", "achieved_known_rate", "target_met"):
        assert marks["calibration"][key] == calibration[key], key
    assert len(grid.read_text().splitlines()[1:]) == 9


def test_a_traced_run_counts_its_training_rows(tmp_path):
    done = _run_python("-c", TRACED_RUN, _tiny_config(tmp_path), TRACER)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])
    assert metrics["exit"] == 0
    assert metrics["gradcore.forward.rows"] > 0
    assert metrics["trainer.monitor_forward_rows"] == 0
    # the fine-tuning step reaches both losses and the pairing by the names
    # the tracer wraps
    assert metrics["placeholders.classifier_loss.self_s"] > 0
    assert metrics["placeholders.data_loss.self_s"] > 0
    assert metrics["placeholders.mix_pairs.survival"] > 0
    # the run generates, splits and saves through the names the tracer wraps:
    # a call made around a traced name would read 0 here
    assert metrics["datastore.generate_s"] > 0
    assert metrics["datastore.split_s"] > 0
    assert metrics["checkpoint.save.bytes"] > 0
    # the run evaluates through the names the tracer wraps: AUC and ROC
    # counted without calling them would read 0 here
    assert metrics["metrics.evaluate_s"] > 0
    assert metrics["metrics.auc_s"] > 0
    assert metrics["metrics.roc_points.thresholds"] > 0
