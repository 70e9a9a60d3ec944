"""One iteration of one workload, in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC RESULT

SPEC is a JSON file that run.py writes: the workload, its input paths, the
monotonic time at which the parent spawned this process, and whether to
trace. RESULT receives the marks the parent turns into end-to-end metrics
(the CPU time spent when set-up is done and when the main stage ends, and
the rows processed) and, when traced, the per-layer metrics. `openset` must
be importable (run.py puts `src` on PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
import platform
import sys
import time

import openset.cli as cli

import tracer as tracing


def environment() -> dict:
    """numpy, its BLAS and the BLAS thread count this process really uses."""
    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                env["blas_threads"] = fn()
                return env
    env["blas_threads"] = None
    return env


def _mark_training(marks: dict) -> None:
    """Record the start of pretraining (inputs ready) and the end of fine-tuning."""
    pretrain, finetune = cli.pretrain_closed, cli.finetune_placeholders

    def pretrain_closed(dataset, config, *args, **kwargs):
        marks["ready_cpu"] = time.process_time()
        marks["rows"] = len(dataset) * (config.pretrain_epochs + config.finetune_epochs)
        return pretrain(dataset, config, *args, **kwargs)

    def finetune_placeholders(*args, **kwargs):
        model = finetune(*args, **kwargs)
        marks["end_cpu"] = time.process_time()
        return model

    cli.pretrain_closed, cli.finetune_placeholders = pretrain_closed, finetune_placeholders


def run_training(spec: dict, marks: dict) -> int:
    _mark_training(marks)
    return cli.main(["run", "--config", spec["config"]])


def run_open_eval(spec: dict, marks: dict) -> int:
    from openset import calibration, checkpoint, datastore

    model, _, stats = checkpoint.load_checkpoint(spec["checkpoint"])
    cfg = cli.load_run_config(spec["config"])
    _, val, _ = datastore.split_known_unknown(cfg.dataset.load(), cfg.split)
    val_features = stats.apply(val.features)
    marks["ready_cpu"] = time.process_time()

    calib = calibration.select_bias(model, val_features, cfg.calibration.target_rate,
                                    cfg.calibration.intervals)
    with open(spec["report"], "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        rc_eval = cli.main(["evaluate", "--checkpoint", spec["checkpoint"], "--config", spec["config"]])
    resolution = spec["grid_resolution"]
    rc_grid = cli.main(["boundary-grid", "--checkpoint", spec["checkpoint"], "--out", spec["grid"],
                        "--resolution", str(resolution), "--range", *map(str, spec["grid_range"])])
    marks["end_cpu"] = time.process_time()

    marks["rows"] = len(val_features) + spec["test_rows"] + resolution * resolution
    marks["calibration"] = {"chosen_bias": calib.chosen_bias, "achieved_known_rate": calib.achieved_known_rate,
                            "target_rate": cfg.calibration.target_rate, "target_met": calib.target_met}
    return rc_eval or rc_grid


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.add_span("startup", spec["spawn"], time.monotonic())
        tracing.install(tracer)
    marks: dict = {}
    run = run_open_eval if spec["workload"] == "open_eval" else run_training
    rc = run(spec, marks)
    start = time.monotonic()
    marks["env"] = environment()
    if tracer is not None:
        marks["layers"] = tracing.layer_metrics(tracer.spans)
        marks["layers"]["trace.report_s"] = time.monotonic() - start
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(marks, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
