"""In-memory spans around the public functions of `openset`, placed from outside.

`install` replaces each traced function or method with a wrapper that
records (name, start, end, parent, info) in a list. A function bound into
another module with `from .x import f` is replaced there too, so no call
escapes its span. `layer_metrics` turns the spans of one process into the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time

def _layer_info(args, result):
    layer, x = args[0], args[1]
    return (len(x), layer.in_dim, layer.out_dim, id(layer))


def _first_layer(args, result):
    return id(result.layers()[0])


def _pairs_info(args, result):
    return (len(args[0]), len(result))


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths)


# (span name, module, attribute, class or None, info(args, result) or None);
# info runs after the call and records the counts a metric needs
TRACED = [
    ("gradcore.forward", "openset.gradcore", "forward", "DenseLayer", _layer_info),
    ("gradcore.backward", "openset.gradcore", "backward", "DenseLayer", _layer_info),
    ("gradcore.sgd_step", "openset.gradcore", "step", "SgdMomentum", None),
    ("gradcore.cross_entropy", "openset.gradcore", "cross_entropy_from_logits", None, None),
    ("trainer.pretrain", "openset.trainer", "pretrain_closed", None, _first_layer),
    ("trainer.finetune", "openset.trainer", "finetune_placeholders", None, _first_layer),
    ("placeholders.classifier_loss", "openset.placeholders", "loss_classifier_placeholder", None, None),
    ("placeholders.data_loss", "openset.placeholders", "loss_data_placeholder", None, None),
    ("placeholders.mix_pairs", "openset.placeholders", "build_mix_pairs", None, _pairs_info),
    ("network.heads", "openset.network", "heads_from_embedding", "SplitMlp", None),
    ("network.split_grad", "openset.network", "split_combined_grad", None, None),
    ("network.score", "openset.network", "predict_open", None, None),
    ("network.score", "openset.network", "knownness_score", None, None),
    ("network.score", "openset.network", "baseline_confidence", None, None),
    ("network.score", "openset.calibration", "logit_gaps", None, None),
    ("metrics.evaluate", "openset.metrics", "evaluate", None, None),
    ("metrics.roc_points", "openset.metrics", "roc_points", None, lambda a, r: len(r) - 1),
    ("metrics.auc", "openset.metrics", "auc", None, None),
    ("calibration.select_bias", "openset.calibration", "select_bias", None, None),
    ("datastore.generate", "openset.datastore", "gen_gaussian_blobs", None, None),
    ("datastore.generate", "openset.datastore", "gen_rings", None, None),
    ("datastore.load_idx", "openset.datastore", "load_idx", None, lambda a, r: _file_bytes(a[0], a[1])),
    ("datastore.split", "openset.datastore", "split_known_unknown", None, None),
    ("checkpoint.save", "openset.checkpoint", "save_checkpoint", None, lambda a, r: _file_bytes(a[0])),
    ("checkpoint.load", "openset.checkpoint", "load_checkpoint", None, None),
    ("cli.main", "openset.cli", "main", None, None),
]

# the real (in, out) shapes of the three workloads' dense layers
SHAPES = ("2x64", "784x64", "64x64", "64x32", "32x16", "16x6", "16x5")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if info is not None:
                spans[idx] = (name, start, end, parent, info(args, result))
            return result

        return traced

    def add_span(self, name: str, start: float, end: float) -> None:
        """A span recorded after the fact, such as interpreter start-up."""
        self.spans.append((name, start, end, -1, None))


def install(tracer: Tracer) -> None:
    """Wrap every TRACED target, in its home module and wherever it is re-bound."""
    modules = [m for n, m in sys.modules.items() if n == "openset" or n.startswith("openset.")]
    for name, module_name, attr, cls_name, info in TRACED:
        home = sys.modules[module_name]
        owner = getattr(home, cls_name) if cls_name else home
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, info)
        setattr(owner, attr, wrapped)
        if cls_name is None:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of one traced process; a layer the workload never
    calls reports 0."""
    n = len(spans)
    child_time = [0.0] * n
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = [s[2] - s[1] - c for s, c in zip(spans, child_time)]

    def trainer_root(i: int) -> int:
        while i >= 0 and not spans[i][0].startswith("trainer."):
            i = spans[i][3]
        return i

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def self_s(*names: str) -> float:
        return sum(self_time[i] for name in names for i in by_name.get(name, []))

    def total_s(name: str) -> float:
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, []))

    m: dict[str, float] = {}
    fwd = by_name.get("gradcore.forward", [])
    bwd = by_name.get("gradcore.backward", [])
    m["gradcore.forward.calls"] = len(fwd)
    m["gradcore.forward.rows"] = sum(spans[i][4][0] for i in fwd)
    m["gradcore.forward.self_s"] = self_s("gradcore.forward")
    m["gradcore.backward.self_s"] = self_s("gradcore.backward")
    m["gradcore.sgd_step.self_s"] = self_s("gradcore.sgd_step")
    m["gradcore.cross_entropy.self_s"] = self_s("gradcore.cross_entropy")
    # computed from shapes: one gemm forward, two backward
    m["gradcore.gemm_flops"] = sum(2 * r * a * b for r, a, b, _ in (spans[i][4] for i in fwd)) + sum(
        4 * r * a * b for r, a, b, _ in (spans[i][4] for i in bwd))
    for kind, idxs in (("forward", fwd), ("backward", bwd)):
        per_shape: dict[str, list[float]] = {}
        for i in idxs:
            _, a, b, _ = spans[i][4]
            per_shape.setdefault(f"{a}x{b}", []).append(self_time[i] * 1e6)
        for shape in SHAPES:
            m[f"gradcore.{kind}.us.{shape}"] = statistics.median(per_shape[shape]) if shape in per_shape else 0.0

    trainer = by_name.get("trainer.pretrain", []) + by_name.get("trainer.finetune", [])
    m["trainer.pretrain_s"] = total_s("trainer.pretrain")
    m["trainer.finetune_s"] = total_s("trainer.finetune")
    m["trainer.self_s"] = self_s("trainer.pretrain", "trainer.finetune")
    steps: dict[int, list[float]] = {}
    for i in by_name.get("gradcore.sgd_step", []):
        steps.setdefault(trainer_root(i), []).append(spans[i][1])
    intervals = sorted(1e3 * (b - a) for starts in steps.values() for a, b in zip(starts, starts[1:]))
    m["trainer.step_ms.p50"] = _quantile(intervals, 0.50)
    m["trainer.step_ms.p95"] = _quantile(intervals, 0.95)
    # rows forwarded through the input layer in training minus those that got
    # a backward pass: the monitoring passes between optimizer steps
    first_layers = {spans[i][4] for i in trainer if spans[i][4] is not None}
    monitor = 0
    for sign, idxs in ((1, fwd), (-1, bwd)):
        for i in idxs:
            if spans[i][4][3] in first_layers and trainer_root(i) >= 0:
                monitor += sign * spans[i][4][0]
    m["trainer.monitor_forward_rows"] = monitor

    m["placeholders.classifier_loss.self_s"] = self_s("placeholders.classifier_loss")
    m["placeholders.data_loss.self_s"] = self_s("placeholders.data_loss")
    pairs = [spans[i][4] for i in by_name.get("placeholders.mix_pairs", [])]
    half_rows = sum(p[0] for p in pairs)
    m["placeholders.mix_pairs.survival"] = sum(p[1] for p in pairs) / half_rows if half_rows else 0.0
    m["placeholders.mix_pairs.empty"] = sum(1 for p in pairs if p[1] == 0)

    m["network.heads.self_s"] = self_s("network.heads")
    m["network.split_grad.self_s"] = self_s("network.split_grad")
    m["network.score_forwards"] = len(by_name.get("network.score", []))

    m["metrics.evaluate_s"] = total_s("metrics.evaluate")
    m["metrics.roc_points_s"] = total_s("metrics.roc_points")
    m["metrics.roc_points.thresholds"] = sum(spans[i][4] for i in by_name.get("metrics.roc_points", []))
    m["metrics.auc_s"] = total_s("metrics.auc")
    m["calibration.select_bias_s"] = total_s("calibration.select_bias")

    m["datastore.generate_s"] = total_s("datastore.generate")
    m["datastore.load_idx_s"] = total_s("datastore.load_idx")
    m["datastore.load_idx.bytes"] = sum(spans[i][4] for i in by_name.get("datastore.load_idx", []))
    m["datastore.split_s"] = total_s("datastore.split")
    m["checkpoint.save_s"] = total_s("checkpoint.save")
    m["checkpoint.save.bytes"] = sum(spans[i][4] for i in by_name.get("checkpoint.save", []))
    m["checkpoint.load_s"] = total_s("checkpoint.load")
    m["cli.self_s"] = self_s("cli.main")

    m["trace.spans"] = n
    m["trace.self_sum_s"] = sum(self_time)
    return m
