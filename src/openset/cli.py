"""Command-line pipeline: generate data, train, calibrate, evaluate, export grids.

Subcommands: run, evaluate, boundary-grid, gen-data, and the two experiments,
compare (every training mode on a config's task, seed by seed) and sweep
(every mode as the number of unknown classes grows). Config files are strict
JSON; unknown keys are rejected so a typo cannot silently fall back to a
default. Exit codes: 0 success, 1 runtime contract violation, 2 usage,
config, or IO error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .calibration import CalibrationConfig
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .datastore import (
    LabeledSet,
    OpenSplit,
    gen_gaussian_blobs,
    gen_rings,
    json_text,
    load_csv,
    load_idx,
    save_csv,
    split_known_unknown,
)
from .metrics import evaluate, openness
from .pipeline import calibrate_evaluate, closed_accuracy, experiment, prepare
from .trainer import TRAIN_MODES, TrainConfig, finetune_placeholders, pretrain_closed

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_USAGE = 2

# the config blocks `run` reads; every other command requires fewer
RUN_BLOCKS = ("dataset", "split", "train", "output_dir")
# 1000 x 1000 on the blobs6 checkpoint peaks at 138 MB ru_maxrss (2000: 459 MB)
MAX_RESOLUTION = 1000


class ConfigError(ValueError):
    pass


def _generators() -> dict:
    """Each generator kind's function; a generator block's keys are its
    parameters, and their defaults are the block's. Built from this module's
    names at each call, so a wrapper bound over them (perfbench's tracer) runs."""
    return {"blobs": gen_gaussian_blobs, "rings": gen_rings}


@dataclass
class DatasetConfig:
    kind: str                 # "blobs" | "rings" | "csv" | "idx"
    params: dict

    def load(self) -> LabeledSet:
        """The dataset; a bad generator field or a malformed dataset file
        raises ValueError."""
        generators = _generators()
        if self.kind in generators:
            return generators[self.kind](**self.params)
        if self.kind == "csv":
            return load_csv(self.params["csv"])
        return load_idx(self.params["idx_images"], self.params["idx_labels"])


@dataclass
class RunConfig:
    """A parsed config; a block the file leaves out is None."""

    dataset: DatasetConfig | None
    split: OpenSplit | None
    train: TrainConfig | None
    calibration: CalibrationConfig
    output_dir: str | None

    def at_seed(self, seed: int) -> RunConfig:
        """This config with `seed` as the generator's, the split's and the training's seed."""
        dataset = self.dataset
        if dataset is not None and dataset.kind in _generators():  # a csv or idx dataset keeps its files
            dataset = DatasetConfig(dataset.kind, {**dataset.params, "seed": seed})
        return replace(self, dataset=dataset, split=self.split and replace(self.split, seed=seed),
                       train=self.train and replace(self.train, seed=seed))


@contextmanager
def _bad_input():
    """The exit-2 boundary of the commands that read a config: a ValueError
    raised while reading the config, the dataset or the split (a bad field,
    a malformed file, a split the dataset does not fit) is a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _config_path(name: str, value) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{name} must be a non-empty string, got {value!r}")
    return value


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def parse_dataset_block(block) -> DatasetConfig:
    if not isinstance(block, dict):
        raise ConfigError("dataset block must be an object")
    if "generator" in block:
        name = block["generator"]
        generators = _generators()
        if not isinstance(name, str) or name not in generators:
            raise ConfigError(f"unknown generator {name!r}, expected one of {sorted(generators)}")
        _check_keys(block, {"generator", *inspect.signature(generators[name]).parameters}, f"dataset ({name})")
        # the generator checks its own fields, and fills in the ones left out, when the dataset is loaded
        return DatasetConfig(name, {k: v for k, v in block.items() if k != "generator"})
    if "csv" in block:
        _check_keys(block, {"csv"}, "dataset (csv)")
        return DatasetConfig("csv", {"csv": _config_path("csv", block["csv"])})
    if "idx_images" in block or "idx_labels" in block:
        _check_keys(block, {"idx_images", "idx_labels"}, "dataset (idx)")
        if "idx_images" not in block or "idx_labels" not in block:
            raise ConfigError("idx datasets need both idx_images and idx_labels")
        return DatasetConfig("idx", {key: _config_path(key, block[key]) for key in ("idx_images", "idx_labels")})
    raise ConfigError("dataset block needs a 'generator', 'csv', or 'idx_images'/'idx_labels'")


def _parse_block(block, cls, where: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} block must be an object")
    _check_keys(block, {f.name for f in fields(cls)}, where)
    try:
        return cls(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where} block: {exc}") from None


def parse_run_config(doc, required=RUN_BLOCKS) -> RunConfig:
    """Parse every block `doc` holds; each key in `required` must be there.
    `calibration` is always optional."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    _check_keys(doc, {"dataset", "split", "train", "calibration", "output_dir"}, "config")
    for key in required:
        if key not in doc:
            raise ConfigError(f"config is missing required key {key!r}")
    return RunConfig(
        dataset=parse_dataset_block(doc["dataset"]) if "dataset" in doc else None,
        split=_parse_block(doc["split"], OpenSplit, "split") if "split" in doc else None,
        train=_parse_block(doc["train"], TrainConfig, "train") if "train" in doc else None,
        calibration=_parse_block(doc.get("calibration", {}), CalibrationConfig, "calibration"),
        output_dir=_config_path("output_dir", doc["output_dir"]) if "output_dir" in doc else None,
    )


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except ValueError as exc:  # invalid JSON or UTF-8, or an integer too long to parse
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def load_run_config(path, required=RUN_BLOCKS) -> RunConfig:
    return parse_run_config(_load_json(path), required)


def cmd_run(config_path) -> int:
    with _bad_input():
        cfg = load_run_config(config_path)
        train, val, test, stats = prepare(cfg.dataset.load(), cfg.split)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Both stages are called through this module's globals: perfbench/child.py
    # rebinds the two names here to mark where training starts and ends.
    log_lines: list[str] = []
    model = pretrain_closed(train, cfg.train, log_lines)
    model = finetune_placeholders(model, train, cfg.train, log_lines)
    calib, report = calibrate_evaluate(model, val, test, cfg.split, cfg.train.train_mode, cfg.calibration)

    save_checkpoint(out_dir / "checkpoint.json", model, cfg.train, stats)
    (out_dir / "training_log.tsv").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    (out_dir / "calibration.json").write_text(json_text(asdict(calib)) + "\n", encoding="utf-8")
    (out_dir / "report.json").write_text(report.to_text(), encoding="utf-8")
    return EXIT_OK


def cmd_evaluate(checkpoint_path, config_path) -> int:
    # the checkpoint is scored as it was trained: the config's train block is not read
    model, train_config, stats = load_checkpoint(checkpoint_path)
    with _bad_input():
        cfg = load_run_config(config_path, ("dataset", "split"))
        _, _, test = split_known_unknown(cfg.dataset.load(), cfg.split)
    if test.dim != model.input_dim:
        raise ConfigError(f"the dataset has {test.dim} features, but the checkpoint's model takes {model.input_dim}")
    known = len(cfg.split.known_class_ids)
    if known != model.num_known:
        raise ConfigError(f"the split has {known} known classes, but the checkpoint's model has {model.num_known}")
    if stats is not None:
        stats.apply(test.features, out=test.features)
    report = evaluate(model, test, cfg.split, train_config.train_mode)
    sys.stdout.write(report.to_text())
    return EXIT_OK


def cmd_boundary_grid(checkpoint_path, out_path, x_range, y_range, resolution: int) -> int:
    if not 1 <= resolution <= MAX_RESOLUTION:
        raise ConfigError(f"--resolution must be in [1, {MAX_RESOLUTION}], got {resolution}")
    if not np.isfinite([*x_range, *y_range]).all():
        raise ConfigError(f"--range must be four finite numbers, got {[*x_range, *y_range]}")
    model, train_config, stats = load_checkpoint(checkpoint_path)
    if model.input_dim != 2:
        raise ConfigError(f"boundary grids need a 2-D model, this one takes {model.input_dim} inputs")
    xs = np.linspace(x_range[0], x_range[1], resolution)
    ys = np.linspace(y_range[0], y_range[1], resolution)
    # the rows of np.meshgrid(xs, ys), raveled, built once and standardized in place
    grid = np.empty((len(ys), len(xs), 2))
    grid[:, :, 0] = xs
    grid[:, :, 1] = ys[:, None]
    grid = grid.reshape(-1, 2)
    if stats is not None:
        stats.apply(grid, out=grid)
    aug = model.augmented_logits(grid)
    bias = model.calibration_bias
    # the score `evaluate` ranks this checkpoint by
    labels, scores = aug.predictions(bias), aug.score(train_config.train_mode, bias)
    with open(out_path, "w", encoding="utf-8") as f:
        write_grid_csv(f, xs, ys, labels, scores)
    return EXIT_OK


def write_grid_csv(f, xs, ys, labels, scores) -> None:
    """Write `x,y,label,score` rows to the text file `f`, x varying fastest,
    as `np.meshgrid(xs, ys)` orders them; `labels` are class indices. Every
    float is written as its `repr`, so it reads back exactly. Each axis value
    and label is formatted once. Each line starts with its newline, so one
    grid row (len(xs) lines) is three parts per line, written with one join;
    the header goes out without its newline and one newline ends the file."""
    x_heads = ["\n" + repr(x) + "," for x in xs.tolist()]
    label_texts = [f"{c}," for c in range(int(labels.max()) + 1)]
    parts = [""] * (3 * len(xs))
    f.write("x,y,label,score")
    for i, y in enumerate(ys.tolist()):
        row = slice(i * len(xs), (i + 1) * len(xs))
        y_text = repr(y) + ","
        parts[0::3] = [head + y_text for head in x_heads]
        parts[1::3] = map(label_texts.__getitem__, labels[row].tolist())
        parts[2::3] = map(repr, scores[row].tolist())
        f.write("".join(parts))
    f.write("\n")


def cmd_gen_data(config_path, out_path) -> int:
    with _bad_input():
        dataset = load_run_config(config_path, ("dataset",)).dataset.load()
    save_csv(dataset, out_path)
    return EXIT_OK


def cmd_compare(config_path, seeds: int) -> int:
    """Print each mode's mean and std of AUC, macro-F1 and closed accuracy
    over the config's task at seeds 0 to `seeds`-1."""
    if seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {seeds}")
    with _bad_input():
        base = load_run_config(config_path, ("dataset", "split", "train"))
    results = {mode: [] for mode in TRAIN_MODES}
    for seed in range(seeds):
        cfg = base.at_seed(seed)
        with _bad_input():
            train, val, test, _ = prepare(cfg.dataset.load(), cfg.split)
        runs = experiment(train, val, test, cfg.split, cfg.train, cfg.calibration)
        for mode, (model, _, report) in runs.items():
            results[mode].append((report.auc, report.macro_f1, closed_accuracy(model, test)))
        print(f"seed {seed} done")

    known, unknown = len(base.split.known_class_ids), len(base.split.unknown_class_ids)
    print(f"\n{known} known / {unknown} unknown {base.dataset.kind}, {seeds} seeds (mean ± std)")
    print(f"{'mode':12s} {'AUC':>16s} {'macro-F1':>16s} {'closed acc':>16s}")
    for mode in TRAIN_MODES:
        arr = np.array(results[mode])
        cells = [f"{arr[:, i].mean():.3f} ± {arr[:, i].std():.3f}" for i in range(3)]
        print(f"{mode:12s} {cells[0]:>16s} {cells[1]:>16s} {cells[2]:>16s}")
    return EXIT_OK


def cmd_sweep(config_path, unknown_counts: list[int], per_class: int, seed: int) -> int:
    """Print each mode's macro-F1 as unknown blob classes join the config's
    known ones; the blobs are drawn here, wider apart than the config's."""
    if min(unknown_counts) < 0:
        raise ConfigError(f"--unknown-counts must be at least 0, got {min(unknown_counts)}")
    with _bad_input():
        cfg = load_run_config(config_path, ("split", "train")).at_seed(seed)
        known = len(cfg.split.known_class_ids)
        data = gen_gaussian_blobs(known + max(unknown_counts), per_class, center_scale=6.0, spread=0.35, seed=seed)

        # every count's split is prepared before the header, so a split the
        # data cannot fill exits 2 with nothing printed
        splits = []
        for n_unknown in unknown_counts:
            num_classes = known + n_unknown
            keep = data.labels < num_classes  # the first num_classes of the classes drawn, the first `known` known
            split = replace(cfg.split, known_class_ids=list(range(known)),
                            unknown_class_ids=list(range(known, num_classes)))
            splits.append((split, prepare(LabeledSet(data.features[keep], data.labels[keep]), split)))

    print(f"{'unknown':>8s} {'openness':>9s} " + " ".join(f"{m:>11s}" for m in TRAIN_MODES))
    for n_unknown, (split, (train, val, test, _)) in zip(unknown_counts, splits):
        runs = experiment(train, val, test, split, cfg.train, cfg.calibration)
        f1s = " ".join(f"{report.macro_f1:>11.3f}" for _, _, report in runs.values())
        print(f"{n_unknown:>8d} {openness(known, known + n_unknown):>8.2f}% {f1s}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="openset",
                                     description="placeholder-based open-set recognition pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline: data, train, calibrate, evaluate")
    p_run.add_argument("--config", required=True)

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint on a config's test split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config", required=True)

    p_grid = sub.add_parser("boundary-grid", help="export a decision grid CSV for a 2-D model")
    p_grid.add_argument("--checkpoint", required=True)
    p_grid.add_argument("--out", required=True)
    p_grid.add_argument("--resolution", type=int, default=101)
    p_grid.add_argument("--range", type=float, nargs=4, required=True,
                        metavar=("XMIN", "XMAX", "YMIN", "YMAX"))

    p_gen = sub.add_parser("gen-data", help="write a config's dataset as CSV")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", required=True)

    p_cmp = sub.add_parser("compare", help="every training mode on a config's task, seed by seed")
    p_cmp.add_argument("--config", required=True, help="each seed is set in its dataset, split and train blocks")
    p_cmp.add_argument("--seeds", type=int, default=5, help="run seeds 0 to SEEDS-1 (default 5)")

    p_sweep = sub.add_parser("sweep", help="macro-F1 of every training mode as unknown classes are added")
    p_sweep.add_argument("--config", required=True,
                         help="its known-class count, split fractions, train and calibration blocks are used")
    p_sweep.add_argument("--unknown-counts", type=int, nargs="+", default=[2, 4, 8, 12])
    p_sweep.add_argument("--per-class", type=int, default=200)
    p_sweep.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "evaluate":
            return cmd_evaluate(args.checkpoint, args.config)
        if args.command == "boundary-grid":
            rng = args.range
            return cmd_boundary_grid(args.checkpoint, args.out,
                                     (rng[0], rng[1]), (rng[2], rng[3]), args.resolution)
        if args.command == "compare":
            return cmd_compare(args.config, args.seeds)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.unknown_counts, args.per_class, args.seed)
        return cmd_gen_data(args.config, args.out)
    except (ConfigError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
