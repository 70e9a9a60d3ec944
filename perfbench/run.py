"""The openset benchmark: three workloads, end-to-end metrics, a traced run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload blobs6_run --seed 0 --seconds 40 --trace 0

Each iteration of a workload is one fresh process (perfbench/child.py),
started only after the previous one ended. Inputs are generated from
--seed into a scratch directory before the first timed process. Iterations
repeat until --seconds are used; the printed metrics are medians over the
iterations whose process succeeded. Every iteration's outputs are checked,
and an iteration fails if its process exits nonzero or a check fails.

The fixed program perfbench/reference.py runs before and after every
iteration. Each time metric is divided by the host's slowness at that
moment, the reference's time over REFERENCE_NOMINAL_S, so that a host that
runs everything a third slower for a minute does not read as a regression.
The measured medians and the reference's are printed beside the result.
setup_s, cpu_s and rows_per_s count CPU time, which time the hypervisor
gives to other machines does not inflate.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced iterations and prints the per-layer
metrics, with the tracing overhead (traced minus untraced wall time).
--workload all runs every workload in turn. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
WORKLOADS = ("blobs6_run", "wide_idx", "open_eval")
TRAINING = ("blobs6_run", "wide_idx")
REQUIRED = (Path("src") / "openset" / "cli.py", inputs.BLOBS6_CONFIG,
            inputs.GOLDEN_DIR / "report.json", inputs.GOLDEN_DIR / "checkpoint.json")
GOLDEN_FILES = ("report.json", "checkpoint.json")
WORK_ROOT = Path(".bench_work")
CHILD_TIMEOUT_S = 120.0
REFERENCE = HERE / "reference.py"
# reference.py's wall time on a quiet 2-vCPU Xeon at 2.0 GHz; it only sets
# the scale of the normalised times
REFERENCE_NOMINAL_S = 0.45
REFERENCE_TIMEOUT_S = 60.0
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}



@dataclass
class Iteration:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    marks: dict | None
    problems: list[str]

    @property
    def completed(self) -> bool:
        return self.returncode == 0 and self.marks is not None


# -- output checks --------------------------------------------------------

def _reject_constant(name: str):
    raise ValueError(f"non-finite constant {name}")


def strict_json(text: str):
    """Parse JSON, refusing NaN, Infinity and numbers that overflow to inf."""
    doc = json.loads(text, parse_constant=_reject_constant)
    stack = [doc]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, float) and not math.isfinite(item):
            raise ValueError("non-finite number")
    return doc


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_report(path: Path, problems: list[str], test_rows: int | None = None) -> dict | None:
    try:
        report = strict_json(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return None
    if report.get("auc") is None:
        problems.append(f"{path.name}: detect_auc missing")
    if test_rows is not None and sum(map(sum, report.get("confusion", []))) != test_rows:
        problems.append(f"{path.name}: confusion matrix does not cover the {test_rows} test rows")
    return report


def check_run_artifacts(out: Path, epochs: int, problems: list[str]) -> dict | None:
    """Artifacts of `openset run`: strict finite JSON, one log line per epoch."""
    for name in ("checkpoint.json", "calibration.json"):
        try:
            strict_json((out / name).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
    try:
        lines = (out / "training_log.tsv").read_text(encoding="utf-8").splitlines()
        if len(lines) != epochs or not all(math.isfinite(float(v)) for line in lines for v in line.split("\t")):
            problems.append(f"training_log.tsv: expected {epochs} finite lines")
    except (OSError, ValueError) as exc:
        problems.append(f"training_log.tsv: {exc}")
    return check_report(out / "report.json", problems)


def check_golden(out: Path, golden: Path, problems: list[str]) -> None:
    for name in GOLDEN_FILES:
        try:
            if sha256(out / name) != sha256(golden / name):
                problems.append(f"{name}: sha256 differs from {golden / name}")
        except OSError as exc:
            problems.append(f"{name}: {exc}")


def check_grid(path: Path, rows: int, num_known: int, problems: list[str]) -> None:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        problems.append(f"grid: {exc}")
        return
    if lines[:1] != ["x,y,label,score"] or len(lines) != rows + 1:
        problems.append(f"grid: expected a header and {rows} rows, got {len(lines)} lines")
        return
    for line in lines[1:]:
        x, y, label, score = line.split(",")
        if not (math.isfinite(float(x)) and math.isfinite(float(y)) and math.isfinite(float(score))
                and 0 <= int(label) <= num_known):
            problems.append(f"grid: bad row {line!r}")
            return


def check_calibration(calib: dict, problems: list[str]) -> None:
    if not (calib["target_met"] and math.isfinite(calib["chosen_bias"])
            and calib["achieved_known_rate"] >= calib["target_rate"]):
        problems.append(f"select_bias missed its target: {calib}")


# -- one workload ---------------------------------------------------------

class Workload:
    """A workload's inputs in a scratch directory, and its per-iteration checks."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.work = work
        self.golden = inputs.GOLDEN_DIR
        self.spec: dict = {"workload": name}
        if name == "blobs6_run":
            self.spec["config"] = str(inputs.blobs6_config(work))
        elif name == "wide_idx":
            self.spec["config"] = str(inputs.wide_idx_config(work, seed))
        else:
            config = inputs.open_eval_config(work, seed)
            doc = json.loads(config.read_text(encoding="utf-8"))
            per_class, split = doc["dataset"]["per_class"], doc["split"]
            self.num_known = len(split["known_class_ids"])
            self.spec.update(
                config=str(config), checkpoint=str(self.golden / "checkpoint.json"),
                report=str(work / "report.json"), grid=str(work / "grid.csv"),
                grid_resolution=inputs.GRID_RESOLUTION, grid_range=list(inputs.GRID_RANGE),
                test_rows=(self.num_known * int(split["test_fraction"] * per_class)
                           + len(split["unknown_class_ids"]) * per_class))
        if name in TRAINING:
            train = json.loads(Path(self.spec["config"]).read_text(encoding="utf-8"))["train"]
            self.epochs = train["pretrain_epochs"] + train["finetune_epochs"]

    def check(self, marks: dict) -> tuple[list[str], dict | None]:
        problems: list[str] = []
        if self.name == "open_eval":
            report = check_report(Path(self.spec["report"]), problems, self.spec["test_rows"])
            check_calibration(marks["calibration"], problems)
            check_grid(Path(self.spec["grid"]), self.spec["grid_resolution"] ** 2, self.num_known, problems)
        else:
            out = self.work / "out"
            report = check_run_artifacts(out, self.epochs, problems)
            if self.name == "blobs6_run":
                check_golden(out, self.golden, problems)
        return problems, report


def spawn_and_wait(cmd: list[str], env: dict, stdout, timeout: float) -> tuple[int, float, float, float]:
    """Run `cmd` to its end, killed after `timeout` seconds. Returns its exit
    code, wall seconds, CPU seconds (user + system) and peak RSS in MB."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=stdout, stderr=subprocess.STDOUT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    return (os.waitstatus_to_exitcode(status), time.monotonic() - start,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_reference(env: dict) -> tuple[float, float]:
    """Wall and CPU seconds of one run of reference.py: how slow the host is right now."""
    code, wall, cpu, _ = spawn_and_wait([sys.executable, str(REFERENCE)], env, subprocess.DEVNULL,
                                        REFERENCE_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"reference.py exited with code {code}")
    return wall, cpu


def run_child(workload: Workload, index: int, trace: bool, env: dict) -> Iteration:
    spec_path = workload.work / f"spec{index}.json"
    result_path = workload.work / f"result{index}.json"
    log_path = workload.work / f"child{index}.log"
    cmd = [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)]
    spec_path.write_text(json.dumps({**workload.spec, "trace": trace, "spawn": time.monotonic()}), encoding="utf-8")
    with open(log_path, "w", encoding="utf-8") as log:
        returncode, wall, cpu, rss = spawn_and_wait(cmd, env, log, CHILD_TIMEOUT_S)
    marks = None
    problems: list[str] = []
    if returncode != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        problems.append(f"exit code {returncode}: {' | '.join(tail)}")
    else:
        try:
            marks = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"no result from the child: {exc}")
    return Iteration(returncode, wall, cpu, rss, marks, problems)


def end_to_end(it: Iteration, report: dict | None, ref_before: tuple[float, float],
               ref_after: tuple[float, float]) -> dict[str, float]:
    """The metrics of BENCHMARK.json. Each time is divided by the host's
    slowness nearest to it, from the reference runs (wall, CPU) on either
    side of the iteration: wall time by the references' wall time, CPU time
    by their CPU time, and set-up by the reference run just before it."""
    m = it.marks
    slow_wall = (ref_before[0] + ref_after[0]) / (2 * REFERENCE_NOMINAL_S)
    slow_cpu = (ref_before[1] + ref_after[1]) / (2 * REFERENCE_NOMINAL_S)
    return {
        "wall_s": it.wall_s / slow_wall,
        "setup_s": m["ready_cpu"] / (ref_before[1] / REFERENCE_NOMINAL_S),
        "cpu_s": it.cpu_s / slow_cpu,
        "peak_rss_mb": it.peak_rss_mb,
        "rows_per_s": m["rows"] / (m["end_cpu"] - m["ready_cpu"]) * slow_cpu,
        # a report that fails its check fails the iteration; 0 keeps the JSON valid
        "detect_auc": (report or {}).get("auc") or 0.0,
        "open_macro_f1": (report or {}).get("macro_f1") or 0.0,
    }


def _summary(name: str, values: list[float], unit: str) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return f"  {name:<38} {q[1]:>14.6g} {unit:<7} (median of {len(values)}; q1 {q[0]:.6g}, q3 {q[2]:.6g})"


def run_workload(name: str, seed: int, seconds: float, trace: bool, units: dict[str, str]) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        return _run_workload(name, seed, seconds, trace, units, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(name: str, seed: int, seconds: float, trace: bool, units: dict[str, str],
                  work: Path) -> dict:
    workload = Workload(name, seed, work)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path("src").resolve()), *filter(None, [env.get("PYTHONPATH")])])
    # Two BLAS threads on a shared 2-vCPU host spin against each other and
    # against neighbours, and the same code then spreads by a quarter between
    # runs; one thread and a fixed hash seed keep the runs comparable.
    env.update(BLAS_PIN, PYTHONHASHSEED="0")
    golden_before = {n: sha256(workload.golden / n) for n in GOLDEN_FILES}
    # fill the bytecode cache, which a user's second run would find warm
    subprocess.run([sys.executable, "-c", "import openset.cli"], env=env, check=True)

    iterations: list[tuple[Iteration, bool]] = []
    per_metric: dict[str, list[float]] = {}
    failed = 0
    start = time.monotonic()
    ref_before = run_reference(env)
    while True:
        traced = trace and len(iterations) % 2 == 1
        it = run_child(workload, len(iterations), traced, env)
        ref_after = run_reference(env)
        report = None
        if it.completed:
            problems, report = workload.check(it.marks)
            it.problems.extend(problems)
        if {n: sha256(workload.golden / n) for n in GOLDEN_FILES} != golden_before:
            it.problems.append(f"{workload.golden} changed during the run")
        failed += bool(it.problems)
        for problem in it.problems:
            print(f"{name} iteration {len(iterations)}: FAILED {problem}", file=sys.stderr)
        iterations.append((it, traced))
        if it.completed and not traced:
            for key, value in end_to_end(it, report, ref_before, ref_after).items():
                per_metric.setdefault(key, []).append(value)
            measured = {"wall_s": it.wall_s, "cpu_s": it.cpu_s, "setup_cpu_s": it.marks["ready_cpu"],
                        "reference_wall_s": ref_after[0], "reference_cpu_s": ref_after[1]}
            for key, value in measured.items():
                per_metric.setdefault(f"measured:{key}", []).append(value)
        if it.completed and traced:
            layers = it.marks["layers"]
            layers["trace.wall_s"] = it.wall_s
            layers["trace.uncovered_s"] = it.wall_s - layers["trace.self_sum_s"] - layers["trace.report_s"]
            for key, value in layers.items():
                per_metric.setdefault(f"layer:{key}", []).append(value)
        ref_before = ref_after
        enough = len(iterations) >= (2 if trace else 1)
        if enough and time.monotonic() - start + it.wall_s + ref_after[0] > seconds:
            break

    if "wall_s" not in per_metric or (trace and "layer:trace.wall_s" not in per_metric):
        raise RuntimeError(f"{name}: no iteration completed")
    env_record = next(it.marks["env"] for it, _ in iterations if it.completed)
    print(f"{name}: seed {seed}, {len(iterations)} iterations, {failed} failed, "
          f"fail_rate {failed / len(iterations):.3f}")
    print(f"  env {json.dumps(env_record, sort_keys=True)}")
    for key in [key for key in per_metric if key.startswith("measured:")]:
        print(_summary(key.replace(":", " "), per_metric[key], "s"))
    metrics: dict[str, dict] = {}
    if trace:
        per_metric["layer:trace.overhead_s"] = [
            statistics.median(per_metric["layer:trace.wall_s"]) - statistics.median(per_metric["measured:wall_s"])]
        names = [key[len("layer:"):] for key in per_metric if key.startswith("layer:")]
    else:
        names = [key for key in per_metric if ":" not in key]
    for key in names:
        values = per_metric[f"layer:{key}" if trace else key]
        print(_summary(key, values, units.get(key, "?")))
        metrics[key] = {"value": statistics.median(values), "unit": units.get(key, "?")}
    return {"correct": failed == 0, "attempted": len(iterations), "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that kill the running
    # child and remove the scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    missing = [str(p) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), units) for n in names}
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
