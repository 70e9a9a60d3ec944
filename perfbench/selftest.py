"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Checks that every workload prints exactly the metric names of
BENCHMARK.json, with and without tracing; that a tampered golden file makes
every blobs6_run iteration fail; and that a directory holding only
BENCHMARK.json and perfbench/ makes run.py exit nonzero without a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run as bench

TIMEOUT_S = 180


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def _result(proc: subprocess.CompletedProcess) -> dict:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def _copy_tree(root: Path, dest: Path, parts: list[str]) -> None:
    ignore = shutil.ignore_patterns("__pycache__")
    for part in parts:
        src = root / part
        if src.is_dir():
            shutil.copytree(src, dest / part, ignore=ignore)
        else:
            (dest / part).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / part)


def check_metric_names(root: Path, failures: list[str]) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        expected = [m["name"] for m in spec[section]]
        for workload in bench.WORKLOADS:
            result = _result(_run(root, "--workload", workload, "--seconds", "1", "--trace", trace))
            got = list(result["metrics"])
            if sorted(got) != sorted(expected):
                failures.append(f"{workload} --trace {trace}: printed {sorted(set(got) ^ set(expected))} "
                                f"differ from BENCHMARK.json {section}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload} --trace {trace}: run reported failures: {result}")


def check_tampered_golden(root: Path, scratch: Path, failures: list[str]) -> None:
    copy = scratch / "tampered"
    _copy_tree(root, copy, ["BENCHMARK.json", "perfbench", "src", "configs", str(bench.inputs.GOLDEN_DIR)])
    report = copy / bench.inputs.GOLDEN_DIR / "report.json"
    report.write_text(report.read_text(encoding="utf-8").replace('"auc": 0.', '"auc": 1.', 1), encoding="utf-8")
    result = _result(_run(copy, "--workload", "blobs6_run", "--seconds", "1"))
    if result["correct"] or result["failed"] != result["attempted"]:
        failures.append(f"tampered golden report.json was not reported as failed runs: {result}")


def check_bare_directory(root: Path, scratch: Path, failures: list[str]) -> None:
    bare = scratch / "bare"
    _copy_tree(root, bare, ["BENCHMARK.json", "perfbench"])
    proc = _run(bare, "--workload", "blobs6_run", "--seconds", "1")
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    root = Path.cwd()
    bench.WORK_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench.WORK_ROOT)).resolve()
    failures: list[str] = []
    try:
        check_tampered_golden(root, scratch, failures)
        check_bare_directory(root, scratch, failures)
        check_metric_names(root, failures)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(bench.WORK_ROOT.iterdir()):
            bench.WORK_ROOT.rmdir()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("FAILED" if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
