"""Fast smoke test of the benchmark harness (about a minute on two cores).

Run from the root of a checkout:

    python3 perfbench/smoke.py

For every workload at `--tiny` size it runs the benchmark untraced and
traced, and checks that the last stdout line has exactly the keys the
benchmark contract names, that every end-to-end and per-layer metric listed
in BENCHMARK.json is emitted with its unit, that the correctness checks pass,
and that the layers each workload is meant to load did run. It also checks
that the benchmark refuses to run, without printing a result, in a directory
that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import INTEGRATOR_KINDS  # noqa: E402

ROOT = Path.cwd()
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# Per-layer metrics that must be non-zero on each workload, even at tiny
# size: each names a layer the workload was chosen to load.
MUST_RUN = {
    "wide": (
        "preprocess.prune_correlated.s",
        "preprocess.prune_correlated.features_in",
        "integrators.fit.CONCAT.s",
        "integrators.fit.ENS-S.s",
        "integrators.fit.PBMV.s",
        "learners.fit_gbm.tree_nodes",
        "data.load_dataset.s",
    ),
    "boost": tuple(
        f"integrators.{step}.{kind}.s" for kind in INTEGRATOR_KINDS for step in ("fit", "predict")
    ) + (
        "learners.fit_random_forest.calls",
        "learners.DecisionTree.apply.calls",
        "integrators.ada.rounds_kept_ratio",
        "evaluation.corrected_ttest.s",
    ),
    "sparse": (
        "preprocess.impute_knn.cells",
        "preprocess.impute_knn.s",
        "preprocess.smote_balance_tables.rows_added",
        "preprocess.normalize.s",
    ),
}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_workload(name: str, spec: dict) -> list[str]:
    errors = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "--workload", name, "--seed", "7", "--seconds", "0",
                    "--trace", str(trace), "--tiny")
        where = f"{name} trace {trace}"
        if proc.returncode != 0:
            errors.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != RESULT_KEYS:
            errors.append(f"{where}: result keys {sorted(result)}")
            continue
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            fails = [line.strip() for line in proc.stdout.splitlines() if "FAIL" in line]
            errors.append(f"{where}: checks failed: {fails}")
        expected = {m["name"]: m["unit"] for m in spec[section]}
        got = result["metrics"]
        if set(got) != set(expected):
            errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                          f"missing {sorted(set(expected) - set(got))}, "
                          f"extra {sorted(set(got) - set(expected))}")
        for metric, unit in expected.items():
            m = got.get(metric)
            if m is None:
                continue
            if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
                errors.append(f"{where}: {metric} = {m}, want unit {unit}")
            elif trace == 0 and m["value"] <= 0:
                errors.append(f"{where}: {metric} is {m['value']}")
        if trace == 1:
            errors += [f"{where}: layer metric {metric} is 0" for metric in MUST_RUN[name]
                       if got.get(metric, {}).get("value", 0) <= 0]
    return errors


def check_refuses_without_program() -> list[str]:
    bare = ROOT / ".bench_build" / "perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, "--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = check_refuses_without_program()
    for name in MUST_RUN:
        errors += check_workload(name, spec)
    for e in errors:
        print(f"FAIL {e}")
    print("smoke: " + ("ok" if not errors else f"{len(errors)} failure(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
