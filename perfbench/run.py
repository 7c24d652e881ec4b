"""Outside-in benchmark of `latefuse run`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 30 --trace 0

Untimed preparation writes the workload's seeded synthetic CSVs and config
under `.bench_build/perfbench/`. The measured part then starts one fresh
interpreter per iteration (perfbench/child.py), each driving
`latefuse.cli.main(["run", ...])` at parallelism 1 with BLAS/OpenMP pinned to
one thread, until `--seconds` is used up. Every iteration is checked, and the
last stdout line is one JSON object: the medians of the end-to-end metrics
with `--trace 0`, or the per-layer metrics of traced iterations (alternated
with untraced ones to measure the tracing overhead) with `--trace 1`.
`--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Pin BLAS/OpenMP before numpy loads here, and in every child: otherwise
# OpenBLAS starts one thread per core inside the correlation matmuls.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
MIN_ITERATIONS = 3  # untraced; a traced run makes at least one pair
CHILD_TIMEOUT_S = 150.0
ADA_KINDS = ("ADA-H", "ADA-S", "ADA-M")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _per_layer() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    rows = [
        ("learners.fit_gbm.calls", "count"),
        ("learners.fit_gbm.self_s", "s"),
        ("learners.fit_gbm.trees", "count"),
        ("learners.fit_gbm.tree_nodes", "count"),
        ("learners.DecisionTree.apply.calls", "count"),
        ("learners.DecisionTree.apply.s", "s"),
        ("learners.GbmModel.predict_proba.calls", "count"),
        ("learners.GbmModel.predict_proba.self_s", "s"),
        ("learners.fit_random_forest.calls", "count"),
        ("learners.fit_random_forest.s", "s"),
        ("learners.fit_tree.calls", "count"),
        ("learners.fit_tree.s", "s"),
        ("learners.RandomForestModel.predict_proba.calls", "count"),
        ("learners.RandomForestModel.predict_proba.s", "s"),
        ("preprocess.fit_preprocessor.calls", "count"),
        ("preprocess.fit_preprocessor.s", "s"),
        ("preprocess.FittedPreprocessor.transform.calls", "count"),
        ("preprocess.FittedPreprocessor.transform.self_s", "s"),
        ("preprocess.filter_sparse.s", "s"),
        ("preprocess.variance_topk.s", "s"),
        ("preprocess.normalize.s", "s"),
        ("preprocess.prune_correlated.s", "s"),
        ("preprocess.prune_correlated.features_in", "count"),
        ("preprocess.prune_correlated.features_out", "count"),
        ("preprocess.impute_knn.calls", "count"),
        ("preprocess.impute_knn.s", "s"),
        ("preprocess.impute_knn.cells", "count"),
        ("preprocess.smote_balance_tables.s", "s"),
        ("preprocess.smote_balance_tables.rows_added", "count"),
    ]
    for kind in workloads.INTEGRATOR_KINDS:
        rows += [
            (f"integrators.fit.{kind}.s", "s"),
            (f"integrators.fit.{kind}.self_s", "s"),
            (f"integrators.predict.{kind}.s", "s"),
        ]
    rows += [
        ("integrators.ada.rounds_kept_ratio", "ratio"),
        ("integrators.failures", "count"),
        ("evaluation.run_cv_benchmark.self_s", "s"),
        ("evaluation.compute_metrics.s", "s"),
        ("evaluation.corrected_ttest.s", "s"),
        ("evaluation.EvaluationReport.to_json.s", "s"),
        ("feature_selection.select_signature.s", "s"),
        ("feature_selection.stability_cwrel.s", "s"),
        ("latefuse.import_s", "s"),
        ("config.load_config.s", "s"),
        ("data.load_dataset.s", "s"),
        ("data.make_fold_plan.s", "s"),
        ("cli.self_s", "s"),
        ("trace.run_s", "s"),
        ("trace.untraced_run_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return rows


PER_LAYER = _per_layer()


class BenchError(Exception):
    """An iteration outlived its timeout."""


# ---------------------------------------------------------------------------
# preparation (untimed)
# ---------------------------------------------------------------------------


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    # these would override the config's output_dir and parallelism
    env.pop("LATEFUSE_OUTPUT_DIR", None)
    env.pop("LATEFUSE_PARALLELISM", None)
    return env


def prepare(root: Path, name: str, seed: int, tiny: bool) -> Path:
    """Write the seeded CSVs and config; return the workload directory."""
    from latefuse.synth import ModalitySpec, SynthSpec, generate, save_dataset

    workdir = root / ".bench_build" / "perfbench" / f"{name}-{seed}{'-tiny' if tiny else ''}"
    shutil.rmtree(workdir, ignore_errors=True)
    synth = workloads.synth_section(name, seed, tiny)
    mods = tuple(ModalitySpec(**m) for m in synth.pop("modalities"))
    if "class_weights" in synth:
        synth["class_weights"] = tuple(synth["class_weights"])
    dataset, manifest = generate(SynthSpec(modalities=mods, **synth))
    save_dataset(dataset, manifest, workdir / "data")
    config = workloads.run_config(name, seed, tiny)
    (workdir / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    return workdir


def warm_up(workdir: Path, env: dict) -> None:
    """Compile latefuse's bytecode and pull numpy/scipy into the page cache,
    so every timed iteration starts from the same state."""
    subprocess.run(
        [sys.executable, "-c", "import latefuse.cli"],
        cwd=workdir, env=env, check=True, timeout=CHILD_TIMEOUT_S,
    )


# ---------------------------------------------------------------------------
# one iteration: a fresh interpreter running `latefuse run`
# ---------------------------------------------------------------------------


def run_iteration(workdir: Path, env: dict, trace: bool, timeout: float) -> dict:
    out_dir = workdir / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path = workdir / "iteration.json"
    spans_path = workdir / "spans.json"
    for p in (result_path, spans_path):
        p.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), str(int(trace)),
           str(spans_path)]
    with open(workdir / "stdout.txt", "wb") as so, open(workdir / "stderr.txt", "wb") as se:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=so, stderr=se)
        # wait4 gives this child's own CPU time and peak RSS
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - spawned > timeout:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise BenchError(f"iteration exceeded {timeout:.0f} s; see {workdir}")
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)

    it = {
        "exit_code": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "wall_s": time.monotonic() - spawned,
        "report": None,
        "digest": None,
        "trace": None,
    }
    if result_path.exists():
        child = json.loads(result_path.read_text(encoding="utf-8"))
        it["versions"] = {k: child[k] for k in ("python", "numpy", "scipy")}
        it["import_s"] = child["import_s"]
        if child["ready"] is not None:
            it["setup_s"] = child["ready"] - spawned
            it["run_s"] = child["end"] - child["ready"]
    report = out_dir / "report.json"
    if report.exists():
        data = report.read_bytes()
        it["digest"] = hashlib.sha256(data).hexdigest()
        it["report"] = json.loads(data)
    if trace and spans_path.exists():
        it["trace"] = json.loads(spans_path.read_text(encoding="utf-8"))
    return it


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


def check_iteration(it: dict, config: dict, first_digest: str | None) -> tuple[int, int, list]:
    """Return (attempted, failed, problems) over the (method, cell) pairs.

    A pair fails when the process exited non-zero or left no timing, when
    the method failed on that cell, when the method's mean macro-F1 is at or
    below chance (1/K), or when report.json differs from the first iteration
    of this seed.
    """
    labels = [m.get("name") or m["kind"] for m in config["methods"]]
    n_cells = config["folds"]["repeats"] * config["folds"]["folds"]
    attempted = len(labels) * n_cells
    report = it["report"]
    if report is None:
        return attempted, attempted, [f"exit code {it['exit_code']}, no report.json"]
    failed, problems = 0, []
    chance = 1.0 / len(report["class_names"])
    for label in labels:
        method = report["methods"].get(label)
        if method is None:
            failed += n_cells
            problems.append(f"{label}: missing from report")
            continue
        f1 = (method["aggregates"] or {}).get("macro_f1_mean")
        if f1 is None:
            failed += n_cells
            problems.append(f"{label}: failed on every cell")
        elif f1 <= chance:
            failed += n_cells
            problems.append(f"{label}: macro-F1 {f1:.3f} at or below chance {chance:.3f}")
        elif method["failures"]:
            failed += len(method["failures"])
            problems.append(f"{label}: failed on {len(method['failures'])} cell(s)")
    whole_run = []
    if it["exit_code"] != 0:
        whole_run.append(f"exit code {it['exit_code']}")
    if "run_s" not in it:
        whole_run.append("no timing: make_fold_plan never returned in latefuse.cli")
    if first_digest is not None and it["digest"] != first_digest:
        whole_run.append("report.json differs from the first iteration")
    if whole_run:
        failed = attempted
    return attempted, failed, whole_run + problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(its: list) -> dict:
    timed = [it for it in its if "run_s" in it]
    return {name: {"value": _median([it[name] for it in timed]), "unit": unit}
            for name, unit in END_TO_END}


def _report_layer_values(report: dict) -> dict:
    """Layer counts read from report.json rather than from spans."""
    rounds = {m["name"]: m["boosting_rounds"] for m in report["config"]["methods"]}
    kept = planned = 0
    for label, method in report["methods"].items():
        if method["kind"] in ADA_KINDS:
            kept += sum(len(e["round_weights"]) for e in method["extras"].values())
            planned += rounds[label] * len(method["extras"])
    return {
        "integrators.ada.rounds_kept_ratio": kept / planned if planned else 0.0,
        "integrators.failures": sum(len(m["failures"]) for m in report["methods"].values()),
    }


def _layer_values(it: dict) -> dict:
    """Per-layer values of one traced iteration."""
    from tracer import summarize  # imports numpy, which must load after main() pins BLAS

    rows = summarize(it["trace"])
    values = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if span in rows and field in ("calls", "s", "self_s"):
            values[name] = rows[span][field]
    values.update(it["trace"]["counts"])
    values["cli.self_s"] = rows.get("cli.main", {}).get("self_s", 0.0)
    values["latefuse.import_s"] = it["import_s"]
    values.update(_report_layer_values(it["report"]))
    return values


def per_layer_metrics(its: list) -> dict:
    traced = [it for it in its if it["trace"] is not None and "run_s" in it]
    untraced = [it for it in its if it["trace"] is None and "run_s" in it]
    per_it = [_layer_values(it) for it in traced]
    metrics = {}
    for name, unit in PER_LAYER:
        metrics[name] = {"value": _median([v.get(name, 0) for v in per_it]), "unit": unit}
    traced_run = _median([it["run_s"] for it in traced])
    untraced_run = _median([it["run_s"] for it in untraced])
    metrics["trace.run_s"]["value"] = traced_run
    metrics["trace.untraced_run_s"]["value"] = untraced_run
    metrics["trace.overhead_ratio"]["value"] = (
        traced_run / untraced_run - 1.0 if untraced_run > 0 else 0.0
    )
    return metrics


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _recorded_digest(name: str, seed: int) -> str | None:
    path = HERE / "report_digests.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(name, {}).get(str(seed))


def bench_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                   tiny: bool, deadline: float) -> dict:
    env = _child_env(root)
    workdir = prepare(root, name, seed, tiny)
    config = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
    warm_up(workdir, env)

    # A traced run alternates untraced and traced iterations and stops only
    # after a whole pair. No iteration starts that is expected to end after
    # --seconds, once the minimum count is reached.
    its: list = []
    stop_at = min(time.monotonic() + seconds, deadline)
    step = 2 if trace else 1
    min_its = 2 if trace else MIN_ITERATIONS
    while True:
        timeout = min(CHILD_TIMEOUT_S, deadline - time.monotonic())
        its.append(run_iteration(workdir, env, trace and len(its) % 2 == 1, timeout))
        if len(its) < min_its or len(its) % step:
            continue
        expected = step * _median([it["wall_s"] for it in its])
        if time.monotonic() + expected > stop_at:
            break

    first_digest = its[0]["digest"]
    attempted = failed = 0
    problems: list = []
    for i, it in enumerate(its):
        a, f, p = check_iteration(it, config, first_digest)
        attempted, failed = attempted + a, failed + f
        problems += [f"iteration {i}: {msg}" for msg in p]

    metrics = per_layer_metrics(its) if trace else end_to_end_metrics(its)
    versions = next((it["versions"] for it in its if "versions" in it), {})
    result = {
        "workload": name,
        "seed": seed,
        "tiny": tiny,
        "trace": trace,
        "iterations": len(its),
        "traced_iterations": sum(it["trace"] is not None for it in its),
        "environment": {
            **versions,
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "parallelism": config["parallelism"],
            "process_per_iteration": True,
            "blas_threads": 1,
        },
        "report_sha256": first_digest,
        "recorded_sha256": None if tiny else _recorded_digest(name, seed),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "per_iteration": [
            {k: it.get(k) for k in ("setup_s", "run_s", "cpu_s", "peak_rss_mb", "import_s",
                                    "exit_code", "digest")} | {"traced": it["trace"] is not None}
            for it in its
        ],
        "metrics": metrics,
    }
    if trace:
        result["top_self_s"] = _top_self(its)
    (workdir / "result.json").write_text(json.dumps(result, indent=2), encoding="utf-8")
    return result


def _top_self(its: list, n: int = 8) -> list:
    """The spans with the most self time in the median traced iteration."""
    from tracer import summarize

    traced = [it for it in its if it["trace"] is not None]
    if not traced:
        return []
    traced.sort(key=lambda it: it.get("run_s", 0.0))
    mid = traced[len(traced) // 2]
    rows = summarize(mid["trace"])
    top = sorted(rows.items(), key=lambda kv: -kv[1]["self_s"])[:n]
    return [{"span": k, "self_s": v["self_s"], "calls": v["calls"]} for k, v in top]


def print_summary(r: dict) -> None:
    env = r["environment"]
    mode = "traced" if r["trace"] else "untraced"
    print(f"== {r['workload']} seed {r['seed']}{' (tiny)' if r['tiny'] else ''}: "
          f"{r['iterations']} iterations ({mode}), one fresh process each, "
          f"parallelism {env['parallelism']}")
    print(f"   python {env.get('python')} numpy {env.get('numpy')} scipy {env.get('scipy')}, "
          f"nproc {env['nproc']}, cpu {env['cpu_model']!r}, BLAS threads {env['blas_threads']}")
    for name, m in r["metrics"].items():
        print(f"   {name:48s} {m['value']:14.6g} {m['unit']}")
    rate = r["failed"] / r["attempted"] if r["attempted"] else 1.0
    print(f"   {'fail_rate':48s} {rate:14.6g} ratio  "
          f"({r['failed']} failed of {r['attempted']} (method, cell) pairs)")
    for msg in r["problems"]:
        print(f"   FAIL {msg}")
    recorded = r["recorded_sha256"]
    if recorded is None:
        status = "unrecorded"
    else:
        status = "matches recorded" if recorded == r["report_sha256"] else "DIFFERS from recorded"
    print(f"   report.json sha256 {r['report_sha256']} ({status})")
    for row in r.get("top_self_s", []):
        print(f"   self {row['span']:46s} {row['self_s']:10.4f} s in {row['calls']} calls")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: each iteration takes well under a second")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "latefuse" / "__init__.py").is_file():
        print(f"error: no latefuse sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    seed = args.seed % 2**32  # numpy seed sequences take no negative seed
    deadline = time.monotonic() + 170.0 * len(names)
    try:
        results = [
            bench_workload(root, name, seed, args.seconds, bool(args.trace), args.tiny, deadline)
            for name in names
        ]
    except (BenchError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for r in results:
        print_summary(r)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
