"""Command-line entry points: generate, run, incremental, report.

Exit codes: 0 success, 1 input/config error, 2 partial method failure.
All randomness flows from the config seed; repeated runs of the same config
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, ExperimentConfig, load_config
from .data import DataError, load_dataset, make_fold_plan
from .evaluation import EvaluationReport, run_cv_benchmark
from .integrators import IntegrationError, incremental_select
from .preprocess import PreprocessError
from .synth import SynthError, generate, save_dataset

_USER_ERRORS = (ConfigError, DataError, PreprocessError, IntegrationError, SynthError, OSError)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """CLI flags and environment variables override config keys one-to-one;
    the config's own checks run again on the result."""
    env_out = os.environ.get("LATEFUSE_OUTPUT_DIR")
    env_par = os.environ.get("LATEFUSE_PARALLELISM")
    top = {"output_dir": env_out} if env_out else {}
    if env_par:
        try:
            top["parallelism"] = int(env_par)
        except ValueError:
            raise ConfigError(
                f"parallelism: LATEFUSE_PARALLELISM must be an integer, got {env_par!r}"
            ) from None
    flags = {k: v for k, v in vars(args).items() if v is not None}
    top.update({k: flags[k] for k in ("output_dir", "seed", "parallelism") if k in flags})
    try:
        folds = replace(cfg.folds, **{k: flags[k] for k in ("repeats", "folds") if k in flags})
    except ConfigError as e:
        raise ConfigError(f"folds.{e}") from None
    return replace(cfg, folds=folds, **top)


def _load_or_generate(cfg: ExperimentConfig):
    if cfg.synth is not None:
        dataset, _ = generate(cfg.synth)
        return dataset
    files = cfg.dataset
    tokens = files.missing_tokens
    kwargs = {"missing_tokens": tokens} if tokens is not None else {}
    return load_dataset([(m.name, m.path) for m in files.modalities], files.labels, **kwargs)


def _check_method_modalities(cfg: ExperimentConfig, dataset) -> None:
    """A method's modality subset must name modalities of the loaded data."""
    names = [m.modality_name for m in dataset.modalities]
    for i, spec in enumerate(cfg.methods):
        unknown = [m for m in spec.modalities or () if m not in names]
        if unknown:
            raise ConfigError(
                f"methods[{i}].modalities: no modality {unknown[0]!r} in the dataset {names}"
            )


def _safe_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


def _write_report_files(report: EvaluationReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")

    with open(out_dir / "records.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, [
            "method", "repeat", "fold", "class_index", "class_name",
            "tp", "fp", "tn", "fn", "accuracy", "sensitivity", "specificity",
            "precision", "recall", "f1", "auc", "auc_valid",
        ])
        writer.writeheader()
        writer.writerows(report.records_csv_rows())

    for label, method in report.methods.items():
        if method.signature is None:
            continue
        path = out_dir / f"signature_{_safe_name(label)}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["modality", "feature", "score", "frequency"])
            for e in method.signature.entries:
                writer.writerow([e.modality, e.feature, repr(e.score), repr(e.frequency)])


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        if cfg.synth is None:
            return _fail("generate requires a synth section in the config")
        dataset, manifest = generate(cfg.synth)
        out_dir = Path(cfg.output_dir)
        save_dataset(dataset, manifest, out_dir)
    except _USER_ERRORS as e:
        return _fail(str(e))
    for m, info in zip(dataset.modalities, manifest["modalities"]):
        print(
            f"{m.modality_name}: {m.n_samples} samples x {m.n_features} features "
            f"({len(info['informative_features'])} informative)"
        )
    print(f"labels: {dataset.n_samples} samples, {dataset.n_classes} classes -> {out_dir}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        dataset = _load_or_generate(cfg)
        _check_method_modalities(cfg, dataset)
        plan = make_fold_plan(dataset.labels, cfg.folds.repeats, cfg.folds.folds, cfg.seed)
        report = run_cv_benchmark(
            dataset,
            plan,
            cfg.methods,
            cfg.preprocess,
            seed=cfg.seed,
            n_jobs=cfg.parallelism,
            config_echo=cfg.resolved_dict(),
        )
        out_dir = Path(cfg.output_dir)
        _write_report_files(report, out_dir)
    except _USER_ERRORS as e:
        return _fail(str(e))
    failed = [label for label, m in report.methods.items() if m.failures]
    for label, m in report.methods.items():
        agg = m.aggregates
        if not agg:
            print(f"{label}: failed on every fold")
            continue
        print(
            f"{label}: F1 {agg['macro_f1_mean']:.3f} (+-{agg['macro_f1_sd']:.3f}) "
            f"AUC {agg['macro_auc_mean']:.3f} acc {agg['accuracy_mean']:.3f}"
        )
    print(f"report -> {out_dir / 'report.json'}")
    if failed:
        print(f"partial failures in: {failed}", file=sys.stderr)
        return 2
    return 0


def cmd_incremental(args: argparse.Namespace) -> int:
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        dataset = _load_or_generate(cfg)
        _check_method_modalities(cfg, dataset)
        result = incremental_select(
            dataset,
            cfg.preprocess,
            base=cfg.incremental.base,
            margin=cfg.incremental.margin,
            inner_folds=cfg.incremental.inner_folds,
            seed=cfg.seed,
        )
        out_dir = Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "incremental_trace.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "removed_modality", "f1_after_removal"])
            for step in result.trace:
                writer.writerow(
                    [step.step, step.removed if step.removed else "None",
                     repr(step.f1_after_removal)]
                )
        (out_dir / "best_subset.json").write_text(
            json.dumps({"best_subset": result.best_subset}, indent=2, sort_keys=True),
            encoding="utf-8",
        )

        # Table-style comparison: every configured method on all modalities
        # versus the selected subset.
        plan = make_fold_plan(dataset.labels, cfg.folds.repeats, cfg.folds.folds, cfg.seed)
        full = run_cv_benchmark(
            dataset, plan, cfg.methods, cfg.preprocess, seed=cfg.seed,
            n_jobs=cfg.parallelism,
        )
        subset_dataset = dataset.subset_modalities(result.best_subset)
        subset_methods = [m for m in cfg.methods if _method_fits(m, result.best_subset)]
        subset = run_cv_benchmark(
            subset_dataset, plan, subset_methods, cfg.preprocess, seed=cfg.seed,
            n_jobs=cfg.parallelism,
        )
        with open(out_dir / "comparison.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "auc_all", "f1_all", "auc_subset", "f1_subset"])
            for label, m in full.methods.items():
                sub = subset.methods.get(label)
                writer.writerow([
                    label,
                    repr(m.aggregates.get("macro_auc_mean", 0.0)),
                    repr(m.aggregates.get("macro_f1_mean", 0.0)),
                    repr(sub.aggregates.get("macro_auc_mean", 0.0)) if sub and sub.aggregates else "",
                    repr(sub.aggregates.get("macro_f1_mean", 0.0)) if sub and sub.aggregates else "",
                ])
    except _USER_ERRORS as e:
        return _fail(str(e))
    for step in result.trace:
        removed = step.removed if step.removed else "None"
        print(f"step {step.step}: removed {removed}, F1 {step.f1_after_removal:.3f}")
    print(f"best subset: {result.best_subset} -> {out_dir}")
    return 0


def _method_fits(spec, subset: list) -> bool:
    if spec.modalities is None:
        return True
    return all(m in subset for m in spec.modalities)


_TABLE_AGGREGATES = (
    "macro_f1_mean", "macro_f1_sd", "macro_auc_mean", "accuracy_mean", "unknown_rate_mean",
)


def _not_a_report(data) -> str | None:
    """Why `data` is not a report that `cmd_report` can print, or None."""
    if not isinstance(data, dict):
        return "the top level is not a JSON object"
    if data.get("report_version") != 1:
        return f"report_version is {data.get('report_version')!r}, not 1"
    methods = data.get("methods", {})
    if not isinstance(methods, dict):
        return "methods is not an object"
    for label, m in methods.items():
        if not isinstance(m, dict):
            return f"method {label!r} is not an object"
        aggregates, stability = m.get("aggregates") or {}, m.get("stability") or {}
        if not isinstance(aggregates, dict) or not isinstance(stability, dict):
            return f"method {label!r} has aggregates or stability that is not an object"
        missing = [k for k in _TABLE_AGGREGATES if aggregates and k not in aggregates]
        if missing:
            return f"method {label!r} has no aggregate {missing[0]!r}"
        wrong = [k for k in _TABLE_AGGREGATES if aggregates and not _is_number(aggregates[k])]
        if wrong:
            return f"method {label!r} has aggregate {wrong[0]!r} that is not a number"
        if stability.get("cw_rel") is not None and not _is_number(stability["cw_rel"]):
            return f"method {label!r} has a cw_rel that is not a number"
    significance = data.get("significance", [])
    if not isinstance(significance, list):
        return "significance is not a list"
    for i, entry in enumerate(significance):
        if not (isinstance(entry, dict) and _is_number(entry.get("p_value"))):
            return f"significance entry {i} has no numeric p_value"
    return None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def cmd_report(args: argparse.Namespace) -> int:
    try:
        data = json.loads(Path(args.report).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        return _fail(f"cannot read report: {e}")
    except UnicodeDecodeError:
        return _fail(f"{args.report}: not UTF-8 text")
    problem = _not_a_report(data)
    if problem:
        return _fail(f"{args.report}: not a latefuse report ({problem})")
    print(f"report version {data.get('report_version')}, seed {data.get('seed')}")
    print(
        f"{data.get('repeats')}x{data.get('folds')} CV, "
        f"classes {data.get('class_names')}, modalities {data.get('modality_names')}"
    )
    header = f"{'method':30s} {'F1':>14s} {'AUC':>7s} {'acc':>7s} {'stability':>9s} {'unknown':>8s}"
    print(header)
    for label in sorted(data.get("methods", {})):
        m = data["methods"][label]
        agg = m.get("aggregates") or {}
        if not agg:
            print(f"{label:30s}  failed: {m.get('failures')}")
            continue
        stab = m.get("stability") or {}
        stab_s = f"{stab.get('cw_rel'):.3f}" if stab.get("cw_rel") is not None else "-"
        caveat = " *" if stab.get("caveat") else ""
        print(
            f"{label:30s} {agg['macro_f1_mean']:.3f} (+-{agg['macro_f1_sd']:.3f}) "
            f"{agg['macro_auc_mean']:7.3f} {agg['accuracy_mean']:7.3f} "
            f"{stab_s:>9s} {agg['unknown_rate_mean']:8.3f}{caveat}"
        )
    flagged = [m for m in data.get("methods", {}).values() if (m.get("stability") or {}).get("caveat")]
    if flagged:
        print("* " + flagged[0]["stability"]["caveat"])
    sig = data.get("significance", [])
    strong = [s for s in sig if s["p_value"] < 0.05]
    print(f"significance: {len(strong)} of {len(sig)} pairwise tests at p < 0.05")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latefuse",
        description="Late-integration ensemble learning benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-c", "--config", required=True, help="path to the JSON config")
        p.add_argument("--output-dir", dest="output_dir", help="override output directory")
        p.add_argument("--seed", type=int, help="override seed")
        p.add_argument("--parallelism", type=int, help="override worker count")
        p.add_argument("--repeats", type=int, help="override CV repeats")
        p.add_argument("--folds", type=int, help="override CV folds")

    p_gen = sub.add_parser("generate", help="write a synthetic dataset to disk")
    add_common(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run the CV benchmark")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_inc = sub.add_parser("incremental", help="incremental modality-subset selection")
    add_common(p_inc)
    p_inc.set_defaults(func=cmd_incremental)

    p_rep = sub.add_parser("report", help="pretty-print an existing report.json")
    p_rep.add_argument("report", help="path to report.json")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
