"""`latefuse run` on small fixed configs writes the same report.json bytes
as recorded: a guard that changes meant to be speed-ups or refactors leave
every reported number where it was."""

import hashlib
import json

from latefuse import integrators, learners, preprocess
from latefuse.cli import main

KINDS = ("CONCAT", "ENS-H", "ENS-S", "ML", "ADA-H", "ADA-S", "ADA-M", "PBMV", "MOE-COMBN")

CONFIG = {
    "seed": 3,
    "output_dir": "out",
    "synth": {
        "n_samples": 48,
        "n_classes": 3,
        "modalities": [
            {"name": "A", "n_features": 8, "n_informative": 3, "separation": 2.0},
            {"name": "B", "n_features": 6, "n_informative": 3, "separation": 1.5},
            {"name": "C", "n_features": 5, "n_informative": 0},
        ],
    },
    "folds": {"repeats": 1, "folds": 2},
    "methods": [
        {
            "kind": kind,
            "base": {"n_rounds": 10, "max_depth": 2},
            "boosting_rounds": 3,
            "inner_folds": 2,
            "ada_inner_folds": 2,
            "meta_forest": {"n_trees": 5},
        }
        for kind in KINDS
    ]
    + [{"kind": "ENS-S", "name": "ENS-S-subsample", "base": {"n_rounds": 10, "subsample": 0.5}}],
}

# sha256 of report.json for CONFIG, recorded before GBM fitting shared its
# root state and stopped walking trees during fitting.
EXPECTED_SHA256 = "43f515a1b011157a043802e070981c094fa00748b69837aa178e199190c1b7ba"

# sha256 of records.csv for CONFIG, recorded while fold records were still
# dataclasses copied field by field from the per-class metrics.
RECORDS_SHA256 = "de55e806dcc5233ba80a74181d2f796f5b2b66fcfbc1ef4a8f17e1aa89217713"

# Correlation pruning drops columns in both modalities: DENSE (no missing
# cell, strongly separated informative columns that correlate above 0.9)
# takes the dense path, GAPPY (missing cells) the pairwise-complete one.
PRUNE_CONFIG = {
    "seed": 5,
    "output_dir": "out",
    "synth": {
        "n_samples": 40,
        "n_classes": 3,
        "modalities": [
            {"name": "DENSE", "n_features": 300, "n_informative": 40, "separation": 4.0},
            {"name": "GAPPY", "n_features": 30, "n_informative": 12, "separation": 4.0,
             "missing_fraction": 0.1},
        ],
    },
    "folds": {"repeats": 1, "folds": 2},
    "methods": [{"kind": "ENS-S", "base": {"n_rounds": 5, "max_depth": 2}}],
}

# sha256 of report.json for PRUNE_CONFIG, recorded while every table still
# took the pairwise-complete correlation formula.
PRUNE_SHA256 = "381e75b901ba0b3d4f9bc41e8e4bcc1b098f8cc4e377b6a9b99067760bdeb704"


# Both modalities have missing cells in most of their 30 training rows per
# fold, more than 4 * knn_k = 20, so kNN imputation screens donors with Gram
# products; COUNTS is also count-valued and cpm_log-normalised.
IMPUTE_CONFIG = {
    "seed": 11,
    "output_dir": "out",
    "synth": {
        "n_samples": 60,
        "n_classes": 3,
        "modalities": [
            {"name": "GAPPY", "n_features": 40, "n_informative": 8, "separation": 1.5,
             "missing_fraction": 0.2},
            {"name": "COUNTS", "n_features": 25, "n_informative": 5, "separation": 1.5,
             "missing_fraction": 0.1, "count_valued": True},
        ],
    },
    "folds": {"repeats": 1, "folds": 2},
    "preprocess": {"normalization": {"COUNTS": "cpm_log"}},
    "methods": [
        {"kind": "ENS-S", "base": {"n_rounds": 5, "max_depth": 2}},
        {"kind": "CONCAT", "base": {"n_rounds": 5, "max_depth": 2}},
    ],
}

# sha256 of report.json for IMPUTE_CONFIG, recorded while every row took the
# per-row search over all training rows.
IMPUTE_SHA256 = "78d292c69cac18a828899e6491a7a870c242bf977ae52df69bda840aa9e35b4f"


# 40 training rows per fold by 800 columns (CONCAT) or 420 (ENS-S) put
# the GBM roots and most of their children above the split search's screen
# cutoff; Q is weakly separated, so late rounds have near-tied columns.
SCREEN_CONFIG = {
    "seed": 13,
    "output_dir": "out",
    "synth": {
        "n_samples": 80,
        "n_classes": 3,
        "modalities": [
            {"name": "P", "n_features": 420, "n_informative": 12, "separation": 1.5},
            {"name": "Q", "n_features": 380, "n_informative": 8, "separation": 0.8},
        ],
    },
    "folds": {"repeats": 1, "folds": 2},
    "methods": [
        {"kind": "CONCAT", "base": {"n_rounds": 10, "max_depth": 2}},
        {"kind": "ENS-S", "base": {"n_rounds": 6, "max_depth": 2}},
    ],
}

# sha256 of report.json for SCREEN_CONFIG, recorded while every regression
# split search scored every column exactly.
SCREEN_SHA256 = "9241d2d1c86e06d43d52002dd8929b40537a126209d5c0c1675be497837d7d30"


# `latefuse incremental` on three modalities, one with missing cells: the
# selector's inner folds impute, balance and score every subset it visits.
INCREMENTAL_CONFIG = {
    "seed": 7,
    "output_dir": "out",
    "synth": {
        "n_samples": 45,
        "n_classes": 3,
        "modalities": [
            {"name": "A", "n_features": 8, "n_informative": 3, "separation": 2.0},
            {"name": "B", "n_features": 6, "n_informative": 2, "separation": 1.0,
             "missing_fraction": 0.1},
            {"name": "C", "n_features": 5, "n_informative": 0},
        ],
    },
    "folds": {"repeats": 1, "folds": 2},
    "incremental": {"inner_folds": 2, "margin": 0.05, "base": {"n_rounds": 5, "max_depth": 2}},
    "methods": [
        {"kind": "ENS-S", "base": {"n_rounds": 5, "max_depth": 2}},
        {"kind": "CONCAT", "base": {"n_rounds": 5, "max_depth": 2}},
    ],
}

# sha256 of each INCREMENTAL_CONFIG output, recorded while the selector's
# inner folds still had their own copy of the fold preparation.
INCREMENTAL_SHA256 = {
    "incremental_trace.csv": "e4450851c7399b1f80e2e90d6063d83bbe7499398da00a9b77d0abf3435d6dc0",
    "best_subset.json": "469f5c91e1bb5b3f08987f150366aa41ee2b96fd809fa30439fb610aa5141c86",
    "comparison.csv": "cf2d432abd70dbba483b6885779a1471529d5880924c96b11fa3f3a7e2812290",
}


def _run(tmp_path, monkeypatch, config=CONFIG, command="run") -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main([command, "-c", "config.json"]) == 0


def _assert_digest(tmp_path, expected, name="report.json") -> None:
    digest = hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
    assert digest == expected, (
        f"{name} sha256 is {digest}, recorded {expected}. A change that moves "
        "the report's numbers on purpose re-records the digest and names the numbers "
        "that moved, and why, in CHANGES.md."
    )


def test_report_bytes_unchanged(tmp_path, monkeypatch):
    _run(tmp_path, monkeypatch)
    _assert_digest(tmp_path, EXPECTED_SHA256)


def test_records_csv_bytes_unchanged(tmp_path, monkeypatch):
    _run(tmp_path, monkeypatch)
    _assert_digest(tmp_path, RECORDS_SHA256, "records.csv")


def test_incremental_output_bytes_unchanged(tmp_path, monkeypatch, capsys):
    _run(tmp_path, monkeypatch, INCREMENTAL_CONFIG, command="incremental")
    for name, expected in INCREMENTAL_SHA256.items():
        _assert_digest(tmp_path, expected, name)
    assert "best subset: ['A']" in capsys.readouterr().out


def test_pruning_report_bytes_unchanged(tmp_path, monkeypatch):
    pruned, dense = [], []
    prune, dense_keep = preprocess.prune_correlated, preprocess._dense_keep

    def recorded_prune(table, cfg):
        out = prune(table, cfg)
        pruned.append((table.modality_name, table.n_features, out.n_features))
        return out

    def recorded_dense(values, threshold):
        keep = dense_keep(values, threshold)
        dense.append(keep is not None)
        return keep

    monkeypatch.setattr(preprocess, "prune_correlated", recorded_prune)
    monkeypatch.setattr(preprocess, "_dense_keep", recorded_dense)
    _run(tmp_path, monkeypatch, PRUNE_CONFIG)
    _assert_digest(tmp_path, PRUNE_SHA256)
    # one fit per modality and fold, in modality order
    assert [name for name, _, _ in pruned] == ["DENSE", "GAPPY"] * 2
    assert dense == [True, False] * 2
    assert all(n_out < n_in for _, n_in, n_out in pruned)


def test_imputation_report_bytes_unchanged(tmp_path, monkeypatch):
    screened = []
    screen = preprocess._impute_screened

    def recorded_screen(out, rows, donors, k):
        left = screen(out, rows, donors, k)
        screened.append((len(rows), len(left)))
        return left

    monkeypatch.setattr(preprocess, "_impute_screened", recorded_screen)
    _run(tmp_path, monkeypatch, IMPUTE_CONFIG)
    _assert_digest(tmp_path, IMPUTE_SHA256)
    # the training and test rows with a missing cell, of both modalities in
    # both folds: the screen settles every one
    assert len(screened) == 8
    assert sum(n for n, _ in screened) == 232
    assert all(left == 0 for _, left in screened)


def test_screened_split_search_report_bytes_unchanged(tmp_path, monkeypatch):
    screened = []
    screen = learners._TreeBuilder._screen

    def recorded_screen(builder, state, SL):
        kept = screen(builder, state, SL)
        screened.append((len(state.S), None if kept is None else len(kept)))
        return kept

    monkeypatch.setattr(learners._TreeBuilder, "_screen", recorded_screen)
    _run(tmp_path, monkeypatch, SCREEN_CONFIG)
    _assert_digest(tmp_path, SCREEN_SHA256)
    # 276 searches over 380, 420 or 800 columns reach the cutoff, and the
    # bound settles each on fewer columns than it has
    assert len(screened) == 276
    assert all(kept is not None and kept < cols for cols, kept in screened)


def test_each_shared_base_model_is_fitted_once_per_cell(tmp_path, monkeypatch):
    # Over both cells the methods ask for 104 base GBMs. 44 of them repeat an
    # earlier request of their cell at subsample 1 (ENS-H/ENS-S, ML's base
    # models, round 1 of each ADA-* and PBMV, and PBMV's later rounds once a
    # view fits its training rows), so 60 are fitted.
    counts = {"requests": 0, "fits": 0}
    request, fit = integrators.FitContext.gbm, integrators.fit_gbm

    def counted_request(*args, **kwargs):
        counts["requests"] += 1
        return request(*args, **kwargs)

    def counted_fit(*args, **kwargs):
        counts["fits"] += 1
        return fit(*args, **kwargs)

    monkeypatch.setattr(integrators.FitContext, "gbm", counted_request)
    monkeypatch.setattr(integrators, "fit_gbm", counted_fit)
    _run(tmp_path, monkeypatch)
    assert counts == {"requests": 104, "fits": 60}
