"""`latefuse run` on small fixed configs writes the same report.json bytes
as recorded: a guard that changes meant to be speed-ups or refactors leave
every reported number where it was."""

import hashlib
import json

from latefuse import integrators, preprocess
from latefuse.cli import main
from latefuse.config import _build
from latefuse.evaluation import EvaluationReport

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

# Every digest below holds for split searches that score each position by
# one kernel, sum_t (SL_t^2/WL + SR_t^2/WR - S_t^2/W), and for t-test
# p-values from `evaluation._student_t_two_sided`.

# sha256 of report.json for CONFIG.
EXPECTED_SHA256 = "d1503838b5ac542c4af93cf0c3d3fe61844b33be3bd440acad8e0bd2df4d79a6"

# sha256 of records.csv for CONFIG.
RECORDS_SHA256 = "1b4fa3c785bcada8772c493cca1ee2e222f1c80a60fcaf30e5818d6ff5b0f633"

# CONFIG plus a method that fails on every cell (PBMV needs two modalities),
# so its aggregates are null.
UNSCORED_CONFIG = {
    **CONFIG,
    "methods": CONFIG["methods"] + [{"kind": "PBMV", "modalities": ["A"], "name": "bad"}],
}

# sha256 of report.json for UNSCORED_CONFIG.
UNSCORED_SHA256 = "688b7547e38c693925f36410c4b94a8e14b74bf3f67f2558ac74b40daea8b60f"

# Correlation pruning drops columns in both modalities: DENSE (no missing
# cell, strongly separated informative columns that correlate above 0.9)
# and GAPPY (missing cells, so pairs share fewer rows).
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

# sha256 of report.json for PRUNE_CONFIG.
PRUNE_SHA256 = "48008134d751a8274f4eaa507ba1b9dc25ab5f4b650908ee50709e1af485d6a0"


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

# sha256 of report.json for IMPUTE_CONFIG.
IMPUTE_SHA256 = "e850ca54f44369f609503b065ed788dddd0297ac7a5b52292e370965eceb73b3"


# 40 training rows per fold by 800 columns (CONCAT) or 420 (ENS-S): 276 of
# the 372 split searches run on states of 10,000 cells (rows x columns) or
# more. Q is weakly separated, so late rounds have near-tied columns.
WIDE_CONFIG = {
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

# sha256 of report.json for WIDE_CONFIG.
WIDE_SHA256 = "68a6f62e70d4ba0c53155ed604fb3b46913a80fd1b320c5035fea8f3493522a6"


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

# sha256 of each INCREMENTAL_CONFIG output.
INCREMENTAL_SHA256 = {
    "incremental_trace.csv": "e4450851c7399b1f80e2e90d6063d83bbe7499398da00a9b77d0abf3435d6dc0",
    "best_subset.json": "469f5c91e1bb5b3f08987f150366aa41ee2b96fd809fa30439fb610aa5141c86",
    "comparison.csv": "c3e8d09253c263dbdee696a634d3e23c25fa099ab6af65d9210d46cfefa4b651",
}


def _run(tmp_path, monkeypatch, config=CONFIG, command="run", exit_code=0) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main([command, "-c", "config.json"]) == exit_code


def _assert_digest(tmp_path, expected, name="report.json") -> None:
    data = (tmp_path / "out" / name).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    assert digest == expected, (
        f"{name} sha256 is {digest}, recorded {expected}. A change that moves "
        "the report's numbers on purpose re-records the digest and names the numbers "
        "that moved, and why, in CHANGES.md."
    )
    if name == "report.json":  # the typed report reads back to the same bytes
        report = _build(EvaluationReport, json.loads(data), "report")
        assert report.to_json().encode("utf-8") == data


def test_report_bytes_unchanged(tmp_path, monkeypatch):
    _run(tmp_path, monkeypatch)
    _assert_digest(tmp_path, EXPECTED_SHA256)


def test_unscored_method_report_bytes_unchanged(tmp_path, monkeypatch):
    _run(tmp_path, monkeypatch, UNSCORED_CONFIG, exit_code=2)
    _assert_digest(tmp_path, UNSCORED_SHA256)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["methods"]["bad"]["aggregates"] is None


def test_records_csv_bytes_unchanged(tmp_path, monkeypatch):
    _run(tmp_path, monkeypatch)
    _assert_digest(tmp_path, RECORDS_SHA256, "records.csv")


def test_incremental_output_bytes_unchanged(tmp_path, monkeypatch, capsys):
    _run(tmp_path, monkeypatch, INCREMENTAL_CONFIG, command="incremental")
    for name, expected in INCREMENTAL_SHA256.items():
        _assert_digest(tmp_path, expected, name)
    assert "best subset: ['A']" in capsys.readouterr().out


def test_pruning_report_bytes_unchanged(tmp_path, monkeypatch):
    pruned, exact = [], []
    prune, exceeds = preprocess.prune_correlated, preprocess._exceeds_exactly

    def recorded_prune(table, cfg):
        out = prune(table, cfg)
        pruned.append((table.modality_name, table.n_features, out.n_features))
        return out

    def recorded_exceeds(x, y, threshold):
        exact.append(len(x))
        return exceeds(x, y, threshold)

    monkeypatch.setattr(preprocess, "prune_correlated", recorded_prune)
    monkeypatch.setattr(preprocess, "_exceeds_exactly", recorded_exceeds)
    _run(tmp_path, monkeypatch, PRUNE_CONFIG)
    _assert_digest(tmp_path, PRUNE_SHA256)
    # one fit per modality and fold, in modality order; every pair's |r| is
    # decided in floating point, clear of its rounding bound
    assert [name for name, _, _ in pruned] == ["DENSE", "GAPPY"] * 2
    assert all(n_out < n_in for _, n_in, n_out in pruned)
    assert exact == []


def test_imputation_report_bytes_unchanged(tmp_path, monkeypatch):
    screened = []
    screen = preprocess._impute_screened

    def recorded_screen(out, rows, donors, k, m):
        left = screen(out, rows, donors, k, m)
        screened.append((len(rows), len(left)))
        return left

    exact, nearest = [], preprocess._exact_nearest

    def recorded_nearest(donors, kept, real, r, observed, m):
        exact.append(len(kept))
        return nearest(donors, kept, real, r, observed, m)

    monkeypatch.setattr(preprocess, "_impute_screened", recorded_screen)
    monkeypatch.setattr(preprocess, "_exact_nearest", recorded_nearest)
    _run(tmp_path, monkeypatch, IMPUTE_CONFIG)
    _assert_digest(tmp_path, IMPUTE_SHA256)
    # the training and test rows with a missing cell, of both modalities in
    # both folds: the first pass settles every one, and its Gram bounds
    # alone put every row's candidates in their exact order
    assert len(screened) == 8
    assert sum(n for n, _ in screened) == 232
    assert all(left == 0 for _, left in screened)
    assert exact == []


def test_wide_split_search_report_bytes_unchanged(tmp_path, monkeypatch):
    _run(tmp_path, monkeypatch, WIDE_CONFIG)
    _assert_digest(tmp_path, WIDE_SHA256)


def test_each_shared_base_model_is_fitted_once_per_cell(tmp_path, monkeypatch):
    # Over both cells the methods ask the FitContext for 80 base GBMs. 44 of
    # them repeat an earlier request of their cell at subsample 1 (ENS-H/ENS-S,
    # ML's base models, round 1 of each ADA-* and PBMV, and PBMV's later rounds
    # once a view fits its training rows), so 36 are fitted there. The 24
    # out-of-fold fits of stacking (per cell, ML's and ADA-M's one round each
    # fit 2 inner folds x 3 modalities) bypass the context and call fit_gbm
    # directly: 60 fits.
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
    assert counts == {"requests": 80, "fits": 60}


# ADA-H and PBMV boost shorter bases than ENS-S, on the same per-modality
# matrices, labels and unit weights: their first round is served from ENS-S's
# fit.
SHORTER_BASE_CONFIG = {
    **CONFIG,
    "methods": [
        {"kind": "ENS-S", "base": {"n_rounds": 10, "max_depth": 2}},
        {"kind": "ADA-H", "base": {"n_rounds": 6, "max_depth": 2}, "boosting_rounds": 3},
        {"kind": "PBMV", "base": {"n_rounds": 4, "max_depth": 2}, "boosting_rounds": 3},
    ],
}


def test_shorter_bases_are_served_with_the_same_report_bytes(tmp_path, monkeypatch):
    fits = []
    fit = integrators.fit_gbm

    def counted_fit(*args, **kwargs):
        fits.append(1)
        return fit(*args, **kwargs)

    def unshared(self, X, y, w, params, seed, K):
        return integrators.fit_gbm(X, y, w, params, seed=seed, n_classes=K)

    monkeypatch.setattr(integrators, "fit_gbm", counted_fit)
    reports = {}
    for run in ("served", "unshared"):
        if run == "unshared":
            monkeypatch.setattr(integrators.FitContext, "gbm", unshared)
        fits.clear()
        (tmp_path / run).mkdir()
        _run(tmp_path / run, monkeypatch, SHORTER_BASE_CONFIG)
        reports[run] = ((tmp_path / run / "out" / "report.json").read_bytes(), len(fits))
    assert reports["served"][0] == reports["unshared"][0]
    # 30 requests; sharing only exact repeats would fit 22 of them
    assert (reports["served"][1], reports["unshared"][1]) == (10, 30)
