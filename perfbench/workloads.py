"""Workload definitions for the `latefuse run` benchmark.

Each workload is a synthetic cohort (the arguments of `latefuse.synth`) plus
the `latefuse run` config that uses it. `seed` drives both the cohort and the
config seed, so the same seed always gives the same CSVs and the same run.
`tiny=True` shrinks every workload to a few hundred milliseconds for the
smoke test; the shapes of the methods and layers it exercises stay the same.
"""

from __future__ import annotations

import copy

NAMES = ("wide", "boost", "sparse")
INTEGRATOR_KINDS = (
    "CONCAT", "ENS-H", "ENS-S", "ML", "ADA-H", "ADA-S", "ADA-M", "PBMV", "MOE-COMBN",
)


def _gbm(n_rounds: int, max_depth: int) -> dict:
    return {"n_rounds": n_rounds, "max_depth": max_depth}



_SPECS = {
    # Two 2000-feature modalities: the variance cap keeps 500 columns per
    # modality for split search, and prune_correlated builds 2000x2000
    # correlation matrices on the no-missing path. Parsing 400k CSV cells
    # loads setup.
    "wide": {
        "synth": {
            "n_samples": 100,
            "n_classes": 3,
            "modalities": [
                {"name": "A", "n_features": 2000, "n_informative": 20, "separation": 1.5},
                {"name": "B", "n_features": 2000, "n_informative": 20, "separation": 1.5},
            ],
        },
        "methods": [
            {"kind": "CONCAT", "base": _gbm(12, 2)},
            {"kind": "ENS-S", "base": _gbm(12, 2)},
            {"kind": "PBMV", "base": _gbm(6, 2), "boosting_rounds": 3},
        ],
        "preprocess": {},
        "folds": {"repeats": 1, "folds": 3},
    },
    # Three small modalities (one carries no signal) and every integrator
    # kind: hundreds of small fit_gbm calls, tens of thousands of tree
    # applications, random-forest fits and per-kind glue, with almost no
    # preprocessing.
    "boost": {
        "synth": {
            "n_samples": 90,
            "n_classes": 4,
            "modalities": [
                {"name": "X", "n_features": 20, "n_informative": 6, "separation": 1.5},
                {"name": "Y", "n_features": 20, "n_informative": 6, "separation": 1.5},
                {"name": "Z", "n_features": 15, "n_informative": 0},
            ],
        },
        "methods": [
            {
                "kind": kind,
                "base": _gbm(10, 3),
                "boosting_rounds": 5,
                "inner_folds": 3,
                "meta_forest": {"n_trees": 50},
            }
            for kind in INTEGRATOR_KINDS
        ],
        "preprocess": {},
        "folds": {"repeats": 1, "folds": 2},
    },
    # Imbalanced classes with missing cells and a count modality: kNN
    # imputation, the missing-data correlation path, SMOTE rows and cpm_log
    # dominate; the single cheap method keeps learners small.
    "sparse": {
        "synth": {
            "n_samples": 300,
            "n_classes": 3,
            "class_weights": [0.6, 0.3, 0.1],
            "modalities": [
                {
                    "name": "CYT", "n_features": 150, "n_informative": 10,
                    "separation": 1.5, "missing_fraction": 0.2,
                },
                {
                    "name": "RNA", "n_features": 250, "n_informative": 10,
                    "separation": 1.5, "missing_fraction": 0.1, "zero_fraction": 0.3,
                    "count_valued": True,
                },
            ],
        },
        "methods": [{"kind": "ENS-S", "base": _gbm(5, 2)}],
        "preprocess": {"normalization": {"RNA": "cpm_log"}},
        "folds": {"repeats": 1, "folds": 5},
    },
}


def _shrink(spec: dict) -> dict:
    """Smoke-test size: few samples, features and trees. ADA-S needs about
    ten boosting rounds before its soft vote is confident enough to keep a
    round, so the base learner keeps ten."""
    spec = copy.deepcopy(spec)
    synth = spec["synth"]
    synth["n_samples"] = min(synth["n_samples"], 60)
    spec["folds"] = {"repeats": 1, "folds": 2}
    for m in synth["modalities"]:
        m["n_features"] = min(m["n_features"], 12)
        m["n_informative"] = min(m["n_informative"], 4)
    for m in spec["methods"]:
        m["base"] = _gbm(10, 2)
        if "boosting_rounds" in m:
            m["boosting_rounds"] = 2
        if "meta_forest" in m:
            m["meta_forest"] = {"n_trees": 5}
    return spec


def workload(name: str, tiny: bool = False) -> dict:
    if name not in _SPECS:
        raise KeyError(f"unknown workload {name!r}; choose from {NAMES}")
    spec = _shrink(_SPECS[name]) if tiny else copy.deepcopy(_SPECS[name])
    return spec


def synth_section(name: str, seed: int, tiny: bool = False) -> dict:
    """Arguments of latefuse.synth.SynthSpec (modalities as plain dicts)."""
    synth = workload(name, tiny)["synth"]
    synth["seed"] = seed
    return synth


def run_config(name: str, seed: int, tiny: bool = False) -> dict:
    """The `latefuse run` config. Every path is relative to the workload
    directory, which is the run's working directory, so no absolute path
    reaches the report's config echo."""
    spec = workload(name, tiny)
    modalities = [m["name"] for m in spec["synth"]["modalities"]]
    return {
        "seed": seed,
        "output_dir": "out",
        "parallelism": 1,
        "dataset": {
            "modalities": [{"name": m, "path": f"data/{m}.csv"} for m in modalities],
            "labels": "data/labels.csv",
        },
        "folds": spec["folds"],
        "methods": spec["methods"],
        "preprocess": spec["preprocess"],
    }
