import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latefuse.cli import main
from latefuse.config import ConfigError, load_config, parse_config
from latefuse.integrators import INTEGRATOR_KINDS

# The README's "Config schema" example, with `dataset` and without `synth`.
README_EXAMPLE = {
    "seed": 7,
    "output_dir": "out",
    "parallelism": 1,
    "dataset": {
        "modalities": [{"name": "CYT", "path": "cyt.csv"}],
        "labels": "labels.csv",
        "missing_tokens": ["", "NA", "NaN", "null"],
    },
    "preprocess": {
        "max_missing_fraction": 0.5,
        "max_zero_fraction": 0.9,
        "correlation_threshold": 0.9,
        "variance_cap": 500,
        "dimensionality_ratio_trigger": 10,
        "knn_k": 5, "smote_k": 5, "smote_enabled": True,
        "normalization": {"RNA": "cpm_log"},
        "default_normalization": "standardize",
    },
    "folds": {"repeats": 5, "folds": 5},
    "methods": [
        {"kind": "ENS-S"},
        {"kind": "ADA-S", "boosting_rounds": 20, "base": {"n_rounds": 20, "max_depth": 2}},
        {"kind": "CONCAT", "modalities": ["CYT"], "name": "baseline_CYT"},
    ],
    "incremental": {"margin": 0.01, "inner_folds": 3, "base": {"n_rounds": 10}},
}

README_SYNTH = {
    "n_samples": 100, "n_classes": 4,
    "modalities": [{
        "name": "A", "n_features": 50, "n_informative": 5,
        "separation": 1.5, "missing_fraction": 0.05, "zero_fraction": 0.0,
        "count_valued": False, "informative_classes": [0, 1],
    }],
}


def _readme_with_synth() -> dict:
    data = copy.deepcopy(README_EXAMPLE)
    del data["dataset"]
    data["synth"] = copy.deepcopy(README_SYNTH)
    return data


def _round_trip(cfg):
    return parse_config(json.loads(json.dumps(cfg.resolved_dict())))


class TestRoundTrip:
    @pytest.mark.parametrize("data", [README_EXAMPLE, _readme_with_synth()],
                             ids=["dataset", "synth"])
    def test_readme_example(self, data):
        cfg = parse_config(data)
        assert _round_trip(cfg) == cfg

    def test_meta_forest_and_incremental_base_survive(self):
        data = _readme_with_synth()
        data["methods"] = [{"kind": "ML", "inner_folds": 3, "meta_forest": {"n_trees": 50}}]
        data["incremental"] = {"base": {"n_rounds": 7, "learning_rate": 0.2}}
        cfg = parse_config(data)
        again = _round_trip(cfg)
        assert again == cfg
        assert again.methods[0].meta_forest.n_trees == 50
        assert again.incremental.base.n_rounds == 7
        echo = cfg.resolved_dict()
        assert echo["methods"][0]["meta_forest"]["n_trees"] == 50
        assert echo["incremental"]["base"]["learning_rate"] == 0.2

    def test_unnamed_method_echoes_its_label(self):
        data = _readme_with_synth()
        data["methods"] = [{"kind": "ENS-S"}, {"kind": "PBMV", "modalities": ["A"]}]
        cfg = parse_config(data)
        assert [m["name"] for m in cfg.resolved_dict()["methods"]] == ["ENS-S", "PBMV[A]"]
        assert _round_trip(cfg) == cfg

    def test_context_defaults_are_bound_at_parse_time(self):
        data = _readme_with_synth()
        del data["synth"]["modalities"][0]["name"]
        cfg = parse_config(data)
        assert cfg.synth.seed == 7
        assert cfg.synth.modalities[0].name == "M0"
        echo = json.loads(json.dumps(cfg.resolved_dict()))
        echo["seed"] = 99  # the echo's synth.seed stays what the file bound
        assert parse_config(echo).synth == cfg.synth

    def test_dataset_paths_resolve_against_config_dir(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(README_EXAMPLE))
        cfg = load_config(path)
        assert cfg.dataset.labels == str(tmp_path / "labels.csv")
        assert cfg.dataset.modalities[0].path == str(tmp_path / "cyt.csv")
        assert _round_trip(cfg) == cfg

    def test_rerun_from_echo_gives_same_report(self, tmp_path):
        config = {
            "seed": 3,
            "output_dir": str(tmp_path / "out"),
            "synth": {"n_samples": 36, "n_classes": 3, "modalities": [
                {"name": "A", "n_features": 6, "n_informative": 3, "separation": 2.0},
                {"name": "B", "n_features": 5, "n_informative": 2},
            ]},
            "folds": {"repeats": 1, "folds": 3},
            "methods": [{"kind": "ML", "inner_folds": 2, "base": {"n_rounds": 4, "max_depth": 2},
                         "meta_forest": {"n_trees": 7}}],
        }
        first_cfg = tmp_path / "first.json"
        first_cfg.write_text(json.dumps(config))
        assert main(["run", "-c", str(first_cfg)]) == 0
        first = (tmp_path / "out" / "report.json").read_bytes()
        echo_cfg = tmp_path / "echo.json"
        echo_cfg.write_text(json.dumps(json.loads(first)["config"]))
        assert main(["run", "-c", str(echo_cfg)]) == 0
        assert (tmp_path / "out" / "report.json").read_bytes() == first


# --- hypothesis: random valid subsets of the keys ---------------------------

_finite = dict(allow_nan=False, allow_infinity=False)
_gbm = st.fixed_dictionaries({}, optional={
    "n_rounds": st.integers(1, 200),
    "learning_rate": st.one_of(st.integers(1, 2), st.floats(0.01, 1.0, **_finite)),
    "max_depth": st.integers(1, 6),
    "min_leaf": st.integers(1, 5),
    "subsample": st.floats(0.1, 1.0, **_finite),
})
_forest = st.fixed_dictionaries({}, optional={
    "n_trees": st.integers(1, 200),
    "max_depth": st.integers(1, 20),
    "min_leaf": st.integers(1, 5),
    "bootstrap": st.booleans(),
    "max_features": st.sampled_from(["sqrt", None]),
})
_method = st.fixed_dictionaries({"kind": st.sampled_from(INTEGRATOR_KINDS)}, optional={
    "modalities": st.one_of(st.none(), st.just(["A"])),
    "base": _gbm,
    "boosting_rounds": st.integers(1, 50),
    "soft_confidence_ratio": st.one_of(st.integers(2, 5), st.floats(1.01, 4.0, **_finite)),
    "inner_folds": st.integers(2, 10),
    "ada_inner_folds": st.integers(2, 10),
    "meta_forest": _forest,
    "expert_smote": st.booleans(),
    "smote_k": st.integers(1, 9),
})
_fraction = st.one_of(st.sampled_from([0, 1]), st.floats(0.0, 1.0, **_finite))
_norm_kind = st.sampled_from(["standardize", "cpm_log"])
_preprocess = st.fixed_dictionaries({}, optional={
    "max_missing_fraction": _fraction,
    "max_zero_fraction": _fraction,
    "correlation_threshold": st.floats(0.01, 1.0, **_finite),
    "variance_cap": st.integers(1, 1000),
    "dimensionality_ratio_trigger": st.one_of(st.integers(1, 20), st.floats(1.0, 20.0, **_finite)),
    "knn_k": st.integers(1, 9),
    "smote_k": st.integers(1, 9),
    "smote_enabled": st.booleans(),
    "normalization": st.dictionaries(st.sampled_from(["A", "B"]), _norm_kind),
    "default_normalization": _norm_kind,
})
_dataset = st.fixed_dictionaries(
    {
        "modalities": st.lists(
            st.fixed_dictionaries({"name": st.sampled_from(["A", "B"]),
                                   "path": st.sampled_from(["a.csv", "/data/b.csv"])}),
            min_size=1, max_size=2,
        ),
        "labels": st.sampled_from(["labels.csv", "sub/labels.csv"]),
    },
    optional={"missing_tokens": st.one_of(st.none(), st.lists(st.sampled_from(["", "NA", "?"])))},
)


@st.composite
def _synth(draw):
    n_classes = draw(st.integers(2, 4))
    modality = st.fixed_dictionaries({}, optional={
        "n_features": st.integers(5, 60),
        "n_informative": st.integers(0, 5),
        "separation": st.one_of(st.integers(0, 3), st.floats(0.0, 3.0, **_finite)),
        "missing_fraction": _fraction,
        "zero_fraction": _fraction,
        "count_valued": st.booleans(),
        "informative_classes": st.one_of(
            st.none(), st.lists(st.integers(0, n_classes - 1), max_size=n_classes)
        ),
    })
    mods = draw(st.lists(modality, min_size=1, max_size=3))
    for i, m in enumerate(mods):
        if draw(st.booleans()):
            m["name"] = f"N{i}"
    required = {"n_classes": st.just(n_classes), "modalities": st.just(mods)}
    return draw(st.fixed_dictionaries(required, optional={
        "n_samples": st.integers(10, 300),
        "seed": st.integers(0, 2**32 - 1),
        "class_weights": st.one_of(st.none(), st.lists(
            st.one_of(st.integers(1, 5), st.floats(0.1, 5.0, **_finite)),
            min_size=n_classes, max_size=n_classes)),
        "class_names": st.one_of(st.none(), st.just([f"c{k}" for k in range(n_classes)])),
    }))


def _label(method: dict) -> tuple:
    return method["kind"], tuple(method.get("modalities") or ())


def _with_optional_keys(source: dict):
    return st.fixed_dictionaries({k: st.just(v) for k, v in source.items()}, optional={
        "seed": st.integers(0, 2**32 - 1),
        "output_dir": st.sampled_from(["out", "/tmp/run"]),
        "parallelism": st.integers(1, 4),
        "folds": st.fixed_dictionaries({}, optional={"repeats": st.integers(1, 5),
                                                     "folds": st.integers(2, 10)}),
        "methods": st.lists(_method, min_size=1, max_size=4, unique_by=_label),
        "preprocess": _preprocess,
        "incremental": st.fixed_dictionaries({}, optional={
            "margin": st.one_of(st.integers(0, 1), st.floats(0.0, 0.5, **_finite)),
            "inner_folds": st.integers(2, 5),
            "base": _gbm,
        }),
    })


_config = st.one_of(
    st.fixed_dictionaries({"dataset": _dataset}),
    st.fixed_dictionaries({"synth": _synth()}),
).flatmap(_with_optional_keys)


@settings(max_examples=150, deadline=None)
@given(_config)
def test_echo_reparses_to_the_same_config(data):
    cfg = parse_config(data)
    assert _round_trip(cfg) == cfg


# --- every bad value exits 1 and names its key ------------------------------

_BAD_CONFIGS = {
    "null_seed": ({"seed": None}, "seed"),
    "null_n_rounds": ({"methods": [{"kind": "ENS-S", "base": {"n_rounds": None}}]},
                      "methods[0].base.n_rounds"),
    "bool_n_rounds": ({"methods": [{"kind": "ENS-S", "base": {"n_rounds": True}}]},
                      "methods[0].base.n_rounds"),
    "folds_not_object": ({"folds": 5}, "folds"),
    "preprocess_not_object": ({"preprocess": []}, "preprocess"),
    "class_weights_not_list": (
        {"synth": {"n_classes": 2, "modalities": [{"name": "A"}], "class_weights": 3}},
        "synth.class_weights",
    ),
    "method_not_object": ({"methods": ["ENS-S"]}, "methods[0]"),
    "negative_seed": (
        {"seed": -1, "synth": {"n_classes": 2, "modalities": [{"name": "A"}], "seed": 5}}, "seed"
    ),
    "negative_synth_seed": (
        {"synth": {"n_classes": 2, "modalities": [{"name": "A"}], "seed": -1}}, "synth.seed"
    ),
    "negative_n_rounds": ({"methods": [{"kind": "ENS-S", "base": {"n_rounds": -1}}]},
                          "methods[0].base.n_rounds"),
    "negative_learning_rate": ({"methods": [{"kind": "ENS-S", "base": {"learning_rate": -1}}]},
                               "methods[0].base.learning_rate"),
    "zero_subsample": ({"methods": [{"kind": "ENS-S", "base": {"subsample": 0}}]},
                       "methods[0].base.subsample"),
    "subsample_above_one": ({"methods": [{"kind": "ENS-S", "base": {"subsample": 1.5}}]},
                            "methods[0].base.subsample"),
    "zero_max_depth": ({"methods": [{"kind": "ENS-S", "base": {"max_depth": 0}}]},
                       "methods[0].base.max_depth"),
    "zero_min_leaf": ({"methods": [{"kind": "ENS-S", "base": {"min_leaf": 0}}]},
                      "methods[0].base.min_leaf"),
    "zero_incremental_learning_rate": ({"incremental": {"base": {"learning_rate": 0}}},
                                     "incremental.base.learning_rate"),
    "zero_forest_trees": ({"methods": [{"kind": "ML", "meta_forest": {"n_trees": 0}}]},
                          "methods[0].meta_forest.n_trees"),
    "unknown_max_features": (
        {"methods": [{"kind": "ML", "meta_forest": {"max_features": "log2"}}]},
        "methods[0].meta_forest.max_features",
    ),
    "one_inner_fold": ({"methods": [{"kind": "ML", "inner_folds": 1}]}, "methods[0].inner_folds"),
    "one_ada_inner_fold": ({"methods": [{"kind": "ADA-M", "ada_inner_folds": 1}]},
                           "methods[0].ada_inner_folds"),
    "zero_smote_k": ({"methods": [{"kind": "MOE-COMBN", "smote_k": 0}]}, "methods[0].smote_k"),
    "unknown_modality": ({"methods": [{"kind": "ENS-S"}, {"kind": "ENS-S", "modalities": ["Z"]}]},
                         "methods[1].modalities"),
    "one_fold": ({"folds": {"repeats": 1, "folds": 1}}, "folds.folds"),
    "zero_repeats": ({"folds": {"repeats": 0, "folds": 3}}, "folds.repeats"),
    "one_incremental_inner_fold": ({"incremental": {"inner_folds": 1}}, "incremental.inner_folds"),
}


def _small_config(tmp_path, **overrides) -> str:
    config = {
        "seed": 5,
        "output_dir": str(tmp_path / "out"),
        "synth": {"n_samples": 30, "n_classes": 2, "modalities": [
            {"name": "A", "n_features": 6, "n_informative": 2, "separation": 2.0},
            {"name": "B", "n_features": 5, "n_informative": 2},
        ]},
        "folds": {"repeats": 1, "folds": 3},
        "methods": [{"kind": "ENS-S", "base": {"n_rounds": 3, "max_depth": 2}}],
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("case", sorted(_BAD_CONFIGS))
def test_bad_config_value_exits_one_with_key_path(case, tmp_path, capsys):
    overrides, key_path = _BAD_CONFIGS[case]
    assert main(["run", "-c", _small_config(tmp_path, **overrides)]) == 1
    assert f"error: {key_path}:" in capsys.readouterr().err


@pytest.mark.parametrize("flags, env, key_path", [
    (["--parallelism", "0"], {}, "parallelism"),
    ([], {"LATEFUSE_PARALLELISM": "0"}, "parallelism"),
    ([], {"LATEFUSE_PARALLELISM": "two"}, "parallelism"),
    (["--folds", "1"], {}, "folds.folds"),
    (["--repeats", "0"], {}, "folds.repeats"),
], ids=["flag_zero", "env_zero", "env_not_int", "folds_flag_one", "repeats_flag_zero"])
def test_bad_override_exits_one_with_key_path(flags, env, key_path, tmp_path, capsys, monkeypatch):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(["run", "-c", _small_config(tmp_path), *flags]) == 1
    assert f"error: {key_path}:" in capsys.readouterr().err


def test_negative_seed_flag_exits_one(tmp_path, capsys):
    assert main(["run", "-c", _small_config(tmp_path), "--seed", "-1"]) == 1
    assert "error: seed: must be >= 0" in capsys.readouterr().err


def test_overrides_reach_the_echo(tmp_path, monkeypatch):
    monkeypatch.setenv("LATEFUSE_OUTPUT_DIR", str(tmp_path / "env_out"))
    path = _small_config(tmp_path)
    assert main(["run", "-c", path, "--seed", "9", "--repeats", "2", "--folds", "2"]) == 0
    echo = json.loads((tmp_path / "env_out" / "report.json").read_text())["config"]
    assert echo["output_dir"] == str(tmp_path / "env_out")
    assert echo["seed"] == 9
    assert echo["folds"] == {"repeats": 2, "folds": 2}
    assert echo["synth"]["seed"] == 5  # bound to the file's seed at parse time


def test_parse_errors_are_config_errors():
    with pytest.raises(ConfigError, match=r"^config: unknown key\(s\) \['bogus'\]"):
        parse_config({**README_EXAMPLE, "bogus": 1})
    with pytest.raises(ConfigError, match=r"^methods\[1\]\.kind: required"):
        parse_config({**README_EXAMPLE, "methods": [{"kind": "ENS-S"}, {}]})
    with pytest.raises(ConfigError, match="exactly one of dataset or synth"):
        parse_config({**README_EXAMPLE, "synth": README_SYNTH})
