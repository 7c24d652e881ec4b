import copy
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import latefuse
from latefuse.cli import main
from latefuse.evaluation import corrected_ttest


def _write_config(path: Path, **overrides) -> Path:
    config = {
        "seed": 11,
        "output_dir": str(path.parent / "out"),
        "synth": {
            "n_samples": 48,
            "n_classes": 3,
            "modalities": [
                {"name": "A", "n_features": 8, "n_informative": 3, "separation": 2.0},
                {"name": "B", "n_features": 6, "n_informative": 2, "separation": 1.5},
            ],
        },
        "folds": {"repeats": 1, "folds": 3},
        "methods": [
            {"kind": "ENS-S", "base": {"n_rounds": 6, "max_depth": 2}},
            {"kind": "CONCAT", "base": {"n_rounds": 6, "max_depth": 2}},
        ],
        "incremental": {"inner_folds": 3, "base": {"n_rounds": 5, "max_depth": 2}},
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


class TestGenerate:
    def test_writes_files_and_summary(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "config.json")
        assert main(["generate", "-c", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "A.csv").exists()
        assert (out / "B.csv").exists()
        assert (out / "labels.csv").exists()
        assert (out / "manifest.json").exists()
        captured = capsys.readouterr()
        assert "A: 48 samples x 8 features" in captured.out

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path / "config.json")
        main(["generate", "-c", str(cfg)])
        first = (tmp_path / "out" / "A.csv").read_bytes()
        main(["generate", "-c", str(cfg)])
        assert (tmp_path / "out" / "A.csv").read_bytes() == first

    def test_invalid_spec_exits_nonzero(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path / "config.json",
            synth={
                "n_samples": 10,
                "n_classes": 2,
                "modalities": [{"name": "A", "n_features": 2, "n_informative": 9}],
            },
        )
        assert main(["generate", "-c", str(cfg)]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "config.json", bogus_key=1)
        assert main(["generate", "-c", str(cfg)]) == 1
        assert "unknown key" in capsys.readouterr().err


class TestRun:
    def test_writes_report_records_signatures(self, tmp_path):
        cfg = _write_config(tmp_path / "config.json")
        assert main(["run", "-c", str(cfg)]) == 0
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        assert report["report_version"] == 1
        assert set(report["methods"]) == {"ENS-S", "CONCAT"}
        assert report["config"]["seed"] == 11
        assert (out / "records.csv").exists()
        assert (out / "signature_ENS-S.csv").exists()
        header = (out / "signature_ENS-S.csv").read_text().splitlines()[0]
        assert header == "modality,feature,score,frequency"

    def test_rerun_byte_identical_report(self, tmp_path):
        cfg = _write_config(tmp_path / "config.json")
        main(["run", "-c", str(cfg)])
        first = (tmp_path / "out" / "report.json").read_bytes()
        main(["run", "-c", str(cfg)])
        assert (tmp_path / "out" / "report.json").read_bytes() == first

    def test_never_imports_scipy(self, tmp_path):
        # a fresh interpreter: this test process has scipy loaded already
        cfg = _write_config(tmp_path / "config.json")
        script = (
            "import sys\n"
            "def unused():\n"
            "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')\n"
            "                  or m == 'concurrent.futures.process')\n"
            "import latefuse.cli\n"
            "assert not unused(), ('import', unused())\n"
            f"assert latefuse.cli.main(['run', '-c', {str(cfg)!r}]) == 0\n"
            "assert not unused(), ('run', unused())\n"
            "import numpy as np\n"
            "from latefuse.feature_selection import BorutaParams, boruta_select\n"
            "rng = np.random.default_rng(0)\n"
            "y = rng.integers(0, 2, 40)\n"
            "X = rng.normal(size=(40, 4)) + y[:, None] * [3.0, 0, 0, 0]\n"
            "res = boruta_select(X, y, BorutaParams(max_iter=6))\n"
            "assert res.n_iterations > 0 and res.statuses[0] != 'rejected', res\n"
            "assert not unused(), ('boruta', unused())\n"
        )
        src = str(Path(latefuse.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["significance"]  # the run made its t-tests

    def test_partial_method_failure_exits_two(self, tmp_path):
        cfg = _write_config(
            tmp_path / "config.json",
            methods=[
                {"kind": "ENS-S", "base": {"n_rounds": 5, "max_depth": 2}},
                {"kind": "PBMV", "modalities": ["A"], "name": "bad",
                 "base": {"n_rounds": 5, "max_depth": 2}},
            ],
        )
        assert main(["run", "-c", str(cfg)]) == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["methods"]["bad"]["failures"]
        assert report["methods"]["ENS-S"]["aggregates"]

    def test_missing_data_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg = json.loads(_write_config(cfg_path).read_text())
        del cfg["synth"]
        cfg["dataset"] = {
            "modalities": [{"name": "A", "path": "missing.csv"}],
            "labels": "missing_labels.csv",
        }
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "-c", str(cfg_path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["header", "last row"])
    def test_non_utf8_modality_csv_exits_one(self, tmp_path, capsys, where):
        # the last row lies past the first block the text reader decodes
        gen_cfg = _write_config(tmp_path / "gen.json", synth={
            "n_samples": 48, "n_classes": 3,
            "modalities": [{"name": "A", "n_features": 30, "n_informative": 3},
                           {"name": "B", "n_features": 6, "n_informative": 2}],
        })
        assert main(["generate", "-c", str(gen_cfg)]) == 0
        out = tmp_path / "out"
        raw = (out / "A.csv").read_bytes()
        assert len(raw) > 3 * 8192
        at = 0 if where == "header" else len(raw) - 2
        (out / "A.csv").write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
        run_cfg = json.loads(gen_cfg.read_text())
        del run_cfg["synth"]
        run_cfg["dataset"] = {
            "modalities": [{"name": "A", "path": str(out / "A.csv")},
                           {"name": "B", "path": str(out / "B.csv")}],
            "labels": str(out / "labels.csv"),
        }
        (tmp_path / "run.json").write_text(json.dumps(run_cfg))
        capsys.readouterr()
        assert main(["run", "-c", str(tmp_path / "run.json")]) == 1
        assert f"{out / 'A.csv'}: not UTF-8 text" in capsys.readouterr().err

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b"\xff")
        assert main(["run", "-c", str(cfg)]) == 1
        assert f"{cfg}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("literal, edit", [
        ("Infinity", ("\"learning_rate\": 0.1", "\"learning_rate\": Infinity")),
        ("-Infinity", ("\"learning_rate\": 0.1", "\"learning_rate\": -Infinity")),
        ("NaN", ("\"separation\": 2.0", "\"separation\": NaN")),
    ])
    def test_non_json_number_literal_exits_one(self, tmp_path, capsys, literal, edit):
        # Python's json module reads these literals; a config is plain JSON
        cfg = _write_config(tmp_path / "config.json", methods=[
            {"kind": "ENS-S", "base": {"n_rounds": 6, "max_depth": 2, "learning_rate": 0.1}},
        ])
        text = cfg.read_text()
        assert edit[0] in text
        cfg.write_text(text.replace(edit[0], edit[1], 1))
        assert main(["run", "-c", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"config file is not valid JSON: {literal} is not a JSON number" in err
        assert not (tmp_path / "out").exists()

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path / "config.json")
        monkeypatch.setenv("LATEFUSE_OUTPUT_DIR", str(tmp_path / "env_out"))
        assert main(["run", "-c", str(cfg)]) == 0
        assert (tmp_path / "env_out" / "report.json").exists()

    def test_cli_flag_overrides_config(self, tmp_path):
        cfg = _write_config(tmp_path / "config.json")
        other = tmp_path / "flag_out"
        assert main(["run", "-c", str(cfg), "--output-dir", str(other)]) == 0
        report = json.loads((other / "report.json").read_text())
        assert report["config"]["output_dir"] == str(other)

    def test_loads_generated_csv_dataset(self, tmp_path):
        gen_cfg = _write_config(tmp_path / "gen.json")
        assert main(["generate", "-c", str(gen_cfg)]) == 0
        out = tmp_path / "out"
        run_cfg_path = tmp_path / "run.json"
        run_cfg = json.loads(gen_cfg.read_text())
        del run_cfg["synth"]
        run_cfg["dataset"] = {
            "modalities": [
                {"name": "A", "path": str(out / "A.csv")},
                {"name": "B", "path": str(out / "B.csv")},
            ],
            "labels": str(out / "labels.csv"),
        }
        run_cfg["output_dir"] = str(tmp_path / "from_csv")
        run_cfg_path.write_text(json.dumps(run_cfg))
        assert main(["run", "-c", str(run_cfg_path)]) == 0


class TestIncremental:
    def test_trace_and_comparison_files(self, tmp_path):
        cfg = _write_config(
            tmp_path / "config.json",
            synth={
                "n_samples": 48,
                "n_classes": 3,
                "modalities": [
                    {"name": "good1", "n_features": 6, "n_informative": 3,
                     "separation": 2.0, "informative_classes": [0, 1]},
                    {"name": "good2", "n_features": 6, "n_informative": 3,
                     "separation": 2.0, "informative_classes": [1, 2]},
                    {"name": "junk", "n_features": 6, "n_informative": 0},
                ],
            },
        )
        assert main(["incremental", "-c", str(cfg)]) == 0
        out = tmp_path / "out"
        trace = (out / "incremental_trace.csv").read_text().splitlines()
        assert trace[0] == "step,removed_modality,f1_after_removal"
        assert trace[1].startswith("0,None,")
        best = json.loads((out / "best_subset.json").read_text())["best_subset"]
        assert best
        comparison = (out / "comparison.csv").read_text().splitlines()
        assert comparison[0] == "method,auc_all,f1_all,auc_subset,f1_subset"

    def test_single_modality_exits_one(self, tmp_path):
        cfg = _write_config(
            tmp_path / "config.json",
            synth={
                "n_samples": 30,
                "n_classes": 2,
                "modalities": [{"name": "A", "n_features": 5, "n_informative": 2}],
            },
        )
        assert main(["incremental", "-c", str(cfg)]) == 1


@pytest.fixture(scope="module")
def report_data(tmp_path_factory):
    """A valid report of methods A and B, both scored on every cell, so both
    have aggregates and stability, and with their t-tests."""
    cfg = _write_config(
        tmp_path_factory.mktemp("run") / "config.json",
        methods=[
            {"kind": "ENS-S", "name": "A", "base": {"n_rounds": 4, "max_depth": 2}},
            {"kind": "CONCAT", "name": "B", "base": {"n_rounds": 4, "max_depth": 2}},
        ],
    )
    assert main(["run", "-c", str(cfg)]) == 0
    return json.loads((cfg.parent / "out" / "report.json").read_text())


def _edit(*path, value=None):
    """An edit that sets the report's key at `path` to `value`, or deletes it
    when no value is given, and returns the report."""

    def edit(report):
        *parents, last = path
        section = report
        for key in parents:
            section = section[key]
        if value is None:
            del section[last]
        else:
            section[last] = value
        return report

    return edit


class TestReport:
    def test_pretty_print(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "config.json")
        main(["run", "-c", str(cfg)])
        capsys.readouterr()
        assert main(["report", str(tmp_path / "out" / "report.json")]) == 0
        text = capsys.readouterr().out
        assert "ENS-S" in text and "CONCAT" in text
        assert "significance" in text

    def test_missing_report_exits_one(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.json")]) == 1

    def test_non_utf8_report_exits_one(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_bytes(b"\xff\xfe")
        assert main(["report", str(path)]) == 1
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err

    def test_degenerate_tests_are_not_counted_significant(self, tmp_path, capsys, report_data):
        # every paired difference is 0.5: t = 0 and p = 0, flagged degenerate
        res = corrected_ttest([1.0, 0.5], [0.5, 0.0], n_train=2, n_test=1)
        assert (res.p_value, res.degenerate) == (0.0, True)
        entry = {**report_data["significance"][0], **asdict(res)}
        path = tmp_path / "report.json"
        path.write_text(json.dumps({**report_data, "significance": [entry]}))
        assert main(["report", str(path)]) == 0
        assert "significance: 0 of 1 pairwise tests at p < 0.05" in capsys.readouterr().out

    # each case injects one defect into an otherwise valid report
    @pytest.mark.parametrize("edit, cause", [
        (lambda report: [], "report: expected an object, got list"),
        (_edit("report_version", value=2), "report.report_version: is 2, not 1"),
        (_edit("report_version"), "report.report_version: required"),
        (_edit("methods", "A", "aggregates", "macro_f1_sd"),
         "report.methods['A'].aggregates.macro_f1_sd: required"),
        (_edit("methods", value=[]), "report.methods: expected object, got list"),
        (_edit("methods", "A", value=[]), "report.methods['A']: expected an object, got list"),
        (_edit("significance", 0, "p_value"), "report.significance[0].p_value: required"),
        (_edit("methods", "A", "aggregates", "macro_f1_mean", value="x"),
         "report.methods['A'].aggregates.macro_f1_mean: expected number, got string"),
        (_edit("methods", "A", "stability", "cw_rel", value="x"),
         "report.methods['A'].stability.cw_rel: expected number, got string"),
    ])
    def test_json_that_is_not_a_report_exits_one(
        self, tmp_path, capsys, report_data, edit, cause
    ):
        path = tmp_path / "other.json"
        path.write_text(json.dumps(edit(copy.deepcopy(report_data))))
        assert main(["report", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: not a latefuse report ({cause})\n"
