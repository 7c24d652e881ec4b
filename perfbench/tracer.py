"""Outside-in tracer for latefuse: wraps the package's public functions and
methods from outside the package, records one span per call, and derives
per-layer times from the spans afterwards.

A function is patched in every `latefuse.*` module namespace that holds it,
because `from .learners import fit_gbm` gives `integrators` its own binding
that patching `learners` alone would miss. Methods are wrapped on their class.
Spans are kept in memory as [name, start, end, parent] and written once, when
the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name) for every traced free function. The span
# name is "<layer>.<function>"; metrics are named after it.
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("config", "load_config", "config.load_config"),
    ("data", "load_dataset", "data.load_dataset"),
    ("data", "make_fold_plan", "data.make_fold_plan"),
    ("evaluation", "run_cv_benchmark", "evaluation.run_cv_benchmark"),
    ("evaluation", "compute_metrics", "evaluation.compute_metrics"),
    ("evaluation", "corrected_ttest", "evaluation.corrected_ttest"),
    ("feature_selection", "select_signature", "feature_selection.select_signature"),
    ("feature_selection", "stability_cwrel", "feature_selection.stability_cwrel"),
    ("preprocess", "fit_preprocessor", "preprocess.fit_preprocessor"),
    ("preprocess", "filter_sparse", "preprocess.filter_sparse"),
    ("preprocess", "prune_correlated", "preprocess.prune_correlated"),
    ("preprocess", "variance_topk", "preprocess.variance_topk"),
    ("preprocess", "impute_knn", "preprocess.impute_knn"),
    ("preprocess", "normalize", "preprocess.normalize"),
    ("preprocess", "smote_balance_tables", "preprocess.smote_balance_tables"),
    ("learners", "fit_gbm", "learners.fit_gbm"),
    ("learners", "fit_random_forest", "learners.fit_random_forest"),
    ("learners", "fit_tree", "learners.fit_tree"),
)

# (module, class, method, span name) for every traced method.
METHODS = (
    ("learners", "DecisionTree", "apply", "learners.DecisionTree.apply"),
    ("learners", "GbmModel", "predict_proba", "learners.GbmModel.predict_proba"),
    ("learners", "RandomForestModel", "predict_proba", "learners.RandomForestModel.predict_proba"),
    ("preprocess", "FittedPreprocessor", "transform", "preprocess.FittedPreprocessor.transform"),
    ("evaluation", "EvaluationReport", "to_json", "evaluation.EvaluationReport.to_json"),
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_gbm(counts, args, kwargs, model):
    rows = model.trees
    counts["learners.fit_gbm.trees"] += sum(len(r) for r in rows)
    counts["learners.fit_gbm.tree_nodes"] += sum(t.n_nodes for r in rows for t in r)


def _count_prune(counts, args, kwargs, table):
    counts["preprocess.prune_correlated.features_in"] += _arg(args, kwargs, 0, "table").n_features
    counts["preprocess.prune_correlated.features_out"] += table.n_features


def _count_impute(counts, args, kwargs, table):
    apply_to = _arg(args, kwargs, 1, "apply_to")
    counts["preprocess.impute_knn.cells"] += int(np.isnan(apply_to.values).sum())


def _count_smote(counts, args, kwargs, result):
    y = _arg(args, kwargs, 1, "y")
    counts["preprocess.smote_balance_tables.rows_added"] += len(result[1]) - len(y)


COUNTERS = {
    "learners.fit_gbm": _count_gbm,
    "preprocess.prune_correlated": _count_prune,
    "preprocess.impute_knn": _count_impute,
    "preprocess.smote_balance_tables": _count_smote,
}


class Tracer:
    """Span recorder plus the patches that feed it. One instance per run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched_classes: set = set()

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name=None, name_of=None, counter=None, on_result=None):
        """Return fn wrapped in a span. `name_of(args, kwargs)` names the
        span per call; `counter` adds counts from the arguments and result
        after the span has ended; `on_result` sees the result."""
        spans, stack, counts, perf = self.spans, self._stack, self.counts, time.perf_counter
        fixed_id = self._name_id(name) if name is not None else None
        name_id = self._name_id

        def traced(*args, **kwargs):
            nid = fixed_id if fixed_id is not None else name_id(name_of(args, kwargs))
            idx = len(spans)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self, package_name: str = "latefuse") -> None:
        """Patch every traced function and method of an imported package."""
        modules = {
            name.rsplit(".", 1)[-1]: mod
            for name, mod in list(sys.modules.items())
            if (name == package_name or name.startswith(package_name + "."))
            and mod is not None
        }

        def patch(mod_name, attr, **wrap_args):
            original = getattr(modules[mod_name], attr)
            traced = self.wrap(original, **wrap_args)
            for mod in modules.values():
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)

        for mod_name, attr, span_name in FUNCTIONS:
            patch(mod_name, attr, name=span_name, counter=COUNTERS.get(span_name))
        for mod_name, cls_name, attr, span_name in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            setattr(cls, attr, self.wrap(getattr(cls, attr), span_name))

        # Integrators: fit spans are named by the spec's kind, and predict is
        # wrapped on whichever class fit_integrator returns, the first time
        # it appears.
        patch(
            "integrators", "fit_integrator",
            name_of=lambda a, kw: "integrators.fit." + _arg(a, kw, 2, "spec").kind,
            on_result=self._wrap_predict,
        )

    def _wrap_predict(self, fitted) -> None:
        cls = type(fitted)
        if cls in self._patched_classes:
            return
        self._patched_classes.add(cls)
        cls.predict = self.wrap(
            cls.predict, name_of=lambda a, kw: "integrators.predict." + a[0].spec.kind
        )

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}, fh
            )


def summarize(trace: dict) -> dict:
    """Per span name: calls, inclusive seconds `s`, and `self_s`, the
    duration minus the time covered by its direct child spans. Calls are
    single-threaded and properly nested, so children never overlap."""
    names, spans = trace["names"], trace["spans"]
    child_time = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (nid, start, end, _) in enumerate(spans):
        row = out.setdefault(names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return out
