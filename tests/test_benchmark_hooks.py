"""perfbench times latefuse from outside by replacing its functions and
methods by name. A name it patches that no longer exists fails every traced
benchmark run, so each one is checked here. The perfbench files are parsed,
not imported."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer_table(name: str) -> tuple:
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracer.py defines no {name}")


def _resolves(module: str, *attrs: str) -> bool:
    obj = importlib.import_module(f"latefuse.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return callable(obj)


def test_every_traced_function_and_method_exists():
    functions = _tracer_table("FUNCTIONS")
    methods = _tracer_table("METHODS")
    assert functions and methods
    # `Tracer.install` also patches fit_integrator by name
    hooks = [(module, attr) for module, attr, _ in functions] + [
        ("integrators", "fit_integrator")
    ]
    hooks += [(module, cls, method) for module, cls, method, _ in methods]
    assert [".".join(h) for h in hooks if not _resolves(*h)] == []


def test_child_marks_setup_through_cli_make_fold_plan():
    from latefuse import cli, data

    assert "cli.make_fold_plan = " in (PERFBENCH / "child.py").read_text(encoding="utf-8")
    assert cli.make_fold_plan is data.make_fold_plan
