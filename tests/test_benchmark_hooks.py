"""The benchmark's tracer and workloads reach package names from outside; they must exist.

perfbench/tracer.py patches module and class attributes by name and calls
some of them positionally, and perfbench/workloads.py calls the package's
public functions. A rename or a changed parameter list would break the
benchmark run without failing any other test.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# positional parameter lists the tracer's wrappers forward
POSITIONAL = {
    ("nehari", "project"): ["P", "u", "truncated", "bracket", "n_grid"],
    ("solver", "_project_onto"): ["P", "vals", "cfg", "local"],
    ("solver", "minimize_on_branch"): ["P", "cfg", "constants"],
    ("fieldio", "write_field"): ["path", "field"],
    ("grid", "pairwise_sum"): ["values"],
}
# class attributes the tracer patches by name
CLASS_ATTRS = (
    ("nehari", "_RayProfile", "phi"),
    ("grid", "ScalarField", "__post_init__"),
    ("config", "RunConfig", "build_instance"),
)


def _tracer_class():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer").Tracer
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_installs_and_restores():
    from doublephase import nehari

    tracer = _tracer_class()()
    try:
        tracer.install()
        assert getattr(nehari.project, "_perfbench", False)
    finally:
        restored = tracer.restore()
    assert restored


def test_wrapped_signatures():
    for (mod, attr), params in POSITIONAL.items():
        fn = getattr(importlib.import_module(f"doublephase.{mod}"), attr)
        assert list(inspect.signature(fn).parameters) == params, f"{mod}.{attr}"


def test_patched_class_attributes_exist():
    for mod, cls_name, attr in CLASS_ATTRS:
        cls = getattr(importlib.import_module(f"doublephase.{mod}"), cls_name)
        assert callable(getattr(cls, attr, None)), f"{mod}.{cls_name}.{attr}"


# every package function the workloads call, by the module they import it from
WORKLOAD_CALLS = {
    ("cli", "main"),
    ("config", "default_config_text"),
    ("solver", "SolverConfig"),
    ("solver", "sweep"),
    ("spaces", "WeightField"),
    ("spaces", "luxemburg_norm"),
    ("spaces", "modular"),
    ("spaces", "weighted_modular"),
    ("spaces", "weighted_norm"),
}


def _workload_calls():
    """(module, name, positional count, keyword names) of every call perfbench/workloads.py
    makes into the package, read from its source: names taken by ``from doublephase.m import
    name``, and ``m.name`` after ``from doublephase import m``."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "doublephase":
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("doublephase."):
            names.update((alias.name, node.module.partition(".")[2]) for alias in node.names)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            target = (names[func.id], func.id)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in modules:
            target = (func.value.id, func.attr)
        else:
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args), target
        calls.append((*target, len(node.args), [kw.arg for kw in node.keywords]))
    return calls


def test_workload_calls_bind():
    calls = _workload_calls()
    assert {(mod, name) for mod, name, _, _ in calls} == WORKLOAD_CALLS
    for mod, name, n_args, keywords in calls:
        fn = getattr(importlib.import_module(f"doublephase.{mod}"), name)
        # raises TypeError when the call no longer fits the parameter list
        inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(keywords))
