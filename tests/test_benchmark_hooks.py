"""The benchmark's tracer wraps package names from outside; they must exist.

perfbench/tracer.py patches module and class attributes by name and calls
some of them positionally. A rename or a changed parameter list would break
the traced benchmark run without failing any other test.
"""

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
