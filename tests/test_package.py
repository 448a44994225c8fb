"""Package-level checks: every module's public names resolve, no module
imports ``dataclasses``, the CLI does not load ``verify`` until the verify
command runs, the README's CLI synopsis names exactly the parser's options,
and its configuration section exactly the options a config accepts."""

import argparse
import ast
import importlib
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import doublephase
from doublephase.cli import build_parser
from doublephase.config import _OPTIONS


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(doublephase.__path__)))
def test_star_import_resolves_every_export(module):
    # a name left in __all__ after its definition is deleted fails here
    namespace = {}
    exec(f"from doublephase.{module} import *", namespace)
    exported = importlib.import_module(f"doublephase.{module}").__all__
    assert set(exported) <= set(namespace)


def test_no_module_imports_dataclasses():
    # the records are NamedTuples or plain classes: defining dataclasses was
    # most of the package's import time
    for path in sorted(pathlib.Path(doublephase.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in [m.split(".")[0] for m in modules], f"{path.name}:{node.lineno}"


def test_cli_import_leaves_verify_unloaded():
    src = str(pathlib.Path(doublephase.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import doublephase.cli; print(sorted(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert "'doublephase.cli'" in loaded and "'doublephase.verify'" not in loaded
    # only verify and sweep write CSV
    assert "'csv'" not in loaded


def _readme_section(title):
    """The text of the README section headed ``## title``."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _readme_synopsis():
    """Subcommand -> the options its lines in the README "## CLI" block name."""
    options, command = {}, None
    for line in _readme_section("CLI").splitlines():
        if not line.startswith("    "):
            if options:
                break  # the synopsis is the first indented block
            continue
        words = line.split()
        if words[0] == "doublephase":
            command = words[1]
            options[command] = set()
        options[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return options


def test_readme_cli_synopsis_matches_the_parser():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert _readme_synopsis() == parsed


def test_readme_configuration_names_every_option():
    named = set(re.findall(r"`\[([a-z_]+)\] ([a-z_]+)`", _readme_section("Configuration")))
    assert named == {(section, option) for section, options in _OPTIONS.items() for option in options}
