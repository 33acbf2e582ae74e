"""The public surface stays whole: each module's ``__all__`` is what
``import epower`` exposes, and every name the benchmark reads resolves.

The benchmark files are read with ``ast``, never imported, so trimming
a name they use fails here instead of in a benchmark run.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import epower
import epower.cli  # noqa: F401  (the benchmark calls ep.cli.main)

MODULES = ("canonical", "epower2q", "oracle", "qmath", "results", "schmidt2")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(epower.__file__).resolve().parent


def top_level_names(module):
    """Names bound by a def, class or assignment at the top of the module."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_defined_there_and_reexported(name):
    module = importlib.import_module(f"epower.{name}")
    assert not set(module.__all__) - top_level_names(module)
    for export in module.__all__:
        assert getattr(epower, export) is getattr(module, export), export


def test_package_exports_only_the_module_lists():
    exported = {n for n, v in vars(epower).items()
                if not n.startswith("_") and not inspect.ismodule(v)}
    declared = [n for m in MODULES for n in importlib.import_module(f"epower.{m}").__all__]
    assert len(declared) == len(set(declared))
    assert exported == set(declared)


def traced_table():
    """The benchmark tracer's ``TRACED`` table: layer -> traced names."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED" for t in node.targets))


def test_traced_names_resolve():
    missing = [f"{mod}.{name}" for mod, names in traced_table().items() for name in names
               if not hasattr(importlib.import_module(f"epower.{mod}"), name)]
    assert not missing


def test_cli_import_loads_every_traced_layer():
    """The tracer reads ``sys.modules["epower.<layer>"]`` right after
    ``import epower.cli``, so a traced layer imported lazily would break
    every traced run; ``epower.verify``, which only ``verify`` runs, stays
    out of a one-shot process."""
    code = "import sys, epower.cli; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert [f"epower.{layer}" for layer in traced_table() if f"epower.{layer}" not in loaded] == []
    assert "epower.verify" not in loaded


@pytest.mark.parametrize("filename", ["ops.py", "worker.py"])
def test_benchmark_calls_resolve(filename):
    tree = ast.parse((PERFBENCH / filename).read_text())
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "ep"}
    assert used
    assert not [name for name in used if not hasattr(epower, name)]


def test_every_private_helper_has_a_caller():
    """A top-level ``_name`` def or class is referenced in ``src/epower``
    outside its own definition, so a helper whose last caller went is
    deleted or folded back with it."""
    defined, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined.add(f"{path.stem}.{node.name}")
                names.discard(node.name)
            referenced |= names
    assert defined
    assert not [d for d in sorted(defined) if d.split(".")[1] not in referenced]
