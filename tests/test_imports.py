"""Source hygiene: unused and function-local imports, one order-0 evaluation
path, the error model, the README example.

Every name a module of the package imports is used in that module;
`__init__.py` is exempt, its imports are the public re-exports.  Every import
sits at module level: no import cycle in the package needs one deferred.
The package has one error type per kind of failure: `ValueError` for input
that is malformed, out of range or names nothing, `ConstructionError` for a
sampled check that failed, `EvaluationError` for a field that cannot be
evaluated.
"""

import ast
import builtins
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mhstools import clebsch, registry, symmetry
from mhstools.fields import x

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mhstools"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import, `from __future__` excluded."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _used(tree: ast.AST) -> set[str]:
    """Names loaded anywhere, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items()
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted({inner.lineno for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))})
    assert not lines, f"{path.name} imports inside a function on lines {lines}"


def _builds_eval_context(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "EvalContext") or (
        isinstance(f, ast.Attribute) and f.attr == "EvalContext"
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_fields_builds_an_eval_context(path):
    # order-0 evaluation goes through fields.evaluate, which owns the context
    if path.name == "fields.py":
        return
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if _builds_eval_context(node)]
    assert not lines, f"{path.name} builds an EvalContext on lines {lines}; call fields.evaluate"


def _is_exception_base(base: ast.expr) -> bool:
    name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
    builtin = getattr(builtins, name, None)
    return name.endswith(("Error", "Exception")) or (
        isinstance(builtin, type) and issubclass(builtin, BaseException))


def test_the_package_defines_two_exception_classes():
    defined = sorted(
        (path.name, node.name)
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef) and any(map(_is_exception_base, node.bases))
    )
    assert defined == [("fields.py", "EvaluationError"), ("reports.py", "ConstructionError")]


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_raises_key_error(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and _raised_name(node) == "KeyError"]
    assert not lines, f"{path.name} raises KeyError on lines {lines}; raise ValueError"


# beltrami.catalog, alpha_from_characteristics and example_decomposition are
# checked in their own modules' tests
@pytest.mark.parametrize("lookup", [
    lambda: registry.get("nope"),
    lambda: clebsch.catalog("nope"),
    lambda: symmetry.example_symmetry("nope", p=x, g=x),
], ids=["registry", "clebsch", "example_symmetry"])
def test_an_unknown_name_is_a_value_error(lookup):
    with pytest.raises(ValueError, match="'nope'") as ei:
        lookup()
    assert type(ei.value) is ValueError


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", blocks[0]], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    beltrami_max, null_dim, member = run.stdout.splitlines()
    assert float(beltrami_max) < 1e-8
    assert null_dim == "0"
    assert member.endswith(" False")
