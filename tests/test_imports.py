"""Source hygiene: unused and function-local imports, one order-0 evaluation
path, the README example.

Every name a module of the package imports is used in that module;
`__init__.py` is exempt, its imports are the public re-exports.  Every import
sits at module level: no import cycle in the package needs one deferred.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
