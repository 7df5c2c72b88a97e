"""Every module in the package and the test suite uses each name it imports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "biphoton").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements -> line number; __future__ excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`.
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # Names re-exported through __all__ count as used.
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_detection():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "from .core import Grid\n"
        "__all__ = ['Grid']\n"
        "x = np.zeros(1) * pi + os.sep\n"
    )
    assert unused_imports(source) == ["tau (line 4)"]


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` definitions (function, class or assignment) in
    ``sources`` (module name -> source) that no code outside the definition
    itself reads, in that module or another."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    defined.extend(
                        (module, name.id, node)
                        for name in ast.walk(target)
                        if isinstance(name, ast.Name)
                    )
    orphans = []
    for module, name, definition in defined:
        if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
            continue
        inside = {id(node) for node in ast.walk(definition)}
        referenced = any(
            id(node) not in inside
            and (
                (isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias) and node.name == name)
            )
            for tree in trees.values()
            for node in ast.walk(tree)
        )
        if not referenced:
            orphans.append(f"{module}.{name}")
    return sorted(orphans)


def test_every_private_helper_is_used():
    package = ROOT / "src" / "biphoton"
    sources = {path.stem: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    assert orphaned_private_names(sources) == []


def test_orphaned_private_name_detection():
    sources = {
        "a": (
            "_LIMIT, _UNUSED = 1, 2\n"
            "_TABLE: dict = {}\n"
            "def _loop(n):\n"
            "    return _loop(n - 1) if n else _LIMIT\n"
            "def _kept():\n"
            "    return 0\n"
            "class _Box:\n"
            "    pass\n"
            "__all__ = []\n"
        ),
        "b": "from .a import _kept\nx = _kept()\n",
    }
    assert orphaned_private_names(sources) == ["a._Box", "a._TABLE", "a._UNUSED", "a._loop"]


def test_oracle_shares_no_code_with_the_quadrature_path():
    """The oracle is an independent check of the quadrature route only while
    it computes on its own: from the package it takes the two state
    containers and names no quadrature helper."""
    tree = ast.parse((ROOT / "src" / "biphoton" / "oracle.py").read_text(encoding="utf-8"))
    package_imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "biphoton"
        ):
            package_imports.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            package_imports.update(
                (alias.name, None) for alias in node.names if alias.name.split(".")[0] == "biphoton"
            )
    assert package_imports == {("core", "JointAmplitude"), ("core", "TwoPhotonState")}
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    quadrature = {
        "trapezoid_weights",
        "reductions",
        "spectra",
        "intensity_moments",
        "_factored_inner",
        "hankel_sum",
        "inner_product",
        "norm_squared",
        "coincidence_probability",
    }
    assert named & quadrature == set()
