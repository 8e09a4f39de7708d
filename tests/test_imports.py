"""Every imported name is used: a name imported into a module under src/,
tests/ or tools/ is read somewhere in that module or listed in its
``__all__``. And no test module imports another: what tests share lives in
``conftest.py``, ``oracle.py`` or ``corpus.py``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "tools") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list:
    """The names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # __all__ = [...] or (...)
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return [name for name in imported if name not in used]


def imported_modules(source: str) -> list:
    """The modules a module imports, by the name it imports them by, in import order."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import json\nimport os.path\nfrom math import inf, pi as tau\nfrom x import y\n__all__ = ['y']\nos.sep\n"
    assert unused_imports(source) == ["json", "inf", "tau"]


@pytest.mark.parametrize("path", sorted((ROOT / "tests").glob("test_*.py")), ids=lambda p: p.name)
def test_no_test_module_imports_another(path):
    assert [name for name in imported_modules(path.read_text()) if name.startswith("test_")] == []


def test_an_import_of_a_test_module_is_found():
    source = "import corpus\nfrom test_harness import x\nimport test_edges as e\nfrom . import test_y\n"
    assert imported_modules(source) == ["corpus", "test_harness", "test_edges"]
