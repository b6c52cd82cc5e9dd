"""Every module-level import of the package and of the tests is read.

The scan is stdlib ast: the names a module's top-level import statements
bind, against the names its code reads anywhere.  The package's
__init__.py is left out, since its imports are re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "liedual").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unread_imports(source):
    """The names bound by the module-level imports of source that no other
    node of its tree reads, in order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [a.asname or a.name.split(".")[0] for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}-{p.stem}")
def test_every_module_level_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_names_an_unread_import():
    source = "import copy\nimport json as j\nfrom os import path, sep\n\nprint(j.dumps(sep))\n"
    assert unread_imports(source) == ["copy", "path"]
