"""Import hygiene: every name a module imports is read somewhere in it.

No linter ships with the project, so this scans the source with the stdlib
`ast` module. Package `__init__.py` files are exempt (they re-export), and
so is any name a module lists in `__all__`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hypflow").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree):
    """(bound name, line) for each import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _read_names(tree):
    """Every name the module reads, plus the entries of `__all__`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return names


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _read_names(tree)
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in _imported(tree) if name not in used]


def test_no_unused_imports():
    unused = [hit for path in SOURCES if path.name != "__init__.py"
              for hit in unused_imports(path)]
    assert unused == []
