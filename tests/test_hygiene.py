"""Source hygiene: no module of the package imports a name it never uses.

Neither pyflakes nor ruff is a dependency, so this is a small ``ast``
scan.  ``__init__.py`` is skipped (its imports are re-exports), and so
is ``from __future__ import annotations``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "secshap"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # an attribute chain such as np.random starts with a Name node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in sorted(
        (line, name) for name, line in imported.items() if name not in used)]


def test_scan_finds_an_unused_import():
    source = "import os\nfrom typing import Sequence\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: Sequence"]


def test_modules_found():
    assert {"protocols.py", "sharing.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
