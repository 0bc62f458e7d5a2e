"""Static hygiene of the library source: every imported name is used, and
the package exports exactly what its `__init__` imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "finclone"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that nothing else in the module
    reads.  `__future__` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_detector_flags_unused_and_keeps_used():
    source = "from __future__ import annotations\nimport os, sys\nfrom x import a, b as c\nprint(sys, c)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_all_matches_init_imports():
    import finclone

    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(finclone.__all__) == sorted(imported)
    assert len(set(finclone.__all__)) == len(finclone.__all__)
    assert [n for n in finclone.__all__ if not hasattr(finclone, n)] == []
