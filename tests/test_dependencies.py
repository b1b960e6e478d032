"""The runtime dependency stays numpy only."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "disthyp"
ALLOWED = {"numpy", "disthyp"} | set(sys.stdlib_module_names)


def absolute_imports(path: Path) -> list[str]:
    """Top-level package of every absolute import in one module."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


def test_library_imports_only_numpy_and_stdlib():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        foreign = set(absolute_imports(path)) - ALLOWED
        assert not foreign, f"{path.name} imports {sorted(foreign)}"
