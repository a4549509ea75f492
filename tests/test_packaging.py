"""mamp is stdlib-only: every absolute import under src/mamp names a
standard-library module or mamp itself, and pyproject.toml declares no
runtime dependencies. Every module also parses at the Python floor that
pyproject.toml states."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mamp").rglob("*.py"))
FLOOR = (3, 10)  # pyproject.toml's requires-python


def absolute_imports(path: Path) -> set[str]:
    """Top-level package names of the absolute imports in one file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_sources_found():
    assert ROOT / "src" / "mamp" / "__init__.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_imports_are_stdlib_or_mamp(path):
    foreign = absolute_imports(path) - set(sys.stdlib_module_names) - {"mamp"}
    assert not foreign


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_at_the_python_floor(path):
    """The module parses with the grammar of Python 3.10, whatever Python
    runs the suite. This is a grammar check only: a standard-library API
    added after 3.10 (a new module, function or argument) is not caught."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=FLOOR)


def test_floor_is_pyprojects():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["requires-python"] == ">=%d.%d" % FLOOR
