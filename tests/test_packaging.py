"""The package declares exactly the third-party modules it imports."""
import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def _name(requirement: str) -> str:
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower()


def _third_party_imports() -> set:
    names = set()
    for path in (ROOT / "src" / "qorigami").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_runtime_dependencies_are_the_imports():
    declared = {_name(req) for req in _project()["dependencies"]}
    assert declared == _third_party_imports() == {"numpy"}


def test_scipy_is_only_a_test_dependency():
    extras = _project()["optional-dependencies"]
    assert [extra for extra, reqs in extras.items()
            if "scipy" in map(_name, reqs)] == ["test"]
