"""Every module of the package imports on its own, in a fresh interpreter,
none of them uses ``assert``, and every name is imported from the module
that defines it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dyspec

SRC = Path(dyspec.__file__).resolve().parent.parent
MODULES = sorted(
    p.stem for p in (SRC / "dyspec").glob("*.py") if p.stem not in ("__init__", "__main__")
)


def fresh_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_modules_found():
    assert {"cli", "construct", "engine", "lm", "oracle"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    result = fresh_python(f"import dyspec.{module}")
    assert result.returncode == 0, result.stderr


def test_root_exports_only_version():
    code = "import dyspec; print(sorted(n for n in vars(dyspec) if n[0] != '_' or n == '__version__'))"
    result = fresh_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['__version__']"


@pytest.mark.parametrize("path", sorted((SRC / "dyspec").glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips asserts, so production checks raise instead.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert on lines {lines}"


def top_level_names(path: Path) -> set:
    """Names a module defines at top level: functions, classes and assigned
    names.  Names it imports do not count, so each name has one import path."""
    names, body = set(), list(ast.parse(path.read_text()).body)
    while body:
        node = body.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.If, ast.Try)):
            body += node.body + node.orelse + getattr(node, "finalbody", [])
    return names


def package_imports():
    """``(file, line, module, name)`` for every ``from dyspec.X import n`` in
    ``src/`` and ``tests/``, and every ``from .X import n`` in ``src/``."""
    tests = Path(__file__).resolve().parent
    for path in sorted((SRC / "dyspec").glob("*.py")) + sorted(tests.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level == 1 and path.parent.name == "dyspec":
                module = node.module
            elif node.level == 0 and node.module.startswith("dyspec."):
                module = node.module[len("dyspec."):]
            else:
                continue
            for alias in node.names:
                yield path.name, node.lineno, module, alias.name


def test_names_imported_from_their_defining_module():
    defined = {m: top_level_names(SRC / "dyspec" / f"{m}.py") for m in MODULES}
    imports = list(package_imports())
    assert imports
    stray = [f"{f}:{line} {m}.{n}" for f, line, m, n in imports if n not in defined[m]]
    assert stray == [], f"imported from a module that does not define them: {stray}"
