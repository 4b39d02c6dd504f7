"""Every module of the package imports on its own, in a fresh interpreter,
and none of them uses ``assert``."""

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
