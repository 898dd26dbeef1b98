"""The package's error model, checked on the source of every library module.

Library code raises only its own typed errors: no assert statement, no raise
of a built-in exception class, and every exception class it defines derives
from HrfnaError. The command-line modules are the boundary that turns those
errors into exit codes, so they are not library code.
"""

import ast
import builtins
import importlib
import pathlib

import pytest

import hrfna
from hrfna.errors import HrfnaError

PACKAGE = pathlib.Path(hrfna.__file__).parent
LIBRARY = sorted(p for p in PACKAGE.glob("*.py") if p.name not in ("cli.py", "__main__.py"))
BUILTIN_EXCEPTIONS = {
    name
    for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}


def raised_name(node: ast.Raise) -> str | None:
    """The name of the class a raise statement raises, or None for a bare re-raise."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
class TestLibraryModule:
    def test_no_assert_statements(self, path):
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == []

    def test_no_builtin_exception_raised(self, path):
        tree = ast.parse(path.read_text())
        raised = [
            (node.lineno, raised_name(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and raised_name(node) in BUILTIN_EXCEPTIONS
        ]
        assert raised == []

    def test_exception_classes_derive_from_hrfna_error(self, path):
        name = "hrfna" if path.stem == "__init__" else f"hrfna.{path.stem}"
        module = importlib.import_module(name)
        tree = ast.parse(path.read_text())
        classes = [getattr(module, n.name) for n in tree.body if isinstance(n, ast.ClassDef)]
        exceptions = [cls for cls in classes if issubclass(cls, BaseException)]
        assert all(issubclass(cls, HrfnaError) for cls in exceptions), exceptions
