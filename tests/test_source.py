import ast
import os
import sys

import flexcert

SOURCE_DIR = os.path.dirname(os.path.abspath(flexcert.__file__))


def _package_trees():
    for root, _, files in os.walk(SOURCE_DIR):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                yield os.path.relpath(path, SOURCE_DIR), ast.parse(fh.read(), filename=path)


def test_no_assert_statements_in_package():
    # python -O strips asserts, so no check of the package may rely on one
    found = []
    for rel, tree in _package_trees():
        found += [f"{rel}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert os.path.exists(os.path.join(SOURCE_DIR, "certify.py"))
    assert not found, f"assert statements in flexcert: {found}"


def _imports_outside_stdlib(tree):
    """The absolute imports in `tree` whose top-level module is not in the
    standard library; relative imports stay inside the package."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies, while the test environment
    # has third-party packages such as sympy that would hide a stray import
    found = {rel: bad for rel, tree in _package_trees() if (bad := _imports_outside_stdlib(tree))}
    assert not found, f"non-stdlib imports in flexcert: {found}"
    probe = ast.parse("import json, sympy.core\nfrom . import x\nfrom numpy import y\n")
    assert _imports_outside_stdlib(probe) == ["sympy.core", "numpy"]
