import ast
import dataclasses
import importlib
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


def _package_modules():
    for rel, _ in _package_trees():
        name = rel[:-3].replace(os.sep, ".")
        yield importlib.import_module("flexcert" if name == "__init__" else f"flexcert.{name}")


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


CACHE_DECORATORS = frozenset({"cache", "lru_cache", "cached_property"})
MUTATING_METHODS = frozenset({"setdefault", "update", "__setitem__"})


def _caches_outside_operators(tree):
    """functools caches anywhere in `tree`, and module-level names that a
    function stores into, which would outlive every analysis that filled
    them; a module-level table that is only read is no cache."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"{node.lineno}: functools.{a.name}" for a in node.names
                      if a.name in CACHE_DECORATORS]
        elif isinstance(node, ast.Attribute) and node.attr in CACHE_DECORATORS:
            found.append(f"{node.lineno}: .{node.attr}")
    module_names = {target.id for node in tree.body
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                    if isinstance(target, ast.Name)}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                stored = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATING_METHODS:
                stored = node.func.value
            else:
                continue
            if isinstance(stored, ast.Name) and stored.id in module_names:
                found.append(f"{node.lineno}: module-level {stored.id} stored into")
    return found


def test_memos_live_only_on_base_operators():
    # one analysis owns its memos through its BaseOperators; a module-level
    # or functools cache would carry products across analyses
    found = {rel: bad for rel, tree in _package_trees() if (bad := _caches_outside_operators(tree))}
    assert not found, f"caches in flexcert: {found}"
    probe = ast.parse("from functools import lru_cache\nimport functools\n"
                      "MEMO = {}\nSEEN: dict = dict()\nTABLE = {1: 2}\n"
                      "def g(x):\n    MEMO[x] = TABLE[x]\n    return TABLE.get(x)\n"
                      "def h(x):\n    return SEEN.setdefault(x, TABLE[x])\n"
                      "@functools.cache\ndef f(): pass\n")
    assert len(_caches_outside_operators(probe)) == 4
    # a memo is a dataclass field left out of equality or named private;
    # each is a field of BaseOperators, outside its constructor, its
    # equality and its repr
    memos = []
    for module in _package_modules():
        for cls in vars(module).values():
            if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                continue
            for f in dataclasses.fields(cls):
                if not f.compare or f.name.startswith("_"):
                    memos.append((cls.__name__, f.name))
                    assert (f.init, f.compare, f.repr) == (False, False, False), f.name
    assert memos and {cls for cls, _ in memos} == {"BaseOperators"}


def _solves_eliminating_c(tree):
    """Calls of solve_general with c_matrix in an argument: each would
    eliminate C again instead of reading the operators' record."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = node.func.attr if isinstance(node.func, ast.Attribute) else \
            getattr(node.func, "id", None)
        if name != "solve_general":
            continue
        args = node.args + [kw.value for kw in node.keywords]
        if any(getattr(sub, "attr", None) == "c_matrix" or getattr(sub, "id", None) == "c_matrix"
               for arg in args for sub in ast.walk(arg)):
            found.append(f"{node.lineno}: solve_general on c_matrix")
    return found


def test_solves_against_c_read_one_elimination_per_analysis():
    # every solve against C goes through the operators' elimination record,
    # so an analysis eliminates C once for the kernel and once for its solves
    found = {rel: bad for rel, tree in _package_trees() if (bad := _solves_eliminating_c(tree))}
    assert not found, f"solves that eliminate C again: {found}"
    probe = ast.parse("solve_general(ops.c_matrix, v)\n"
                      "ratlinalg.solve_general(eliminate(self.c_matrix), v)\n"
                      "solve_general(e=eliminate(c_matrix), v=v)\n"
                      "solve_general(self._elimination, v)\n"
                      "kernel_basis(ops.c_matrix)\n")
    assert len(_solves_eliminating_c(probe)) == 3
