import ast
import dataclasses
import importlib
import os
import pathlib
import sys
import typing

import flexcert
from flexcert import certify

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


def _call_name(node):
    # the name a call node calls, as `f(...)` or `module.f(...)`, else None
    if not isinstance(node, ast.Call):
        return None
    return node.func.attr if isinstance(node.func, ast.Attribute) else \
        getattr(node.func, "id", None)


def _reads_c(arg):
    return any(getattr(sub, "attr", None) == "c_matrix" or getattr(sub, "id", None) == "c_matrix"
               for sub in ast.walk(arg))


def _solves_eliminating_c(tree):
    """Calls of solve_general with c_matrix in an argument: each would
    eliminate C again instead of reading the operators' record."""
    found = []
    for node in ast.walk(tree):
        if _call_name(node) == "solve_general" and any(
                _reads_c(arg) for arg in node.args + [kw.value for kw in node.keywords]):
            found.append(f"{node.lineno}: solve_general on c_matrix")
    return found


def _kernels_of_c(tree, scope=""):
    """The enclosing class.function of each kernel_basis call with
    c_matrix in an argument, its transpose included: the cokernel is read
    off the operators' elimination record."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        if _call_name(node) == "kernel_basis" and any(
                _reads_c(arg) for arg in node.args + [kw.value for kw in node.keywords]):
            found.append(inner)
        found += _kernels_of_c(node, inner)
    return found


def test_only_the_operators_eliminate_c_for_its_kernel():
    # BaseOperators.kernel proves a trivial kernel mod a prime before it
    # eliminates C over Q; a reader calling kernel_basis on C itself would
    # skip that proof, and one on C's transpose would eliminate C again for
    # the cokernel that the record of its solves already holds
    found = {rel: bad for rel, tree in _package_trees() if (bad := _kernels_of_c(tree))}
    assert found == {"quadsys.py": ["BaseOperators.kernel"]}
    probe = ast.parse("def f(ops):\n"
                      "    kernel_basis(ops.c_matrix)\n"
                      "    ratlinalg.kernel_basis(m=c_matrix)\n"
                      "    kernel_basis(ops.c_matrix.transpose())\n"
                      "    kernel_basis(m)\n"
                      "class A:\n"
                      "    def g(self):\n"
                      "        return [kernel_basis(self.c_matrix)]\n")
    assert _kernels_of_c(probe) == ["f", "f", "f", "A.g"]


def test_solves_against_c_read_one_elimination_per_analysis():
    # every solve against C goes through the operators' elimination record,
    # so an analysis eliminates C at most once for the kernel, on its first
    # read, and once for its solves and its cokernel
    found = {rel: bad for rel, tree in _package_trees() if (bad := _solves_eliminating_c(tree))}
    assert not found, f"solves that eliminate C again: {found}"
    probe = ast.parse("solve_general(ops.c_matrix, v)\n"
                      "ratlinalg.solve_general(eliminate(self.c_matrix), v)\n"
                      "solve_general(e=eliminate(c_matrix), v=v)\n"
                      "solve_general(self._elimination, v)\n"
                      "kernel_basis(ops.c_matrix)\n")
    assert len(_solves_eliminating_c(probe)) == 3


CERTIFICATE_CLASSES = frozenset(cls.__name__ for cls in typing.get_args(certify.Certificate))


def _certificate_classes_named(tree):
    """The classes of the Certificate union that `tree` names, as a bare
    name, as an attribute (`certify.X`) or in a `from ... import`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return sorted(names & CERTIFICATE_CLASSES)


def test_only_certify_and_the_framework_notes_name_a_certificate_class():
    # each certificate class declares its JSON kind and its CLI summary,
    # so a new kind is added in certify alone; rigidity reads the Rigid
    # certificates to word its framework notes
    found = {rel: named for rel, tree in _package_trees()
             if rel != "certify.py" and (named := _certificate_classes_named(tree))}
    assert found == {"rigidity.py": ["FirstOrderRigid", "SecondOrderObstruction",
                                     "TStandardFail"]}
    probe = ast.parse("from .certify import FirstOrderRigid as F, Certificate\n"
                      "KINDS = {certify.SpanClosureFlex: 1}\n"
                      "def f(c):\n    return isinstance(c, TStandardFail), c.kind\n"
                      "'SecondOrderObstruction'\n")
    assert _certificate_classes_named(probe) == ["FirstOrderRigid", "SpanClosureFlex",
                                                 "TStandardFail"]


def _unused_imports(tree):
    """Names that `tree` imports and never reads: a name bound by an
    import is used when it appears as a Name anywhere in the module
    (attribute access, calls and annotations included)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    # no linter runs on the package, so an import nothing reads would stay;
    # __init__ imports to re-export
    found = {rel: bad for rel, tree in _package_trees()
             if rel != "__init__.py" and (bad := _unused_imports(tree))}
    assert not found, f"unused imports in flexcert: {found}"
    probe = ast.parse("from __future__ import annotations\nimport os.path, json\n"
                      "from . import a, b as c\nfrom .x import (d, e)\n"
                      "def f(y: d) -> None:\n    return os.sep, a.z, c\n")
    assert _unused_imports(probe) == ["2: json", "4: e"]


REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _public_definitions(module, tree):
    """{key: node} for the public module-level functions of `tree`, keyed
    (module, name), and its public methods and properties, keyed
    (module, "Class.name")."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found[(module, node.name)] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found[(module, f"{node.name}.{item.name}")] = item
    return found


def _tokens(tree, owners, owner=None):
    """(owner, token) for each name, attribute and string `tree` reads:
    owner is the key `owners` gives the definition whose body holds the
    read, else None."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield owner, ("name", node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            value = node.value
            yield owner, ("attr", getattr(value, "attr", getattr(value, "id", None)), node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield owner, ("str", node.value)
        yield from _tokens(node, owners, owners.get(node, owner))


def _imported_from(tree):
    """{bound name: (module, name)} for each `from <package module> import
    name` in `tree`, the module relative to the package ("" for flexcert
    itself), so that a bare name is read as the function it binds."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "flexcert":
                    continue
                module = module[len("flexcert."):]
            for alias in node.names:
                bound[alias.asname or alias.name] = (module, alias.name)
    return bound


def _reads(key, token, file_module, bound, exported):
    """Whether `token`, read in the module `file_module` (None outside the
    package) that binds `bound`, reads the definition `key`. A name the
    package itself binds is resolved through `exported`, the bindings of
    flexcert/__init__.py."""
    module, name = key
    kind, *rest = token
    if "." in name:  # a method or property: an attribute or a string of its name
        return kind in ("attr", "str") and rest[-1] == name.split(".")[1]
    if kind == "name":
        target = bound.get(rest[0])
        if target is not None and target[0] == "":
            target = exported.get(target[1])
        return target == key or (file_module, rest[0]) == key
    if kind == "attr":
        return rest[1] == name and (
            rest[0] == module or (rest[0] == "flexcert" and exported.get(name) == key))
    return rest[0] in (name, f"{module}.{name}")


def _unread_definitions(modules, readers):
    """The keys of the public definitions of `modules` ({module: tree})
    that nothing in them or in `readers` (trees outside the package) reads
    outside their own body, as "module.name". A read inside an unread
    definition does not count, so a helper whose only reader is itself
    unread is unread too."""
    definitions, owners = {}, {}
    for module, tree in modules.items():
        found = _public_definitions(module, tree)
        definitions.update(found)
        owners.update({node: key for key, node in found.items()})
    exported = _imported_from(modules["__init__"]) if "__init__" in modules else {}
    reads = []
    for module, tree in [*modules.items(), *((None, tree) for tree in readers)]:
        bound = _imported_from(tree)
        reads += [(owner, module, bound, token) for owner, token in _tokens(tree, owners)]
    live = set()
    grew = True
    while grew:
        grew = False
        for key in definitions.keys() - live:
            if any((owner is None or owner in live) and owner != key
                   and _reads(key, token, module, bound, exported)
                   for owner, module, bound, token in reads):
                live.add(key)
                grew = True
    return sorted(f"{module}.{name}" for module, name in definitions.keys() - live)


def _readme_python_blocks():
    from test_readme import _python_blocks
    return [source for _, source in _python_blocks(
        (REPO_ROOT / "README.md").read_text(encoding="utf-8"))]


def test_every_public_name_has_a_reader():
    # a public function, method or property of the package is kept for a
    # reader: the package itself (a verdict, a replay, the CLI, the file
    # formats, the names __all__ exports), the benchmark, a README example
    # or an acceptance test; a name that only other tests read is dead code
    modules = {rel[:-3].replace(os.sep, "."): tree for rel, tree in _package_trees()}
    readers = [ast.parse(path.read_text(encoding="utf-8"))
               for path in [*sorted((REPO_ROOT / "bench").glob("*.py")),
                            REPO_ROOT / "tests" / "test_acceptance.py"]]
    readers += [ast.parse(source) for source in _readme_python_blocks()]
    unread = _unread_definitions(modules, readers)
    assert not unread, f"public names that nothing reads: {unread}"
    probe = {
        "a": ast.parse("def f():\n    return g()\n"
                       "def g():\n    return g()\n"
                       "def k():\n    pass\n"
                       "class C:\n    def m(self):\n        return self.n\n"
                       "    @property\n    def n(self):\n        return 1\n"
                       "    def o(self):\n        return self.o\n"),
        "b": ast.parse("from .a import k as kk\nkk(x.m, getattr(x, 'h'))\n"
                       "def h():\n    pass\n"
                       "def z():\n    return kk\n"),
    }
    # f has no reader and g only f and itself; k is read through an alias,
    # C.m by attribute, C.n by the live C.m, h by a string; C.o and z are
    # read by none but themselves
    assert _unread_definitions(probe, []) == ["a.C.o", "a.f", "a.g", "b.z"]
    probe["__init__"] = ast.parse("from .a import f\n")
    assert _unread_definitions(probe, [ast.parse("import flexcert\nflexcert.f()\n")]) == [
        "a.C.o", "b.z"]
