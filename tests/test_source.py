import ast
import os

import flexcert

SOURCE_DIR = os.path.dirname(os.path.abspath(flexcert.__file__))


def test_no_assert_statements_in_package():
    # python -O strips asserts, so no check of the package may rely on one
    found = []
    for root, _, files in os.walk(SOURCE_DIR):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            found += [f"{os.path.relpath(path, SOURCE_DIR)}:{node.lineno}"
                      for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert os.path.exists(os.path.join(SOURCE_DIR, "certify.py"))
    assert not found, f"assert statements in flexcert: {found}"
