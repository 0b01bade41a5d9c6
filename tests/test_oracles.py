"""The oracles stay independent of the package they check."""

import ast
from pathlib import Path


def test_oracles_do_not_import_the_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert [name for name in imported if name.split(".")[0] == "structrand"] == []
