"""Architecture rules checked on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hahnvar"

# bench/layers.py hooks the series summation loop by this module and name
# to count series terms per caller (integrals.series_terms and
# variational.functional_value.terms), so variational binds it directly.
ALLOWED = {("integrals", "_indexed_series")}


def private_sibling_imports():
    found = []
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no package sources under {SRC}"
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0:
                if not module.startswith("hahnvar"):
                    continue
                module = module.removeprefix("hahnvar").lstrip(".")
            for alias in node.names:
                if alias.name.startswith("_") and (module, alias.name) not in ALLOWED:
                    found.append(f"{path.name}: from {module or '.'} import {alias.name}")
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    assert private_sibling_imports() == []
