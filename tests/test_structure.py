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


def function_bodies():
    """(where, body) per function or method of the package with at least two
    statements past its docstring; the body is its AST dump, with the
    function's own name, as in a recursive call, made anonymous."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body
            if ast.get_docstring(node) is not None:
                body = body[1:]
            if len(body) >= 2:
                dump = ast.dump(ast.Module(body=body, type_ignores=[]))
                out.append((f"{path.name}:{node.lineno} {node.name}",
                            dump.replace(f"id='{node.name}'", "id=''")))
    return out


def test_no_two_functions_have_the_same_body():
    first, copies = {}, []
    for where, body in function_bodies():
        if body in first:
            copies.append(f"{first[body]} == {where}")
        first.setdefault(body, where)
    assert copies == []
