"""Architecture rules checked on the package source."""

import ast
import importlib
from pathlib import Path

from hahnvar.core import Record

SRC = Path(__file__).resolve().parent.parent / "src" / "hahnvar"

# bench/layers.py hooks the series summation loop by this module and name
# to count series terms per caller (integrals.series_terms and
# variational.functional_value.terms), so variational binds it directly.
ALLOWED = {("integrals", "_indexed_series")}

# The one value class that is not a core.Record: bench/tests/test_harness.py
# builds a SeriesResult with dataclasses.replace and tests/test_integrals.py
# expects its FrozenInstanceError, so converting it changes the benchmark.
DATACLASSES = {("integrals", "SeriesResult")}


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


def value_class_breaches():
    """Each import of dataclasses by a module, and each class with a
    class-level field annotation that is not a core.Record, but those of
    DATACLASSES."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        name = "hahnvar" if path.stem == "__init__" else f"hahnvar.{path.stem}"
        module = importlib.import_module(name)
        listed = {cls for where, cls in DATACLASSES if where == path.stem}
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not listed:
                if "dataclasses" in [getattr(node, "module", None), *(a.name for a in node.names)]:
                    found.append(f"{path.name}:{node.lineno} imports dataclasses")
            if (isinstance(node, ast.ClassDef) and node.name not in listed
                    and any(isinstance(item, ast.AnnAssign) for item in node.body)):
                cls = getattr(module, node.name, None)
                if not (isinstance(cls, type) and issubclass(cls, Record)):
                    found.append(f"{path.name}:{node.lineno} {node.name} is not a core.Record")
    return found


def test_every_value_class_is_a_record_but_the_listed_dataclasses():
    assert value_class_breaches() == []
