"""The README's examples run, and print what its comments say."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from hahnvar import DEFAULT_TOL
from hahnvar.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# The prose after a "~value, " comment, checked on the object whose
# attribute the commented line reads.  A two-sided integral's tail bound is
# the sum of its sides', each within the default tol.
PROSE = {
    "within its tail bound": lambda res: res.converged and res.tail_bound <= 2 * DEFAULT_TOL,
    "in 2 Newton steps": lambda res: res.converged and res.iterations == 2,
}


def _block(lang: str, heading: str) -> str:
    """The first ``lang`` code block after the heading."""
    rest = README[README.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", rest, re.S).group(1)


def _wildcard(text: str) -> re.Pattern:
    """``text`` with each "..." standing for any run of characters."""
    return re.compile(".*".join(re.escape(part) for part in text.split("...")), re.S)


def test_the_quick_tour_prints_its_comments():
    # Statements run in order; each commented expression is checked as it runs.
    source = _block("python", "## Library quick tour")
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        _, hash_, comment = lines[stmt.end_lineno - 1].partition("#")
        if not (isinstance(stmt, ast.Expr) and hash_):
            exec(code, namespace)
            continue
        value, comment, checked = eval(code, namespace), comment.strip(), checked + 1
        if comment.startswith("~"):
            number, _, prose = comment[1:].partition(", ")
            assert value == pytest.approx(float(number), abs=1e-9), code
            assert PROSE[prose](eval(code.rsplit(".", 1)[0], namespace)), code
        elif "..." in comment:
            assert _wildcard(comment).fullmatch(repr(value)), code
        else:
            literal = ast.literal_eval(comment)
            assert type(value) is type(literal) and value == literal, code
    assert checked == 5


def _cli_examples():
    """(argv, expected output) for each CLI example followed by its output."""
    examples, command = [], None
    for line in _block("sh", "## CLI").splitlines():
        if line.startswith("hahnvar "):
            command = shlex.split(line.partition("#")[0])[1:]
            examples.append((command, []))
        elif line.startswith("#") and command:
            examples[-1][1].append(line[1:].strip())
        else:
            command = None
    return [(argv, " ".join(lines)) for argv, lines in examples if lines]


def test_the_cli_examples_print_their_comments(capsys):
    examples = _cli_examples()
    assert [argv[0] for argv, _ in examples] == ["deriv", "integrate"]
    for argv, want in examples:
        assert main(argv) == 0
        assert _wildcard(want).fullmatch(capsys.readouterr().out.strip()), argv
