"""A ratchet on the size of src/gatc, counted in AST statement nodes.

Comments, blank lines, docstring length and line wrapping do not move
the count; every statement, docstrings included, does.  When the count
falls, lower STATEMENTS below to the new count and the size in
ROADMAP.md's "Quality of design" aim.  Raise it only in a change that
adds a capability, and say so, with the new count, in CHANGES.md.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gatc"
STATEMENTS = 2530


def statements() -> int:
    return sum(
        isinstance(node, ast.stmt)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
    )


def test_source_does_not_grow():
    assert statements() == STATEMENTS
