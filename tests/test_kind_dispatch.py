"""A ratchet on hand dispatch over the four declaration kinds.

Declaration.judgment() is the map from a kind to a statement; every
other isinstance test on a kind class is counted here, so the count can
only fall.  When it falls, lower the numbers below and the count in
ROADMAP.md's "Quality of design" aim.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gatc"
KINDS = {"TypeKind", "TermKind", "TypeEqKind", "TermEqKind", "DeclKind"}


def kind_dispatch() -> list[tuple[str, str]]:
    """(file, innermost enclosing function) for each isinstance call
    whose class argument names a kind class."""
    found = []

    def visit(node: ast.AST, fn: str, file: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and any(
                isinstance(n, ast.Name) and n.id in KINDS for n in ast.walk(node.args[1])
            )
        ):
            found.append((file, fn))
        for child in ast.iter_child_nodes(node):
            visit(child, fn, file)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), "<module>", path.name)
    return found


def test_kind_dispatch_does_not_grow():
    calls = kind_dispatch()
    assert (len(calls), len(set(calls))) == (12, 7), sorted(set(calls))
