"""A ratchet on hand dispatch over the statement forms.

A declaration's kind is the statement it asserts (IsType, HasType,
TypeEq or TermEq), and a judgment's statement is one of those or CtxOk.
Every isinstance test on one of these classes in src/gatc is counted
here, whether the class is named bare or through a module, so the count
can only fall; a match statement is not counted.  When it falls, lower
the numbers below and the count in ROADMAP.md's "Quality of design" aim.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gatc"
KINDS = {"IsType", "HasType", "TypeEq", "TermEq", "CtxOk", "Statement"}


def _names(node: ast.AST) -> set[str]:
    """The class names node mentions, bare or as a module's attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def kind_dispatch() -> list[tuple[str, str]]:
    """(file, innermost enclosing function) for each isinstance call
    whose class argument names a statement class."""
    found = []

    def visit(node: ast.AST, fn: str, file: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and not KINDS.isdisjoint(_names(node.args[1]))
        ):
            found.append((file, fn))
        for child in ast.iter_child_nodes(node):
            visit(child, fn, file)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), "<module>", path.name)
    return found


def test_kind_dispatch_does_not_grow():
    calls = kind_dispatch()
    assert (len(calls), len(set(calls))) == (6, 6), sorted(set(calls))
