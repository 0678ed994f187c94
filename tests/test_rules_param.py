"""A ratchet on the rule set, of which there is one.

The Pi rules hold over every theory, so nothing in src/gatc chooses,
carries or lifts a rule set.  Three entry points, eq_check,
replay_eq_trace and check_judgment, still take a trailing rules
argument; they ignore it, and keep it only because the benchmark passes
deriv.BASE and deriv.WITH_PI positionally.  Every function in src/gatc
with a parameter named rules is listed here, so a new one fails this
test.  No function takes a pi parameter, no with_pi name is left, and
nothing in src/gatc reads a .pi attribute: the Theory.pi property, which
says whether a declaration mentions a binder, is there for bench/ alone.
"""

import ast
import dataclasses
from pathlib import Path

from gatc.theory import Theory

SRC = Path(__file__).resolve().parent.parent / "src" / "gatc"
ALLOWED = {("deriv.py", "eq_check"), ("deriv.py", "replay_eq_trace"), ("deriv.py", "check_judgment")}


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _functions_with_param(name: str) -> set[tuple[str, str]]:
    found = set()
    for file, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
                if any(p.arg == name for p in params):
                    found.add((file, getattr(node, "name", "<lambda>")))
    return found


def _names(tree) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute, ast.FunctionDef, ast.alias))
    }


def test_only_the_benchmark_entry_points_take_rules():
    assert _functions_with_param("rules") == ALLOWED


def test_no_helper_works_the_rules_out_again():
    names = set().union(*(_names(tree) for _, tree in _trees()))
    assert "_default_rules" not in names


def test_no_rule_set_is_carried_or_lifted():
    assert "with_pi" not in set().union(*(_names(tree) for _, tree in _trees()))
    assert _functions_with_param("pi") == set()
    assert "pi" not in {f.name for f in dataclasses.fields(Theory)}
    reads = [
        (file, n.lineno)
        for file, tree in _trees()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr == "pi" and isinstance(n.ctx, ast.Load)
    ]
    assert reads == []
