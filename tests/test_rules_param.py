"""A ratchet on the rule-set parameter.

A certified theory carries its rules (Theory.pi), chosen once when its
pretheory is certified, and every check over it reads them from there.
Only the three entry points that the benchmark calls with a positional
rule set still take one, and it can only add the Pi rules.  Every
function in src/gatc with a parameter named rules is listed here, so a
new one fails this test; so does a helper that works the rules out
again from theories.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gatc"
ALLOWED = {("deriv.py", "eq_check"), ("deriv.py", "replay_eq_trace"), ("deriv.py", "check_judgment")}


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def test_only_the_benchmark_entry_points_take_rules():
    found = set()
    for file, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
                if any(p.arg == "rules" for p in params):
                    found.add((file, getattr(node, "name", "<lambda>")))
    assert found == ALLOWED


def test_no_helper_works_the_rules_out_again():
    names = {
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for _, tree in _trees()
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute, ast.FunctionDef, ast.alias))
    }
    assert "_default_rules" not in names
