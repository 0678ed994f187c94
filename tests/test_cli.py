import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gatc import cli, gatform
from gatc.theory import stdlib

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


GOOD_FILE = """
theory PtSet {
  sym A : () => Type
  sym pt : () => A
}

interp P : Ty0 -> PtSet {
  A0 |-> A;
}

judgment j over PtSet { () |- pt : A }
"""

FORWARD_REF_FILE = """
theory Broken {
  sym M : () => Type
  ax bad : (y : M) => mul(u, y) = y : M
  sym u : () => M
  sym mul : (y1 : M, y2 : M) => M
}
"""


def test_check_good_file(tmp_path):
    p = tmp_path / "good.gat"
    p.write_text(GOOD_FILE)
    code, out = run(["check", str(p)])
    assert code == 0
    assert "theory PtSet: ok" in out
    assert "interp P: ok" in out
    assert "judgment j: ok" in out


def test_check_forward_reference_positioned(tmp_path):
    p = tmp_path / "corrupted.gat"
    p.write_text(FORWARD_REF_FILE)
    code, out = run(["check", str(p)])
    assert code == 1
    assert "ForwardReference" in out
    assert "line 4" in out


UNKNOWN_SYMBOLS_FILE = """
theory T {
  sym A : () => Type
  sym c : () => A
  ax e : () => zeta(c, beta(c), gamma(c)) = alpha(c) : A
}
"""


def test_unknown_symbol_named_is_the_first_in_the_text(tmp_path):
    # which symbol a set of names yields first depends on the hash seed
    p = tmp_path / "unknown.gat"
    p.write_text(UNKNOWN_SYMBOLS_FILE)
    outs = [
        subprocess.run(
            [sys.executable, "-m", "gatc", "check", str(p), "--json"],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": seed},
            timeout=60,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outs[0] == outs[1]
    assert b"in declaration 'e': 'zeta' is not declared" in outs[0]


AXIOM_APPLIED_FILE = """
theory T {
  sym A : () => Type
  sym u : () => A
  ax a : () => u = u : A
  sym c : () => a
}
theory F {
  sym A : () => Type
  sym f : (x : A) => A
  sym b : () => A
  sym c : () => f(b)
}
"""


def test_theory_error_names_the_failing_declarations_line(tmp_path):
    # the messages quote names declared earlier ('a', 'f'); the line is
    # still that of the failing declaration 'c'
    p = tmp_path / "applied.gat"
    p.write_text(AXIOM_APPLIED_FILE)
    code, out = run(["check", str(p), "--json"])
    assert code == 1
    items = json.loads(out)["items"]
    assert items[0]["detail"].startswith("line 6: UnknownSymbol: in declaration 'c'")
    assert items[1]["detail"].startswith("line 12: NotAType: in declaration 'c'")


def test_command_error_keeps_the_files_items(tmp_path):
    p = tmp_path / "bad.gat"
    p.write_text(AXIOM_APPLIED_FILE + "interp I : Ty0 -> Mon { A0 |-> Mon }\n")
    code, out = run(["eq", str(p), "--theory", "Nope", "--lhs", "u", "--rhs", "u", "--json"])
    assert code == 1
    items = json.loads(out)["items"]
    assert [(i["name"], i["verdict"]) for i in items] == [
        ("theory T", "error"), ("theory F", "error"), ("interp I", "ok"), ("eq", "error"),
    ]
    assert items[-1]["detail"] == "GatError: theory 'Nope' is not defined (file or stdlib)"


def test_variable_applied_in_an_image_is_an_item_of_its_interp(tmp_path):
    p = tmp_path / "image.gat"
    p.write_text("\ninterp I : Ty0 -> Mon { A0 |-> lam (x : Mon) x(u) }\n")
    code, out = run(["check", str(p)])
    assert code == 1
    assert "interp I: error  (line 2: GatSyntaxError: 2:46: variable 'x' cannot take arguments)" in out


def _console_script_target() -> str:
    """The target of the gatc console script in pyproject.toml, read
    without tomllib (Python 3.10 has none)."""
    lines = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text().splitlines()
    section = lines[lines.index("[project.scripts]") + 1 :]
    for line in section:
        if line.startswith("["):
            break
        name, sep, value = line.partition("=")
        if sep and name.strip() == "gatc":
            return value.strip().strip('"')
    raise AssertionError("pyproject.toml declares no gatc console script")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["eq", "--theory", "Mon", "--lhs", "u", "--rhs", "u"], 0),
        (["eq", "--theory", "Nope", "--lhs", "u", "--rhs", "u"], 1),
        (["eq", "--theory", "Mon", "--ctx", "(a : Mon, b : Mon)", "--lhs", "mul(a, b)", "--rhs", "mul(b, a)"], 2),
        (["eq", "--theory", "Mon", "--lhs", "mul(u", "--rhs", "u"], 3),
    ],
)
def test_console_script_exit_codes(argv, code):
    module, _, attr = _console_script_target().partition(":")
    assert callable(getattr(__import__(module, fromlist=[attr]), attr))
    # what the installed wrapper does: call the target with argv set
    wrapper = f"import sys; from {module} import {attr}; sys.argv[1:] = sys.argv[2:]; sys.exit({attr}())"
    done = subprocess.run(
        [sys.executable, "-c", wrapper, "gatc", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert done.returncode == code, done.stderr


def test_parse_error_exit_three(tmp_path):
    p = tmp_path / "bad.gat"
    p.write_text("theory T { sym A0 : ( => Type }")
    code, _ = run(["check", str(p)])
    assert code == 3


def test_undecodable_file_exit_three(tmp_path, capsys):
    p = tmp_path / "latin.gat"
    p.write_bytes(b"theory T { sym A : () => Type }\n\xff\n")
    code, out = run(["check", str(p)])
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"gatc: {p}: not UTF-8 text:") and "0xff" in err


def test_directory_as_file_exit_three(tmp_path, capsys):
    code, out = run(["check", str(tmp_path)])
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("gatc: ") and "Is a directory" in err


def test_eq_command_stdlib_theory():
    code, out = run(
        ["eq", "--theory", "Mon", "--ctx", "(y : Mon)", "--lhs", "mul(u, y)", "--rhs", "y"]
    )
    assert code == 0
    assert "Proved" in out


def _left_nested_mul(depth):
    e = "u"
    for _ in range(depth):
        e = f"mul({e}, u)"
    return e


def test_nesting_at_the_bound_is_accepted(tmp_path):
    deep = _left_nested_mul(gatform.MAX_NESTING)
    code, out = run(["eq", "--theory", "Mon", "--lhs", deep, "--rhs", "u", "--json", "--trace"])
    assert code == 0
    assert json.loads(out)["items"][0]["verdict"] == "Proved"
    p = tmp_path / "deep.gat"
    p.write_text(f"judgment deep over Mon {{\n  () |- {deep} : Mon\n}}\n")
    code, out = run(["check", str(p), "--json", "--trace"])
    assert code == 0
    assert json.loads(out)["items"][0]["verdict"] == "ok"
    # an application chain and parentheses at the bound still parse
    for text in ("u" + " @ u" * gatform.MAX_NESTING, "(" * gatform.MAX_NESTING + "u" + ")" * gatform.MAX_NESTING):
        code, _ = run(["eq", "--theory", "Mon", "--lhs", text, "--rhs", "u"])
        assert code != 3


def test_nesting_past_the_bound_is_a_positioned_syntax_error(tmp_path, capsys):
    n = gatform.MAX_NESTING + 1
    deep = _left_nested_mul(n)
    code, out = run(["eq", "--theory", "Mon", "--lhs", deep, "--rhs", "u", "--json", "--trace"])
    assert code == 3 and out == ""
    # the innermost u, after n times "mul("
    assert "syntax error: 1:805: expression nested more than 200 levels deep" in capsys.readouterr().err
    p = tmp_path / "deep.gat"
    p.write_text(f"judgment deep over Mon {{\n  () |- {deep} : Mon\n}}\n")
    code, _ = run(["check", str(p), "--json", "--trace"])
    assert code == 3
    assert f"syntax error: 2:{len('  () |- ') + 805}:" in capsys.readouterr().err
    # the last '@' of a left-nested chain, and the innermost parenthesis
    code, _ = run(["eq", "--theory", "Mon", "--lhs", "u" + " @ u" * n, "--rhs", "u"])
    assert code == 3
    assert f"syntax error: 1:{3 + 4 * (n - 1)}:" in capsys.readouterr().err
    code, _ = run(["eq", "--theory", "Mon", "--lhs", "(" * n + "u" + ")" * n, "--rhs", "u"])
    assert code == 3
    assert f"syntax error: 1:{n + 1}:" in capsys.readouterr().err


def test_eq_command_inconclusive_exit_two():
    code, out = run(
        ["eq", "--theory", "Mon", "--ctx", "(a : Mon, b : Mon)", "--lhs", "mul(a, b)", "--rhs", "mul(b, a)"]
    )
    assert code == 2
    assert "Inconclusive" in out


def test_eq_term_equated_with_type_is_an_error_as_in_check(tmp_path):
    # a term equated with a type is ill-formed, not an undecided goal
    src = tmp_path / "goal.gat"
    src.write_text("judgment bad over Mon { () |- u = Mon : Mon }\n", encoding="utf-8")
    code, out = run(["check", str(src)])
    assert code == 1
    assert "NotATerm" in out
    for lhs, rhs in (("u", "Mon"), ("Mon", "u")):
        code, out = run(["eq", "--theory", "Mon", "--lhs", lhs, "--rhs", rhs])
        assert code == 1, out
        assert "eq: error  (NotATerm: 'Mon' is a type symbol, not a term symbol)" in out
    code, out = run(["eq", "--theory", "Mon", "--lhs", "Mon", "--rhs", "Mon"])
    assert code == 0, out


UNUSED_CONTEXT_VARIABLE = """
theory T {
  sym E : () => Type
  sym A : () => Type
  sym a : () => A
  sym b : () => A
  ax ab : (x : E) => a = b : A
}

theory S {
  sym A : () => Type
  sym a : () => A
  sym b : () => A
  ax ab : () => a = b : A
}

interp I : S -> T {
  A |-> A;
  a |-> a;
  b |-> b;
}
"""


def test_axiom_over_an_unused_context_variable_proves_nothing_closed(tmp_path):
    # ab holds only where E has an element: a finite model of T with E
    # empty and a, b distinct separates a and b, so neither a = b in the
    # empty context nor the interpretation I follows
    src = tmp_path / "unused.gat"
    src.write_text(UNUSED_CONTEXT_VARIABLE, encoding="utf-8")
    code, out = run(["eq", str(src), "--theory", "T", "--lhs", "a", "--rhs", "b", "--trace"])
    assert code == 2, out
    assert "eq: Inconclusive  [axiom instances: 0]  (saturation closed)" in out
    code, out = run(["check", str(src)])
    assert code == 2, out
    assert "interp I: Inconclusive  (obligation for 'ab': term equality not proved (closed))" in out


MON_WITH_FAMILY = """
theory MonP {
  sym Mon : () => Type
  sym u : () => Mon
  sym mul : (y1 : Mon, y2 : Mon) => Mon
  ax _1 : (y : Mon) => mul(u, y) = y : Mon
  ax _2 : (y : Mon) => mul(y, u) = y : Mon
  ax _3 : (y1 : Mon, y2 : Mon, y3 : Mon) => mul(mul(y1, y2), y3) = mul(y1, mul(y2, y3)) : Mon
  sym P : (m : Mon) => Type
  sym p : (a : Mon, b : Mon, c : Mon, d : Mon, e : Mon) => P(mul(mul(mul(mul(a, b), c), d), e))
  sym q : (m : Mon) => P(m)
}

judgment assoc over MonP {
  (a : Mon, b : Mon, c : Mon, d : Mon, e : Mon) |- p(a, b, c, d, e) : P(mul(a, mul(b, mul(c, mul(d, e)))))
}

judgment comm over MonP { (a : Mon, b : Mon) |- q(mul(a, b)) : P(mul(b, a)) }
"""


def test_unproved_argument_type_is_inconclusive(tmp_path):
    # a type equality the engine cannot prove is not a refutation
    p = tmp_path / "monp.gat"
    p.write_text(MON_WITH_FAMILY)
    code, out = run(["check", str(p)])
    assert "judgment assoc: ok" in out
    assert "judgment comm: Inconclusive" in out
    assert code == 2


def test_type_mismatch_prints_bound_variables_by_name(tmp_path):
    # the expected type of natrec's step argument has two binders
    p = tmp_path / "natrec.gat"
    p.write_text(
        "judgment j over MLTT-N { (n : El(N), C : Pi (x : El(N)) Ty, c0 : El(C @ zero))"
        " |- natrec(n, C, c0, c0) : El(C @ n) }\n"
    )
    code, out = run(["check", str(p), "--rules", "pi"])
    assert code == 1
    assert (
        "ArgumentTypeMismatch: expected type Pi (x : El(N)) Pi (y : El(C @ x))"
        " El(C @ succ(x)), inferred El(C @ zero)" in out
    )


def test_models_count_only():
    code, out = run(["models", "--theory", "Ty0", "--max-size", "2", "--count-only"])
    assert code == 0
    assert "(3)" in out


def test_models_json_tables():
    code, out = run(["models", "--theory", "El0", "--max-size", "1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "gatc-report/1"
    assert doc["models"][0]["functions"]["e0"] == [{"args": [], "value": 0}]


def test_models_cat_at_two_within_default_budget():
    code, out = run(["models", "--theory", "Cat", "--max-size", "2", "--count-only"])
    assert code == 0
    assert "(340)" in out


def test_models_budget_exceeded_is_inconclusive():
    argv = ["models", "--theory", "Cat", "--max-size", "2", "--budget", "100", "--json"]
    code, out = run(argv)
    assert code == 2
    (item,) = json.loads(out)["items"]
    assert item["verdict"] == "Inconclusive"
    assert item["detail"].startswith("BudgetExceeded: ")


def test_models_budget_bounds_a_bound_too_large_to_build():
    argv = ["models", "--theory", "Mon", "--max-size", "9" * 20, "--budget", "5", "--json"]
    code, out = run(argv)  # a traceback would propagate out of main
    assert code == 2
    (item,) = json.loads(out)["items"]
    assert item["verdict"] == "Inconclusive"
    assert item["detail"] == "BudgetExceeded: model search for 'Mon' exceeded 5 nodes"


@pytest.mark.parametrize("bound", [2**63, int("9" * 20)])
def test_models_carrier_range_past_maxsize_rejected(bound):
    # a range of more than sys.maxsize sizes cannot be built; a budget this large does not cap it
    argv = ["models", "--theory", "Mon", "--max-size", str(bound), "--budget", "9" * 20, "--json"]
    code, out = run(argv)  # a traceback would propagate out of main
    assert code == 1
    (item,) = json.loads(out)["items"]
    assert item["verdict"] == "error"
    assert item["detail"] == f"ModelError: a carrier range of {bound + 1} sizes exceeds {sys.maxsize}"


def test_models_negative_budget_rejected():
    code, out = run(["models", "--theory", "Ty0", "--max-size", "1", "--budget", "-5", "--json"])
    assert code == 1
    (item,) = json.loads(out)["items"]
    assert item["verdict"] == "error"
    assert item["detail"] == "ModelError: node budget must be non-negative"


def test_json_reports_byte_identical():
    argv = ["verify-poly", "--json", "--trace"]
    _, a = run(argv)
    _, b = run(argv)
    assert a == b
    argv2 = ["eq", "--theory", "Mon", "--ctx", "(y : Mon)", "--lhs", "mul(u, y)", "--rhs", "y", "--json", "--trace"]
    _, c = run(argv2)
    _, d = run(argv2)
    assert c == d
    trace = json.loads(c)["items"][-1]["trace"]
    assert any(step["kind"] == "axiom" for step in trace)


def test_interpretation_items_keep_their_obligation_traces(tmp_path):
    from gatc.deriv import BASE, DEFAULT_FUEL, replay_eq_trace

    assert run(["stdlib", "--emit", str(tmp_path)])[0] == 0
    path = str(tmp_path / "interpretations.gat")
    env = cli.load_environment(path, BASE, DEFAULT_FUEL)
    with_axioms = 0
    for item in env.items:
        interp = env.interps[item.name.removeprefix("interp ")]
        goals = [d.judgment().map(interp.apply) for d in interp.src.decls if d.is_axiom]
        if goals:
            with_axioms += 1
            assert item.trace
        # the obligations' traces, one after another, replay each obligation
        for g in goals:
            assert replay_eq_trace(interp.dst, g.lhs, g.rhs, item.trace)
    assert with_axioms == 3
    _, out = run(["check", path, "--json", "--trace"])
    items = json.loads(out)["items"]
    assert [len(i["trace"]) for i in items] == [len(i.trace) for i in env.items]
    # without --trace no item carries one
    _, out = run(["check", path, "--json"])
    assert not any("trace" in i for i in json.loads(out)["items"])


def test_verify_poly_exit_codes():
    code, out = run(["verify-poly"])
    assert code == 0
    assert out.count("Proved") == 12
    code, out = run(["verify-poly", "--corrupt-subst"])
    assert code == 1


def test_pushout_command(tmp_path):
    p = tmp_path / "i.gat"
    p.write_text("interp I : Ty0 -> Mon { A0 |-> Mon; }\n")
    code, out = run(["pushout", str(p), "--base", "Ty0", "--total", "El0", "--along", "I"])
    assert code == 0
    assert "sym e0 : () => Mon" in out


def test_coprod_command():
    code, out = run(["coprod", "--left", "Ty0", "--right", "Ty0"])
    assert code == 0
    assert "A0#1" in out and "A0#2" in out


def test_construction_output_is_valid_source(tmp_path):
    # theory payloads printed by the construction commands reparse and check
    for argv in (
        ["coprod", "--left", "Mon", "--right", "Ty0", "--json"],
        ["poly", "--theory", "Cat", "--json"],
    ):
        code, out = run(argv)
        assert code == 0
        text = json.loads(out)["theory"]
        p = tmp_path / "out.gat"
        p.write_text(text)
        code, _ = run(["check", str(p)])
        assert code == 0


def test_coeq_command(tmp_path):
    p = tmp_path / "i.gat"
    p.write_text("interp I : Ty0 -> Mon { A0 |-> Mon; }\n")
    code, out = run(["coeq", str(p), "--left", "I", "--right", "I"])
    assert code == 0
    assert "ax eq_A0" in out


def test_poly_command():
    code, out = run(["poly", "--theory", "Cat"])
    assert code == 0
    assert "sym Ob : (x0 : A0) => Type" in out


def test_present_command_with_reconstruction():
    code, out = run(["present", "--theory", "Mon", "--reconstruct"])
    assert code == 0
    assert "reconstruction: Proved" in out


def test_pi_square_requires_pi_rules():
    code, _ = run(["pi-square"])
    assert code == 3
    code, out = run(["pi-square", "--rules", "pi"])
    assert code == 0
    assert out.count("Proved") == 3


def test_unit_triangles_command():
    code, out = run(["unit-triangles"])
    assert code == 0
    assert "recover-proj: Proved" in out


def test_unknown_subcommand_usage_error():
    code, _ = run(["frobnicate"])
    assert code == 3


def test_duplicate_block_names_rejected(tmp_path):
    p = tmp_path / "dup.gat"
    p.write_text("theory T { sym A : () => Type }\ntheory T { sym B : () => Type }\n")
    code, out = run(["check", str(p)])
    assert code == 1
    assert "duplicate theory name" in out


def test_eq_beta_eta_through_cli():
    code, out = run(
        [
            "eq", "--theory", "STLC", "--rules", "pi",
            "--ctx", "(a : Ty, f : Pi (x : El(a)) El(a), x : El(a))",
            "--lhs", "(lam (y : El(a)) f @ y) @ x",
            "--rhs", "f @ x",
        ]
    )
    assert code == 0
    assert "Proved" in out


def test_fuel_flags_and_env(monkeypatch, capsys):
    code, _ = run(["eq", "--theory", "Mon", "--lhs", "u", "--rhs", "mul(u, u)", "--fuel-nodes", "1"])
    assert code == 2
    monkeypatch.setenv("GATC_FUEL_NODES", "1")
    code, _ = run(["eq", "--theory", "Mon", "--lhs", "u", "--rhs", "mul(u, u)"])
    assert code == 2
    monkeypatch.setenv("GATC_FUEL_NODES", "abc")
    capsys.readouterr()
    code, out = run(["eq", "--theory", "Mon", "--lhs", "u", "--rhs", "u"])  # a traceback would propagate
    assert (code, out) == (3, "")
    assert capsys.readouterr().err.startswith("gatc: GATC_FUEL_NODES: invalid literal for int()")
    code, _ = run(["eq", "--theory", "Mon", "--lhs", "u", "--rhs", "u", "--fuel-nodes", "0"])
    assert code == 3
    assert capsys.readouterr().err == "gatc: fuel components must be positive\n"
    monkeypatch.delenv("GATC_FUEL_NODES")
    code, _ = run(["eq", "--theory", "Mon", "--lhs", "u", "--rhs", "mul(u, u)"])
    assert code == 0


def test_parser_is_built_once_per_process(monkeypatch):
    argv = ["eq", "--theory", "Mon", "--lhs", "u", "--rhs", "mul(u, u)"]
    assert run(argv)[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(argv)[0] == 0
    assert built == []


def test_stdlib_emit_round_trips(tmp_path):
    emit_dir = tmp_path / "corpus"
    code, _ = run(["stdlib", "--emit", str(emit_dir)])
    assert code == 0
    lib = stdlib()
    for name, t in lib.items():
        text = (emit_dir / f"{name}.gat").read_text()
        assert text == gatform.print_theory(t)
        code, _ = run(["check", str(emit_dir / f"{name}.gat"), "--rules", "pi" if t.pi else "base"])
        assert code == 0, name
    assert (emit_dir / "interpretations.gat").exists()
    code, _ = run(["check", str(emit_dir / "interpretations.gat")])
    assert code == 0


def _nest(head: str, inner: str, depth: int) -> str:
    for _ in range(depth):
        inner = f"{head}({inner})"
    return inner


def test_an_interpretation_of_a_deep_axiom_gets_a_verdict(tmp_path):
    # f |-> f^150(x) turns the 150-deep axiom into a 22,500-deep
    # obligation: the equality engine enters it without recursing, and the
    # term bank's cap leaves it unproved instead of raising
    p = tmp_path / "deep.gat"
    p.write_text(
        "theory T {\n  sym A : () => Type\n  sym a : () => A\n  sym f : (x : A) => A\n"
        f"  ax r : () => {_nest('f', 'a', 150)} = a : A\n}}\n"
        f"interp I : T -> T {{\n  A |-> A\n  a |-> a\n  f |-> {_nest('f', 'x', 150)}\n}}\n"
    )
    code, out = run(["check", str(p), "--json"])
    assert code == 2
    items = json.loads(out)["items"]
    assert [(i["name"], i["verdict"]) for i in items] == [("theory T", "ok"), ("interp I", "Inconclusive")]
    assert items[1]["detail"] == "obligation for 'r': term equality not proved (fuel)"
