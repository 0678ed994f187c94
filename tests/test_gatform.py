import random

import pytest

from gatc import deriv, gatform
from gatc.errors import GatSyntaxError
from gatc.expr import Ap, App, Var, mk_lam, mk_pi
from gatc.gatform import (
    _lex,
    parse,
    parse_context,
    parse_expr,
    print_expr,
    print_interp,
    print_theory,
    resolve_interp_block,
)
from gatc.gatcat import check_interpretation, corpus_interpretations, mon_to_catpt
from gatc.theory import check_theory, stdlib

LIB = stdlib()


def test_parse_one_type_theory():
    sf = parse("theory Ty0 { sym A0 : () => Type }")
    [tb] = sf.theories()
    assert tb.name == "Ty0"
    t = check_theory(tb.decls, name="Ty0")
    assert t.decls == LIB["Ty0"].decls


def test_parse_empty_file():
    assert parse("").items == []
    assert parse("-- just a comment\n").items == []


def test_unmatched_parenthesis_positioned():
    with pytest.raises(GatSyntaxError) as err:
        parse("theory T { sym A0 : ( => Type }")
    assert err.value.line == 1
    assert err.value.col > 1


def test_round_trip_is_fixed_point_for_stdlib():
    for name, t in LIB.items():
        text = print_theory(t)
        sf = parse(text)
        [tb] = sf.theories()
        rules = deriv.WITH_PI if t.pi else deriv.BASE
        t2 = check_theory(tb.decls, rules, name=tb.name)
        assert print_theory(t2) == text, name


def test_expr_application_chains():
    e = parse_expr("f @ x @ y", ["f", "x", "y"])
    assert e == Ap(Ap(Var("f"), Var("x")), Var("y"))
    e2 = parse_expr("f @ (g @ x)", ["f", "g", "x"])
    assert e2 == Ap(Var("f"), Ap(Var("g"), Var("x")))


def test_expr_binders():
    e = parse_expr("Pi (x : A0) A1(x)")
    assert e == mk_pi("x", App("A0"), App("A1", (Var("x"),)))
    e2 = parse_expr("lam (x : A0) e1(x)")
    assert e2 == mk_lam("x", App("A0"), App("e1", (Var("x"),)))


def test_expr_print_parse_round_trip():
    cases = [
        mk_pi("x", App("A0"), App("A1", (Var("x"),))),
        mk_lam("x", App("A0"), Ap(App("e0"), Var("x"))),
        Ap(mk_lam("x", App("A0"), Var("x")), App("e0")),
        App("comp", (Var("a"), Var("a"), Var("a"), App("id", (Var("a"),)), Var("f"))),
    ]
    for e in cases:
        assert parse_expr(print_expr(e), ["a", "f"]) == e


def test_scoped_resolution_shadowing():
    # a telescope variable shadows any symbol of the same name
    sf = parse("theory T { sym A : () => Type sym c : (A : A) => A }")
    [tb] = sf.theories()
    d = tb.decls[1]
    assert d.kind.ty == Var("A")


def test_variable_application_rejected():
    with pytest.raises(GatSyntaxError):
        parse("theory T { sym A : () => Type sym c : (x : A, y : x(x)) => Type }")


def test_context_parsing():
    ctx = parse_context("(x1 : Ob, x2 : Ob, y : Hom(x1, x2))")
    assert [x for x, _ in ctx] == ["x1", "x2", "y"]
    assert ctx[2][1] == App("Hom", (Var("x1"), Var("x2")))


def test_interp_block_resolution():
    text = """
interp M : Mon -> CatPt {
  Mon |-> Hom(b, b);
  u |-> id(b);
  mul |-> comp(b, b, b, y1, y2);
}
"""
    sf = parse(text)
    [ib] = sf.interps()
    i = resolve_interp_block(ib, LIB["Mon"], LIB["CatPt"])
    assert i.mapping == mon_to_catpt().mapping
    assert check_interpretation(i).ok


def test_interp_round_trip():
    i = mon_to_catpt()
    text = print_interp(i)
    sf = parse(text)
    [ib] = sf.interps()
    i2 = resolve_interp_block(ib, LIB["Mon"], LIB["CatPt"])
    assert i2.mapping == i.mapping
    assert print_interp(i2) == text


def test_judgment_block_forms():
    text = """
judgment j1 over Cat { (x : Ob) |- id(x) : Hom(x, x) }
judgment j2 over Cat { (x : Ob) |- Ctx }
judgment j3 over Cat { (x : Ob) |- Hom(x, x) : Type }
judgment j4 over Mon { (y : Mon) |- mul(u, y) = y : Mon }
judgment j5 over Mon { () |- Mon = Mon : Type }
"""
    sf = parse(text)
    js = sf.judgments()
    assert [j.name for j in js] == ["j1", "j2", "j3", "j4", "j5"]
    kinds = [type(j.stmt).__name__ for j in js]
    assert kinds == ["HasType", "CtxOk", "IsType", "TermEq", "TypeEq"]


def test_anonymous_axiom_labels():
    sf = parse(
        "theory T { sym M : () => Type sym u : () => M "
        "ax : (y : M) => u = y : M ax : (y : M) => y = u : M }"
    )
    [tb] = sf.theories()
    assert [d.name for d in tb.decls[2:]] == ["_1", "_2"]


@pytest.mark.parametrize(
    "first, labels",
    [("_2", ["_2", "_1", "_3"]), ("_1", ["_1", "_2", "_3"]), ("_3", ["_3", "_1", "_2"])],
)
def test_unnamed_axioms_take_the_least_free_label(first, labels):
    ax = "ax {}: (y : M) => u = y : M "
    sf = parse(
        "theory T { sym M : () => Type sym u : () => M "
        + ax.format(first + " ") + ax.format("") + ax.format("") + "}"
    )
    [tb] = sf.theories()
    assert [d.name for d in tb.decls[2:]] == labels


def test_unicode_printing():
    t = LIB["STLC"]
    text = print_theory(t, unicode=True)
    assert "⇒" in text and "Π" in text


def test_print_renames_shadowing_telescope_variables():
    # a telescope variable named like a symbol applied in the same
    # declaration is freshened so the print resolves back to the symbol
    from gatc.theory import term_sym, type_sym

    a = App("A")
    decls = [
        type_sym("A"),
        term_sym("a", (), a),
        type_sym("P", (("x", a),)),
        term_sym("c", (("a", a),), App("P", (App("a"),))),
    ]
    t = check_theory(decls, name="Shadow")
    text = print_theory(t)
    assert "sym c : (a_1 : A) => P(a)" in text
    [tb] = parse(text).theories()
    t2 = check_theory(tb.decls, name="Shadow")
    assert print_theory(t2) == text
    # the reparse reads the same judgments: kind still applies the symbol
    assert t2.decl("c").kind.ty == App("P", (App("a"),))


def test_print_renames_shadowing_binder_variables():
    # binder hint collides with a symbol applied under the binder
    body = App("El", (Ap(App("f"), Var("f")),))
    e = mk_pi("f", App("El", (App("f0"),)), body)
    printed = print_expr(e)
    assert printed == "Pi (f_1 : El(f0)) El(f @ f_1)"
    assert parse_expr(printed) == e


def test_fuzz_parser_never_crashes():
    rng = random.Random(97)
    alphabet = "theory interp sym ax (){},;:=@|->Pi lam Type\n\t abcxyz0189_'#\"\\"
    for _ in range(2000):
        n = rng.randrange(0, 60)
        s = "".join(rng.choice(alphabet) for _ in range(n))
        try:
            parse(s)
        except GatSyntaxError:
            pass


def test_fuzz_random_bytes_never_crash():
    rng = random.Random(101)
    for _ in range(2000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
        try:
            parse(blob.decode("utf-8", errors="replace"))
        except GatSyntaxError:
            pass


# Tokens as (kind, value, line, col), or the error message; each expected
# value was read off the character-by-character lexer this one replaced.
LEX_CASES = [
    ("MLTT-N", [("IDENT", "MLTT-N", 1, 1), ("EOF", "", 1, 7)]),
    ("a->b", [("IDENT", "a", 1, 1), ("RARROW", "->", 1, 2), ("IDENT", "b", 1, 4), ("EOF", "", 1, 5)]),
    ("a-b->c", [("IDENT", "a-b", 1, 1), ("RARROW", "->", 1, 4), ("IDENT", "c", 1, 6), ("EOF", "", 1, 7)]),
    ("x--c", [("IDENT", "x", 1, 1), ("EOF", "", 1, 2)]),
    ("a-->b", [("IDENT", "a", 1, 1), ("EOF", "", 1, 2)]),
    ("a-", [("IDENT", "a-", 1, 1), ("EOF", "", 1, 3)]),
    ("a\tb\r c", [("IDENT", "a", 1, 1), ("IDENT", "b", 1, 3), ("IDENT", "c", 1, 6), ("EOF", "", 1, 7)]),
    (
        "f(x) -- note",
        [("IDENT", "f", 1, 1), ("LPAREN", "(", 1, 2), ("IDENT", "x", 1, 3), ("RPAREN", ")", 1, 4), ("EOF", "", 1, 6)],
    ),
    ("x\n  -- c\n", [("IDENT", "x", 1, 1), ("EOF", "", 3, 1)]),
    ("λx_1'#", [("IDENT", "λx_1'#", 1, 1), ("EOF", "", 1, 7)]),
    ("x²", [("IDENT", "x²", 1, 1), ("EOF", "", 1, 3)]),
    (
        "a|->b|-c=>d",
        [
            ("IDENT", "a", 1, 1), ("MAPSTO", "|->", 1, 2), ("IDENT", "b", 1, 5), ("TURNSTILE", "|-", 1, 6),
            ("IDENT", "c", 1, 8), ("DARROW", "=>", 1, 9), ("IDENT", "d", 1, 11), ("EOF", "", 1, 12),
        ],
    ),
    ("²", "1:1: unexpected character '²'"),
    ("1ab", "1:1: unexpected character '1'"),
    ("a - b", "1:3: unexpected character '-'"),
    ("a\xa0b", "1:2: unexpected character '\\xa0'"),
]


@pytest.mark.parametrize("text,expected", LEX_CASES, ids=[repr(t) for t, _ in LEX_CASES])
def test_lexer_edge_cases(text, expected):
    if isinstance(expected, str):
        with pytest.raises(GatSyntaxError) as err:
            list(_lex(text))
        assert str(err.value) == expected
    else:
        assert [(t.kind, t.value, t.line, t.col) for t in _lex(text)] == expected


def test_lexing_stops_at_the_parse_error(monkeypatch):
    # the benchmark's 1,500-deep goal is 7,502 tokens; the parser rejects
    # it at level 201, so only the tokens up to there are lexed
    goal = "u"
    for _ in range(1500):
        goal = f"mul({goal}, u)"
    pulled = []
    lex = gatform._lex
    monkeypatch.setattr(gatform, "_lex", lambda text: (pulled.append(t) or t for t in lex(text)))
    with pytest.raises(GatSyntaxError) as err:
        parse_expr(goal)
    assert str(err.value) == "1:805: expression nested more than 200 levels deep"
    assert len(pulled) <= 2 * (gatform.MAX_NESTING + 1) + 1


# A parse error before a bad character, and a bad character before a
# parse error: whichever comes first in the text is reported.
FIRST_ERROR_CASES = [
    (parse, "theory T { sym A : () => Type ) $ }", "1:31: expected 'sym' or 'ax', found ')'"),
    (parse_expr, "f(, $)", "1:3: expected an expression, found ','"),
    (parse_expr, "f(x y) $", "1:5: expected ')', found 'y'"),
    (parse_expr, "f($, )", "1:3: unexpected character '$'"),
]


@pytest.mark.parametrize("read,text,expected", FIRST_ERROR_CASES, ids=[t for _, t, _ in FIRST_ERROR_CASES])
def test_the_first_error_in_reading_order_is_reported(read, text, expected):
    with pytest.raises(GatSyntaxError) as err:
        read(text)
    assert str(err.value) == expected


def test_an_at_chain_too_deep_is_reported_before_its_next_operand():
    # the 201st '@' (column 803) is one level too deep; the bad character
    # in the operand after it (column 807) is never reached
    with pytest.raises(GatSyntaxError) as err:
        parse_expr("u" + " @ u" * 201 + " $")
    assert str(err.value) == "1:803: expression nested more than 200 levels deep"


def test_unicode_spellings_lex_as_ascii_kinds():
    toks = list(_lex("Π (x : A) B ⇒ Πx"))
    assert [t.kind for t in toks] == ["Pi", "LPAREN", "IDENT", "COLON", "IDENT", "RPAREN", "IDENT", "DARROW", "IDENT", "EOF"]
    assert parse_expr("Π (x : A0) A1(x)") == parse_expr("Pi (x : A0) A1(x)")
    # expected-token messages keep the ASCII spelling
    with pytest.raises(GatSyntaxError, match="1:23: expected '=>', found 'Type'"):
        parse("theory T { sym A : () Type }")


def test_unicode_round_trip_of_the_corpus():
    for name, t in LIB.items():
        [tb] = parse(print_theory(t, unicode=True)).theories()
        rules = deriv.WITH_PI if t.pi else deriv.BASE
        assert check_theory(tb.decls, rules, name=tb.name).decls == t.decls, name
    interps = corpus_interpretations()
    text = "".join(print_interp(i, unicode=True) for i in interps.values())
    for ib in parse(text).interps():
        i = interps[ib.name]
        assert resolve_interp_block(ib, i.src, i.dst).mapping == i.mapping, ib.name


def test_variable_applied_in_an_image_is_positioned():
    # images are read against the source symbol's telescope only when the
    # interp is resolved; a binder variable applied to arguments is then
    # an error at its own position
    [ib] = parse("\ninterp I : Ty0 -> Mon { A0 |-> lam (x : Mon) x(u) }\n").interps()
    with pytest.raises(GatSyntaxError) as err:
        resolve_interp_block(ib, LIB["Ty0"], LIB["Mon"])
    assert str(err.value) == "2:46: variable 'x' cannot take arguments"


def test_variable_application_reported_before_a_later_syntax_error():
    # the variable error comes first in the text, so it is the one reported
    with pytest.raises(GatSyntaxError) as err:
        parse_context("(x : A, y : x(x), z : )")
    assert str(err.value) == "1:13: variable 'x' cannot take arguments"
