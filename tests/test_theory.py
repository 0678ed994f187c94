import pytest

from gatc.errors import DuplicateName, ForwardReference, GatError, UnknownSymbol
from gatc.expr import App, Var, mk_pi
from gatc.gatform import parse
from gatc.gatcat import (
    check_interpretation,
    coproduct,
    limit_presentation,
    reconstruct,
    renaming_interpretation,
)
from gatc.theory import (
    CtxOk,
    Declaration,
    HasType,
    IsType,
    TermEq,
    TypeEq,
    check_theory,
    extend,
    families,
    mk_El,
    mk_Ty,
    stdlib,
    term_eq_ax,
    term_sym,
    terminal_theory,
    type_sym,
)


def test_theory_of_categories_has_seven_declarations():
    cat = stdlib()["Cat"]
    assert len(cat.decls) == 7
    assert len(cat.symbols()) == 4
    assert len(cat.axioms()) == 3


def test_empty_theory_is_terminal():
    t = check_theory([])
    assert t.decls == ()
    assert terminal_theory().decls == ()


def test_forward_reference_rejected():
    mon = App("Mon")
    decls = [
        type_sym("Mon"),
        term_eq_ax("_1", (("y", mon),), App("mul", (App("u"), Var("y"))), Var("y"), mon),
        term_sym("u", (), mon),
        term_sym("mul", (("y1", mon), ("y2", mon)), mon),
    ]
    with pytest.raises(ForwardReference):
        check_theory(decls)


def test_unknown_symbol_rejected():
    with pytest.raises(UnknownSymbol):
        check_theory([term_sym("u", (), App("Nowhere"))])


def test_duplicate_name_rejected():
    with pytest.raises(DuplicateName):
        check_theory([type_sym("A"), type_sym("A")])


def test_mk_ty_zero():
    t = mk_Ty(0)
    assert [d.name for d in t.decls] == ["A0"]
    assert len(t.decls[0].ctx) == 0


def test_mk_el_zero():
    t = mk_El(0)
    assert [d.name for d in t.decls] == ["A0", "e0"]
    assert t.decl("e0").kind.ty == App("A0")


def test_mk_ty_two_counts():
    t = mk_Ty(2)
    assert len(t.symbols()) == 3
    assert len(t.axioms()) == 0
    assert len(t.decl("A2").ctx) == 2


def test_stdlib_names_and_counts():
    lib = stdlib()
    expected = ["Cat", "Mon", "CatPt"] + [f"{k}{i}" for i in range(4) for k in ("Ty", "El")] + ["STLC", "MLTT-N"]
    assert set(lib) == set(expected)
    mon = lib["Mon"]
    assert len(mon.symbols()) == 3
    assert len(mon.axioms()) == 3
    assert len(lib["CatPt"].decls) == len(lib["Cat"].decls) + 1


def test_extend_cat_by_point_gives_catpt():
    lib = stdlib()
    got = extend(lib["Cat"], term_sym("b", (), App("Ob")))
    assert got.decls == lib["CatPt"].decls


def test_extend_terminal_by_type_gives_ty0():
    got = extend(terminal_theory(), type_sym("A0"))
    assert got.decls == mk_Ty(0).decls


def test_extend_monoid_with_idempotency():
    # both sides must infer the monoid sort; checked by the certifier
    mon = stdlib()["Mon"]
    ax = term_eq_ax("idem", (("y", App("Mon")),), App("mul", (Var("y"), Var("y"))), Var("y"))
    got = extend(mon, ax)
    filled = got.decl("idem").kind
    assert isinstance(filled, TermEq)
    assert filled.ty == App("Mon")


def test_prefix_closure():
    for name, t in stdlib().items():
        for i in range(len(t.decls) + 1):
            check_theory(t.decls[:i])  # must not raise


def test_rename_rejects_a_renaming_that_is_not_injective():
    mon = stdlib()["Mon"]
    with pytest.raises(DuplicateName) as info:
        mon.rename({"u": "e", "mul": "e"})
    assert str(info.value) == "renaming sends 'u' and 'mul' to 'e'"
    assert info.value.decl == "e"


def test_rename_rejects_a_collision_with_an_unchanged_name():
    mon = stdlib()["Mon"]
    with pytest.raises(DuplicateName) as info:
        mon.rename({"mul": "u"})
    assert str(info.value) == "renaming sends 'u' and 'mul' to 'u'"


def test_rename_is_certified_by_its_lemma():
    # the renamed theory is what certifying the renamed declarations gives
    for name, t in stdlib().items():
        renaming = {d.name: f"{d.name}'" for d in t.decls[::2]}
        renamed = t.rename(renaming, name="R")
        assert renamed == check_theory(renamed.decls, name="R"), name
    swap = stdlib()["Mon"].rename({"u": "mul", "mul": "u"})
    assert [d.name for d in swap.decls[:3]] == ["Mon", "mul", "u"]


def test_reordering_invariance_monoid():
    # pulling the right-unit axiom before the left-unit one preserves the
    # dependency order; both orders certify and the identity maps are
    # valid both ways
    mon = stdlib()["Mon"]
    d = list(mon.decls)
    permuted = [d[0], d[1], d[2], d[4], d[3], d[5]]
    mon2 = check_theory(permuted, name="Mon-permuted")
    ident = {x.name: x.name for x in mon.decls if x.is_symbol}
    assert check_interpretation(renaming_interpretation(mon, mon2, ident)).ok
    assert check_interpretation(renaming_interpretation(mon2, mon, ident)).ok


def test_term_axiom_type_elaborated():
    mon = App("Mon")
    decls = [
        type_sym("Mon"),
        term_sym("u", (), mon),
        term_sym("mul", (("y1", mon), ("y2", mon)), mon),
        term_eq_ax("_1", (("y", mon),), App("mul", (App("u"), Var("y"))), Var("y")),
    ]
    t = check_theory(decls)
    assert t.decl("_1").kind.ty == mon


_A, _a = App("A"), App("a")
_BASE = [type_sym("A"), term_sym("a", (), _A)]
_ILL_TYPED_A = type_sym("A", (("x", App("Nowhere")),))


def _misstated(name: str, form: str) -> str:
    """The error on a declaration whose statement is not one a declaration
    makes: a symbol's subject is the symbol itself, left None."""
    return (
        f"in declaration {name!r}: states a {form} that is neither an equation "
        "nor a symbol's statement with its subject left None"
    )


# (prefix, offending declaration, later declarations, check_theory's error,
# extend's error); an error is (class, message, exc.decl).  extend sees no
# later declarations, so a name declared only later is unknown to it.
CERTIFICATION_ERRORS = {
    "self-reference": (
        _BASE,
        term_sym("c", (), App("c")),
        [],
        (ForwardReference, "in declaration 'c': declaration 'c' mentions 'c' before it is declared", "c"),
        (ForwardReference, "in declaration 'c': declaration 'c' mentions 'c' before it is declared", "c"),
    ),
    "later-symbol": (
        _BASE,
        term_sym("c", (), App("B")),
        [type_sym("B")],
        (ForwardReference, "in declaration 'c': declaration 'c' mentions 'B' before it is declared", "c"),
        (UnknownSymbol, "in declaration 'c': 'B' is not declared", "c"),
    ),
    "later-axiom": (
        _BASE,
        term_sym("c", (), App("e")),
        [term_eq_ax("e", (), _a, _a, _A)],
        (ForwardReference, "in declaration 'c': declaration 'c' mentions 'e' before it is declared", "c"),
        (UnknownSymbol, "in declaration 'c': 'e' is not declared", "c"),
    ),
    "earlier-axiom-applied": (
        _BASE + [term_eq_ax("e", (), _a, _a, _A)],
        term_sym("c", (), App("e")),
        [],
        (UnknownSymbol, "in declaration 'c': 'e' names an axiom and cannot be applied", "c"),
        (UnknownSymbol, "in declaration 'c': 'e' names an axiom and cannot be applied", "c"),
    ),
    "undeclared": (
        _BASE,
        term_sym("c", (), App("Nowhere")),
        [],
        (UnknownSymbol, "in declaration 'c': 'Nowhere' is not declared", "c"),
        (UnknownSymbol, "in declaration 'c': 'Nowhere' is not declared", "c"),
    ),
    "symbol-names-its-subject": (
        _BASE,
        Declaration("c", (), HasType(App("d"), _A)),
        [term_sym("d", (), _A)],
        (GatError, _misstated("c", "HasType"), "c"),
        (GatError, _misstated("c", "HasType"), "c"),
    ),
    "type-symbol-names-its-subject": (
        _BASE,
        Declaration("B", (), IsType(_A)),
        [],
        (GatError, _misstated("B", "IsType"), "B"),
        (GatError, _misstated("B", "IsType"), "B"),
    ),
    "context-statement": (
        _BASE,
        Declaration("c", (("x", _A),), CtxOk()),
        [],
        (GatError, _misstated("c", "CtxOk"), "c"),
        (GatError, _misstated("c", "CtxOk"), "c"),
    ),
    "duplicate-after-ill-typed": (
        _BASE,
        term_sym("c", (), App("A", (_a,))),
        [_ILL_TYPED_A],
        (DuplicateName, "declaration name 'A' repeated", "A"),
        (DuplicateName, "declaration name 'A' repeated", "A"),
    ),
}


@pytest.mark.parametrize("case", sorted(CERTIFICATION_ERRORS))
def test_certification_errors_are_pinned(case):
    prefix, bad, later, in_check, in_extend = CERTIFICATION_ERRORS[case]
    with pytest.raises(GatError) as got:
        check_theory(prefix + [bad] + later)
    assert (type(got.value), str(got.value), got.value.decl) == in_check
    # extend meets the duplicate itself, ill-typed as it is, and reports it first
    offending = later[0] if case == "duplicate-after-ill-typed" else bad
    with pytest.raises(GatError) as got:
        extend(check_theory(prefix), offending)
    assert (type(got.value), str(got.value), got.value.decl) == in_extend


def _judgment_by_hand(d: Declaration):
    """The statement d asserts, its subject built here from App(d.name, vars)."""
    subject = App(d.name, tuple(Var(x) for x, _ in d.ctx))
    match d.kind:
        case IsType(None):
            return IsType(subject)
        case HasType(None, ty):
            return HasType(subject, ty)
        case TypeEq() | TermEq():
            return d.kind
    raise AssertionError(f"{d.name!r} states {d.kind!r}")


def test_judgment_fills_in_the_implicit_subject():
    # the families theories go through hypothesize, the coproduct through
    # rename_symbols and the reconstructions' pushouts through translate,
    # each of which maps a statement and must keep a symbol's subject None
    lib = stdlib()
    theories = []
    for t in lib.values():
        theories += [t, families(t)[0], reconstruct(limit_presentation(t))[0]]
    theories.append(coproduct(lib["Mon"], lib["Cat"]).theory)
    for t in theories:
        for d in t.decls:
            assert d.judgment() == _judgment_by_hand(d), (t.name, d.name)


def test_a_file_theory_that_uses_pi_certifies():
    # the Pi rules hold over every theory: a declaration may use a binder,
    # and so may an extension of a theory that declares none
    [tb] = parse("theory T { sym A : () => Type  sym f : (g : Pi (x : A) A) => A }").theories()
    assert check_theory(tb.decls).pi
    mon = stdlib()["Mon"]
    g = term_sym("g", (("f", mk_pi("x", App("Mon"), App("Mon"))),), App("Mon"))
    assert not mon.pi and extend(mon, g).pi
