"""Typing's errors, pinned by class and message, and the in-place
comparison of an argument's type with its declared parameter type."""

import random

import pytest

from conftest import random_expr
from gatc.deriv import WITH_PI, HasType, Judgment, _instance_is, check_context, check_judgment, infer_type
from gatc.errors import (
    ArgumentTypeMismatch,
    DuplicateName,
    InconclusiveEquality,
    NotAType,
    NotATerm,
    ScopeError,
)
from gatc.expr import App, BVar, Lam, Pi, Var, free_vars, rename_symbols, substitute
from gatc.poly import poly_apply
from gatc.theory import extend, stdlib, term_sym, type_sym
from test_random_theories import random_flat_theory

OB, MON, TY = App("Ob"), App("Mon"), App("Ty")


def hom(a, b):
    return App("Hom", (a, b))


def id_(a):
    return App("id", (a,))


def el(a):
    return App("El", (a,))


def mul(a, b):
    return App("mul", (a, b))


def _mon_with_p():
    """Mon with P(m) a type over it and q(m) : P(m)."""
    t = extend(stdlib()["Mon"], type_sym("P", (("m", MON),)))
    return extend(t, term_sym("q", (("m", MON),), App("P", (Var("m"),))))


X = (("x", OB),)
AB = (("a", MON), ("b", MON))
CASES = {
    "unbound flat argument": (
        lambda: infer_type(stdlib()["Cat"], (), id_(Var("x"))),
        ScopeError, "variable 'x' is not bound by the context",
    ),
    "unbound nested argument": (
        lambda: infer_type(stdlib()["Cat"], X, id_(id_(Var("z")))),
        ScopeError, "variable 'z' is not bound by the context",
    ),
    "unbound in a context entry's type": (
        lambda: check_context(stdlib()["Cat"], (("x1", OB), ("y", hom(Var("x1"), Var("x2"))))),
        ScopeError, "variable 'x2' is not bound by the context",
    ),
    "dangling index under a binder, inferred": (
        lambda: infer_type(stdlib()["STLC"], (("a", TY),), Lam(el(Var("a")), BVar(1)), WITH_PI),
        ScopeError, "term has a dangling bound-variable index",
    ),
    "dangling index under a binder, scope-checked": (
        lambda: check_judgment(
            stdlib()["STLC"],
            Judgment((("a", TY),), HasType(Lam(el(Var("a")), BVar(1)), el(Var("a")))),
            WITH_PI,
        ),
        ScopeError, "expression has a dangling bound-variable index",
    ),
    "repeated context name": (
        lambda: check_context(stdlib()["Cat"], (("x1", OB), ("x2", OB), ("x1", OB))),
        DuplicateName, "context variable 'x1' repeated",
    ),
    "term symbol as a type": (
        lambda: check_context(stdlib()["Cat"], (("x1", OB), ("y", id_(Var("x1"))))),
        NotAType, "'id' is a term symbol, not a type symbol",
    ),
    "type symbol as a term": (
        lambda: infer_type(stdlib()["Cat"], (), OB),
        NotATerm, "'Ob' is a type symbol, not a term symbol",
    ),
    "argument type provably apart": (
        lambda: infer_type(stdlib()["Cat"], X, id_(id_(Var("x")))),
        ArgumentTypeMismatch, "expected type Ob, inferred Hom(x, x)",
    ),
    "argument type only unproved": (
        lambda: check_judgment(
            _mon_with_p(),
            Judgment(AB, HasType(App("q", (mul(Var("a"), Var("b")),)), App("P", (mul(Var("b"), Var("a")),)))),
        ),
        InconclusiveEquality, "could not prove P(mul(a, b)) = P(mul(b, a)) (closed)",
    ),
    "the same type error with its scope fine": (
        lambda: check_judgment(stdlib()["Cat"], Judgment(X, HasType(id_(id_(Var("x"))), hom(Var("x"), Var("x"))))),
        ArgumentTypeMismatch, "expected type Ob, inferred Hom(x, x)",
    ),
    "scope error before a type error": (
        lambda: check_judgment(stdlib()["Cat"], Judgment(X, HasType(id_(id_(Var("x"))), hom(Var("z"), Var("x"))))),
        ScopeError, "variable 'z' is not bound by the context",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_typing_error_class_and_message(case):
    call, error, message = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def _theories():
    yield from stdlib().values()
    for tag in range(12):
        t = random_flat_theory(random.Random(tag), tag, units=tag % 2 == 1)
        yield t
        yield poly_apply(t).theory


def test_in_place_comparison_equals_building_the_instance():
    """_instance_is(pty, sub, got) is substitute(pty, sub) == got, for every
    declared parameter type of the stdlib theories, of random flat
    theories and of their families theories, under empty, identity and
    random substitutions, against instances of every parameter type."""
    rng = random.Random(29)
    outcomes = {True: 0, False: 0}
    pi_typed = 0
    for t in _theories():
        sig = {d.name: len(d.ctx) for d in t.decls if d.is_symbol}
        ptys = list(dict.fromkeys(pty for d in t.decls for _, pty in d.ctx))
        pi_typed += sum(pty.__class__ is Pi for pty in ptys)
        own = {}
        for pty in ptys:
            names = free_vars(pty)
            drawn = [{x: random_expr(rng, sig, ["v", "w"], 2, t.pi) for x in names} for _ in range(3)]
            # the last three are equal to the drawn ones but not the same objects
            copies = [{x: rename_symbols(v, {}) for x, v in s.items()} for s in drawn]
            own[pty] = [{}, {x: Var(x) for x in names}, *drawn, *copies]
        gots = list(dict.fromkeys(substitute(pty, s) for pty in ptys for s in own[pty]))
        # same head, one argument more or fewer: apart, as in an unchecked context
        apps = [g for g in gots if g.__class__ is App and g.args]
        gots += [App(g.head, g.args + g.args[:1]) for g in apps] + [App(g.head, g.args[1:]) for g in apps]
        for pty in ptys:
            for s in own[pty]:
                for got in gots:
                    same = _instance_is(pty, s, got)
                    assert same == (substitute(pty, s) == got), (t.name, pty, s, got)
                    outcomes[same] += 1
    assert pi_typed >= 3  # STLC's f : El(a) -> El(b), MLTT-N's motive and step
    assert outcomes[True] > 300 and outcomes[False] > 1000, outcomes
