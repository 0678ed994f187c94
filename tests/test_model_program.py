"""The compiled finite-model program against the interpretive oracle.

model_oracle.py keeps the interpreter the program replaced.  On each
model below, every declaration's context instances, each telescope entry
at its prefix, each expression of its judgment, a term symbol's type and
the judgment's truth must read the same through both, where an undefined
read is ModelError in the oracle and KeyError in the program; and
validate_model must raise ModelError, never KeyError, on each model the
oracle finds an undefined value or a failing judgment in.
"""

import random
import time

import pytest

from gatc.errors import ModelError
from gatc.expr import App
from gatc.models import Model, _reader, enumerate_models, validate_model
from gatc.theory import HasType, check_theory, stdlib, term_eq_ax, term_sym, type_sym
from model_oracle import context_instances, evaluate, true_at
from test_models import CATPT_DEFECTS, hand_catpt_model
from test_random_theories import random_flat_theory

LIB = stdlib()
UNDEFINED = "undefined"


def _oracle(fn, *args):
    try:
        return fn(*args)
    except ModelError:
        return UNDEFINED


def _program(fn, *args):
    try:
        return fn(*args)
    except KeyError:
        return UNDEFINED


def _positions(names) -> dict[str, int]:
    return {x: i for i, x in enumerate(names)}


def _readers(theory) -> list:
    """Per declaration of theory, in plan order: its compiled form, each
    telescope entry's type with the program's reader of it at its prefix,
    and each expression of its judgment with the reader of it."""
    out = []
    for sym, watched, after in theory._program:
        for c in (sym, *watched, *after):
            d = c.decl
            names = [x for x, _ in d.ctx]
            prefixes = [(ty, _reader(ty, _positions(names[:k]))) for k, (_, ty) in enumerate(d.ctx)]
            pos = _positions(d.arity)
            exprs = [(e, _reader(e, pos)) for e in d.judgment().exprs()]
            out.append((c, prefixes, exprs))
    return out


def assert_agrees(model: Model, readers=None) -> bool:
    """Check the program against the oracle on model; whether the oracle
    found every read defined and every judgment true."""
    tables = model.tables
    valid = True
    for c, prefixes, exprs in readers or _readers(model.theory):
        d, j = c.decl, c.decl.judgment()
        envs = _oracle(context_instances, model, d.ctx)
        xs = _program(c.instances, tables)
        if envs is UNDEFINED:
            assert xs is UNDEFINED, d.name
            valid = False
            continue
        assert xs == [tuple(env.values()) for env in envs], d.name
        for env, x in zip(envs, xs):
            for k, (ty, read) in enumerate(prefixes):
                prefix = dict(zip(d.arity[:k], x))
                assert _oracle(evaluate, model, prefix, ty) == _program(read, tables, x[:k])
            for e, read in exprs:
                want = _oracle(evaluate, model, env, e)
                assert want == _program(read, tables, x), (d.name, env, e)
            if c.ty is not None:
                want = _oracle(evaluate, model, env, d.kind.ty)
                assert want == _program(c.ty, tables, x), (d.name, env)
            holds = _oracle(true_at, model, env, j)
            assert holds == _program(c.true_at, tables, x), (d.name, env)
            valid = valid and holds is True
    return valid


CORPUS = sorted(name for name, t in LIB.items() if not t.pi)
# Ty3 and El3 have tens of thousands of models at bound 2, which the
# oracle would take 10-20 s to read; an even spread of this many of them,
# the first and the last included, is checked instead.
SPREAD = 2_000


@pytest.mark.parametrize("name", CORPUS)
def test_program_agrees_with_the_oracle_on_every_corpus_model(name):
    readers = _readers(LIB[name])
    for bound in (0, 1, 2):
        ms = enumerate_models(LIB[name], bound)
        step = max(1, (len(ms) - 1) // (SPREAD - 1))
        for m in ms[::step] + ms[-1:]:
            assert assert_agrees(m, readers)


def test_program_agrees_with_the_oracle_on_random_flat_models():
    # every enumerated model, then the same model with one cell removed,
    # which the oracle reads as undefined wherever the program does
    rng = random.Random(1303)
    deadline = time.monotonic() + 5.0
    checked = garbled = 0
    for tag in range(40):
        if time.monotonic() > deadline:
            break
        t = random_flat_theory(rng, 1300 + tag)
        terms = [d for d in t.decls if isinstance(d.kind, HasType)]
        if sum(2 ** len(d.ctx) for d in terms) > 12:
            continue
        names = sorted(d.name for d in terms)
        for m in enumerate_models(t, 2, budget=100_000)[:50]:
            assert assert_agrees(m)
            validate_model(m)
            checked += 1
            name = rng.choice(names)
            if not m.tables[name]:
                continue
            cell = rng.choice(sorted(m.tables[name]))
            table = {k: v for k, v in m.tables[name].items() if k != cell}
            broken = Model(t, {**m.tables, name: table})
            assert not assert_agrees(broken)
            with pytest.raises(ModelError):
                validate_model(broken)
            garbled += 1
    assert checked >= 20 and garbled >= 10


@pytest.mark.parametrize("defect", [None, *CATPT_DEFECTS])
def test_program_agrees_with_the_oracle_on_each_catpt_defect(defect):
    m = hand_catpt_model()
    if defect is None:
        assert assert_agrees(m)
        validate_model(m)
        return
    CATPT_DEFECTS[defect](m)
    assert_agrees(m)
    with pytest.raises(ModelError):
        validate_model(m)


def _detour():
    """q(p) is well typed only through c = z = d, and the two axioms that
    say so are checked after it, at z, so a model where c and d differ
    reads q outside its table before any judgment fails."""
    A, c, d, z, p = App("A"), App("c"), App("d"), App("z"), App("p")
    qp = App("q", (p,))
    return check_theory(
        [
            type_sym("A"),
            type_sym("P", (("x", A),)),
            term_sym("c", (), A),
            term_sym("d", (), A),
            term_sym("p", (), App("P", (c,))),
            term_sym("q", (("y", App("P", (d,))),), A),
            term_sym("z", (), A),
            term_eq_ax("_1", (), c, z, A),
            term_eq_ax("_2", (), z, d, A),
            term_eq_ax("_3", (), qp, qp, A),
        ],
        name="Detour",
    )


def test_validate_model_reports_an_undefined_read_as_model_error():
    t = _detour()
    m = Model(
        t,
        {
            "A": {(): 2},
            "P": {(0,): 2, (1,): 1},
            "c": {(): 0},
            "d": {(): 1},
            "p": {(): 1},
            "q": {(0,): 0},
            "z": {(): 0},
        },
    )
    assert not assert_agrees(m)
    with pytest.raises(ModelError, match="'_3' reads an undefined value"):
        validate_model(m)
    ms = enumerate_models(t, 2)
    assert ms
    for m in ms:
        assert assert_agrees(m)
