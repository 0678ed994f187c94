"""The interpretive finite-model evaluator, kept as the reference the
compiled program in gatc.models is checked against.

It reads a Model the direct way: a variable from a dict environment, an
application from its head's table, and it builds one environment per
context instance by extending the previous one variable by variable.  An undefined value raises ModelError.
"""

from gatc.deriv import HasType, IsType, Statement, TermEq, TypeEq
from gatc.errors import ModelError
from gatc.expr import App, Expr, Var
from gatc.models import Model


def evaluate(model: Model, env: dict[str, int], e: Expr) -> int:
    """The element a term denotes at env, or the size of the carrier a
    type denotes: carriers are initial segments, so a size determines one.
    A head's table is looked up once, in the model's tables."""
    if e.__class__ is Var:
        return env[e.name]
    if e.__class__ is not App:
        raise ModelError("cannot evaluate a binder expression in a finite model")
    table = model.tables.get(e.head)
    if table is None:
        raise ModelError(f"no table for {e.head!r}")
    key = tuple([env[a.name] if a.__class__ is Var else evaluate(model, env, a) for a in e.args])
    v = table.get(key)
    if v is None:
        raise ModelError(f"{e.head!r} undefined at {key}")
    return v


def context_instances(model: Model, ctx) -> list[dict[str, int]]:
    """Environments for a telescope, in lexicographic element order.

    Each environment binds the telescope's variables in telescope order.
    """
    envs: list[dict[str, int]] = [{}]
    for x, ty in ctx:
        envs = [{**env, x: v} for env in envs for v in range(evaluate(model, env, ty))]
    return envs


def true_at(model: Model, env: dict[str, int], j: Statement) -> bool:
    """Whether a declaration's judgment holds at one context instance."""
    match j:
        case IsType(ty):
            return evaluate(model, env, ty) >= 0
        case HasType(term, ty):
            return 0 <= evaluate(model, env, term) < evaluate(model, env, ty)
        case TypeEq(lhs, rhs) | TermEq(lhs, rhs):
            return evaluate(model, env, lhs) == evaluate(model, env, rhs)
