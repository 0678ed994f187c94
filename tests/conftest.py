import random

import pytest

from gatc.expr import Ap, App, Expr, Var, mk_lam, mk_pi

# Filled by the acceptance tests; echoed after the run so the per-criterion
# verdict lines survive pytest's capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

# Signature used by the random generators: symbol name -> argument count.
MONOID_SIG = {"u": 0, "mul": 2}
CATEGORY_LIKE_SIG = {"c0": 0, "f1": 1, "g2": 2}


def random_expr(
    rng: random.Random, sig: dict[str, int], vars_: list[str], depth: int, binders: bool = False
) -> Expr:
    """A random expression over a signature and variable pool.

    First-order unless binders is set; then Pi, lam and application nodes
    occur too, each binder over a name of its own that its body may use,
    so the result is locally closed.  Without binders the draws from rng
    are the same as they always were.
    """
    if depth <= 0 or (vars_ and rng.random() < 0.3):
        if vars_ and rng.random() < 0.6:
            return Var(rng.choice(vars_))
        name = rng.choice([s for s, n in sig.items() if n == 0] or list(sig))
        if sig[name] == 0:
            return App(name)
    if binders and rng.random() < 0.3:
        node = rng.choice(("Pi", "lam", "@"))
        first = random_expr(rng, sig, vars_, depth - 1, binders)
        if node == "@":
            return Ap(first, random_expr(rng, sig, vars_, depth - 1, binders))
        x = f"bound{depth}"
        body = random_expr(rng, sig, vars_ + [x], depth - 1, binders)
        return (mk_pi if node == "Pi" else mk_lam)(x, first, body)
    name = rng.choice(list(sig))
    return App(name, tuple(random_expr(rng, sig, vars_, depth - 1, binders) for _ in range(sig[name])))


@pytest.fixture
def gen():
    return random_expr
