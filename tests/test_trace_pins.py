"""Proof traces pinned byte for byte, with every Proved trace replayed.

The goldens (test_golden.py) pin reports without their traces.  Here the
steps of a seeded list of equality goals, and the ``--json --trace``
reports of ``check`` over the corpus interpretations and of
``verify-poly`` together with every verdict that the equality engine
gave them, are pinned by sha256.  So is the goals' search log, every
step the engine took on them, so a change to the equality engine's
internals that keeps its search must keep every term id, union and
step.  Each pinned Proved trace must also replay through
``replay_eq_trace``.

Every pinned Proved trace is also minimal: it replays as given, and
with any one of its steps left out it does not.  A trace holds the
steps on the proof-forest path between the goal's sides and what their
congruences need, nothing of the rest of the search.

The goals cover Mon associativity, unit and permutation goals, Cat goals
whose axiom sides repeat a variable (``comp(x1, x1, x2, id(x1), y)``),
and STLC goals under the Pi rules, including the axiom with a binder
side.  After a deliberate change to the traces, print the new digests
with ``PYTHONPATH=src python tests/test_trace_pins.py`` and record the
change; next to each digest it prints the total steps of the Proved
traces, per goal family and per command, so the re-pin shows which
traces moved.
"""

import hashlib
import io
import random
from pathlib import Path

import pytest

from gatc import cli, deriv
from gatc.deriv import BASE, WITH_PI, eq_check, replay_eq_trace
from gatc.expr import Ap, App, Var, mk_lam
from gatc.theory import stdlib

GOALS_SHA256 = "78e13888d372049a6b0314a24d8bf0591a6ebd371602689e20553575e164a121"
# The goals' verdicts with every step of the search instead of the
# explanation: the search log, which a Proved trace held before traces
# were explained from the proof forest.  It pins every term id, union and
# match order of the search.
SEARCH_SHA256 = "462c8dba7141402924a4d1be8a5c52fa6a89a3385ef401811285d6b1fe9f5c14"
CLI_SHA256 = {
    "check": "292508f5f75f45c907021a1aad311c8969233bf9794141f7c95d2c8de8dd9678",
    "verify-poly": "6a582d2214afd48d601b2e322cad00c85e08c241d354255aca05d303250a828c",
}


def _mul(a, b):
    return App("mul", (a, b))


def _bracket(rng: random.Random, leaves: list, join):
    """A random bracketing of leaves under the binary join."""
    if len(leaves) == 1:
        return leaves[0]
    k = rng.randrange(1, len(leaves))
    return join(_bracket(rng, leaves[:k], join), _bracket(rng, leaves[k:], join))


def _mon_goals(rng: random.Random) -> list:
    out = []
    for n in (3, 4, 5, 6):
        for _ in range(4):
            vs = [Var(f"m{i}") for i in range(n)]
            ctx = tuple((v.name, App("Mon")) for v in vs)
            units = list(vs)
            for _ in range(rng.randrange(1, 3)):
                units.insert(rng.randrange(len(units) + 1), App("u"))
            shuffled = rng.sample(vs, n)
            out.append(("mon.assoc", ctx, _bracket(rng, vs, _mul), _bracket(rng, vs, _mul)))
            out.append(("mon.unit", ctx, _bracket(rng, units, _mul), _bracket(rng, vs, _mul)))
            out.append(("mon.perm", ctx, _bracket(rng, vs, _mul), _bracket(rng, shuffled, _mul)))
    return out


def _comp(f, g):
    (a, b, x), (b2, c, y) = f, g
    assert b == b2
    return a, c, App("comp", (a, b, c, x, y))


def _cat_goals(rng: random.Random) -> list:
    out = []
    for n in (2, 3, 4, 5):
        for _ in range(4):
            obs = [Var(f"x{i}") for i in range(n + 1)]
            ys = [Var(f"y{i}") for i in range(1, n + 1)]
            ctx = tuple((o.name, App("Ob")) for o in obs) + tuple(
                (y.name, App("Hom", (obs[i], obs[i + 1]))) for i, y in enumerate(ys)
            )
            path = [(obs[i], obs[i + 1], y) for i, y in enumerate(ys)]
            with_ids = list(path)
            for _ in range(rng.randrange(1, 3)):
                k = rng.randrange(len(with_ids) + 1)
                o = with_ids[k][0] if k < len(with_ids) else with_ids[-1][1]
                with_ids.insert(k, (o, o, App("id", (o,))))
            other = list(path)
            other[0] = (obs[0], obs[1], Var("z"))
            ctx2 = ctx + (("z", App("Hom", (obs[0], obs[1]))),)
            out.append(("cat.assoc", ctx, _bracket(rng, path, _comp)[2], _bracket(rng, path, _comp)[2]))
            out.append(("cat.unit", ctx, _bracket(rng, with_ids, _comp)[2], _bracket(rng, path, _comp)[2]))
            out.append(("cat.apart", ctx2, _bracket(rng, path, _comp)[2], _bracket(rng, other, _comp)[2]))
    return out


def _stlc_goals(rng: random.Random) -> list:
    tys = [Var("a"), Var("b"), Var("c")]
    el = lambda t: App("El", (t,))  # noqa: E731
    fun = lambda s, t: App("Fun", (s, t))  # noqa: E731
    out = []
    for _ in range(12):
        a, b = rng.choice(tys), rng.choice(tys)
        ctx = tuple((t.name, App("Ty")) for t in tys) + (
            ("f", el(fun(a, b))),
            ("g", el(fun(a, b))),
            ("x", el(a)),
        )
        f, x = Var("f"), Var("x")
        app = lambda s: App("app", (a, b, s, x))  # noqa: E731
        eta_f = mk_lam("z", el(a), App("app", (a, b, f, Var("z"))))
        out += [
            ("stlc.binder", ctx, App("abs", (a, b, eta_f)), f),
            ("stlc.beta", ctx, app(App("abs", (a, b, eta_f))), App("app", (a, b, f, x))),
            ("stlc.both", ctx, app(App("abs", (a, b, eta_f))), Ap(eta_f, x)),
            ("stlc.apart", ctx, App("abs", (a, b, eta_f)), Var("g")),
        ]
    return out


def _goals() -> list:
    rng = random.Random(20201)
    lib = stdlib()
    return (
        [(lib["Mon"], BASE, *g) for g in _mon_goals(rng)]
        + [(lib["Cat"], BASE, *g) for g in _cat_goals(rng)]
        + [(lib["STLC"], WITH_PI, *g) for g in _stlc_goals(rng)]
    )


def _goal_digest() -> tuple[str, list]:
    """The sha256 of every goal's verdict, and the Proved ones with their
    labels and goals."""
    h = hashlib.sha256()
    proved = []
    for th, rules, label, ctx, lhs, rhs in _goals():
        v = eq_check(th, ctx, lhs, rhs, rules)
        h.update(f"{label}: {v!r}\n".encode())
        if v.proved:
            proved.append((label, th, rules, lhs, rhs, v))
    return h.hexdigest(), proved


def _family(label: str) -> str:
    return label if label.startswith("mon.") else label.split(".")[0] + ".*"


def _steps_per_family(proved: list) -> dict[str, int]:
    out: dict[str, int] = {}
    for label, *_, v in proved:
        out[_family(label)] = out.get(_family(label), 0) + len(v.steps)
    return out


def _search_log(g, a, b) -> tuple:
    """In place of _EGraph.explain: the step of every union, in order."""
    return tuple(g._step(*u) for u in g.unions)


def _minimal(th, rules, lhs, rhs, steps: tuple) -> bool:
    """The trace replays, and none with one step left out does."""
    return replay_eq_trace(th, lhs, rhs, steps, rules) and not any(
        replay_eq_trace(th, lhs, rhs, steps[:k] + steps[k + 1 :], rules) for k in range(len(steps))
    )


def _cli_digest(argv: list[str]) -> tuple[str, list]:
    """The sha256 of a command's report followed by every verdict that
    eq_check gave it, and the Proved ones with their goals."""
    original = deriv.eq_check
    verdicts, proved = [], []

    def recording(theory, ctx, lhs, rhs, rules=BASE, fuel=deriv.DEFAULT_FUEL):
        v = original(theory, ctx, lhs, rhs, rules, fuel)
        verdicts.append(repr(v))
        if v.proved:
            proved.append((theory, rules, lhs, rhs, v))
        return v

    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deriv, "eq_check", recording)
        assert cli.main(argv + ["--json", "--trace"], buf) == 0
    text = buf.getvalue() + "".join(f"{v}\n" for v in verdicts)
    return hashlib.sha256(text.encode()).hexdigest(), proved


def _commands(corpus: Path) -> dict[str, list[str]]:
    return {"check": ["check", str(corpus / "interpretations.gat")], "verify-poly": ["verify-poly"]}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("corpus")
    assert cli.main(["stdlib", "--emit", str(directory)], io.StringIO()) == 0
    return directory


@pytest.fixture(scope="module")
def goal_run() -> tuple[str, list]:
    return _goal_digest()


@pytest.fixture(scope="module")
def cli_runs(corpus) -> dict[str, tuple[str, list]]:
    return {name: _cli_digest(argv) for name, argv in _commands(corpus).items()}


def test_goal_traces_are_pinned_and_replay(goal_run):
    digest, proved = goal_run
    assert digest == GOALS_SHA256
    assert len(proved) > 100
    for _, th, rules, lhs, rhs, v in proved:
        assert replay_eq_trace(th, lhs, rhs, v.steps, rules)


@pytest.mark.parametrize("command", sorted(CLI_SHA256))
def test_cli_traces_are_pinned_and_replay(command, cli_runs):
    digest, proved = cli_runs[command]
    assert digest == CLI_SHA256[command]
    assert proved
    for th, rules, lhs, rhs, v in proved:
        assert replay_eq_trace(th, lhs, rhs, v.steps, rules)


def test_the_search_log_is_pinned(monkeypatch):
    monkeypatch.setattr(deriv._EGraph, "explain", _search_log)
    assert _goal_digest()[0] == SEARCH_SHA256


def test_every_pinned_trace_is_minimal(goal_run, cli_runs):
    traces = [goal[1:] for goal in goal_run[1]] + [p for _, proved in cli_runs.values() for p in proved]
    assert len(traces) > 100
    for th, rules, lhs, rhs, v in traces:
        assert _minimal(th, rules, lhs, rhs, v.steps), (lhs, rhs)


if __name__ == "__main__":
    import tempfile

    digest, proved = _goal_digest()
    per_family = ", ".join(f"{k} {n}" for k, n in _steps_per_family(proved).items())
    print(f"GOALS_SHA256 = {digest!r}  # steps: {per_family}")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deriv._EGraph, "explain", _search_log)
        print(f"SEARCH_SHA256 = {_goal_digest()[0]!r}")
    with tempfile.TemporaryDirectory() as tmp:
        cli.main(["stdlib", "--emit", tmp], io.StringIO())
        for name, argv in _commands(Path(tmp)).items():
            digest, proved = _cli_digest(argv)
            print(f"{name!r}: {digest!r},  # steps: {sum(len(p[-1].steps) for p in proved)}")
