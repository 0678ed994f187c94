"""Transported certification is not redone.

Interpretation validity checks only each declaration's claim, and the
coproduct and the families theories are certified by lemmas, so none of
them re-checks a context, a presupposition or a whole theory.  The
checks each makes are counted here at every name they are bound to in
gatc, as in tests/test_poly_builds.py.
"""

import io
import sys
from collections import Counter

import pytest

from gatc import cli, deriv, gatcat, theory
from gatc.theory import stdlib, terminal_theory

LIBRARY = (terminal_theory(), *stdlib().values())  # certified before any counting


def _rebind(monkeypatch, fn, wrapper) -> None:
    """Replace fn by wrapper at every gatc module attribute bound to it."""
    for name, module in list(sys.modules.items()):
        if name == "gatc" or name.startswith("gatc."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)


@pytest.fixture
def under(monkeypatch):
    """counts[(outer, inner)]: calls of inner made while outer runs;
    counts[fn]: all calls of fn."""
    counts = Counter()
    running: list[str] = []
    inner = (deriv.check_context, deriv.presupposed, theory.check_theory)
    for fn in (gatcat.check_interpretation, gatcat.coproduct, *inner):

        def counting(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            for outer in set(running):
                counts[(outer, _fn.__name__)] += 1
            running.append(_fn.__name__)
            try:
                return _fn(*args, **kwargs)
            finally:
                running.pop()

        _rebind(monkeypatch, fn, counting)
    return counts


def _run(argv: list[str]) -> None:
    buf = io.StringIO()
    assert cli.main(argv + ["--json"], buf) == 0, buf.getvalue()


def test_interpretation_validity_rechecks_no_context_or_presupposition(under, tmp_path):
    corpus = str(tmp_path / "corpus")
    _run(["stdlib", "--emit", corpus])
    under.clear()
    _run(["check", f"{corpus}/interpretations.gat"])
    assert under[("check_interpretation", "check_context")] == 0
    assert under[("check_interpretation", "presupposed")] == 0


def test_coproduct_certifies_nothing_again(under):
    _run(["coprod", "--left", "Cat", "--right", "CatPt"])
    assert under[("coproduct", "check_theory")] == 0
    assert under[("coproduct", "check_context")] == 0


@pytest.mark.parametrize(
    "argv", [["poly", "--theory", "Cat"], ["verify-poly"], ["unit-triangles"]], ids=" ".join
)
def test_families_theories_certify_nothing_again(under, argv):
    for t in LIBRARY:
        vars(t).pop("_families", None)  # so each families theory is built afresh
    _run(argv)
    assert under["check_theory"] == 0
