"""The polynomial verifiers build each construction once.

The families theories that one verifier command builds (memo misses of
poly_apply), the units it derives (derive_unit), and the fibre products
and products with Ty0 it builds are counted, so a law that rebuilds what
another law of the same command has built shows up here.  When a count falls, lower its bound below.
"""

import io
from collections import Counter

import pytest

from gatc import cli, poly, theory
from gatc.theory import mk_El, stdlib, terminal_theory


@pytest.fixture
def builds(monkeypatch):
    """How often each construction has been built so far; "P(El0)"
    counts the families theories of El0 among the families builds.  The
    library theories start with no families theory memoized."""
    for t in (terminal_theory(), *stdlib().values()):
        vars(t).pop("_families", None)
    counts = Counter()
    originals = {
        "families": (theory, theory.families),
        "derive_unit": (poly, poly.derive_unit),
        "fib_product_el0": (poly, poly.fib_product_el0),
        "product_with_ty0": (poly, poly.product_with_ty0),
    }
    for name, (module, original) in originals.items():

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            counts["P(El0)"] += _name == "families" and args[0] == mk_El(0)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return counts


def _run(argv: list[str]) -> None:
    buf = io.StringIO()
    assert cli.main(argv + ["--json"], buf) == 0, buf.getvalue()


def test_unit_triangles_derives_each_unit_once(builds):
    _run(["unit-triangles"])
    # three legs, plus the fourth axiom behind each counit triangle
    assert builds["derive_unit"] <= 6
    assert builds["families"] <= 13
    # once, for the element-of arrow and as the El0 leg's base alike
    assert builds["P(El0)"] <= 1


def test_verify_poly_builds_each_sample_once(builds):
    _run(["verify-poly"])
    assert builds["families"] <= 15
    # P3 and P4 of a sample share its fibre product, P2 reads El0's, and
    # P1 and P3[Ty0] share Ty0 x Ty0: 11 legs and 10 theories
    assert builds["fib_product_el0"] <= 11
    assert builds["product_with_ty0"] <= 10
    # once, for the element-of arrow and as the El0 sample alike
    assert builds["P(El0)"] <= 1
