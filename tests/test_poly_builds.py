"""The polynomial verifiers build each construction once.

The families theories (poly_apply) and units (derive_unit) that one
verifier command builds are counted, so a law that rebuilds what
another law of the same command has built shows up here.  When a count
falls, lower its bound below.
"""

import io
from collections import Counter

import pytest

from gatc import cli, poly
from gatc.theory import mk_El


@pytest.fixture
def builds(monkeypatch):
    """How often each construction has been built so far; "P(El0)"
    counts the families theories of El0 among the poly_apply calls."""
    counts = Counter()
    for name in ("poly_apply", "derive_unit"):
        original = getattr(poly, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            counts["P(El0)"] += _name == "poly_apply" and args[0] == mk_El(0)
            return _original(*args, **kwargs)

        monkeypatch.setattr(poly, name, counting)
    return counts


def _run(argv: list[str]) -> None:
    buf = io.StringIO()
    assert cli.main(argv + ["--json"], buf) == 0, buf.getvalue()


def test_unit_triangles_derives_each_unit_once(builds):
    _run(["unit-triangles"])
    # three legs, plus the fourth axiom behind each counit triangle
    assert builds["derive_unit"] <= 6
    assert builds["poly_apply"] <= 14
    # once for the element-of arrow, once as the El0 leg's base
    assert builds["P(El0)"] <= 2


def test_verify_poly_builds_each_sample_once(builds):
    _run(["verify-poly"])
    assert builds["poly_apply"] <= 17
    # once for the element-of arrow, once as the El0 sample
    assert builds["P(El0)"] <= 2
