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


@pytest.fixture
def builds(monkeypatch):
    """How often each construction has been built so far."""
    counts = Counter()
    for name in ("poly_apply", "derive_unit"):
        original = getattr(poly, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
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
    assert builds["poly_apply"] <= 22


def test_verify_poly_builds_each_sample_once(builds):
    _run(["verify-poly"])
    assert builds["poly_apply"] <= 23
