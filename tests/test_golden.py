"""Byte stability of the structural outputs across code versions.

The emitted corpus, the families theory of every corpus theory and the
three colimit constructions are printed from declarations alone; no
proof search shapes them, so a change to the equality engine must leave
these bytes unchanged.  Proof traces are deliberately not pinned here.

After a deliberate change to one of these outputs, rewrite the data with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import io
from pathlib import Path

import pytest

from gatc import cli, theory

GOLDEN = Path(__file__).parent / "golden"
PI_THEORIES = {"STLC", "MLTT-N"}
INTERPS = "{interps}"  # replaced by the emitted interpretations.gat

CASES = {
    **{
        f"poly_{n}": ["poly", "--theory", n, "--json"] + (["--rules", "pi"] if n in PI_THEORIES else [])
        for n in theory.stdlib()
    },
    "coprod_Mon_Cat": ["coprod", "--left", "Mon", "--right", "Cat", "--json"],
    "pushout_Ty0_El0_Ty0ToMon": [
        "pushout", INTERPS, "--base", "Ty0", "--total", "El0", "--along", "Ty0ToMon", "--json",
    ],
    "coeq_MonToCatPt_MonToCatPtVariant": [
        "coeq", INTERPS, "--left", "MonToCatPt", "--right", "MonToCatPtVariant", "--json",
    ],
}


def _run(argv: list[str]) -> str:
    buf = io.StringIO()
    code = cli.main(argv, buf)
    assert code == 0, (argv, buf.getvalue())
    return buf.getvalue()


def _emit(directory: Path) -> dict[str, str]:
    _run(["stdlib", "--emit", str(directory)])
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(directory.iterdir())}


def _report(case: str, corpus: Path) -> str:
    interps = str(corpus / "interpretations.gat")
    return _run([interps if a == INTERPS else a for a in CASES[case]])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("corpus")
    _emit(directory)
    return directory


def test_stdlib_emit_matches_golden(tmp_path):
    emitted = _emit(tmp_path)
    expected = {p.name: p.read_text(encoding="utf-8") for p in (GOLDEN / "stdlib").iterdir()}
    assert sorted(emitted) == sorted(expected)
    for name, text in expected.items():
        assert emitted[name] == text, name


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, corpus):
    expected = (GOLDEN / f"{case}.json").read_text(encoding="utf-8")
    assert _report(case, corpus) == expected


def _write_golden() -> None:
    import tempfile

    stdlib_dir = GOLDEN / "stdlib"
    stdlib_dir.mkdir(parents=True, exist_ok=True)
    for old in stdlib_dir.iterdir():
        old.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _emit(Path(tmp)).items():
            (stdlib_dir / name).write_text(text, encoding="utf-8")
        for case in CASES:
            (GOLDEN / f"{case}.json").write_text(_report(case, Path(tmp)), encoding="utf-8")


if __name__ == "__main__":
    _write_golden()
