"""Byte stability of the structural outputs across code versions.

The emitted corpus (in ASCII and in unicode), the families theory of every corpus theory and the
three colimit constructions are printed from declarations alone; no
proof search shapes them, so a change to the equality engine must leave
these bytes unchanged.  Proof traces are deliberately not pinned here.
The model lists of a few finite-model searches are pinned in order, so a
change to the search strategy must leave them unchanged too.  The
verdict reports of the polynomial verifiers (verify-poly, unit-triangles
and pi-square) are pinned without their traces.

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
MODELS_GAT = "{models}"  # replaced by a file holding MODELS_SOURCE

# A dependent theory with term and type equations: monoids with a family
# P over the carrier whose fibre at the unit is the carrier itself.
MODELS_SOURCE = """\
theory MonP {
  sym Mon : () => Type
  sym u : () => Mon
  sym mul : (y1 : Mon, y2 : Mon) => Mon
  ax _1 : (y : Mon) => mul(u, y) = y : Mon
  ax _2 : (y : Mon) => mul(y, u) = y : Mon
  ax _3 : (y1 : Mon, y2 : Mon, y3 : Mon) => mul(mul(y1, y2), y3) = mul(y1, mul(y2, y3)) : Mon
  sym P : (m : Mon) => Type
  ax _4 : () => P(u) = Mon : Type
}
"""
MODELS = [("Mon", 2), ("Cat", 1), ("CatPt", 1), ("El1", 2), ("Ty2", 2)]

CASES = {
    **{
        f"poly_{n}": ["poly", "--theory", n, "--json"] + (["--rules", "pi"] if n in PI_THEORIES else [])
        for n in theory.stdlib()
    },
    "check_interpretations": ["check", INTERPS, "--json"],
    "present_Cat_reconstruct": ["present", "--theory", "Cat", "--reconstruct", "--json"],
    "present_MLTT-N_reconstruct": [
        "present", "--theory", "MLTT-N", "--reconstruct", "--rules", "pi", "--json",
    ],
    "coprod_Mon_Cat": ["coprod", "--left", "Mon", "--right", "Cat", "--json"],
    "pushout_Ty0_El0_Ty0ToMon": [
        "pushout", INTERPS, "--base", "Ty0", "--total", "El0", "--along", "Ty0ToMon", "--json",
    ],
    "coeq_MonToCatPt_MonToCatPtVariant": [
        "coeq", INTERPS, "--left", "MonToCatPt", "--right", "MonToCatPtVariant", "--json",
    ],
    **{
        f"models_{n}_{k}": ["models", "--theory", n, "--max-size", str(k), "--json"]
        for n, k in MODELS
    },
    "models_MonP_2": ["models", MODELS_GAT, "--theory", "MonP", "--max-size", "2", "--json"],
    "verify_poly": ["verify-poly", "--json"],
    "verify_poly_samples": [
        "verify-poly", "--samples", "terminal,Ty0,El0,Mon,Cat,CatPt,Ty1,El1", "--json",
    ],
    "unit_triangles": ["unit-triangles", "--json"],
    "pi_square": ["pi-square", "--rules", "pi", "--json"],
}


def _run(argv: list[str]) -> str:
    buf = io.StringIO()
    code = cli.main(argv, buf)
    assert code == 0, (argv, buf.getvalue())
    return buf.getvalue()


def _emit(directory: Path, *flags: str) -> dict[str, str]:
    _run(["stdlib", "--emit", str(directory), *flags])
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(directory.iterdir())}


def _corpus(directory: Path) -> None:
    """Emit the corpus and the models source into directory."""
    _emit(directory)
    (directory / "models-source.gat").write_text(MODELS_SOURCE, encoding="utf-8")


def _report(case: str, corpus: Path) -> str:
    files = {INTERPS: "interpretations.gat", MODELS_GAT: "models-source.gat"}
    return _run([str(corpus / files[a]) if a in files else a for a in CASES[case]])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("corpus")
    _corpus(directory)
    return directory


def _assert_emit_matches(golden: str, directory: Path, *flags: str) -> None:
    emitted = _emit(directory, *flags)
    expected = {p.name: p.read_text(encoding="utf-8") for p in (GOLDEN / golden).iterdir()}
    assert sorted(emitted) == sorted(expected)
    for name, text in expected.items():
        assert emitted[name] == text, name


def test_stdlib_emit_matches_golden(tmp_path):
    _assert_emit_matches("stdlib", tmp_path)


def test_unicode_stdlib_emit_matches_golden(tmp_path):
    _assert_emit_matches("stdlib_unicode", tmp_path, "--unicode")


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, corpus):
    expected = (GOLDEN / f"{case}.json").read_text(encoding="utf-8")
    assert _report(case, corpus) == expected


def _write_golden() -> None:
    """Rewrite tests/golden from scratch, so it holds exactly the files the
    tests above read: a golden no test reads shows as deleted in git."""
    import shutil
    import tempfile

    shutil.rmtree(GOLDEN, ignore_errors=True)
    for golden, flags in (("stdlib", ()), ("stdlib_unicode", ("--unicode",))):
        stdlib_dir = GOLDEN / golden
        stdlib_dir.mkdir(parents=True)
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in _emit(Path(tmp), *flags).items():
                (stdlib_dir / name).write_text(text, encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        _corpus(Path(tmp))
        for case in CASES:
            (GOLDEN / f"{case}.json").write_text(_report(case, Path(tmp)), encoding="utf-8")


if __name__ == "__main__":
    _write_golden()
