"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Checks, from the root of a source checkout, that:
  * the reference constants agree with the exhaustive counters that
    derive them (labeled monoids, small categories) and with hand counts;
  * every workload, in both trace modes, prints exactly the metrics that
    BENCHMARK.json names, each with its unit, and a well-formed result;
  * a perturbed reference makes a run read "correct": false: each
    perturbation leaves the inputs consistent and makes the expected
    verdict of some operations wrong, so the checks on the measured
    calls must catch it.  The perturbed copy lives under bench/_smoke/
    and is removed afterwards.
Exits 0 when everything holds and 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402

# (workload, file under bench/, text, replacement)
PERTURBATIONS = [
    # Mon at bound 2 then expects 6 models instead of 5.
    ("models", "reference.py", "LABELED_MONOIDS = (0, 1, 4, 33)", "LABELED_MONOIDS = (0, 1, 5, 33)"),
    # The derivable STLC goals are labelled non-derivable, so Proved is wrong.
    (
        "proofs",
        "workloads.py",
        '_eq_op(f"stlc.goal.{i}", stlc, ctx, to_expr(lhs), to_expr(rhs), True, deriv.WITH_PI)',
        '_eq_op(f"stlc.goal.{i}", stlc, ctx, to_expr(lhs), to_expr(rhs), False, deriv.WITH_PI)',
    ),
    # The same for the derivable goals of `gatc eq`.
    ("structure", "workloads.py", "_eq_verdict(derivable)", "_eq_verdict(not derivable)"),
]


def check_references() -> list[str]:
    problems = []
    for n, c in enumerate(ref.LABELED_MONOIDS):
        if ref.count_monoids_brute(n) != c:
            problems.append(f"labeled monoids of order {n} are not {c}")
    for k in ref.CATEGORY_COUNTS:
        got = ref.count_categories(k)
        if got != (ref.CATEGORY_COUNTS[k], ref.POINTED_CATEGORY_COUNTS[k]):
            problems.append(f"category counts at bound {k}: {got}")
    by_hand = {
        (ref.ty_count, 0, 2): 3,
        (ref.ty_count, 1, 2): 1 + 3 + 9,
        (ref.el_count, 0, 3): 0 + 1 + 2 + 3,
        (ref.el_count, 1, 2): 1 + 3 + 9,
    }
    for (fn, n, k), want in by_hand.items():
        if fn(n, k) != want:
            problems.append(f"{fn.__name__}({n}, {k}) != {want}")
    return problems


def run(root: Path, workload: str, trace: int) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result, proc.stderr


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    code, result, err = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if result is None:
        return [f"{where}: exit {code}: {err.strip()[-300:]}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"]:
        problems.append(f"{where}: an operation failed that is not a known defect")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 100):
        problems.append(f"{where}: attempted {result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        wrong = sorted(k for k in set(got) & set(wanted) if got[k] != wanted[k])
        problems.append(f"{where}: missing {missing}, unnamed {extra}, wrong units {wrong}")
    return problems


def check_perturbed(workload: str, name: str, old: str, new: str) -> list[str]:
    copy = HERE / "_smoke"
    shutil.rmtree(copy, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(HERE, copy / "bench", ignore=shutil.ignore_patterns("__pycache__", "_*"))
        target = copy / "bench" / name
        text = target.read_text()
        if text.count(old) != 1:
            return [f"perturbation of {name} for {workload} no longer applies"]
        target.write_text(text.replace(old, new))
        code, result, err = run(copy, workload, 0)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    if result is None:
        return [f"{workload}: perturbed {name}: exit {code}: {err.strip()[-300:]}"]
    if result["correct"]:
        return [f"{workload}: perturbed {name} still reads correct"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_references()
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, w["name"], trace)
    for perturbation in PERTURBATIONS:
        problems += check_perturbed(*perturbation)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
