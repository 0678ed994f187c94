"""The benchmark's calls into gatc keep working.

bench/ calls gatc's public functions positionally (deriv.eq_check,
deriv.replay_eq_trace and deriv.check_judgment with a trailing rule set,
the constructions, cli.main) and wraps the functions bench/tracing.py
names.  A change to one of those signatures or names breaks the
benchmark, which only CI's bench/smoke.py would otherwise notice.  This
plays one round of each workload at seed 1 in process, with the
benchmark's own build, for_round, run_op and checks, and pins how many
operations decide.  It reads bench/ and writes nothing there: no
bytecode, and each workload's files go to a temporary directory.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    """A module of bench/, imported without writing bytecode next to it."""
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = saved


@pytest.mark.parametrize(
    "workload, decided, attempted",
    [("proofs", 731, 851), ("structure", 104, 105), ("models", 117, 117)],
)
def test_one_round_of_each_workload_decides_as_pinned(workload, decided, attempted, tmp_path):
    workloads = _bench_module("workloads")
    workdir = str(tmp_path / workload)
    ops = workloads.build(workload, 1, workdir)
    try:
        outcomes = [(op.label, op.check(workloads.run_op(op))) for op in workloads.for_round(ops, 0)]
    finally:
        workloads.remove_workdir(workdir)
    failed = [(label, o.detail) for label, o in outcomes if o.failed]
    assert failed == []
    assert (sum(o.decided for _, o in outcomes), len(outcomes)) == (decided, attempted)


def test_every_traced_layer_resolves():
    tracing = _bench_module("tracing")
    for target in tracing.TRACED:
        module, name = target.split(".")
        assert callable(getattr(importlib.import_module(f"gatc.{module}"), name, None)), target
