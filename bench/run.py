"""Layered benchmark for gatc: one workload, one seed, one result line.

    python3 bench/run.py --workload proofs|structure|models --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout; gatc is imported from
``src/`` next to this directory, never from an installed copy, and the
run fails with a non-zero exit if it is missing.  One process with one
thread measures at a time, in a closed loop: each operation starts when
the previous one returns.  The seed draws the inputs (workloads.py); any
integer is accepted, so a claim can be re-checked on a held-out seed that
was not used while the change was written.

A run first times set-up in fresh processes, then measures in three
fresh worker processes, one after the other, for a third of --seconds
each.  A worker plays one warm-up round so lazy caches fill, then whole
rounds of the same operations until its time has passed, and at least
three rounds; in proofs each round renames the goals' variables afresh
(workloads.for_round), so no timed goal was seen before in its process.
Only the calls into gatc are timed; verdict checks, trace replays and
report repeats run between them.  Times are CPU time of the calling
thread (of the probe process for set-up): gatc is single-threaded and
never waits, so on an unshared machine CPU time and wall time agree,
while on a shared virtual machine wall time also counts the stretches in
which the hypervisor runs other guests.  Throughput counts every timed
call, so garbage collection and other costs that fall on some calls only
are in it.  An operation's latency is its fastest call over all rounds
of all workers: on a shared host the same call runs up to 1.5 times
slower from one second to the next, and the fastest call repeats best
from run to run.

--trace 0 prints the end-to-end metrics:
    setup_s        median over fresh processes of: import gatc, run
                   theory.stdlib(), build the workload's inputs
    ops_per_s      timed calls over the sum of their times, every call
                   of every round of every worker
    op_p50_ms      median of the operations' latencies (fastest calls)
    op_p90_ms      90th percentile of the same; a round has at least 100
                   operations, so at least 10 lie beyond it
    decided_share  share of attempted operations with a decided verdict
                   (Proved, ok, or enumeration within the node budget)
    correct_share  share of attempted operations that did not fail (the
                   complement of the failed share, which can be 0)
    peak_rss_mb    the largest ru_maxrss of the worker processes

--trace 1 measures in one worker, which wraps gatc's public layer
functions (tracing.py), plays traced rounds for half the time and
untraced rounds for the other half, and prints per-round layer metrics:
calls, total and self milliseconds of each function, the counters, and
the tracing overhead as the relative gap between the traced and untraced
sums of latencies.  Spans are written to bench/_out/ when the run ends.

The last line of standard output is the result object; the line before
it records the workload, seed, Python version, nproc, commit and the
failures seen.  "correct" is false when an operation failed that is not
one of the known defects listed in ROADMAP.md; known defects still count
in "failed" and in correct_share.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
WORKERS = 3
MIN_OPS = 100  # distinct operations per round, so p90 has 10 beyond it
MIN_ROUNDS = 3
# round numbers of this process, warm-up included: each names its goals afresh
ROUND_NUMBERS = itertools.count()


def load_gatc():
    """Import gatc from this checkout's src/ and the benchmark's modules."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    import gatc

    if Path(gatc.__file__).resolve().parent != src / "gatc":
        raise ImportError(f"gatc was imported from {gatc.__file__}, not from {src}")
    import workloads

    return workloads


def workdir_for(workload: str, seed: int) -> str:
    return str(HERE / "_work" / f"{workload}-{seed}-{os.getpid()}")


def setup_probe(workload: str, seed: int) -> float:
    """Set-up as a fresh process pays it; called first thing in a child."""
    start = time.process_time()
    workloads = load_gatc()
    from gatc import theory

    theory.stdlib()
    workdir = workdir_for(workload, seed)
    try:
        workloads.build(workload, seed, workdir)
        return time.process_time() - start
    finally:
        workloads.remove_workdir(workdir)


def child(mode: str, workload: str, seed: int, seconds: float = 0.0, trace: int = 0) -> dict:
    """Run this script in a fresh process in the given mode; its last line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), mode, "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} failed: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Every operation's timings across rounds and the checked outcomes.

    Outcomes are counted, not kept, so memory does not grow with rounds.
    """

    def __init__(self, n_ops: int):
        self.times: list[list[float]] = [[] for _ in range(n_ops)]
        self.attempted = 0
        self.decided = 0
        self.failures: Counter = Counter()  # (label, known defect) per failed call
        self.details: dict[str, str] = {}  # each failing label's first detail
        self.rounds = 0
        self.busy_s = 0.0  # summed time of every timed call

    def fastest_ms(self) -> list[float]:
        return [min(t) * 1000.0 for t in self.times]


def play_round(workloads, ops, tally: Tally, counts: Counter | None = None) -> None:
    """Every operation once, in order; only the call itself is timed."""
    clock = time.thread_time
    for i, op in enumerate(workloads.for_round(ops, next(ROUND_NUMBERS))):
        start = clock()
        result = workloads.run_op(op)
        elapsed = clock() - start
        if counts is not None and isinstance(result, workloads.CliReport):
            counts["cli.report_bytes"] += len(result.text.encode("utf-8"))
        tally.times[i].append(elapsed)
        tally.busy_s += elapsed
        outcome = op.check(result)
        tally.attempted += 1
        tally.decided += outcome.decided
        if outcome.failed:
            tally.failures[op.label, op.known_defect] += 1
            tally.details.setdefault(op.label, outcome.detail)
    tally.rounds += 1


def play_for(workloads, ops, seconds: float, counts: Counter | None = None) -> Tally:
    """Whole rounds until the time has passed, and at least MIN_ROUNDS."""
    tally = Tally(len(ops))
    start = time.monotonic()
    while tally.rounds < MIN_ROUNDS or time.monotonic() - start < seconds:
        play_round(workloads, ops, tally, counts)
    return tally


def end_to_end(parts: list[dict], setup_s: float) -> dict:
    """Merge the workers: all timed calls, and each operation's fastest."""
    latency = [min(t) for t in zip(*(w["fastest_ms"] for w in parts))]
    attempted = sum(w["attempted"] for w in parts)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (attempted / sum(w["busy_s"] for w in parts), "1/s"),
        "op_p50_ms": (statistics.median(latency), "ms"),
        "op_p90_ms": (statistics.quantiles(latency, n=10)[8], "ms"),
        "decided_share": (sum(w["decided"] for w in parts) / attempted, "share"),
        "correct_share": (1.0 - sum(w["failed"] for w in parts) / attempted, "share"),
        "peak_rss_mb": (max(w["rss_mb"] for w in parts), "MB"),
    }


def per_layer(tracer, rounds: int, overhead: float) -> dict:
    from tracing import COUNTERS

    out = {}
    layers = tracer.layers()
    for name, row in layers.items():
        out[f"{name}.calls"] = (row["calls"] / rounds, "count/round")
        out[f"{name}.total_ms"] = (row["total_ms"] / rounds, "ms/round")
        out[f"{name}.self_ms"] = (row["self_ms"] / rounds, "ms/round")
    counts = tracer.counts
    for name in COUNTERS:
        if name != "gatform.parse.bytes":
            out[name] = (counts[name] / rounds, "count/round")
    eq_calls = layers["deriv.eq_check"]["calls"]
    out["deriv.eq.proved_ratio"] = (counts["deriv.eq.proved"] / eq_calls if eq_calls else 0.0, "ratio")
    parse_s = layers["gatform.parse"]["total_ms"] / 1000.0
    out["gatform.parse.bytes_per_s"] = (counts["gatform.parse.bytes"] / parse_s if parse_s else 0.0, "B/s")
    enum_s = layers["models.enumerate_models"]["total_ms"] / 1000.0
    out["models.per_s"] = (counts["models.found"] / enum_s if enum_s else 0.0, "1/s")
    out["trace.overhead"] = (overhead, "ratio")
    return out


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure in this process: warm-up, then rounds; a summary for main."""
    workloads = load_gatc()
    workdir = workdir_for(workload, seed)
    try:
        ops = workloads.build(workload, seed, workdir)
        if len(ops) < MIN_OPS:
            raise RuntimeError(f"{workload} has {len(ops)} operations per round, fewer than {MIN_OPS}")
        # gatc prints its own error lines for the commands that fail on purpose
        with contextlib.redirect_stderr(io.StringIO()):
            # warm-up: lazy caches fill and every report gets its repeat
            play_round(workloads, ops, Tally(len(ops)))
            if trace:
                from tracing import Tracer

                with Tracer() as tracer:
                    tally = play_for(workloads, ops, seconds / 2, tracer.counts)
                untraced = play_for(workloads, ops, seconds / 2)
            else:
                tally = play_for(workloads, ops, seconds)
    finally:
        workloads.remove_workdir(workdir)
    out = {
        "fastest_ms": tally.fastest_ms(),
        "attempted": tally.attempted,
        "busy_s": tally.busy_s,
        "failed": sum(tally.failures.values()),
        "decided": tally.decided,
        "failures": {f"{label}: {tally.details[label]}": n for (label, _), n in tally.failures.items()},
        "unexpected": sorted({label for label, known in tally.failures if not known}),
        "known_defects": sorted({f"{op.label} ({op.known_defect})" for op in ops if op.known_defect}),
        "rounds": tally.rounds,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        overhead = sum(tally.fastest_ms()) / sum(untraced.fastest_ms()) - 1.0
        out["per_layer"] = per_layer(tracer, tally.rounds, overhead)
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{workload}-{seed}.jsonl"
        tracer.write(str(spans))
        out["spans"] = str(spans.relative_to(ROOT))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="layered benchmark for gatc")
    p.add_argument("--workload", required=True, choices=["proofs", "structure", "models"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    mode.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    if args.worker:
        print(json.dumps(worker(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    try:
        load_gatc()
    except ImportError as exc:
        print(f"bench: cannot import gatc from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        parts = [child("--worker", args.workload, args.seed, args.seconds, 1)]
        metrics = parts[0]["per_layer"]
    else:
        setup_s = statistics.median(child("--setup-probe", args.workload, args.seed) for _ in range(SETUP_PROBES))
        parts = [child("--worker", args.workload, args.seed, args.seconds / WORKERS) for _ in range(WORKERS)]
        metrics = end_to_end(parts, setup_s)

    attempted = sum(w["attempted"] for w in parts)
    failed = sum(w["failed"] for w in parts)
    unexpected = sorted({label for w in parts for label in w["unexpected"]})
    failures: Counter = Counter()
    for w in parts:
        failures.update(w["failures"])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "workers": len(parts),
        "rounds": [w["rounds"] for w in parts],
        "ops_per_round": len(parts[0]["fastest_ms"]),
        "known_defects": parts[0]["known_defects"],
        "failures": dict(sorted(failures.items())),
        "unexpected_failures": unexpected,
    }
    if args.trace:
        info["spans"] = parts[0]["spans"]
    print(json.dumps({"run": info}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not unexpected,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
