"""One workload in one fresh interpreter; started by run.py.

    python worker.py --workload W --seed N --seconds S --trace 0|1
    python worker.py --workload W --seed N --setup-only

``--setup-only`` stops once the workload's fixed systems are validated
and its first input is built, and prints the CPU time the process has
used up to then.  Otherwise the worker runs the closed loop (one
client, each operation starts after the previous one returned) and
prints one JSON document as its last line.  Scratch files (DOT output,
spans) go to ``.bench_out/`` of the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from reference import reference_seconds, speed_factor

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# op_tail_ms percentile per workload: fixed, so that a change in the
# library's speed (and so in the op count) never switches it.  Each is the
# highest with at least 10 samples beyond it at the first baseline's op
# counts (expand ~176 ops, decide_int ~2150, decide_ff ~810, cli ~2130).
TAIL_PERCENTILE = {"expand": 90.0, "decide_int": 99.0, "decide_ff": 95.0, "cli": 99.0}
# operations in a traced run: fixed so that layer counts compare across commits
TRACE_OPS = {"expand": 50, "decide_int": 480, "decide_ff": 176, "cli": 56}
MEMORY_PROBE_CALLS = 5
REFERENCE_EVERY_S = 0.1  # wall time between machine-speed reference samples


def import_library(src: Path):
    """Import digsys from the checkout's own sources, never from elsewhere."""
    sys.path.insert(0, str(src))
    import digsys

    origin = Path(digsys.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"digsys was imported from {origin}, not from {src}")
    return digsys


def run_ops(ops, count=None, seconds=None, check=True, tracer=None, reference=None):
    """Run operations in a closed loop until ``count`` are done or
    ``seconds`` of wall time have passed; returns one record per operation.

    ``latency`` is the CPU time of this thread during the operation: the
    code under test is single-threaded and CPU-bound, so on a dedicated
    machine it equals the wall time, and on a shared one it leaves out the
    time other tenants held the CPU.  ``wall`` is kept beside it.  With a
    ``reference`` list, (time, seconds) machine-speed reference samples are
    appended to it every REFERENCE_EVERY_S, between operations, and once
    at the end."""
    records = []
    now = time.perf_counter()
    deadline = now + seconds if seconds is not None else None
    next_reference = now
    while True:
        now = time.perf_counter()
        if count is not None and len(records) >= count:
            break
        if deadline is not None and now >= deadline:
            break
        if reference is not None and now >= next_reference:
            reference.append((now, reference_seconds()))
            next_reference = now + REFERENCE_EVERY_S
        op = next(ops)
        rec = {"kind": op.kind, "failed": False}
        if tracer is not None:
            tracer.begin_op(len(records), op.kind)
        wall = rec["start"] = time.perf_counter()
        start = time.thread_time()
        try:
            result = op.run()
        except Exception:
            rec["failed"] = True
            rec["error"] = traceback.format_exc(limit=3)
            rec["label"], rec["decided"] = "raised", False
            result = None
        finally:
            rec["latency"] = time.thread_time() - start
            rec["wall"] = time.perf_counter() - wall
            if tracer is not None:
                tracer.end_op()
        if rec["failed"]:
            records.append(rec)
            continue
        out = op.outcome(result)
        rec.update(label=out.label, decided=out.decided, size=out.size, overshoot=out.overshoot)
        if check:
            try:
                op.check(result)
            except Exception as exc:  # a crash inside a check is a failure too
                rec["failed"] = True
                rec["error"] = f"{type(exc).__name__}: {exc} {op.info}"
        records.append(rec)
    if reference is not None:
        reference.append((time.perf_counter(), reference_seconds()))
    return records


def at_reference_speed(records: list[dict], reference: list[tuple]) -> None:
    """Set each record's ``scaled`` latency: its latency stated at the
    reference speed, using the samples taken just before and after it."""
    times = [t for t, _ in reference]
    for rec in records:
        i = bisect.bisect_right(times, rec["start"])
        around = reference[max(i - 1, 0)][1] + reference[min(i, len(reference) - 1)][1]
        rec["scaled"] = rec["latency"] * speed_factor(around / 2)


def tail(latencies: list[float], q: float) -> tuple[float, int]:
    """(value, samples beyond) of the nearest-rank ``q`` percentile."""
    ordered = sorted(latencies)
    rank = max(math.ceil(q / 100 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def summarize(records: list[dict], tail_percentile: float, key: str = "latency") -> dict:
    """Metrics and input shares of a run, from the ``key`` latencies."""
    lat = [r[key] for r in records]
    n = len(records)
    failed = sum(r["failed"] for r in records)
    tail_value, beyond = tail(lat, tail_percentile)
    shares = Counter(f"{r['kind']}:{r['label']}" for r in records)
    capped = [r["overshoot"] for r in records if r.get("overshoot") is not None]
    by_kind: dict[str, list[float]] = {}
    for r, value in zip(records, lat):
        by_kind.setdefault(r["kind"], []).append(value)
    return {
        "metrics": {
            "ops_per_s": n / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": tail_value * 1e3,
            "decided_ratio": sum(r["decided"] for r in records) / n,
            "failed_ratio": failed / n,
        },
        "attempted": n,
        "failed": failed,
        "tail_percentile": tail_percentile,
        "tail_samples_beyond": beyond,
        "busy_s": sum(lat),
        "busy_wall_s": sum(r["wall"] for r in records),
        "shares": {k: v / n for k, v in sorted(shares.items())},
        "kind_p50_ms": {k: statistics.median(v) * 1e3 for k, v in sorted(by_kind.items())},
        "capped_share": len(capped) / n,
        "overshoot_max": max(capped, default=0),
        "overshoot_mean": statistics.fmean(capped) if capped else 0.0,
        "errors": [r["error"] for r in records if r["failed"]][:5],
    }


def digest(records: list[dict]) -> list[tuple]:
    return [(r["kind"], r["label"], r.get("size")) for r in records]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_library(ROOT / "src")
    import workloads

    workload = workloads.make(args.workload, OUT_DIR / "tmp")
    ops = workload.ops(args.seed)
    first = next(ops)
    if args.setup_only:
        # CPU time rather than wall time: the time the process waited for a
        # CPU held by other tenants of the machine is left out
        print(json.dumps({"setup_s": time.process_time()}))
        return 0

    def stream():
        yield first
        yield from ops

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if not args.trace:
        samples: list[tuple] = []
        records = run_ops(stream(), seconds=args.seconds, reference=samples)
        at_reference_speed(records, samples)
        q = TAIL_PERCENTILE[args.workload]
        result.update(summarize(records, q, "scaled"))
        result["raw_metrics"] = summarize(records, q)["metrics"]
        result["raw_busy_s"] = sum(r["latency"] for r in records)
        result["speed_factor"] = statistics.median(r["scaled"] / r["latency"] for r in records)
        result["reference_samples"] = len(samples)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        result.update(trace_run(workload, args, stream()))
    print(json.dumps(result))
    return 0


def trace_run(workload, args, ops) -> dict:
    """A fixed set of operations untraced (checked), then traced, then
    once more with only digit_sequence probed for peak memory."""
    from tracing import Tracer

    count = TRACE_OPS[args.workload]
    plain_ref: list[tuple] = []
    plain = run_ops(ops, count=count, reference=plain_ref)
    at_reference_speed(plain, plain_ref)
    summary = summarize(plain, TAIL_PERCENTILE[args.workload])

    tracer = Tracer()
    tracer.install()
    traced_ref: list[tuple] = []
    try:
        traced = run_ops(
            workload.ops(args.seed), count=count, check=False, tracer=tracer, reference=traced_ref
        )
    finally:
        tracer.uninstall()
    at_reference_speed(traced, traced_ref)
    if digest(traced) != digest(plain):
        summary["failed"] += 1
        summary["errors"].append("traced operations gave other results than untraced ones")

    probe = Tracer()
    probe.install(memory_probe=True)
    try:
        probe_ops = workload.ops(args.seed)
        done = 0
        while done < count and probe.stats["digits.sequence"].calls < MEMORY_PROBE_CALLS:
            run_ops(probe_ops, count=1, check=False, tracer=probe)
            done += 1
    finally:
        probe.uninstall()

    layers = tracer.layer_metrics(probe.stats["digits.sequence"].peak_kb)
    # both passes at the reference speed, so machine drift between them cancels
    layers["trace.overhead_ratio"] = sum(r["scaled"] for r in traced) / sum(
        r["scaled"] for r in plain
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(span_file, "w", encoding="utf-8") as fh:
        for sid, name, start, end, parent, op_id in tracer.spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                 "parent": parent, "op": op_id}) + "\n")
    summary["layers"] = layers
    summary["missing"] = tracer.missing
    summary["spans"] = len(tracer.spans)
    summary["spans_dropped"] = tracer.dropped_spans
    summary["span_file"] = span_file.name
    return summary


if __name__ == "__main__":
    sys.exit(main())
