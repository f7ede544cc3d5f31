"""Seeded benchmark for digsys.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own fresh interpreter (``sys.executable``),
one after another, against the sources under ``src/`` of the checkout
this file sits in.  With ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` the per-layer metrics.  The last line of
standard output is one JSON object; the full results, with input
shares and environment, go to ``.bench_out/``.  The exit code is 0 only
when every output agreed with its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKER = HERE / "worker.py"
WORKLOADS = ("expand", "decide_int", "decide_ff", "cli")
SETUP_RUNS = 8  # half before the measured run, half after it
IMPORT_RUNS = 3
CHILD_TIMEOUT = 170

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("decided_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # string hashes (ring names feed every element hash) fixed across processes
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONSTARTUP", None)
    # the benchmark is single-threaded; without this numpy's OpenBLAS starts
    # a thread per CPU, whose start-up adds noise to the set-up CPU time
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} failed:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def setup_seconds(workload: str, seed: int, runs: int) -> list[float]:
    """CPU seconds, in each of ``runs`` fresh interpreters, from process
    start until the workload is ready for its first timed operation."""
    args = ["--workload", workload, "--seed", str(seed), "--setup-only"]
    return [run_child(args)["setup_s"] for _ in range(runs)]


def import_times() -> tuple[float, float]:
    """(digsys.cli import, numpy import) seconds from ``-X importtime`` in a
    fresh interpreter; medians of IMPORT_RUNS."""
    cli_s, numpy_s = [], []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import digsys.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing digsys.cli failed:\n{proc.stderr.strip()}")
        top, numpy = 0, 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line.split("|")
            name = parts[2]
            if not parts[1].strip().isdigit():
                continue
            cumulative = int(parts[1])
            if name.strip() in ("digsys", "digsys.cli") and not name[1:].startswith(" "):
                top += cumulative
            if name.strip() == "numpy":
                numpy = cumulative
        cli_s.append(top / 1e6)
        numpy_s.append(numpy / 1e6)
    return statistics.median(cli_s), statistics.median(numpy_s)


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    if trace:
        res = run_child(common + ["--trace", "1"])
        cli_s, numpy_s = import_times()
        res["layers"]["cli.import_s"] = cli_s
        res["layers"]["cli.import_numpy_s"] = numpy_s
        res["metrics_out"] = {k: res["layers"][k] for k in sorted(res["layers"])}
        return res
    # set-up times taken on both sides of the measured run span more of the
    # machine's speed phases than a block taken at once
    setups = setup_seconds(workload, seed, SETUP_RUNS // 2)
    res = run_child(common + ["--seconds", str(seconds), "--trace", "0"],
                    timeout=CHILD_TIMEOUT + seconds)
    setups += setup_seconds(workload, seed, SETUP_RUNS - SETUP_RUNS // 2)
    res["setup_runs_s"] = setups
    # stated at the reference speed of the measured run, which the set-up
    # runs enclose: the machine's speed phases last minutes, and reference
    # walks of their own, in the parent or in the set-up process, were too
    # short to track them
    res["raw_metrics"]["setup_s"] = statistics.median(setups)
    res["metrics"]["setup_s"] = res["raw_metrics"]["setup_s"] * res["speed_factor"]
    res["metrics"]["peak_rss_mb"] = res.pop("peak_rss_mb")
    res["metrics_out"] = {name: res["metrics"][name] for name, _ in END_TO_END}
    return res


def units(trace: int) -> dict:
    if trace:
        return {name: unit for name, unit, _ in LAYER_METRICS}
    return dict(END_TO_END)


def report(res: dict, trace: int) -> None:
    u = units(trace)
    print(f"workload {res['workload']}  seed {res['seed']}  python {res['python']}  "
          f"nproc {res['nproc']}  ops {res['attempted']}  failed {res['failed']}")
    raw = res.get("raw_metrics", {})
    for name, value in res["metrics_out"].items():
        note = f"  (unscaled {raw[name]:.6g})" if name in raw and name != "decided_ratio" else ""
        if name == "op_p50_ms":
            note += f"  (n={res['attempted']})"
        elif name == "op_tail_ms":
            note += f"  (p{res['tail_percentile']:g}, {res['tail_samples_beyond']} samples beyond)"
        elif name == "setup_s":
            note += f"  (CPU time, median of {len(res['setup_runs_s'])} fresh interpreters)"
        print(f"  {name:34s} {value:14.6g} {u[name]}{note}")
    print(f"  {'failed_ratio':34s} {res['metrics']['failed_ratio']:14.6g} ratio")
    if "speed_factor" in res:
        print(f"  op times are CPU time at the reference speed: measured x "
              f"{res['speed_factor']:.4f} (median over ops; {res['reference_samples']} reference "
              f"samples); unscaled {res['raw_busy_s']:.3f} s of CPU time against "
              f"{res['busy_wall_s']:.3f} s of wall time")
    shares = ", ".join(f"{k} {v:.3f}" for k, v in res["shares"].items())
    print(f"  shares: {shares}")
    print(f"  closure-capped share {res['capped_share']:.3f}, overshoot beyond the cap: "
          f"max {res['overshoot_max']}, mean {res['overshoot_mean']:.1f}")
    if trace and res["missing"]:
        print(f"  missing (reported as 0): {', '.join(res['missing'])}")
    for err in res["errors"]:
        print(f"  FAILED: {err.strip()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    results = {}
    for name in names:
        try:
            res = measure(name, args.seed, args.seconds, args.trace)
        except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        out_file = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out_file.write_text(json.dumps(res, indent=1, default=str), encoding="utf-8")
        report(res, args.trace)
        results[name] = res

    correct = all(r["failed"] == 0 for r in results.values())
    u = units(args.trace)
    if len(names) == 1:
        res = results[names[0]]
        line = {
            "correct": correct,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u[k]} for k, v in res["metrics_out"].items()},
        }
    else:
        line = {
            "correct": correct,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": {
                n: {k: {"value": v, "unit": u[k]} for k, v in r["metrics_out"].items()}
                for n, r in results.items()
            },
        }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
