"""Smoke tests of the benchmark itself, at tiny run lengths.

    python3 -m pytest perfbench/test_smoke.py

They check that every metric named in BENCHMARK.json is printed for
every workload, that a wrong library answer is caught by the oracles
and counted as failed, and that the benchmark refuses to run without
the library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

worker.import_library(ROOT / "src")

import digsys  # noqa: E402
import digsys.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        tracing.LAYER_METRICS
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def failed_ratio(name: str, count: int) -> float:
    workload = workloads.make(name, ROOT / ".bench_out" / "tmp")
    records = worker.run_ops(workload.ops(3), count=count)
    return worker.summarize(records, worker.TAIL_PERCENTILE[name])["metrics"]["failed_ratio"]


def test_wrong_verdict_raises_failed_ratio(monkeypatch):
    assert failed_ratio("decide_int", 16) == 0
    real = digsys.decide_fep

    def flipped(system, *args, **kwargs):
        verdict = real(system, *args, **kwargs)
        if verdict.answer == "yes":
            verdict.answer = "no"
            verdict.certificate = {"cycle": ()}
        return verdict

    monkeypatch.setattr(digsys, "decide_fep", flipped)
    assert failed_ratio("decide_int", 16) > 0


def test_wrong_digits_raise_failed_ratio(monkeypatch):
    real = digsys.DigitSystem.digit_sequence

    def dropped(self, *args, **kwargs):
        seq = real(self, *args, **kwargs)
        return type(seq)(seq.digits[1:], seq.kind, seq.steps, seq.preperiod, seq.period, seq.cap)

    monkeypatch.setattr(digsys.DigitSystem, "digit_sequence", dropped)
    assert failed_ratio("expand", 5) > 0


def test_unstable_cli_output_raises_failed_ratio(monkeypatch):
    real = digsys.cli.main
    seen = []

    def chatty(argv):
        code = real(argv)
        if argv in seen:
            print(" ")  # still valid JSON, but no longer byte-identical
        seen.append(argv)
        return code

    monkeypatch.setattr(digsys.cli, "main", chatty)
    assert failed_ratio("cli", 30) > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "expand", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
