"""Smoke mode and self-test: every workload on a tiny corpus, in seconds.

Runs ``run.py`` once per workload and trace mode as a user would, then
checks that the run exits 0, that its last line is the result object,
that every metric ``BENCHMARK.json`` names is printed with its unit and
no other, and that every correctness check passed.  It then feeds a
deliberately wrong index to the answer check to show that it counts
wrong answers as failed operations.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(name: str, trace: int, expected: dict[str, str]) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
           "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{name} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{where}: last line is not a JSON object"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"{where}: missing {sorted(set(expected) - set(metrics))}, extra {sorted(set(metrics) - set(expected))}")
    for metric, unit in expected.items():
        got = metrics.get(metric)
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != unit:
            problems.append(f"{where}: {metric} has unit {got.get('unit')!r}, BENCHMARK.json says {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {metric} = {value!r}")
        elif trace == 0 and value <= 0:
            problems.append(f"{where}: end-to-end metric {metric} = {value!r}")
    print(f"{where}: {len(metrics)} metrics, attempted {result['attempted']}, failed {result['failed']}")
    return problems


def wrong_answers_are_counted() -> list[str]:
    import workloads
    from fras import Prng, build_fras, repair_compress, repetitive_text

    text = repetitive_text(256, 16, 0.02, seed=3)
    idx = build_fras(repair_compress(text), "sparse")

    class Faulty:
        n = idx.n

        def extract(self, p, length):
            if p % 5 == 0:
                raise IndexError("deliberate")
            out = idx.extract(p, length)
            return bytes([out[0] ^ 1]) + out[1:] if p % 5 == 1 else out

    from speed import Speedometer

    run = workloads.QueryRun()
    workloads.run_queries(run, Faulty(), 4, Prng(1), 0.0, 500, None, Speedometer(), 64)
    checks = workloads.Checks()
    workloads.check_answers(checks, text, 4, run.positions, run.answers)
    wrong = sum(1 for p in run.positions if p % 5 in (0, 1))
    if checks.attempted != len(run.positions) or checks.failed != wrong or wrong == 0:
        return [f"faulty index: attempted {checks.attempted}, failed {checks.failed}, expected {wrong} failures"]
    print(f"faulty index: {checks.failed} of {checks.attempted} wrong answers counted as failed")
    return []


def main() -> int:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json names other workloads than workloads.WORKLOADS")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            problems += check_run(name, trace, expected[trace])
    problems += wrong_answers_are_counted()
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0
