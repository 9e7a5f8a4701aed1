"""Seeded end-to-end and per-layer benchmark of the fras library.

Run from the root of a checkout:

    python3 benchmark/run.py --workload random-access --seed 1 --seconds 15 --trace 0
    python3 benchmark/run.py --smoke

One run builds its inputs from ``--seed``, drives the library in ``src/``
through its public functions, checks every answer and prints the metrics
named in ``BENCHMARK.json``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics": {name: {"value",
"unit"}}}``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones, and the run's spans are written
to ``benchmark/out/``.  ``--smoke`` runs every workload on a tiny corpus in
both modes and checks the output against ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def import_library() -> None:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import fras  # noqa: F401
    except ImportError as exc:
        sys.exit(f"run.py: cannot import fras from {ROOT / 'src'}: {exc}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def main(argv=None) -> int:
    import_library()
    import workloads

    ap = argparse.ArgumentParser(description="Seeded benchmark of the fras library.")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0, help="length of the timed window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="use the smoke mode's tiny corpora")
    ap.add_argument("--smoke", action="store_true", help="run every workload tiny, then check the output")
    args = ap.parse_args(argv)
    if args.smoke:
        import smoke

        return smoke.main()
    if args.workload is None or args.seconds <= 0:
        ap.error("--workload and a positive --seconds are required")

    env = environment(args)
    result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(f"fras benchmark, workload {args.workload}")
    print("env " + json.dumps(env))
    for note in result.notes:
        print(note)
    for failure in result.checks.failures:
        print("FAILED " + failure)
    for name, (value, unit) in result.metrics.items():
        print(f"{name:32} {value!r} {unit}")
    if result.tracer is not None:
        path = OUT / f"trace-{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}.json"
        result.tracer.write(path, {"env": env})
        print(f"spans: {len(result.tracer.records)} written to {path.relative_to(ROOT)}, {result.tracer.dropped} dropped")
    checks = result.checks
    print(
        json.dumps(
            {
                "correct": checks.failed == 0 and checks.attempted > 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in result.metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
