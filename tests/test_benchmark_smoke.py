"""The benchmark's smoke mode must pass against the library in ``src/``.

``benchmark/run.py --smoke`` runs every workload on a tiny corpus, traced
and untraced, and checks answers, checksums and the metric names; it
exits 1 on any problem.  A library change that breaks the benchmark's
rank/select proxies or its checksum protocol fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
