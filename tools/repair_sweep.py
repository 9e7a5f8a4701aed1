"""Time ``repair_compress`` over a fixed sweep of text sizes.

Run from the root of a checkout:

    python3 tools/repair_sweep.py --repeats 5
    python3 tools/repair_sweep.py --src ../other/src

Every size runs in a fresh Python process, so one size's heap does not
set another's peak RSS.  Each prints one JSON line: the text's length,
the best, the median and the interquartile range of ``--repeats`` timed
``repair_compress`` calls (the range is 0 for one repeat), the process's
``ru_maxrss`` in MB read right after the first of them (text generation
included; heap left over from the later ones cannot raise it) and the
SHA-256 of ``grammar_to_bytes`` of the grammar, which two checkouts
compare to show that they build the same grammar.  ``--src`` points at
the ``src`` directory of the checkout to measure, which is this
checkout's by default.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# name -> repetitive_text(base_len, copies, mutation_rate, seed).  The three
# workload names use the shapes of benchmark/workloads.py; the 10 MiB text
# is the acceptance test's criterion-9 corpus.
SIZES = {
    "4KiB": (256, 16, 0.001, 2),
    "64KiB": (1024, 64, 0.001, 2),
    "random-access": (16384, 32, 0.02, 2),
    "substring-scan": (1024, 512, 0.001, 2),
    "build": (10240, 32, 0.001, 2),
    "2MiB": (2048, 1024, 0.001, 2),
    "10MiB": (10240, 1024, 0.001, 99),
}


def measure(name: str, repeats: int) -> dict:
    """Run in the child: time the build of one size's text."""
    from fras import repair_compress, repetitive_text
    from fras.formats import grammar_to_bytes

    text = repetitive_text(*SIZES[name])
    times = []
    for i in range(repeats):
        t0 = time.perf_counter()
        g = repair_compress(text)
        times.append(time.perf_counter() - t0)
        if i == 0:
            maxrss_mb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive") if repeats > 1 else (0, 0, 0)
    return {
        "size": name,
        "bytes": len(text),
        "rules": len(g.rules),
        "best_s": round(min(times), 4),
        "median_s": round(statistics.median(times), 4),
        "iqr_s": round(q3 - q1, 4),
        "repeats": repeats,
        "maxrss_mb": maxrss_mb,
        "sha256": hashlib.sha256(grammar_to_bytes(g)).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="timed builds per size")
    parser.add_argument("--src", default=str(SRC), help="src directory holding the fras package")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.child:
        sys.path.insert(0, args.src)
        print(json.dumps(measure(args.child, args.repeats)))
        return 0
    for name in SIZES:
        child = ["--child", name, "--repeats", str(args.repeats), "--src", args.src]
        subprocess.run([sys.executable, __file__, *child], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
