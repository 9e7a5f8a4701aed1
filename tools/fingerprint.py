"""Print what the library builds and answers for the benchmark's texts.

Run from the root of a checkout:

    python3 tools/fingerprint.py
    python3 tools/fingerprint.py --src ../other/src

Each of the benchmark's three texts, ``repetitive_text`` at seed 1, prints
one JSON line: the SHA-256 of ``grammar_to_bytes`` of its RePair grammar,
whether ``grammar_from_bytes`` gives the grammar back from those bytes and
from ``grammar_to_text``, and per index kind the SHA-256 of the ``.fix``
bytes, the ``run_benchmark`` checksums of 1,000 extracts each of lengths 1
and 1000 at seed 7 and ``extract_memo_max_bits``.  Each ``.fix`` is also
loaded with ``index_from_bytes``: the line says whether ``index_to_bytes``
of the loaded index gives the same bytes, and holds the loaded index's
checksums.  Two checkouts that print the same lines build, write and read
the same grammars and indexes and answer the same queries.  ``--src``
points at the ``src`` directory of the checkout to fingerprint, which is
this checkout's by default.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# name -> repetitive_text(base_len, copies, mutation_rate, seed), the shapes
# of benchmark/workloads.py; folklore-access uses the substring-scan text.
TEXTS = {
    "random-access": (16384, 32, 0.02, 1),
    "substring-scan": (1024, 512, 0.001, 1),
    "build": (10240, 32, 0.001, 1),
}


def fingerprint(name: str) -> dict:
    from fras import (
        binarize_cnf,
        build_folklore,
        build_fras,
        grammar_from_bytes,
        grammar_to_bytes,
        grammar_to_text,
        index_from_bytes,
        index_to_bytes,
        repair_compress,
        repetitive_text,
        run_benchmark,
    )

    text = repetitive_text(*TEXTS[name])
    g = repair_compress(text)
    indexes = (build_folklore(binarize_cnf(g)), build_fras(g, "sparse"), build_fras(g, "plain"))
    fgz = grammar_to_bytes(g)
    out = {
        "text": name,
        "bytes": len(text),
        "grammar_sha256": hashlib.sha256(fgz).hexdigest(),
        "fgz_round_trip": grammar_from_bytes(fgz) == g,
        "fgt_round_trip": grammar_from_bytes(grammar_to_text(g).encode("ascii")) == g,
    }

    def checksums(idx):
        report = run_benchmark(idx, lengths=(1, 1000), iterations=1000, seed=7)
        return [rec.checksum for rec in report.records]

    for idx in indexes:
        fix = index_to_bytes(idx)
        loaded = index_from_bytes(fix)
        out[idx.kind] = {
            "fix_sha256": hashlib.sha256(fix).hexdigest(),
            "checksums": checksums(idx),
            "extract_memo_max_bits": idx.extract_memo_max_bits(),
            "reload_same_bytes": index_to_bytes(loaded) == fix,
            "reload_checksums": checksums(loaded),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(SRC), help="src directory holding the fras package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    for name in TEXTS:
        print(json.dumps(fingerprint(name)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
