"""Deterministic query benchmark: seeded position streams and CSV reports.

For each substring length the harness pre-generates uniform positions from
one PRNG stream (position generation is excluded from the clock), times
the whole extraction batch with a monotonic clock, and folds every
returned byte into a CRC-32 checksum so the work cannot be optimized
away.  The same seed therefore drives the identical query sequence
against every index kind.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from zlib import crc32

from .prng import Prng

DEFAULT_LENGTHS = (1, 10, 100, 1000)
DEFAULT_ITERATIONS = 10_000
CSV_HEADER = "corpus,index,substring_len,iterations,mean_us,checksum,seed"


@dataclass(frozen=True)
class LengthRecord:
    substring_length: int
    iterations: int
    mean_latency_us: float
    total_us: float
    checksum: int


@dataclass(frozen=True)
class BenchReport:
    corpus: str
    index_kind: str
    seed: int
    lengths: tuple[int, ...]
    iterations: int
    records: tuple[LengthRecord, ...]


def gen_positions(rng: Prng, n: int, length: int, count: int) -> list[int]:
    """1-based start positions, ``1 + next() mod (n - length + 1)``.

    The modulo mapping carries a bias of at most span/2**64, which is
    accepted for reproducibility's sake.
    """
    if length > n:
        raise ValueError("substring length exceeds text length")
    span = n - length + 1
    nxt = rng.next_u64
    return [1 + nxt() % span for _ in range(count)]


def run_benchmark(
    index,
    lengths=DEFAULT_LENGTHS,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = 0,
    corpus: str = "corpus",
) -> BenchReport:
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    lengths = tuple(lengths)
    n = index.n
    for ln in lengths:
        if ln > n:
            raise ValueError("substring length exceeds text length")
    records: list[LengthRecord] = []
    if iterations > 0:
        rng = Prng(seed)
        extract = index.extract
        for length in lengths:
            positions = gen_positions(rng, n, length, iterations)
            checksum = 0
            t0 = time.perf_counter()
            for p in positions:
                checksum = crc32(extract(p, length), checksum)
            total_us = (time.perf_counter() - t0) * 1e6
            records.append(
                LengthRecord(length, iterations, total_us / iterations, total_us, checksum)
            )
    return BenchReport(corpus, index.kind, seed, lengths, iterations, tuple(records))


def report_to_csv(report: BenchReport) -> str:
    corpus = report.corpus.replace(",", "_")
    lines = [CSV_HEADER]
    for rec in report.records:
        lines.append(
            f"{corpus},{report.index_kind},{rec.substring_length},"
            f"{rec.iterations},{rec.mean_latency_us!r},{rec.checksum},{report.seed}"
        )
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[dict]:
    """Rows of a bench CSV with numeric fields restored."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("not a bench CSV")
    rows = []
    for ln in lines[1:]:
        corpus, kind, length, iters, mean_us, checksum, seed = ln.split(",")
        rows.append(
            {
                "corpus": corpus,
                "index": kind,
                "substring_len": int(length),
                "iterations": int(iters),
                "mean_us": float(mean_us),
                "checksum": int(checksum),
                "seed": int(seed),
            }
        )
    return rows
