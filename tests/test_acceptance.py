"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The randomized-corpora fixture is shared across
the equivalence, extraction and trace criteria, so the first of them pays
the build cost.
"""

import hashlib
import random
import time
from contextlib import contextmanager

import pytest

from fras import (
    SparseBitvector,
    binarize_cnf,
    build_bitvector,
    build_folklore,
    build_fras,
    expand,
    fibonacci_word,
    gen_positions,
    grammar_from_bytes,
    grammar_to_bytes,
    grammar_to_text,
    index_from_bytes,
    index_to_bytes,
    parse_csv,
    repair_compress,
    repetitive_text,
    run_benchmark,
    sort_and_renumber,
)
from fras.cli import main as cli_main
from fras.prng import Prng
from fras.succinct import ceil_log2_ratio
from helpers import FIG1_GRAMMAR, FIG1_TEXT, random_grammar, random_text


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:2d} FAIL  {desc}")
        raise
    print(f"[acceptance] criterion {num:2d} PASS  {desc}")


class Corpus:
    __slots__ = ("name", "text", "grammar", "fras_plain", "fras_sparse", "cnf", "folklore")

    def __init__(self, name, text):
        self.name = name
        self.text = text
        self.grammar = repair_compress(text)
        self.fras_plain = build_fras(self.grammar, "plain")
        self.fras_sparse = build_fras(self.grammar, "sparse")
        self.cnf = sort_and_renumber(binarize_cnf(self.grammar))
        self.folklore = build_folklore(self.cnf)


@pytest.fixture(scope="module")
def corpora():
    rng = random.Random(0xF0A5)
    cases = [(f"fib{k}", fibonacci_word(k)) for k in (12, 16, 21, 25)]
    cases.append(("rep300", repetitive_text(100, 3, 0.0, seed=1)))
    cases.append(("rep10k", repetitive_text(200, 50, 0.01, seed=2)))
    cases.append(("rep20k", repetitive_text(500, 40, 0.005, seed=3)))
    cases.append(("rep100k", repetitive_text(1000, 100, 0.002, seed=4)))
    sizes = [100, 100_000]
    while len(sizes) < 92:
        sizes.append(int(10 ** rng.uniform(2.0, 4.0)))
    for i, n in enumerate(sizes):
        sigma = 2 + (i % 15)
        cases.append((f"rand{i}_s{sigma}_n{n}", random_text(rng, n, sigma)))
    assert len(cases) >= 100
    return [Corpus(name, text) for name, text in cases]


def test_criterion_01_fig1_golden_file():
    t0 = time.perf_counter()
    with criterion(1, "Fig-1 golden structures and accesses"):
        idx = build_fras(FIG1_GRAMMAR, "sparse")
        assert idx.unique_lengths == (2, 6, 15)
        m = len(idx.grammar.rules)
        marked = {idx.rule_marks.select(r) for r in range(1, idx.rule_marks.num_set + 1)}
        assert [1 if j in marked else 0 for j in range(1, m + 1)] == [1, 0, 1, 1]
        bits = ["0"] * 15
        for r in range(1, idx.start_marks.num_set + 1):
            bits[idx.start_marks.select(r) - 1] = "1"
        assert "".join(bits) == "100000100000101"
        for p in range(1, 16):
            assert idx.access(p) == FIG1_TEXT[p - 1]
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_triple_oracle_equivalence(corpora):
    t0 = time.perf_counter()
    with criterion(2, "triple-oracle agreement over >= 100 corpora"):
        assert len(corpora) >= 100
        rng = random.Random(2)
        for c in corpora:
            text = c.text
            assert expand(c.grammar) == text
            n = len(text)
            if n <= 10_000:
                positions = range(1, n + 1)
            else:
                positions = [rng.randint(1, n) for _ in range(10_000)]
            folk = c.folklore.access
            plain = c.fras_plain.access
            sparse = c.fras_sparse.access
            for p in positions:
                expected = text[p - 1]
                assert folk(p) == expected
                assert plain(p) == expected
                assert sparse(p) == expected
        assert time.perf_counter() - t0 < 300


def test_criterion_03_substring_extraction(corpora):
    with criterion(3, "random substring extraction matches text slices"):
        rng = random.Random(3)
        all_lengths = (1, 10, 100, 1000)
        for c in corpora:
            n = len(c.text)
            lengths = [ln for ln in all_lengths if ln <= n]
            indexes = (c.folklore, c.fras_plain, c.fras_sparse)
            for i in range(10_000):
                ln = lengths[i % len(lengths)]
                p = rng.randint(1, n - ln + 1)
                got = indexes[i % 3].extract(p, ln)
                assert got == c.text[p - 1 : p - 1 + ln]


def test_criterion_04_succinct_correctness():
    with criterion(4, "exhaustive rank/select agreement with naive bit arrays"):
        rng = random.Random(4)
        for universe in (1, 2, 63, 64, 65, 1000, 4096):
            for density in (None, 0.01, 0.1, 0.5, 1.0):
                count = 1 if density is None else max(1, int(universe * density))
                positions = sorted(rng.sample(range(1, universe + 1), count))
                prefix = [0] * (universe + 1)
                for p in positions:
                    prefix[p] = 1
                for i in range(1, universe + 1):
                    prefix[i] += prefix[i - 1]
                for kind in ("plain", "sparse"):
                    bv = build_bitvector(positions, universe, kind)
                    for i in range(universe + 1):
                        assert bv.rank(i) == prefix[i]
                    for r, p in enumerate(positions, start=1):
                        assert bv.select(r) == p
        universe = 10**7
        positions = sorted(rng.sample(range(1, universe + 1), 4000))
        for kind in ("plain", "sparse"):
            bv = build_bitvector(positions, universe, kind)
            for p in rng.sample(range(1, universe + 1), 400):
                assert bv.rank(p) == sum(1 for q in positions if q <= p)
            for r in rng.sample(range(1, 4001), 400):
                assert bv.select(r) == positions[r - 1]


def test_criterion_05_space_bound(corpora, tmp_path, capsys):
    with criterion(5, "sparse payload within the stated bit bound"):
        rng = random.Random(5)
        # directly constructed vectors across densities and universes
        for _ in range(300):
            universe = rng.randint(1, 50_000)
            count = rng.randint(1, universe)
            positions = sorted(rng.sample(range(1, universe + 1), count))
            bv = SparseBitvector(positions, universe)
            report = bv.space_report()
            bound = count * (2 + ceil_log2_ratio(universe, count)) + 1
            assert report["payload_bits"] <= bound
        # the vectors inside every sparse index built for the suite
        for c in corpora:
            for bv in (c.fras_sparse.rule_marks, c.fras_sparse.start_marks):
                report = bv.space_report()
                assert report["payload_bits"] <= report["bound_bits"]
        # cmd_space: measured payload <= bound + reported auxiliary bits
        for c in random.Random(55).sample(corpora, 8):
            gpath = tmp_path / f"{c.name}.fgz"
            ipath = tmp_path / f"{c.name}.fix"
            gpath.write_bytes(grammar_to_bytes(c.grammar))
            assert cli_main(["index", "--grammar", str(gpath), "--output", str(ipath)]) == 0
            capsys.readouterr()
            assert cli_main(["space", "--index", str(ipath)]) == 0
            out = capsys.readouterr().out
            rows = {}
            for line in out.strip().splitlines()[1:]:
                label, ceil_bits, _ = line.split(",")
                rows[label] = int(ceil_bits)
            assert rows["measured_payload"] <= rows["fras_bound"] + rows["measured_auxiliary"]


def test_criterion_06_cnf_descent_equivalence(corpora):
    with criterion(6, "identical visited-rule traces on CNF grammars"):
        rng = random.Random(6)
        for c in corpora:
            fras_cnf = build_fras(c.cnf, "sparse")
            assert fras_cnf.grammar == c.cnf  # rule sorting is idempotent
            n = c.folklore.n
            for _ in range(1000):
                p = rng.randint(1, n)
                folk_byte, folk_trace = c.folklore.access_trace(p)
                fras_byte, fras_trace = fras_cnf.access_trace(p)
                assert folk_byte == fras_byte
                assert folk_trace == fras_trace


def test_criterion_07_fibonacci_scaling():
    with criterion(7, "rule counts grow linearly on Fibonacci words"):
        for k in range(10, 31):
            g = repair_compress(fibonacci_word(k))
            rules = len(g.rules) - 1
            assert rules <= 2 * k


def test_criterion_08_benchmark_protocol(tmp_path, capsys):
    with criterion(8, "seeded protocol: identical sequences, matching checksums"):
        text = repetitive_text(512, 400, 0.01, seed=8)  # ~200 KB
        g = repair_compress(text)
        gpath = tmp_path / "bench.fgz"
        gpath.write_bytes(grammar_to_bytes(g))
        ipath = tmp_path / "bench.fix"
        assert cli_main(["index", "--grammar", str(gpath), "--output", str(ipath)]) == 0
        capsys.readouterr()

        # defaults: lengths 1,10,100,1000 at 10,000 iterations each
        csvs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = cli_main(
                ["bench", "--index", str(ipath), "--seed", "1234", "--out", str(out)]
            )
            assert code == 0
            capsys.readouterr()
            csvs.append(parse_csv(out.read_text()))
        assert [r["substring_len"] for r in csvs[0]] == [1, 10, 100, 1000]
        assert all(r["iterations"] == 10_000 for r in csvs[0])
        assert [r["checksum"] for r in csvs[0]] == [r["checksum"] for r in csvs[1]]

        # same positions regardless of index kind, and matching checksums
        n = len(text)
        seq_a = gen_positions(Prng(1234), n, 1, 100)
        seq_b = gen_positions(Prng(1234), n, 1, 100)
        assert seq_a == seq_b
        sparse_sums = [r["checksum"] for r in csvs[0]]
        for build in (
            lambda: build_fras(g, "plain"),
            lambda: build_folklore(sort_and_renumber(binarize_cnf(g))),
        ):
            report = run_benchmark(build(), iterations=10_000, seed=1234)
            assert [rec.checksum for rec in report.records] == sparse_sums


CRITERION_09_GRAMMAR_SHA256 = "9abf2d8c699b0b36dbdc198f3a343d5d02e62d16d3353a5916235a961dd9b746"


def test_criterion_09_performance_smoke():
    t0 = time.perf_counter()
    with criterion(9, "10 MB corpus: sparse length-1 access under 50 us"):
        text = repetitive_text(10240, 1024, 0.001, seed=99)
        assert len(text) == 10 * 1024 * 1024
        g = repair_compress(text)
        # The grammar is pinned: engine changes may only change speed.
        assert hashlib.sha256(grammar_to_bytes(g)).hexdigest() == CRITERION_09_GRAMMAR_SHA256
        idx = build_fras(g, "sparse")
        report = run_benchmark(idx, lengths=(1,), iterations=10_000, seed=42)
        mean_us = report.records[0].mean_latency_us
        print(f"[acceptance]   measured length-1 mean: {mean_us:.2f} us")
        assert mean_us < 50.0
        assert time.perf_counter() - t0 < 120


def test_criterion_10_serialization_round_trips():
    with criterion(10, "byte-identical serialization with preserved answers"):
        rng = random.Random(10)
        builders = (
            lambda g: build_fras(g, "sparse"),
            lambda g: build_fras(g, "plain"),
            lambda g: build_folklore(sort_and_renumber(binarize_cnf(g))),
        )
        for i in range(100):
            if i % 2:
                g = random_grammar(rng, max_rules=14)
            else:
                g = repair_compress(random_text(rng, rng.randint(1, 500), rng.randint(1, 6)))
            blob = grammar_to_bytes(g)
            g2 = grammar_from_bytes(blob)
            assert g2 == g
            assert grammar_to_bytes(g2) == blob
            assert grammar_from_bytes(grammar_to_text(g).encode("ascii")) == g

            idx = builders[i % 3](g)
            data = index_to_bytes(idx)
            loaded = index_from_bytes(data)
            assert index_to_bytes(loaded) == data
            n = idx.n
            text = expand(g)
            for _ in range(20):
                p = rng.randint(1, n)
                ln = rng.randint(1, min(50, n - p + 1))
                assert loaded.extract(p, ln) == text[p - 1 : p - 1 + ln]
                assert loaded.access(p) == idx.access(p)
