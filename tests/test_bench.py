import random
from zlib import crc32

import pytest

from fras import (
    Prng,
    build_folklore,
    build_fras,
    binarize_cnf,
    expand,
    gen_positions,
    parse_csv,
    repair_compress,
    report_to_csv,
    run_benchmark,
)
from helpers import reference_prng_stream


class TestPrng:
    def test_seed_zero_matches_reference(self):
        # Frozen transcript of the independent implementation in helpers.
        frozen = [0x509946A41CD733A3, 0xD805FCAC6824536E, 0xDADC02F3E3CF7BE3]
        assert reference_prng_stream(0, 3) == frozen
        rng = Prng(0)
        assert [rng.next_u64() for _ in range(3)] == frozen

    @pytest.mark.parametrize("seed", [0, 1, 42, 0xDEADBEEF, 2**64 - 1])
    def test_matches_reference_stream(self, seed):
        rng = Prng(seed)
        assert [rng.next_u64() for _ in range(500)] == reference_prng_stream(seed, 500)

    def test_determinism(self):
        a = Prng(12345)
        b = Prng(12345)
        assert [a.next_u64() for _ in range(1_000_000)] == [
            b.next_u64() for _ in range(1_000_000)
        ]

    def test_neighbor_seeds_differ(self):
        outs = set()
        for seed in range(100):
            outs.add(Prng(seed).next_u64())
        assert len(outs) == 100

    def test_values_are_64_bit(self):
        rng = Prng(7)
        for _ in range(1000):
            assert 0 <= rng.next_u64() < 2**64


class TestGenPositions:
    def test_full_length_query_pins_position_one(self):
        rng = Prng(1)
        assert gen_positions(rng, 20, 20, 50) == [1] * 50

    def test_range(self):
        rng = Prng(2)
        n, ln = 1000, 17
        for p in gen_positions(rng, n, ln, 100_000):
            assert 1 <= p <= n - ln + 1

    def test_deterministic(self):
        a = gen_positions(Prng(3), 500, 10, 1000)
        b = gen_positions(Prng(3), 500, 10, 1000)
        assert a == b

    def test_length_exceeds_text(self):
        with pytest.raises(ValueError):
            gen_positions(Prng(4), 5, 6, 1)


class TestRunBenchmark:
    def test_checksum_matches_oracle(self, fig1, fig1_text):
        idx = build_fras(fig1, "sparse")
        report = run_benchmark(idx, lengths=(1,), iterations=15, seed=77, corpus="fig1")
        positions = gen_positions(Prng(77), 15, 1, 15)
        expected = 0
        for p in positions:
            expected = crc32(fig1_text[p - 1 : p], expected)
        assert report.records[0].checksum == expected

    def test_zero_iterations(self, fig1):
        idx = build_fras(fig1, "plain")
        report = run_benchmark(idx, lengths=(1, 2), iterations=0, seed=1)
        assert report.records == ()
        csv_text = report_to_csv(report)
        assert csv_text.splitlines() == [
            "corpus,index,substring_len,iterations,mean_us,checksum,seed"
        ]

    def test_negative_iterations_rejected(self, fig1):
        idx = build_fras(fig1, "plain")
        with pytest.raises(ValueError, match="iterations"):
            run_benchmark(idx, lengths=(1,), iterations=-5, seed=1)

    def test_same_seed_same_checksums(self, fig1):
        idx = build_fras(fig1, "sparse")
        a = run_benchmark(idx, lengths=(1, 3), iterations=200, seed=5)
        b = run_benchmark(idx, lengths=(1, 3), iterations=200, seed=5)
        assert [r.checksum for r in a.records] == [r.checksum for r in b.records]

    def test_checksums_agree_across_kinds(self):
        rng = random.Random(127)
        t = bytes(rng.choice(b"abcd") for _ in range(3000))
        g = repair_compress(t)
        indexes = [
            build_folklore(binarize_cnf(g)),
            build_fras(g, "plain"),
            build_fras(g, "sparse"),
        ]
        reports = [
            run_benchmark(idx, lengths=(1, 10, 100), iterations=300, seed=9)
            for idx in indexes
        ]
        sums = [[r.checksum for r in rep.records] for rep in reports]
        assert sums[0] == sums[1] == sums[2]

    def test_length_larger_than_text(self, fig1):
        idx = build_fras(fig1, "plain")
        with pytest.raises(ValueError):
            run_benchmark(idx, lengths=(100,), iterations=5, seed=0)

    def test_latencies_positive(self, fig1):
        idx = build_fras(fig1, "sparse")
        report = run_benchmark(idx, lengths=(1,), iterations=50, seed=3)
        rec = report.records[0]
        assert rec.mean_latency_us > 0
        assert rec.total_us > 0
        assert rec.iterations == 50


class TestCsv:
    def test_round_trip(self, fig1):
        idx = build_fras(fig1, "sparse")
        report = run_benchmark(
            idx, lengths=(1, 5), iterations=20, seed=11, corpus="fig1"
        )
        rows = parse_csv(report_to_csv(report))
        assert len(rows) == 2
        for row, rec in zip(rows, report.records):
            assert row["corpus"] == "fig1"
            assert row["index"] == "fras-sparse"
            assert row["substring_len"] == rec.substring_length
            assert row["iterations"] == rec.iterations
            assert row["mean_us"] == rec.mean_latency_us
            assert row["checksum"] == rec.checksum
            assert row["seed"] == 11

    def test_rejects_other_text(self):
        with pytest.raises(ValueError):
            parse_csv("hello\n1,2,3\n")
