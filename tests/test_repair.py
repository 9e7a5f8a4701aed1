import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fras.repair as repair_mod
from fras import (
    Grammar,
    Prng,
    expand,
    fibonacci_word,
    repair_compress,
    repetitive_text,
)
from helpers import fresh_violations, greedy_pair_count, naive_repair, random_text


class TestRepairGolden:
    def test_abab(self):
        g = repair_compress(b"abab")
        assert g.alphabet == (97, 98)
        assert g.rules == ((0, 1), (2, 2))

    def test_no_repeated_pair(self):
        g = repair_compress(b"abc")
        assert g.rules == ((0, 1, 2),)

    def test_single_char(self):
        g = repair_compress(b"a")
        assert g.rules == ((0,),)

    def test_aaa_counts_once(self):
        # One greedy occurrence of (a, a) is not enough to replace.
        g = repair_compress(b"aaa")
        assert g.rules == ((0, 0, 0),)

    def test_aaaa_counts_twice(self):
        g = repair_compress(b"aaaa")
        assert g.rules == ((0, 0), (1, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty text"):
            repair_compress(b"")

    def test_too_long_rejected(self):
        # Pair keys are int64; the length is checked before any byte is read.
        class Huge(bytes):
            def __len__(self):
                return 3 * 10**9

        with pytest.raises(ValueError, match="text too long"):
            repair_compress(Huge(b"ab"))


class TestRepairProperties:
    def test_round_trip_and_shape(self):
        rng = random.Random(41)
        for _ in range(60):
            t = random_text(rng, rng.randint(1, 500), rng.randint(1, 8))
            g = repair_compress(t)
            assert fresh_violations(g) == ()
            assert expand(g) == t
            assert all(len(b) == 2 for b in g.rules[:-1])

    def test_final_start_rule_has_no_repeated_pair(self):
        rng = random.Random(43)
        for _ in range(60):
            t = random_text(rng, rng.randint(2, 400), rng.randint(1, 4))
            g = repair_compress(t)
            start = g.rules[-1]
            for pr in set(zip(start, start[1:])):
                assert greedy_pair_count(start, pr) < 2

    def test_matches_naive_reference(self):
        rng = random.Random(47)
        for _ in range(120):
            t = random_text(rng, rng.randint(1, 160), rng.randint(1, 4))
            assert repair_compress(t) == naive_repair(t)

    def test_runs_match_naive(self):
        # Run-heavy inputs stress the overlap accounting.
        rng = random.Random(53)
        for _ in range(60):
            t = b"".join(
                bytes([rng.choice(b"ab")]) * rng.randint(1, 9) for _ in range(20)
            )
            assert repair_compress(t) == naive_repair(t)

    def test_vector_engine_matches_incremental(self, monkeypatch, engines):
        # The numpy rounds run to the end on their own and must produce the
        # grammar of a run that hands off before the first replacement.
        rng = random.Random(59)
        for _ in range(40):
            t = random_text(rng, rng.randint(2, 300), rng.randint(1, 4))
            expected = _forced_incremental(monkeypatch, t)
            engines.clear()
            with monkeypatch.context() as m:
                m.setattr(repair_mod, "_VECTOR_MIN_COUNT", 0)
                m.setattr(repair_mod, "_VECTOR_MIN_GAIN_SHIFT", 62)
                got = repair_compress(t)
            assert engines == ["vector"]
            assert got == expected

    def test_engine_handoff_matches(self, monkeypatch):
        # A high gain threshold makes the vector phase bail out mid-way,
        # exercising the handoff into the incremental engine; a count floor
        # of 0 or 8 moves the hand-off to a different round.
        rng = random.Random(67)
        for k in range(80):
            t = random_text(rng, rng.randint(8, 300), rng.randint(1, 4))
            expected = naive_repair(t)
            monkeypatch.setattr(repair_mod, "_VECTOR_MIN_COUNT", 8 * (k & 1))
            monkeypatch.setattr(repair_mod, "_VECTOR_MIN_GAIN_SHIFT", 2)
            got = repair_compress(t)
            monkeypatch.undo()
            assert got == expected

    @pytest.mark.parametrize("floor, gain_shift", [(2, 0), (5, 62)], ids=["2", "5"])
    def test_batch_rounds_match_naive(self, monkeypatch, engines, floor, gain_shift):
        # [2] hands off before the first round, so the incremental engine
        # replaces every round; [5] lets the numpy rounds take every pair
        # with at least 5 occurrences and leaves rounds of 2-4 to the tail.
        rng = random.Random(71)
        monkeypatch.setattr(repair_mod, "_VECTOR_MIN_COUNT", floor)
        monkeypatch.setattr(repair_mod, "_VECTOR_MIN_GAIN_SHIFT", gain_shift)
        for _ in range(60):
            t = random_text(rng, rng.randint(2, 400), rng.randint(1, 4))
            engines.clear()
            assert repair_compress(t) == naive_repair(t)
            assert engines in (["vector"], ["vector", "incremental"])
        for _ in range(30):
            t = b"".join(bytes([rng.choice(b"ab")]) * rng.randint(1, 9) for _ in range(40))
            assert repair_compress(t) == naive_repair(t)

    def test_wide_pair_keys_match(self, monkeypatch):
        # With all 256 byte values and a few rules made in numpy, the
        # incremental engine starts with more than 256 codes, so its
        # initial grouping sorts 32-bit keys instead of 16-bit ones.
        rng = random.Random(73)
        codes_at_handoff = []
        incremental = repair_mod._incremental_rounds

        def record(arr, sigma, bodies):
            codes_at_handoff.append(sigma + len(bodies))
            return incremental(arr, sigma, bodies)

        for _ in range(20):
            chunks = [rng.randbytes(4)] * 2
            for _ in range(rng.randint(2, 5)):
                piece = random_text(rng, rng.randint(2, 16), 4) + rng.randbytes(rng.randint(0, 6))
                chunks += [piece] * rng.randint(2, 3)
            rng.shuffle(chunks)
            t = bytes(rng.sample(range(256), 256)) + b"".join(chunks)
            assert len(t) <= 600
            expected = naive_repair(t)
            with monkeypatch.context() as m:
                m.setattr(repair_mod, "_VECTOR_MIN_COUNT", 0)
                m.setattr(repair_mod, "_VECTOR_MIN_GAIN_SHIFT", 62)
                assert repair_compress(t) == expected
            assert _forced_incremental(monkeypatch, t) == expected
            codes_at_handoff.clear()
            with monkeypatch.context() as m:
                m.setattr(repair_mod, "_VECTOR_MIN_COUNT", 3)
                m.setattr(repair_mod, "_VECTOR_MIN_GAIN_SHIFT", 62)
                m.setattr(repair_mod, "_incremental_rounds", record)
                assert repair_compress(t) == expected
            assert len(codes_at_handoff) == 1 and codes_at_handoff[0] > 256

    @pytest.mark.parametrize(
        "shape",
        [(1024, 16, 0.02), (256, 64, 0.004), (1024, 16, 0.001), (1024, 64, 0.001)],
        ids=["random-access-tiny", "substring-scan-tiny", "build-tiny", "64KiB"],
    )
    def test_default_handoff_runs_both_engines(self, monkeypatch, engines, shape):
        # With the module's own constants these texts replace pairs in the
        # numpy rounds first and finish in the incremental engine.
        t = repetitive_text(*shape, seed=3)
        rules_at_handoff = []
        incremental = repair_mod._incremental_rounds

        def record(arr, sigma, bodies):
            rules_at_handoff.append(len(bodies))
            return incremental(arr, sigma, bodies)

        with monkeypatch.context() as m:
            m.setattr(repair_mod, "_incremental_rounds", record)
            got = repair_compress(t)
        assert engines == ["vector", "incremental"]
        assert rules_at_handoff[0] >= 1
        assert len(got.rules) - 1 > rules_at_handoff[0]
        assert got == _forced_incremental(monkeypatch, t)


@pytest.fixture
def engines(monkeypatch):
    """Names of the engines ``repair_compress`` called, in call order."""
    calls: list[str] = []
    vector = repair_mod._vector_rounds
    incremental = repair_mod._incremental_rounds

    def spy_vector(*args):
        calls.append("vector")
        return vector(*args)

    def spy_incremental(*args):
        calls.append("incremental")
        return incremental(*args)

    monkeypatch.setattr(repair_mod, "_vector_rounds", spy_vector)
    monkeypatch.setattr(repair_mod, "_incremental_rounds", spy_incremental)
    return calls


def _forced_incremental(monkeypatch, text: bytes) -> Grammar:
    """``repair_compress`` handing off at once to the incremental engine."""
    with monkeypatch.context() as m:
        m.setattr(repair_mod, "_VECTOR_MIN_COUNT", 1 << 62)
        g = repair_compress(text)
    return g


@settings(max_examples=80, deadline=None)
@given(st.binary(min_size=1, max_size=90))
def test_repair_equals_naive_property(data):
    assert repair_compress(data) == naive_repair(data)


class TestFibonacciWord:
    def test_base_cases(self):
        assert fibonacci_word(1) == b"b"
        assert fibonacci_word(2) == b"a"
        assert fibonacci_word(3) == b"ab"

    def test_order_seven(self):
        w = fibonacci_word(7)
        assert len(w) == 13
        assert w == b"abaababaabaab"

    def test_lengths_are_fibonacci(self):
        f1, f2 = 1, 1
        for k in range(1, 31):
            assert len(fibonacci_word(k)) == f1
            f1, f2 = f2, f1 + f2

    def test_recurrence(self):
        for k in range(3, 20):
            assert fibonacci_word(k) == fibonacci_word(k - 1) + fibonacci_word(k - 2)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            fibonacci_word(0)

    def test_budget_overflow(self):
        with pytest.raises(ValueError, match="length overflow"):
            fibonacci_word(48)


class TestRepetitiveText:
    def test_single_copy_no_mutation_is_base(self):
        t = repetitive_text(64, 1, 0.0, seed=5)
        assert len(t) == 64
        assert set(t) <= set(b"acgt")

    def test_zero_rate_is_periodic(self):
        t = repetitive_text(50, 7, 0.0, seed=6)
        assert len(t) == 350
        base = t[:50]
        assert t == base * 7

    def test_deterministic(self):
        a = repetitive_text(100, 20, 0.05, seed=7)
        b = repetitive_text(100, 20, 0.05, seed=7)
        assert a == b

    def test_seed_changes_output(self):
        a = repetitive_text(100, 5, 0.05, seed=8)
        b = repetitive_text(100, 5, 0.05, seed=9)
        assert a != b

    def test_mutations_change_copies(self):
        t = repetitive_text(200, 4, 0.1, seed=10)
        base = t[:200]
        assert any(t[i * 200 : (i + 1) * 200] != base for i in range(1, 4))

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            repetitive_text(0, 1, 0.0)
        with pytest.raises(ValueError):
            repetitive_text(1, 0, 0.0)
        with pytest.raises(ValueError):
            repetitive_text(1, 1, 1.5)

    def test_uses_bench_prng(self):
        # The base string is drawn directly off the seeded generator.
        rng = Prng(11)
        alphabet = b"acgt"
        expected = bytes(alphabet[rng.next_u64() % 4] for _ in range(16))
        assert repetitive_text(16, 1, 0.0, seed=11) == expected


def test_fibonacci_rule_growth_is_linear():
    for k in range(10, 26):
        g = repair_compress(fibonacci_word(k))
        assert len(g.rules) - 1 <= 2 * k
