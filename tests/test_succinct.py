import random
from array import array
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fras import PlainBitvector, SparseBitvector, build_bitvector
from fras.succinct import ceil_log2_ratio

FIG1_BS_POSITIONS = (1, 7, 13, 15)


def naive_ranks(positions, universe):
    bits = [0] * (universe + 1)
    for p in positions:
        bits[p] = 1
    out = [0]
    for i in range(1, universe + 1):
        out.append(out[-1] + bits[i])
    return out


@pytest.mark.parametrize("kind", ["plain", "sparse"])
class TestGolden:
    def test_fig1_start_marks(self, kind):
        bv = build_bitvector(FIG1_BS_POSITIONS, 15, kind)
        assert bv.rank(5) == 1
        assert bv.select(2) == 7
        assert [bv.select(r) for r in range(1, 5)] == [1, 7, 13, 15]
        assert bv.rank(0) == 0
        assert bv.rank(15) == 4

    def test_single_bit(self, kind):
        bv = build_bitvector([1], 1, kind)
        assert bv.rank(1) == 1
        assert bv.select(1) == 1

    def test_rank_select_inverse(self, kind):
        rng = random.Random(23)
        positions = sorted(rng.sample(range(1, 10**6 + 1), 1000))
        bv = build_bitvector(positions, 10**6, kind)
        for r in range(1, 1001):
            assert bv.select(r) == positions[r - 1]
        for p in rng.sample(range(1, 10**6 + 1), 2000):
            expected = sum(1 for q in positions if q <= p)
            assert bv.rank(p) == expected
            if bv.rank(p) >= 1:
                assert bv.select(bv.rank(p)) <= p


@pytest.mark.parametrize("kind", ["plain", "sparse"])
@pytest.mark.parametrize("universe", [1, 2, 63, 64, 65, 127, 700, 4096])
@pytest.mark.parametrize("density", [0.0, 0.01, 0.1, 0.5, 1.0])
def test_exhaustive_small_universes(kind, universe, density):
    rng = random.Random(universe * 1000 + int(density * 100))
    if density == 0.0:
        count = 1  # a single set bit
    else:
        count = max(1, int(universe * density))
    positions = sorted(rng.sample(range(1, universe + 1), count))
    bv = build_bitvector(positions, universe, kind)
    ranks = naive_ranks(positions, universe)
    for i in range(universe + 1):
        assert bv.rank(i) == ranks[i]
    for r, p in enumerate(positions, start=1):
        assert bv.select(r) == p
        assert bv.rank(bv.select(r)) == r


def test_plain_and_sparse_agree():
    rng = random.Random(29)
    for _ in range(50):
        universe = rng.randint(1, 5000)
        count = rng.randint(1, universe)
        positions = sorted(rng.sample(range(1, universe + 1), count))
        plain = build_bitvector(positions, universe, "plain")
        sparse = build_bitvector(positions, universe, "sparse")
        for i in range(0, universe + 1, max(1, universe // 97)):
            assert plain.rank(i) == sparse.rank(i)
        for r in range(1, count + 1):
            assert plain.select(r) == sparse.select(r)


class TestErrors:
    def test_unsorted_positions(self):
        with pytest.raises(ValueError, match="invalid position set"):
            PlainBitvector([3, 2], 5)

    def test_duplicate_positions(self):
        with pytest.raises(ValueError, match="invalid position set"):
            SparseBitvector([2, 2], 5)

    def test_out_of_range_positions(self):
        with pytest.raises(ValueError, match="invalid position set"):
            PlainBitvector([6], 5)

    def test_zero_position(self):
        with pytest.raises(ValueError, match="invalid position set"):
            SparseBitvector([0, 3], 5)

    def test_empty_sparse_rejected(self):
        with pytest.raises(ValueError, match="invalid position set"):
            SparseBitvector([], 5)

    def test_bad_universe(self):
        with pytest.raises(ValueError, match="invalid position set"):
            PlainBitvector([], 0)

    @pytest.mark.parametrize("kind", ["plain", "sparse"])
    def test_rank_out_of_range(self, kind):
        bv = build_bitvector([1], 4, kind)
        with pytest.raises(ValueError, match="rank out of range"):
            bv.rank(5)
        with pytest.raises(ValueError, match="rank out of range"):
            bv.rank(-1)

    @pytest.mark.parametrize("kind", ["plain", "sparse"])
    def test_select_out_of_range(self, kind):
        bv = build_bitvector([2], 4, kind)
        with pytest.raises(ValueError, match="select out of range"):
            bv.select(0)
        with pytest.raises(ValueError, match="select out of range"):
            bv.select(2)

    @pytest.mark.parametrize("kind", ["plain", "sparse"])
    def test_positions_outside_64_bits(self, kind):
        with pytest.raises(ValueError, match="invalid position set"):
            build_bitvector([-1, 3], 5, kind)
        with pytest.raises(ValueError, match="invalid position set"):
            build_bitvector([1, 2**64], 2**64 - 1, kind)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown bitvector kind"):
            build_bitvector([1], 1, "rrr")


class TestSpace:
    def test_fig1_bound(self):
        bv = SparseBitvector(FIG1_BS_POSITIONS, 15)
        report = bv.space_report()
        # b=4, |B|=15: 4 * (2 + ceil(log2(3.75))) + 1 = 17
        assert report["bound_bits"] == 17
        assert report["payload_bits"] <= 17

    def test_all_ones_degenerate(self):
        b = 300
        bv = SparseBitvector(list(range(1, b + 1)), b)
        assert bv.low_width == 0
        assert len(bv._low_words) == 1  # every low slot is empty
        report = bv.space_report()
        assert report["payload_bits"] <= 2 * b + 1

    def test_plain_word_budget(self):
        bv = PlainBitvector([1, 64, 65], 65)
        report = bv.space_report()
        assert report["payload_bits"] == 64 * ((65 + 63) // 64 + 1)
        assert report["bound_bits"] == report["payload_bits"]

    def test_random_sweep_inequality(self):
        rng = random.Random(31)
        for _ in range(200):
            universe = rng.randint(1, 20000)
            count = rng.randint(1, universe)
            positions = sorted(rng.sample(range(1, universe + 1), count))
            bv = SparseBitvector(positions, universe)
            report = bv.space_report()
            bound = count * (2 + ceil_log2_ratio(universe, count)) + 1
            assert report["bound_bits"] == bound
            assert report["payload_bits"] <= bound


def test_ceil_log2_ratio():
    assert ceil_log2_ratio(1, 1) == 0
    assert ceil_log2_ratio(15, 4) == 2
    assert ceil_log2_ratio(16, 4) == 2
    assert ceil_log2_ratio(17, 4) == 3
    assert ceil_log2_ratio(3, 7) == 0


def test_ceil_log2_ratio_matches_definition():
    # The smallest k with q * 2**k >= p, found by doubling.
    def by_doubling(p, q):
        k = 0
        while q << k < p:
            k += 1
        return k

    top = (1 << 64) - 1
    cases = [(p, q) for p in range(0, 70) for q in range(1, 70)]
    cases += [(top - d, q) for d in range(4) for q in (1, 2, 3, 1 << 32, 1 << 63, top - 1, top)]
    cases += [(1 << 63, (1 << 63) - 1), ((1 << 63) + 1, 1), (top, (1 << 63) + 1)]
    for p, q in cases:
        assert ceil_log2_ratio(p, q) == by_doubling(p, q), (p, q)


def test_large_sampled_universe():
    rng = random.Random(37)
    universe = 10**7
    positions = sorted(rng.sample(range(1, universe + 1), 5000))
    for kind in ("plain", "sparse"):
        bv = build_bitvector(positions, universe, kind)
        for r in rng.sample(range(1, 5001), 300):
            assert bv.select(r) == positions[r - 1]
        for p in rng.sample(range(1, universe + 1), 300):
            assert bv.rank(p) == sum(1 for q in positions if q <= p)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=4000).flatmap(
        lambda u: st.tuples(
            st.just(u),
            st.sets(st.integers(min_value=1, max_value=u), min_size=1).map(sorted),
        )
    )
)
def test_rank_select_property(case):
    universe, positions = case
    ranks = naive_ranks(positions, universe)
    for kind in ("plain", "sparse"):
        bv = build_bitvector(positions, universe, kind)
        for i in range(0, universe + 1, 7):
            assert bv.rank(i) == ranks[i]
        assert bv.rank(universe) == len(positions)
        for r in range(1, len(positions) + 1):
            assert bv.select(r) == positions[r - 1]


@pytest.mark.parametrize("universe", [2**32 + 5, 2**63, 2**64 - 1])
def test_sparse_at_64_bit_universes(universe):
    rng = random.Random(universe)
    for count in (1, 2, 3, 64, 500):
        positions = sorted({rng.randint(1, universe) for _ in range(count)} | {universe})
        bv = SparseBitvector(positions, universe)
        for r, p in enumerate(positions, start=1):
            assert bv.select(r) == p
            assert bv.rank(p) == r
            assert bv.rank(p - 1) == r - 1
        assert bv.rank(universe) == len(positions)


@pytest.mark.parametrize("w", range(64))
def test_sparse_every_low_width(w):
    # b positions in a universe of b * 2**w give low width w.  Filling a
    # few words' worth of slots (``64 // w`` to a word) uses the last slot
    # of each word; at w == 63 the universe leaves room for one position.
    per = 64 // w if w else 64
    b = min(3 * per + 1, 2 ** (64 - w) - 1)
    universe = b << w
    # The positions sit in a window at the top of the universe, so their
    # low parts use the high bits of each slot; the window's ranks are
    # checked exhaustively.
    window = min(universe, 4 * b + 64)
    base = universe - window
    rng = random.Random(w)
    offsets = sorted(rng.sample(range(1, window + 1), b))
    bv = SparseBitvector([base + x for x in offsets], universe)
    assert bv.low_width == w
    ranks = naive_ranks(offsets, window)
    assert [bv.rank(base + i) for i in range(window + 1)] == ranks
    assert [bv.select(r) for r in range(1, b + 1)] == [base + x for x in offsets]


def mixed_word_positions(rng, universe):
    """Set bits laid out word by word in stretches of one pattern each:
    full 64-bit words, empty words (runs of 8+ make empty superblocks),
    a random density, or one bit per word."""
    positions = []
    nwords = (universe + 63) // 64
    w = 0
    while w < nwords:
        span = rng.choice((1, 3, 8, 9, 17, 40, rng.randint(1, 200)))
        mode = rng.choice(("full", "empty", "empty", "random", "single"))
        density = rng.random()
        for k in range(w, min(w + span, nwords)):
            base = 64 * k
            if mode == "full":
                positions.extend(range(base + 1, base + 65))
            elif mode == "random":
                positions.extend(base + b for b in range(1, 65) if rng.random() < density)
            elif mode == "single":
                positions.append(base + rng.randint(1, 64))
        w += span
    positions = [p for p in positions if p <= universe]
    return positions or [universe]


@pytest.mark.parametrize("align", [512, 64, 1])
@pytest.mark.parametrize("seed", [0, 1])
def test_rank_select_at_scale_built_and_loaded(seed, align):
    rng = random.Random(1000 * seed + align)
    universe = rng.randint(60_000, 100_000)
    universe -= universe % align
    if align == 1 and universe % 64 == 0:
        universe -= 1
    positions = mixed_word_positions(rng, universe)
    ranks = naive_ranks(positions, universe)
    # A loaded index builds its bitvectors with these same constructors.
    for kind in ("plain", "sparse"):
        bv = build_bitvector(positions, universe, kind)
        assert bv.num_set == len(positions)
        for r, p in enumerate(positions, start=1):
            assert bv.select(r) == p
            assert bv.rank(p) == r
            assert bv.rank(p - 1) == r - 1
        for i in range(0, universe + 1, 13):
            assert bv.rank(i) == ranks[i]
        assert bv.rank(universe) == len(positions)


def reference_tables(positions, universe, kind):
    """The bitvector's arrays, set one position at a time."""
    if kind == "plain":
        words = [0] * ((universe + 63) // 64 + 1)
        for p in positions:
            words[(p - 1) >> 6] |= 1 << ((p - 1) & 63)
        return {"_words": array("Q", words)}
    b = len(positions)
    w = max(0, (universe // b).bit_length() - 1)
    per = 64 // w if w else b
    low = [0] * -(-b // per)
    for r, p in enumerate(positions):
        low[r // per] |= ((p - 1) & ((1 << w) - 1)) << (r % per * w)
    buckets = [(p - 1) >> w for p in positions]
    starts = [bisect_left(buckets, k) for k in range(buckets[-1] + 2)]
    return {"_low_words": array("Q", low), "_bucket_start": array("I", starts)}


@pytest.mark.parametrize("kind", ["plain", "sparse"])
def test_tables_match_a_per_position_reference(kind):
    rng = random.Random(181)
    cases = [([1], 1), ([64, 65], 65), (list(range(1, 200)), 199), ([2**64 - 1], 2**64 - 1)]
    for _ in range(150):
        universe = rng.choice((rng.randint(1, 100), rng.randint(100, 5000), rng.randint(1, 2**40)))
        b = rng.randint(1, min(universe, 300))
        cases.append((sorted(rng.sample(range(1, universe + 1), b)), universe))
    for positions, universe in cases:
        if kind == "plain" and universe > 10**6:
            continue
        bv = build_bitvector(positions, universe, kind)
        for name, ref in reference_tables(positions, universe, kind).items():
            table = getattr(bv, name)
            assert (table.typecode, table.tobytes()) == (ref.typecode, ref.tobytes())
