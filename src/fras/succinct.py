"""Bit sequences with rank/select support.

Positions are 1-based throughout: ``rank(i)`` counts set bits in the
prefix ``[1..i]`` (``rank(0) == 0``) and ``select(r)`` returns the
position of the r-th set bit.  Two representations are provided: a plain
packed bitvector with a two-level rank directory, and a sparse high/low
split encoding for position sets that are small relative to the universe.
Neither keeps a select index: select bisects over the plain vector's rank
directory, or over the sparse vector's bucket table.  Both are immutable
after construction.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Sequence

_WORDS_PER_SUPER = 8  # 512-bit superblocks


def ceil_log2_ratio(p: int, q: int) -> int:
    """Smallest k with q * 2**k >= p, i.e. ceil(log2(p / q)); 0 when p <= q."""
    k = 0
    v = q
    while v < p:
        v += v
        k += 1
    return k


def _check_positions(positions: Sequence[int], universe: int) -> None:
    if universe < 1:
        raise ValueError("invalid position set: universe must be >= 1")
    prev = 0
    for p in positions:
        if p <= prev or p > universe:
            raise ValueError("invalid position set")
        prev = p


class PlainBitvector:
    """Packed 64-bit-word bitvector with O(1) rank.

    Select is a bisect over the rank directory: over the superblock counts,
    then over the at most eight word counts of one superblock.
    """

    kind = "plain"

    def __init__(self, positions: Sequence[int], universe: int):
        _check_positions(positions, universe)
        self.universe = universe
        self.num_set = len(positions)
        nwords = (universe + 63) // 64 + 1
        words = array("Q", bytes(8 * nwords))
        for p in positions:
            words[(p - 1) >> 6] |= 1 << ((p - 1) & 63)
        self._words = words
        self._build_directories()

    @classmethod
    def from_words(cls, words: Sequence[int], universe: int, num_set: int) -> "PlainBitvector":
        """Rebuild from packed words (deserialization); directories are recomputed."""
        bv = cls.__new__(cls)
        bv.universe = universe
        bv.num_set = num_set
        bv._words = array("Q", words)
        if len(bv._words) != (universe + 63) // 64 + 1:
            raise ValueError("invalid position set: word count mismatch")
        tail = universe & 63
        spare = bv._words[-1] | (bv._words[-2] >> tail if tail else 0)
        if spare:
            raise ValueError("invalid position set: bits beyond universe")
        if bv._build_directories() != num_set:
            raise ValueError("invalid position set: popcount mismatch")
        return bv

    def _build_directories(self) -> int:
        """Build the rank directory; returns the number of set bits."""
        supers = array("Q")
        blocks = array("H", bytes(2 * len(self._words)))
        total = 0
        rel = 0
        for w, word in enumerate(self._words):
            if w % _WORDS_PER_SUPER == 0:
                supers.append(total)
                rel = 0
            blocks[w] = rel
            c = word.bit_count()
            rel += c
            total += c
        self._supers = supers
        self._blocks = blocks
        return total

    def rank(self, i: int) -> int:
        if i == 0:
            return 0
        if i < 0 or i > self.universe:
            raise ValueError("rank out of range")
        w = (i - 1) >> 6
        mask = (1 << (((i - 1) & 63) + 1)) - 1
        return (
            self._supers[w >> 3]
            + self._blocks[w]
            + (self._words[w] & mask).bit_count()
        )

    def select(self, r: int) -> int:
        if r < 1 or r > self.num_set:
            raise ValueError("select out of range")
        # Last superblock, then last word in it, whose preceding count is below r.
        s = bisect_left(self._supers, r) - 1
        need = r - self._supers[s]
        blocks = self._blocks
        first = s * _WORDS_PER_SUPER
        w = bisect_left(blocks, need, first, min(first + _WORDS_PER_SUPER, len(blocks))) - 1
        need -= blocks[w]
        word = self._words[w]
        for _ in range(need - 1):
            word &= word - 1
        return (w << 6) + (word & -word).bit_length()

    def words(self) -> array:
        return self._words

    def space_report(self) -> dict[str, int]:
        payload = 64 * len(self._words)
        aux = 64 * len(self._supers) + 16 * len(self._blocks)
        return {"payload_bits": payload, "auxiliary_bits": aux, "bound_bits": payload}


class SparseBitvector:
    """High/low split encoding of a sparse position set.

    Values are split into ``w = max(0, floor(log2(universe / b)))`` low
    bits, stored packed, and bucket indices encoded in unary in a plain
    bitvector (b ones, one zero per bucket).  A table of each bucket's
    first rank serves both queries: rank reads a bucket's range off it and
    bisects the low bits inside, and select bisects over it for the bucket.
    """

    kind = "sparse"

    def __init__(self, positions: Sequence[int], universe: int):
        _check_positions(positions, universe)
        if not positions:
            raise ValueError("invalid position set: sparse bitvector needs >= 1 set bit")
        b = len(positions)
        self.universe = universe
        self.num_set = b
        w = max(0, (universe // b).bit_length() - 1)
        self._w = w
        self._mask = (1 << w) - 1

        low_words = array("Q", bytes(8 * ((b * w + 63) // 64 + 1)))
        high_positions = []
        max_bucket = (positions[-1] - 1) >> w
        for r, p in enumerate(positions):
            v = p - 1
            if w:
                bit = r * w
                low = v & self._mask
                low_words[bit >> 6] |= (low << (bit & 63)) & 0xFFFFFFFFFFFFFFFF
                spill = (bit & 63) + w - 64
                if spill > 0:
                    low_words[(bit >> 6) + 1] |= low >> (w - spill)
            high_positions.append(r + 1 + (v >> w))
        self._low_words = low_words
        self._high = PlainBitvector(high_positions, b + max_bucket + 1)
        self._num_buckets = max_bucket + 1
        self._bucket_start = self._build_bucket_starts(positions)

    def _build_bucket_starts(self, positions: Sequence[int]) -> array:
        starts = array("I" if self.num_set < 2**32 else "Q", [0]) * (self._num_buckets + 1)
        w = self._w
        prev = -1
        for r, p in enumerate(positions):
            k = (p - 1) >> w
            for kk in range(prev + 1, k + 1):
                starts[kk] = r
            prev = k
        starts[self._num_buckets] = self.num_set
        return starts

    @classmethod
    def from_parts(
        cls, universe: int, num_set: int, w: int, low_words: Sequence[int], high: PlainBitvector
    ) -> "SparseBitvector":
        """Rebuild from serialized parts; the bucket table is recomputed.

        The positions are decoded in one pass over the high words: the r-th
        set bit (0-based) at bit offset q lies in bucket q - r.
        """
        bv = cls.__new__(cls)
        bv.universe = universe
        bv.num_set = num_set
        if num_set < 1 or w != max(0, (universe // num_set).bit_length() - 1):
            raise ValueError("invalid position set: bad low width")
        bv._w = w
        bv._mask = (1 << w) - 1
        bv._low_words = array("Q", low_words)
        if len(bv._low_words) != (num_set * w + 63) // 64 + 1:
            raise ValueError("invalid position set: low array size mismatch")
        bv._high = high
        if high.num_set != num_set:
            raise ValueError("invalid position set: high popcount mismatch")
        bv._num_buckets = high.universe - num_set
        if bv._num_buckets < 1:
            raise ValueError("invalid position set: high universe too small")
        positions = []
        r = 0
        for k, word in enumerate(high.words()):
            base = k << 6
            while word:
                low = word & -word
                bucket = base + low.bit_length() - 1 - r
                positions.append((bucket << w) + bv._low_at(r) + 1)
                word ^= low
                r += 1
        _check_positions(positions, universe)
        if (positions[-1] - 1) >> w != bv._num_buckets - 1:
            raise ValueError("invalid position set: high bits inconsistent")
        bv._bucket_start = bv._build_bucket_starts(positions)
        return bv

    @property
    def low_width(self) -> int:
        return self._w

    @property
    def high(self) -> PlainBitvector:
        return self._high

    def low_words(self) -> array:
        return self._low_words

    def _low_at(self, r: int) -> int:
        w = self._w
        bit = r * w
        chunk = self._low_words[bit >> 6] >> (bit & 63)
        spill = (bit & 63) + w - 64
        if spill > 0:
            chunk |= self._low_words[(bit >> 6) + 1] << (w - spill)
        return chunk & self._mask

    def rank(self, i: int) -> int:
        if i == 0:
            return 0
        if i < 0 or i > self.universe:
            raise ValueError("rank out of range")
        w = self._w
        v = i - 1
        k = v >> w
        if k >= self._num_buckets:
            return self.num_set
        starts = self._bucket_start
        r0 = starts[k]
        r1 = starts[k + 1]
        if r0 == r1 or w == 0:
            # w == 0 means every entry in bucket k has value exactly k.
            return r1
        mask = self._mask
        target = v & mask
        lows = self._low_words
        # First rank in the bucket whose low bits exceed the target.
        lo, hi = r0, r1
        while lo < hi:
            mid = (lo + hi) >> 1
            bit = mid * w
            low = lows[bit >> 6] >> (bit & 63)
            spill = (bit & 63) + w - 64
            if spill > 0:
                low |= lows[(bit >> 6) + 1] << (w - spill)
            if low & mask <= target:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def select(self, r: int) -> int:
        if r < 1 or r > self.num_set:
            raise ValueError("select out of range")
        bucket = bisect_right(self._bucket_start, r - 1) - 1
        if self._w:
            return (bucket << self._w) + self._low_at(r - 1) + 1
        return bucket + 1

    def space_report(self) -> dict[str, int]:
        b = self.num_set
        payload = b * self._w + self._high.universe
        high_report = self._high.space_report()
        aux = (
            (high_report["payload_bits"] - self._high.universe)
            + high_report["auxiliary_bits"]
            + (64 * len(self._low_words) - b * self._w)
            + 8 * self._bucket_start.itemsize * len(self._bucket_start)
        )
        bound = b * (2 + ceil_log2_ratio(self.universe, b)) + 1
        return {"payload_bits": payload, "auxiliary_bits": aux, "bound_bits": bound}


Bitvector = PlainBitvector | SparseBitvector


def build_bitvector(
    positions: Sequence[int], universe: int, kind: str = "plain"
) -> Bitvector:
    if kind == "plain":
        return PlainBitvector(positions, universe)
    if kind == "sparse":
        return SparseBitvector(positions, universe)
    raise ValueError(f"unknown bitvector kind: {kind!r}")
