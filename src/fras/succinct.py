"""Bit sequences with rank/select support.

Positions are 1-based throughout: ``rank(i)`` counts set bits in the
prefix ``[1..i]`` (``rank(0) == 0``) and ``select(r)`` returns the
position of the r-th set bit.  Two representations are provided: a plain
packed bitvector with a two-level rank directory, and a sparse high/low
split encoding for position sets that are small relative to the universe.
Neither keeps a select index: select bisects over the plain vector's rank
directory, or over the sparse vector's bucket table.  Both are immutable
after construction.

Construction is vectorized with numpy; the finished tables are exact-size
``array.array`` objects, because queries read them one element at a time,
which is faster on an ``array.array`` than on a numpy array.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

_WORDS_PER_SUPER = 8  # 512-bit superblocks


def ceil_log2_ratio(p: int, q: int) -> int:
    """Smallest k with q * 2**k >= p, i.e. ceil(log2(p / q)); 0 when p <= q."""
    # 2**k >= p / q exactly when 2**k >= ceil(p / q).
    return ((p + q - 1) // q - 1).bit_length() if p > q else 0


def _position_array(positions: Sequence[int], universe: int) -> np.ndarray:
    """The positions as a ``uint64`` array, checked strictly increasing in ``[1, universe]``.

    Positions reach ``2**64 - 1``, so all arithmetic on them stays in
    ``uint64``: ``int64`` overflows there, and numpy turns ``uint64``
    mixed with ``int64`` into ``float64``.
    """
    if universe < 1:
        raise ValueError("invalid position set: universe must be >= 1")
    try:
        pos = np.asarray(positions, dtype=np.uint64)
    except OverflowError:
        raise ValueError("invalid position set") from None
    if len(pos) and (pos[0] == 0 or int(pos[-1]) > universe or np.any(pos[1:] <= pos[:-1])):
        raise ValueError("invalid position set")
    return pos


def _exact_array(typecode: str, values: np.ndarray) -> array:
    """An ``array.array`` copy of ``values`` without spare capacity."""
    return array(typecode, array(typecode, values.astype(typecode, copy=False).tobytes()))


class PlainBitvector:
    """Packed 64-bit-word bitvector with O(1) rank.

    Select is a bisect over the rank directory: over the superblock counts,
    then over the at most eight word counts of one superblock.
    """

    kind = "plain"

    def __init__(self, positions: Sequence[int], universe: int):
        pos = _position_array(positions, universe)
        self.universe = universe
        self.num_set = len(pos)
        v = pos - 1
        words = np.zeros((universe + 63) // 64 + 1, np.uint64)
        np.bitwise_or.at(words, v >> 6, np.uint64(1) << (v & 63))
        self._words = _exact_array("Q", words)
        self._build_directories(words)

    def _build_directories(self, words: np.ndarray) -> None:
        """Set bits before each superblock, and before each word within its superblock."""
        counts = np.bitwise_count(words).astype(np.uint64)
        before = np.cumsum(counts) - counts
        supers = before[::_WORDS_PER_SUPER]
        self._supers = _exact_array("Q", supers)
        self._blocks = _exact_array("H", before - np.repeat(supers, _WORDS_PER_SUPER)[: len(words)])

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

    def space_report(self) -> dict[str, int]:
        payload = 64 * len(self._words)
        aux = 64 * len(self._supers) + 16 * len(self._blocks)
        return {"payload_bits": payload, "auxiliary_bits": aux, "bound_bits": payload}


class SparseBitvector:
    """High/low split encoding of a sparse position set.

    Values are split into ``w = max(0, floor(log2(universe / b)))`` low
    bits and a high part, the bucket index.  The low bits fill fixed slots,
    ``64 // w`` to a 64-bit word, so none straddles two words.  The high
    parts are held as a table of each bucket's first rank, which serves
    both queries: rank reads a bucket's range off it and bisects the low
    bits inside, and select bisects over it for the bucket.
    ``space_report`` counts ``b * w`` low bits as payload, and the unused
    slot bits and the bucket table as auxiliary.
    """

    kind = "sparse"

    def __init__(self, positions: Sequence[int], universe: int):
        pos = _position_array(positions, universe)
        b = len(pos)
        if not b:
            raise ValueError("invalid position set: sparse bitvector needs >= 1 set bit")
        self.universe = universe
        self.num_set = b
        w = max(0, (universe // b).bit_length() - 1)
        self._w = w
        self._mask = (1 << w) - 1

        # Rank r's low bits fill slot r % per of word r // per.  At w == 0
        # every slot is empty, and one word holds them all.
        per = self._per = 64 // w if w else b
        v = pos - 1
        slot = np.arange(b, dtype=np.uint64)
        low_words = np.zeros(-(-b // per), np.uint64)
        np.bitwise_or.at(low_words, slot // per, (v & self._mask) << (slot % per * w))
        self._low_words = _exact_array("Q", low_words)

        buckets = v >> w
        self._num_buckets = int(buckets[-1]) + 1
        # The first rank of each bucket, and num_set after the last one.
        starts = np.searchsorted(buckets, np.arange(self._num_buckets + 1, dtype=np.uint64))
        self._bucket_start = _exact_array("I" if b < 2**32 else "Q", starts)

    @property
    def low_width(self) -> int:
        return self._w

    def _low_at(self, r: int) -> int:
        per = self._per
        return self._low_words[r // per] >> (r % per * self._w) & self._mask

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
        per = self._per
        # First rank in the bucket whose low bits exceed the target.
        lo, hi = r0, r1
        while lo < hi:
            mid = (lo + hi) >> 1
            if lows[mid // per] >> (mid % per * w) & mask <= target:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def select(self, r: int) -> int:
        if r < 1 or r > self.num_set:
            raise ValueError("select out of range")
        bucket = bisect_right(self._bucket_start, r - 1) - 1
        return (bucket << self._w) + self._low_at(r - 1) + 1

    def space_report(self) -> dict[str, int]:
        b = self.num_set
        payload = b * self._w
        table = 8 * self._bucket_start.itemsize * len(self._bucket_start)
        aux = 64 * len(self._low_words) - payload + table
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
