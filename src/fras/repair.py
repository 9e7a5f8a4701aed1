"""Pair-replacement grammar compression.

``repair_compress`` repeatedly replaces the most frequent adjacent symbol
pair with a fresh rule until no pair occurs twice, then keeps the
remaining sequence as the (arbitrarily long) start rule.  Occurrences are
counted non-overlapping, left to right, so ``aaaa`` holds two ``(a, a)``
pairs and ``aaa`` one; ties between equally frequent pairs go to the
smallest ``(first, second)`` code pair.

Two engines implement the same replacement sequence, one after the other,
at every input size.  The text starts in a numpy engine whose rounds each
count every pair and replace the winner in one pass over the whole array.
It keeps going while a round replaces at least ``_BATCH_MIN_COUNT + (len
>> _VECTOR_MIN_GAIN_SHIFT)`` occurrences, then hands the array to an
incremental engine, a linked list with a lazy max-heap of integer pair
keys, whose cost grows with the occurrences a round replaces rather than
with the length.  It replaces a round's occurrences in numpy when there
are at least ``_BATCH_MIN_COUNT`` of them and one by one otherwise.  The
hand-off point and the batch size only affect speed, never the produced
grammar.  Pair keys are int64, which holds them for texts below 3e9 bytes.
"""

from __future__ import annotations

import heapq
from array import array

import numpy as np

from .grammar import Grammar

_BINCOUNT_MAX_BINS = 1 << 22
# Rounds with fewer occurrences are cheaper one by one than as numpy
# passes, over the occurrences or, all the more, over the whole array.
_BATCH_MIN_COUNT = 64
# A whole-array round also has to replace this share of the length.
_VECTOR_MIN_GAIN_SHIFT = 7


def repair_compress(text: bytes) -> Grammar:
    """Build a binary-rule grammar whose start rule derives ``text``."""
    if not text:
        raise ValueError("empty text")
    raw = np.frombuffer(text, dtype=np.uint8)
    present = np.flatnonzero(np.bincount(raw, minlength=256))
    table = np.zeros(256, dtype=np.uint8)
    table[present] = np.arange(present.size)
    codes = np.frombuffer(text.translate(table.tobytes()), dtype=np.uint8)
    # Codes stay below 256 + len(text); int32 makes the array passes cheaper.
    arr = codes.astype(np.int32 if len(text) < 1 << 31 else np.int64)
    alphabet = tuple(present.tolist())
    bodies: list[tuple[int, ...]] = []
    arr, exhausted = _vector_rounds(arr, len(alphabet), bodies)
    start = arr.tolist() if exhausted else _incremental_rounds(arr, len(alphabet), bodies)
    bodies.append(tuple(start))
    return Grammar(alphabet, tuple(bodies))


# --- vectorized engine ---------------------------------------------------


def _vector_rounds(
    arr: np.ndarray, sigma: int, bodies: list[tuple[int, ...]]
) -> tuple[np.ndarray, bool]:
    """Replace pairs while a round pays for its pass; True once none repeats."""
    # One key buffer for every round: a fresh array each round costs
    # about as much in page faults as computing the keys.
    buf = np.empty(arr.size, dtype=np.int64)
    while True:
        ncodes = sigma + len(bodies)
        best = _best_pair(arr, ncodes, buf)
        if best is None:
            return arr, True
        count, a, b = best
        if count < _BATCH_MIN_COUNT + (arr.size >> _VECTOR_MIN_GAIN_SHIFT):
            return arr, False
        bodies.append((a, b))
        arr = _replace_pair(arr, a, b, ncodes)


def _pair_keys(arr: np.ndarray, base: int, buf: np.ndarray | None = None) -> np.ndarray:
    """``left * base + right`` for every adjacency, computed in int64."""
    out = None if buf is None else buf[: arr.size - 1]
    keys = np.multiply(arr[:-1], base, dtype=np.int64, out=out)
    keys += arr[1:]
    return keys


def _best_pair(arr: np.ndarray, ncodes: int, buf: np.ndarray) -> tuple[int, int, int] | None:
    """Most frequent pair under greedy non-overlapping counting.

    Returns (count, a, b) maximizing count with the smallest (a, b) on
    ties, or None once every count drops below 2.
    """
    keys = _pair_keys(arr, ncodes, buf)
    if ncodes * ncodes <= _BINCOUNT_MAX_BINS:
        counts = np.bincount(keys)
        _apply_run_correction(arr, counts, None, ncodes)
        top = int(counts.max()) if counts.size else 0
        if top < 2:
            return None
        key = int(np.argmax(counts))
    else:
        uniq, counts = np.unique(keys, return_counts=True)
        _apply_run_correction(arr, counts, uniq, ncodes)
        top = int(counts.max()) if counts.size else 0
        if top < 2:
            return None
        key = int(uniq[np.argmax(counts)])
    return top, key // ncodes, key % ncodes


def _apply_run_correction(
    arr: np.ndarray, counts: np.ndarray, uniq: np.ndarray | None, ncodes: int
) -> None:
    """Deduct overlapped occurrences of equal pairs inside symbol runs.

    A run of t adjacencies of the same symbol counts ``floor((t+1)/2)``
    greedily, so ``floor(t/2)`` of the raw adjacencies are overlaps.
    """
    eq_idx = np.flatnonzero(arr[:-1] == arr[1:])
    if not eq_idx.size:
        return
    seg_start = np.empty(eq_idx.size, dtype=bool)
    seg_start[0] = True
    np.not_equal(np.diff(eq_idx), 1, out=seg_start[1:])
    seg_ids = np.cumsum(seg_start) - 1
    seg_len = np.bincount(seg_ids)
    syms = arr[eq_idx[seg_start]].astype(np.int64)
    overlaps = seg_len // 2
    run_keys = syms * (ncodes + 1)
    if uniq is None:
        np.subtract.at(counts, run_keys, overlaps)
    else:
        np.subtract.at(counts, np.searchsorted(uniq, run_keys), overlaps)


def _replace_pair(arr: np.ndarray, a: int, b: int, new_sym: int) -> np.ndarray:
    mask = arr[:-1] == a
    mask &= arr[1:] == b
    idx = np.flatnonzero(mask)
    if a == b:
        # Consecutive hits overlap; keep alternating ones per run.
        seg_start = np.empty(idx.size, dtype=bool)
        seg_start[0] = True
        np.not_equal(np.diff(idx), 1, out=seg_start[1:])
        seg_first = idx[seg_start][np.cumsum(seg_start) - 1]
        idx = idx[((idx - seg_first) & 1) == 0]
    arr[idx] = new_sym
    return np.delete(arr, idx + 1)


# --- incremental engine --------------------------------------------------


def _incremental_rounds(arr: np.ndarray, sigma: int, bodies: list[tuple[int, ...]]) -> list[int]:
    """Finish the replacement sequence over a doubly linked list.

    Every pair is keyed by the integer ``a * base + b``, so key order is
    ``(a, b)`` order.  A position's pair never returns to an earlier value,
    since each change brings in a fresh symbol; so all occurrences of a
    pair are recorded in one pass (the initial grouping, or the round that
    creates its newer symbol), in ascending position order and without
    duplicates.  ``pair_at[i]`` is the key of the pair starting at live
    position ``i``, or -1 when no pair there is worth tracking, which
    validates a recorded occurrence with one lookup.

    The four position arrays are ``array('q')`` with numpy views on the
    same memory: a round with few occurrences edits them one by one, a
    round with at least ``_BATCH_MIN_COUNT`` edits them in numpy.
    """
    n = arr.size
    if n < 2:
        return arr.tolist()
    ncodes = sigma + len(bodies)
    # Every code the tail can create stays below ncodes + n.
    base = ncodes + n
    keys = _pair_keys(arr, base)
    # Group adjacencies by pair, each group in position order.  Keys over
    # the current codes fit the narrowest unsigned type, which numpy
    # radix-sorts when it has at most 16 bits.
    dense = _pair_keys(arr, ncodes).astype(np.min_scalar_type(ncodes * ncodes - 1))
    order = np.argsort(dense, kind="stable")
    del dense
    starts, sizes = _runs(keys[order])
    pair_at_v = np.full(n, -1, dtype=np.int64)
    pair_at_v[:-1] = keys
    pair_at_v[order[starts[sizes < 2]]] = -1
    multi = sizes >= 2
    mkeys = keys[order[starts[multi]]].tolist()
    mstarts = starts[multi].tolist()
    msizes = sizes[multi].tolist()
    del keys, starts, sizes, multi

    positions = np.arange(-1, n + 1, dtype=np.int64)
    positions[-1] = -1
    pair_at, vals, nxt, prv = (
        array("q", x.astype(np.int64, copy=False).tobytes())
        for x in (pair_at_v, arr, positions[2:], positions[:-2])
    )
    del pair_at_v, positions
    views = tuple(np.frombuffer(x, dtype=np.int64) for x in (vals, nxt, prv, pair_at))
    _, nxt_v, _, pair_at_v = views

    # Occurrences are a slice of ``order`` (initial pairs), an array (pairs
    # made by a batch round) or a list (pairs made one by one).
    occ: dict[int, slice | np.ndarray | list[int]] = {
        k: slice(s, s + c) for k, s, c in zip(mkeys, mstarts, msizes)
    }
    cnt: dict[int, int] = dict(zip(mkeys, msizes))
    # Lazy max-heap of (-claim, key): a claim never undercounts the greedy
    # count, and each key has at most one entry.
    heap = [(-c, k) for k, c in zip(mkeys, msizes)]
    heapq.heapify(heap)
    del mkeys, mstarts, msizes
    heappush = heapq.heappush
    heappop = heapq.heappop

    while heap:
        claim, key = heappop(heap)
        claim = -claim
        c = cnt[key]
        if c < claim:
            # The raw count bounds the greedy one; re-check it later.
            if c >= 2:
                heappush(heap, (-c, key))
            else:
                occ.pop(key, None)
            continue
        raw = occ.pop(key)
        if type(raw) is slice:
            raw = order[raw]
        a, b = divmod(key, base)
        new_sym = sigma + len(bodies)
        if c >= _BATCH_MIN_COUNT:
            raw = np.asarray(raw)
            chosen = _batch_choose(raw, key, a == b, nxt_v, pair_at_v)
            if chosen.size < claim:
                if chosen.size >= 2:
                    occ[key] = raw[pair_at_v[raw] == key]
                    heappush(heap, (-chosen.size, key))
                continue
            bodies.append((a, b))
            _batch_replace(chosen, new_sym, base, views, cnt, occ, heap)
            del cnt[key]
            continue
        if type(raw) is not list:
            raw = raw.tolist()
        if a != b:
            chosen = [i for i in raw if pair_at[i] == key]
        else:
            # Inside a run only every other adjacency can be replaced.
            raw = [i for i in raw if pair_at[i] == key]
            chosen = []
            prev_right = -1
            for i in raw:
                if i != prev_right:
                    chosen.append(i)
                    prev_right = nxt[i]
            g = len(chosen)
            if g < claim:
                if g >= 2:
                    occ[key] = raw
                    heappush(heap, (-g, key))
                continue

        bodies.append((a, b))
        created: list[int] = []
        for i in chosen:
            j = nxt[i]
            p = prv[i]
            if p != -1:
                k = pair_at[p]
                if k >= 0:
                    cnt[k] -= 1
                k = vals[p] * base + new_sym
                pair_at[p] = k
                c = cnt.get(k)
                if c is None:
                    cnt[k] = 1
                    occ[k] = [p]
                    created.append(k)
                else:
                    cnt[k] = c + 1
                    occ[k].append(p)
            q = nxt[j]
            if q != -1:
                k = pair_at[j]
                if k >= 0:
                    cnt[k] -= 1
                k = new_sym * base + vals[q]
                pair_at[i] = k
                c = cnt.get(k)
                if c is None:
                    cnt[k] = 1
                    occ[k] = [i]
                    created.append(k)
                else:
                    cnt[k] = c + 1
                    occ[k].append(i)
                prv[q] = i
            else:
                pair_at[i] = -1
            vals[i] = new_sym
            nxt[i] = q
            pair_at[j] = -1
        del cnt[key]
        for k in created:
            c = cnt[k]
            if c >= 2:
                heappush(heap, (-c, k))
            else:
                # A pair seen once can never repeat: stop tracking it.
                for i in occ.pop(k):
                    if pair_at[i] == k:
                        pair_at[i] = -1
                del cnt[k]

    out = []
    i = 0
    while i != -1:
        out.append(vals[i])
        i = nxt[i]
    return out


def _runs(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of each run of equal values."""
    starts = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate(([0], starts))
    return starts, np.diff(np.append(starts, sorted_keys.size))


def _batch_choose(
    raw: np.ndarray, key: int, equal: bool, nxt: np.ndarray, pair_at: np.ndarray
) -> np.ndarray:
    """The live occurrences of ``key`` that a left-to-right pass replaces."""
    valid = raw[pair_at[raw] == key]
    if not equal or valid.size < 2:
        return valid
    # In a chain of overlapping (a, a) occurrences keep every other one.
    seg_start = np.empty(valid.size, dtype=bool)
    seg_start[0] = True
    np.not_equal(nxt[valid[:-1]], valid[1:], out=seg_start[1:])
    seg_first = np.flatnonzero(seg_start)[np.cumsum(seg_start) - 1]
    return valid[((np.arange(valid.size) - seg_first) & 1) == 0]


def _batch_replace(
    chosen: np.ndarray,
    new_sym: int,
    base: int,
    views: tuple[np.ndarray, ...],
    cnt: dict[int, int],
    occ: dict,
    heap: list[tuple[int, int]],
) -> None:
    """Replace all ``chosen`` occurrences at once.

    Leaves the counts, links and occurrence records a one-by-one pass
    leaves, except for pairs that pass makes and unmakes within the round.
    """
    vals, nxt, prv, pair_at = views
    right = nxt[chosen]
    left = prv[chosen]
    after = nxt[right]
    has_after = after >= 0
    # An occurrence right behind another chosen one gets its left pair
    # from that occurrence's right pair, (new, new).
    has_left = left >= 0
    has_left[1:] &= after[:-1] != chosen[1:]
    left = left[has_left]
    gone = np.concatenate((pair_at[left], pair_at[right]))
    gone, counts = np.unique(gone[gone >= 0], return_counts=True)
    for k, c in zip(gone.tolist(), counts.tolist()):
        cnt[k] -= c

    vals[chosen] = new_sym
    nxt[chosen] = after
    prv[after[has_after]] = chosen[has_after]
    pair_at[right] = -1
    pair_at[chosen[~has_after]] = -1
    pos = np.concatenate((chosen[has_after], left))
    keys = np.concatenate((new_sym * base + vals[after[has_after]], vals[left] * base + new_sym))
    by_key = np.lexsort((pos, keys))
    pos = pos[by_key]
    keys = keys[by_key]
    starts, sizes = _runs(keys)
    pair_at[pos] = keys
    pair_at[pos[starts[sizes < 2]]] = -1
    for s, c in zip(starts[sizes >= 2].tolist(), sizes[sizes >= 2].tolist()):
        k = int(keys[s])
        cnt[k] = c
        occ[k] = pos[s : s + c]
        heapq.heappush(heap, (-c, k))
