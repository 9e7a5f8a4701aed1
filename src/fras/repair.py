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
It keeps going while a round replaces at least ``_VECTOR_MIN_COUNT + (len
>> _VECTOR_MIN_GAIN_SHIFT)`` occurrences, then hands the array to an
incremental engine, a linked list whose rounds each replace the chosen
pair with a fixed number of numpy passes over its occurrences, so their
cost grows with those occurrences rather than with the length.  The
hand-off point only affects speed, never the produced grammar.  Pair keys
are int64, which holds them for texts below 3e9 bytes; longer texts are
rejected.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush

import numpy as np

from .grammar import Grammar

# A whole-array round has to replace at least _VECTOR_MIN_COUNT + (len >>
# _VECTOR_MIN_GAIN_SHIFT) occurrences; a round that replaces fewer costs
# less as passes over its occurrences in the incremental engine.
_VECTOR_MIN_COUNT = 64
_VECTOR_MIN_GAIN_SHIFT = 7


def repair_compress(text: bytes) -> Grammar:
    """Build a binary-rule grammar whose start rule derives ``text``."""
    if not text:
        raise ValueError("empty text")
    if len(text) >= 3 * 10**9:
        raise ValueError(f"text too long: {len(text)} bytes, pair keys hold fewer than 3e9")
    raw = np.frombuffer(text, dtype=np.uint8)
    present = np.flatnonzero(np.bincount(raw, minlength=256))
    table = np.zeros(256, dtype=np.uint8)
    table[present] = np.arange(present.size)
    codes = np.frombuffer(text.translate(table.tobytes()), dtype=np.uint8)
    # Each rule replaces at least 2 occurrences, so there are at most
    # (len - 1)/2 rules and codes stay below 256 + 1.5e9 < 2^31.  int32
    # makes the array passes cheaper; pair keys are computed in int64.
    arr = codes.astype(np.int32)
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
    """Replace pairs while a round pays for its pass; True once none repeats.

    Each round's ``np.bincount`` has one bin per code pair, and the codes
    stay few.  A round that goes on replaces at least ``64 + len/128``
    occurrences, each of which removes one symbol, so ``len + 8065`` shrinks
    by at least 127/128 per round.  Since a round replaces at most half the
    symbols, the worst case from the longest accepted text, 3e9 - 1 bytes,
    stops after 1,633 rounds: at most 256 + 1,633 = 1,889 codes, or
    3,568,321 bins (29 MB of counts).
    """
    # One key buffer for every round: a fresh array each round costs
    # about as much in page faults as computing the keys.
    buf = np.empty(arr.size, dtype=np.int64)
    while True:
        ncodes = sigma + len(bodies)
        best = _best_pair(arr, ncodes, buf)
        if best is None:
            return arr, True
        count, a, b = best
        if count < _VECTOR_MIN_COUNT + (arr.size >> _VECTOR_MIN_GAIN_SHIFT):
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
    counts = np.bincount(keys)
    _apply_run_correction(arr, counts, ncodes)
    top = int(counts.max()) if counts.size else 0
    if top < 2:
        return None
    key = int(np.argmax(counts))
    return top, key // ncodes, key % ncodes


def _apply_run_correction(arr: np.ndarray, counts: np.ndarray, ncodes: int) -> None:
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
    np.subtract.at(counts, syms * (ncodes + 1), overlaps)


def _replace_pair(arr: np.ndarray, a: int, b: int, new_sym: int) -> np.ndarray:
    mask = arr[:-1] == a
    mask &= arr[1:] == b
    idx = np.flatnonzero(mask)
    if a == b:
        idx = _every_other(idx, np.diff(idx) == 1)
    arr[idx] = new_sym
    return np.delete(arr, idx + 1)


# --- incremental engine --------------------------------------------------


def _incremental_rounds(arr: np.ndarray, sigma: int, bodies: list[tuple[int, ...]]) -> list[int]:
    """Finish the replacement sequence over a doubly linked list.

    ``arr`` holds at least 4 symbols: the whole-array rounds hand off only
    on a pair that occurs twice without overlap.

    Every pair is keyed by the integer ``a * base + b``, so key order is
    ``(a, b)`` order.  A position's pair never returns to an earlier value,
    since each change brings in a fresh symbol; so all occurrences of a
    pair are recorded in one pass (the initial grouping, or the round that
    creates its newer symbol), in ascending position order and without
    duplicates.  ``pair_at[i]`` is the key of the pair starting at live
    position ``i``, or -1 when no pair there is worth tracking, which
    validates a recorded occurrence with one lookup.

    Each round pops the largest claim and keeps the recorded occurrences
    whose ``pair_at`` still holds the key, and of an ``(a, a)`` pair those a
    left-to-right pass replaces.  If fewer are left than claimed, the pair
    is re-queued at that exact count; otherwise they are served.  Every
    round replaces its occurrences with the same few dozen numpy calls
    (``_batch_replace``), be they 2 or 2 million.

    The int64 arrays ``vals``, ``nxt``, ``prv`` and ``pair_at`` have an
    extra slot at index ``n``, which the link value -1 addresses.  Its value
    -1, like the distinct negative value of each removed position, is no
    live symbol, so a pair it takes part in is made once and never tracked.
    """
    n = arr.size
    ncodes = sigma + len(bodies)
    base = ncodes + n
    keys = _pair_keys(arr, base)
    # Group adjacencies by pair, each group in position order.  Keys over
    # the current codes fit the narrowest unsigned type, which numpy
    # radix-sorts when it has at most 16 bits.
    dense = _pair_keys(arr, ncodes).astype(np.min_scalar_type(ncodes * ncodes - 1))
    order = np.argsort(dense, kind="stable")
    del dense
    bounds = _run_bounds(keys[order])
    starts = bounds[:-1]
    sizes = bounds[1:] - starts
    pair_at = np.full(n + 1, -1, dtype=np.int64)
    pair_at[: n - 1] = keys
    pair_at[order[starts[sizes < 2]]] = -1
    multi = sizes >= 2
    mkeys = keys[order[starts[multi]]].tolist()
    ends = bounds[1:][multi].tolist()
    starts = starts[multi].tolist()
    del keys, bounds, sizes, multi

    vals = np.append(arr, -1).astype(np.int64)
    nxt = np.arange(1, n + 2, dtype=np.int64)
    nxt[n - 1 :] = -1
    prv = np.arange(-1, n, dtype=np.int64)
    links = (vals, nxt, prv, pair_at)

    # The occurrences recorded for each tracked pair; those whose
    # ``pair_at`` has changed since are lost.
    occ = {k: order[s:e] for k, s, e in zip(mkeys, starts, ends)}
    # Claims grouped by value, each group a min-heap of keys, so the
    # largest claim with the smallest key comes first.  A claim never
    # undercounts the greedy count, each key has at most one, and no
    # claim made later exceeds the one served, so ``top`` only falls.
    # Keys arrive in ascending order, so each group starts as a heap.
    claims: defaultdict[int, list[int]] = defaultdict(list)
    for k, rec in occ.items():
        claims[rec.size].append(k)
    top = max(claims, default=0)
    del mkeys, starts, ends

    while top >= 2:
        group = claims.get(top)
        if not group:
            top -= 1
            continue
        key = heappop(group)
        rec = occ.pop(key)
        valid = rec[pair_at[rec] == key]
        a, b = divmod(key, base)
        chosen = _every_other(valid, nxt[valid[:-1]] == valid[1:]) if a == b else valid
        if chosen.size < top:
            # The claim was too high: re-queue the exact greedy count.
            if chosen.size >= 2:
                occ[key] = valid
                heappush(claims[chosen.size], key)
            continue
        bodies.append((a, b))
        _batch_replace(chosen, sigma + len(bodies) - 1, base, links, occ, claims)

    # Replaced right halves hold negative values; the rest is the start rule.
    vals = vals[:n]
    return vals[vals >= 0].tolist()


def _run_bounds(sorted_keys: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values, then the length."""
    edge = np.empty(sorted_keys.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=edge[1:-1])
    return edge.nonzero()[0]


def _every_other(idx: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """Of ordered ``(a, a)`` occurrences, those a left-to-right pass replaces.

    ``overlaps[k]`` tells whether ``idx[k + 1]`` overlaps ``idx[k]``.
    """
    chain_start = np.ones(idx.size, dtype=bool)
    np.logical_not(overlaps, out=chain_start[1:])
    rank = np.arange(idx.size)
    first = rank[chain_start][np.cumsum(chain_start) - 1]
    return idx[((rank - first) & 1) == 0]


def _batch_replace(
    chosen: np.ndarray,
    new_sym: int,
    base: int,
    links: tuple[np.ndarray, ...],
    occ: dict[int, np.ndarray],
    claims: defaultdict[int, list[int]],
) -> None:
    """Replace the pair at every ``chosen`` position with ``new_sym``.

    ``chosen`` is ascending and non-overlapping.  Each occurrence ``i``
    keeps its position and takes its right half ``j`` out of the list.
    The pairs that started at ``prv[i]`` and ``j`` each lose an occurrence,
    as ``pair_at`` there changes; those that now start at ``prv[i]`` and
    ``i`` hold the new symbol, and the ones that repeat get a record and a
    claim.  The work is a fixed number of numpy calls and one Python step
    per distinct new pair; no Python loop visits the occurrences.
    """
    vals, nxt, prv, pair_at = links
    right = nxt[chosen]
    after = nxt[right]
    left = prv[chosen]
    pair_at[right] = -1
    vals[chosen] = new_sym
    # A removed right half gets a distinct negative value, so the pair a
    # following occurrence would start there is made once.
    vals[right] = ~right
    nxt[chosen] = after
    prv[after] = chosen
    # Group the new pairs by the other symbol: x for (new, x) at chosen
    # positions, y - base for (y, new) at left ones.  No code reaches
    # base - 1 (a round removes at least two of the n symbols), so the two
    # ranges are disjoint; each half is in position order, so a stable
    # sort groups positions in order.
    g = chosen.size
    pos = np.concatenate((chosen, left, after, left))
    other = vals[pos[2 * g :]]
    pos = pos[: 2 * g]
    pair_at[pos] = -1
    other[g:] -= base
    by_other = other.argsort(kind="stable")
    pos = pos[by_other]
    other = other[by_other]
    bounds = _run_bounds(other).tolist()
    for s, e in zip(bounds, bounds[1:]):
        c = e - s
        if c < 2:
            # A pair made once can never repeat: leave it untracked.
            continue
        x = other.item(s)
        k = new_sym * base + x if x >= 0 else (x + base) * base + new_sym
        occ[k] = at = pos[s:e]
        pair_at[at] = k
        heappush(claims[c], k)
