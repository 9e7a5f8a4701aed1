"""Synthetic corpora for tests and benchmarks."""

from __future__ import annotations

from .prng import Prng

_MAX_LEN = 1 << 31


def fibonacci_word(order: int) -> bytes:
    """Fibonacci word over {a, b}: F(1)=b, F(2)=a, F(k)=F(k-1)F(k-2), at most 2^31 bytes."""
    if order < 1:
        raise ValueError("order must be >= 1")
    f1, f2 = 1, 1
    for _ in range(order - 2):
        f1, f2 = f2, f1 + f2
    if f2 > _MAX_LEN:
        raise ValueError(f"length overflow: |F({order})| = {f2} exceeds budget {_MAX_LEN}")
    if order == 1:
        return b"b"
    prev, cur = b"b", b"a"
    for _ in range(order - 2):
        prev, cur = cur, cur + prev
    return cur


def repetitive_text(base_len: int, copies: int, mutation_rate: float, seed: int = 0) -> bytes:
    """Concatenate mutated copies of a random base string over ``acgt``.

    Each copy receives ``round(base_len * mutation_rate)`` substitutions at
    PRNG-drawn positions (collisions allowed), each to a different one of
    the four characters.  Output is byte-identical for a fixed seed.
    """
    if base_len < 1 or copies < 1:
        raise ValueError("base_len and copies must be positive")
    if not 0.0 <= mutation_rate <= 1.0:
        raise ValueError("mutation_rate must be in [0, 1]")
    rng = Prng(seed)
    acgt = b"acgt"
    base = bytes(acgt[rng.next_u64() % 4] for _ in range(base_len))
    per_copy = int(base_len * mutation_rate + 0.5)
    if per_copy == 0:
        return base * copies
    others = {c: bytes(o for o in acgt if o != c) for c in acgt}
    out = bytearray()
    for _ in range(copies):
        buf = bytearray(base)
        for _ in range(per_copy):
            pos = rng.next_u64() % base_len
            alts = others[buf[pos]]
            buf[pos] = alts[rng.next_u64() % len(alts)]
        out += buf
    return bytes(out)
