"""Brute-force oracles and random generators shared by the test suite.

Everything here is intentionally independent of the library's own code
paths: expansion is done by full per-rule string materialization, rank
and select by scanning position lists, and the pair-replacement reference
is the plain sequential algorithm, and ``naive_violations`` checks a
grammar one symbol at a time.  ``fresh_violations`` is the exception: it
runs the library's own ``validate``, on a copy that has no cached result.
"""

import random

from fras import Grammar, validate

FIG1_GRAMMAR = Grammar(
    alphabet=(ord("a"), ord("c"), ord("g")),
    rules=((0, 2), (1, 2), (3, 3, 4), (5, 5, 4, 1)),
)
FIG1_TEXT = b"agagcgagagcgcgc"


def naive_rule_expansions(g: Grammar) -> list[bytes]:
    sigma = len(g.alphabet)
    exps: list[bytes] = []
    for body in g.rules:
        buf = bytearray()
        for c in body:
            if c < sigma:
                buf.append(g.alphabet[c])
            else:
                buf += exps[c - sigma]
        exps.append(bytes(buf))
    return exps


def naive_expand(g: Grammar) -> bytes:
    return naive_rule_expansions(g)[-1]


def fresh_violations(g: Grammar) -> tuple[str, ...]:
    """``validate`` of a new object with g's fields, so no result cached on g is reused."""
    return validate(Grammar(g.alphabet, g.rules))


def naive_violations(g: Grammar) -> tuple[str, ...]:
    """``validate``'s tuple, from one scan of the rules and their symbols in order."""
    found: dict[tuple[str, int], None] = {}  # in first-found order, each once
    sigma = len(g.alphabet)
    if list(g.alphabet) != sorted(set(g.alphabet)) or any(
        not 0 <= b <= 255 for b in g.alphabet
    ):
        found["bad alphabet", 0] = None
    m = len(g.rules)
    if m == 0:
        found["no rules", 0] = None
    used = [False] * (m + 1)
    for j, body in enumerate(g.rules, start=1):
        if not body:
            found["empty body", j] = None
        for c in body:
            if c < 0 or c >= sigma + m:
                found["out-of-range symbol", j] = None
            elif c >= sigma:
                rid = c - sigma + 1
                if rid >= j:
                    found["forward reference", j] = None
                else:
                    used[rid] = True
    for j in range(1, m):
        if not used[j]:
            found["unused rule", j] = None
    return tuple(f"{kind} at rule {j}" for kind, j in found)


def naive_rank(positions, i):
    return sum(1 for p in positions if p <= i)


def greedy_pair_count(seq, pair) -> int:
    c = 0
    i = 0
    while i < len(seq) - 1:
        if seq[i] == pair[0] and seq[i + 1] == pair[1]:
            c += 1
            i += 2
        else:
            i += 1
    return c


def naive_repair(text: bytes) -> Grammar:
    """Sequential most-frequent-pair replacement; fine for small inputs."""
    alphabet = tuple(sorted(set(text)))
    code = {b: i for i, b in enumerate(alphabet)}
    seq = [code[b] for b in text]
    sigma = len(alphabet)
    bodies = []
    while True:
        best = None
        for pr in set(zip(seq, seq[1:])):
            c = greedy_pair_count(seq, pr)
            if c >= 2:
                key = (-c, pr)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        pr = best[1]
        new = sigma + len(bodies)
        bodies.append(pr)
        out = []
        i = 0
        while i < len(seq):
            if i < len(seq) - 1 and seq[i] == pr[0] and seq[i + 1] == pr[1]:
                out.append(new)
                i += 2
            else:
                out.append(seq[i])
                i += 1
        seq = out
    bodies.append(tuple(seq))
    return Grammar(alphabet, tuple(bodies))


def random_text(rng: random.Random, n: int, sigma: int) -> bytes:
    alpha = bytes(97 + i for i in range(sigma))
    return bytes(rng.choice(alpha) for _ in range(n))


def random_grammar(rng: random.Random, max_rules: int = 12, max_sigma: int = 5) -> Grammar:
    """Random admissible grammar; leftover rules get referenced by the start rule."""
    sigma = rng.randint(1, max_sigma)
    alphabet = tuple(97 + i for i in range(sigma))
    m = rng.randint(1, max_rules)
    rules = []
    for j in range(1, m + 1):
        body = []
        for _ in range(rng.randint(1, 4)):
            if j == 1 or rng.random() < 0.4:
                body.append(rng.randrange(sigma))
            else:
                body.append(sigma + rng.randrange(j - 1))
        rules.append(body)
    used = {c - sigma + 1 for body in rules for c in body if c >= sigma}
    for j in range(1, m):
        if j not in used:
            rules[-1].append(sigma + j - 1)
    return Grammar(alphabet, tuple(tuple(b) for b in rules))


_M64 = 0xFFFFFFFFFFFFFFFF


def reference_prng_stream(seed: int, count: int) -> list[int]:
    """From-scratch splitmix64-seeded xoroshiro128+(24,16,37) transcript."""
    sm = seed & _M64
    words = []
    for _ in range(2):
        sm = (sm + 0x9E3779B97F4A7C15) & _M64
        z = sm
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        words.append(z ^ (z >> 31))
    if words[0] == 0 and words[1] == 0:
        words[1] = 0x9E3779B97F4A7C15
    s0, s1 = words

    def rotl(x, k):
        return ((x << k) & _M64) | (x >> (64 - k))

    vals = []
    for _ in range(count):
        vals.append((s0 + s1) & _M64)
        t = s1 ^ s0
        s0 = rotl(s0, 24) ^ t ^ ((t << 16) & _M64)
        s1 = rotl(t, 37)
    return vals
