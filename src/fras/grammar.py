"""Admissible grammars: immutable representation, validation and transforms.

A grammar is a list of rules over a single integer symbol space.  Codes
``0 .. sigma-1`` are terminals (indexes into the sorted alphabet) and code
``sigma + j - 1`` refers to rule ``j`` (rule ids are 1-based).  Each rule
body may only reference rules with smaller ids, so the grammar is acyclic
by construction, and the last rule is the start rule whose expansion is
the full text.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

# Expansion lengths are stored as 64-bit unsigned quantities.
MAX_TEXT_LENGTH = 2**64 - 1

# expand() caches the expansion of small rules so repetitive grammars
# decompress at bulk-copy speed; both limits are soft (correctness never
# depends on what got cached).
_CACHE_RULE_LIMIT = 1 << 16
_CACHE_TOTAL_LIMIT = 1 << 26
_FLUSH_CHUNK = 1 << 16


class GrammarError(ValueError):
    """Raised for structurally invalid grammars or overflowing lengths."""


@dataclass(frozen=True)
class GrammarStats:
    """Start-rule-excluded rule/size counts plus derivation-tree depth.

    ``depth`` is the number of edges on the longest root-to-leaf path of
    the derivation tree, terminal leaves included (a grammar whose start
    rule is all terminals has depth 1).
    """

    rules: int
    depth: int
    start: int
    size: int
    n: int


@dataclass(frozen=True)
class Grammar:
    """An admissible grammar: sorted byte alphabet plus rule bodies.

    Immutable; safe to share between threads after construction.  Every
    public reader of a grammar calls ``require_valid``, whose check is cached.
    """

    alphabet: tuple[int, ...]
    rules: tuple[tuple[int, ...], ...]
    _violations = None  # not a field: validate's cached result, once computed


def _check(g: Grammar) -> tuple[str, ...]:
    """Every broken structural invariant as ``"<kind> at rule <j>"``.

    The bodies are flattened into one int64 symbol array, and array passes
    over it flag empty bodies, out-of-range symbols (a symbol that does not
    fit int64 among them), forward references and, by a ``bincount`` of the
    backward references, unused rules.  Only the flagged rules are
    formatted.  The order is that of one scan of the rules in id order:
    ``bad alphabet`` and ``no rules`` first, then each rule's empty body or
    its symbols' kinds in the order its body first shows them, then the
    unused rules; each ``(kind, rule)`` appears once.
    """
    found: dict[tuple[str, int], None] = {}  # in first-found order, each once
    sigma = len(g.alphabet)
    if list(g.alphabet) != sorted(set(g.alphabet)) or any(
        not 0 <= b <= 255 for b in g.alphabet
    ):
        found["bad alphabet", 0] = None
    m = len(g.rules)
    if m == 0:
        found["no rules", 0] = None
    sizes = np.fromiter(map(len, g.rules), np.int64, m)
    total = int(sizes.sum())
    try:
        sym = np.fromiter(chain.from_iterable(g.rules), np.int64, total)
    except OverflowError:
        wide = chain.from_iterable(g.rules)
        sym = np.fromiter((c if -(2**63) <= c < 2**63 else -1 for c in wide), np.int64, total)
    # Rule j is code sigma + j - 1, and its body may refer only to codes in
    # [sigma, that code): the rules before it.
    own = np.repeat(np.arange(sigma, sigma + m), sizes)  # each symbol's rule's code
    flagged = np.flatnonzero((sym < 0) | (sym >= own))  # out of range or forward
    empty = np.flatnonzero(sizes == 0) + 1
    if len(flagged) or len(empty):
        bad = sym[flagged]
        rule = np.concatenate((empty, own[flagged] - (sigma - 1)))
        forward = (bad >= 0) & (bad < sigma + m)
        code = np.concatenate((np.zeros(len(empty), np.int64), 1 + forward))
        names = ("empty body", "out-of-range symbol", "forward reference")  # by code
        # Stable, so each rule's symbols stay in body order; an empty body has none.
        order = np.argsort(rule, kind="stable")
        for j, k in zip(rule[order].tolist(), code[order].tolist()):
            found[names[k], j] = None
    uses = np.bincount(sym[(sym >= sigma) & (sym < own)] - sigma, minlength=m)
    for j in (np.flatnonzero(uses[: m - 1] == 0) + 1).tolist():
        found["unused rule", j] = None
    return tuple(f"{kind} at rule {j}" for kind, j in found)


def validate(g: Grammar) -> tuple[str, ...]:
    """Each violation as ``"<kind> at rule <j>"``, empty for a valid grammar; never raises."""
    found = g._violations
    if found is None:
        found = _check(g)
        # Past the frozen __setattr__, since the fields never change.  Not
        # through __dict__: on CPython 3.11 a materialized instance dict
        # makes every later attribute read of the grammar ~3x slower.
        object.__setattr__(g, "_violations", found)
    return found


def require_valid(g: Grammar) -> None:
    found = validate(g)
    if found:
        raise GrammarError("invalid grammar: " + "; ".join(found))


def expansion_lengths(g: Grammar) -> tuple[int, ...]:
    """Per-rule expansion lengths in characters, one bottom-up pass."""
    require_valid(g)
    sigma = len(g.alphabet)
    lengths = [1] * sigma  # by symbol code
    for body in g.rules:
        total = 0
        for c in body:
            total += lengths[c]
        if total > MAX_TEXT_LENGTH:
            raise GrammarError("length overflow")
        lengths.append(total)
    return tuple(lengths[sigma:])


def sort_and_renumber(g: Grammar) -> Grammar:
    """The grammar with its rules in nondecreasing expansion length, start rule last.

    Ties are broken by the original rule id (stable), which also keeps
    references backward: a rule can only tie with a rule it references
    when its body is that single symbol.  Every reference is renumbered
    to follow its rule.  A permutation leaves every rule used, so the
    output is valid and carries over the input's (empty) check result.
    """
    lengths = expansion_lengths(g)
    m = len(g.rules)
    order = sorted(range(m - 1), key=lengths.__getitem__)
    order.append(m - 1)
    out = Grammar(g.alphabet, _renumbered(g.rules, order, len(g.alphabet)))
    object.__setattr__(out, "_violations", g._violations)
    return out


def _renumbered(
    bodies: Sequence[Sequence[int]], keep: list[int], sigma: int
) -> tuple[tuple[int, ...], ...]:
    """The bodies at ``keep`` (0-based indices into ``bodies``) in that order.

    ``bodies[keep[i]]`` becomes rule ``i + 1``, and every reference follows
    it; the kept bodies may reference only kept rules.
    """
    code = list(range(sigma + len(bodies)))
    for new, old in enumerate(keep):
        code[sigma + old] = sigma + new
    return tuple(tuple(map(code.__getitem__, bodies[old])) for old in keep)


def _small_expansions(g: Grammar, rule_limit: int, total_limit: int) -> dict[int, bytes]:
    """Text bytes of every terminal and of the non-start rules of at most ``rule_limit`` bytes.

    One bottom-up pass, keyed by symbol code.  Each terminal code maps to its
    alphabet byte, outside both limits, since the leaf walk copies every
    leaf from the table.  Rules are taken in id order, each if its length
    still fits in what is left of ``total_limit`` bytes; a rule whose body
    references a rule left out is left out too.  A body is given up once its
    bytes pass what it may take, so no lengths pass is needed.
    """
    sigma = len(g.alphabet)
    table = {c: bytes((b,)) for c, b in enumerate(g.alphabet)}
    budget = total_limit
    for j, body in enumerate(g.rules[:-1]):
        limit = min(rule_limit, budget)
        buf = bytearray()
        for c in body:
            piece = table.get(c)
            if piece is None:
                break
            buf += piece
            if len(buf) > limit:
                break
        else:
            table[sigma + j] = bytes(buf)
            budget -= len(buf)
    return table


def _walk_leaves(rules, sigma: int, stack: list, out: bytearray, need: int, table: dict) -> None:
    """Continue an in-order derivation-tree walk, appending text bytes to ``out``.

    ``stack`` holds ``[body, next_index]`` frames, innermost last.  The walk
    stops once it has appended ``need`` bytes or the stack is empty.  A
    symbol with a ``table`` entry (every terminal has one) is appended
    whole, so ``out`` may end past ``need`` by less than the longest entry;
    any other one is descended into.
    """
    while need > 0 and stack:
        top = stack[-1]
        body, i = top
        if i == len(body):
            stack.pop()
            continue
        top[1] = i + 1
        s = body[i]
        piece = table.get(s)
        if piece is None:
            stack.append([rules[s - sigma], 0])
        else:
            out += piece
            need -= len(piece)


def expand_chunks(g: Grammar) -> Iterator[bytes]:
    """Yield the expansion of the start rule as a stream of byte chunks.

    The text bytes of terminals and small rules are pre-expanded into a
    table (rules bounded by a total budget) that the leaf walk copies from;
    everything else is walked with an explicit stack, so no derivation tree
    is materialized and memory stays bounded even for texts far larger than
    the grammar.  Validity and the length bound are checked first: the walk
    takes any code with no table entry for a rule, so an out-of-range one
    would send it into an endless descent, and an overlong text would stream on.
    """
    expansion_lengths(g)
    sigma = len(g.alphabet)
    rules = g.rules
    table = _small_expansions(g, _CACHE_RULE_LIMIT, _CACHE_TOTAL_LIMIT)
    out = bytearray()
    stack: list[list] = [[rules[-1], 0]]
    while stack:
        _walk_leaves(rules, sigma, stack, out, _FLUSH_CHUNK, table)
        if out:
            yield bytes(out)
            out.clear()


def expand(g: Grammar) -> bytes:
    """The (unique) string the grammar derives."""
    return b"".join(expand_chunks(g))


def is_cnf(g: Grammar) -> bool:
    """True iff every body is a lone terminal or a pair of non-terminals."""
    require_valid(g)
    sigma = len(g.alphabet)
    for body in g.rules:
        if len(body) == 1 and body[0] < sigma:
            continue
        if len(body) == 2 and body[0] >= sigma and body[1] >= sigma:
            continue
        return False
    return True


def binarize_cnf(g: Grammar) -> Grammar:
    """Convert to Chomsky normal form with balanced binary trees.

    Terminals get one proxy rule each (created on first use).  A body of
    k symbols becomes k - 1 pair rules built level by level: adjacent
    symbols are paired, an odd last symbol is carried up unchanged, and
    this repeats until one node is left, so ``a b c d`` becomes
    ``((a b) (c d))`` and ``a b c`` becomes ``((a b) c)``.  A body thus
    adds ``ceil(log2 k)`` levels, and on RePair output (binary rules
    plus a start rule S) the CNF depth is ``stats(g).depth + ceil(log2
    |S|)``.  Unary bodies alias the referenced rule, the start rule's
    included.

    The output is valid whenever the input is, so it carries over the
    input's (empty) check result: proxies and pair rules are made before
    any body references them, so every reference points backward; every
    code is a proxy's or a pair rule's, so none is out of range; no body is
    empty; and every node is reachable from the start node, which is made
    last, so no rule is unused.
    """
    require_valid(g)
    sigma = len(g.alphabet)
    out: list[tuple[int, ...]] = []
    proxy: dict[int, int] = {}
    bmap = [0] * (len(g.rules) + 1)

    def add_rule(body: tuple[int, ...]) -> int:
        out.append(body)
        return len(out)

    def proxy_id(t: int) -> int:
        rid = proxy.get(t)
        if rid is None:
            rid = add_rule((t,))
            proxy[t] = rid
        return rid

    m = len(g.rules)
    for j in range(1, m + 1):
        mapped = [
            proxy_id(c) if c < sigma else bmap[c - sigma + 1] for c in g.rules[j - 1]
        ]
        while len(mapped) > 1:
            paired = [
                add_rule((sigma + a - 1, sigma + b - 1))
                for a, b in zip(mapped[::2], mapped[1::2])
            ]
            mapped = paired + mapped[2 * len(paired) :]
        bmap[j] = mapped[0]
    cnf = Grammar(g.alphabet, tuple(out))
    object.__setattr__(cnf, "_violations", g._violations)
    return cnf


def inline_single_use(g: Grammar) -> Grammar:
    """Substitute away every rule referenced exactly once (start excluded).

    Useful for turning binary-rule compressor output into general grammars
    with long bodies; expansion is preserved.  One pass suffices: inlining
    a rule moves its references into its one parent, so no other rule's
    reference count changes.
    """
    require_valid(g)
    sigma = len(g.alphabet)
    m = len(g.rules)
    refs = [0] * (m + 1)
    for body in g.rules:
        for c in body:
            if c >= sigma:
                refs[c - sigma + 1] += 1
    single = {j for j in range(1, m) if refs[j] == 1}
    if not single:
        return g
    flattened: list[list[int]] = []
    for j in range(1, m + 1):
        flat: list[int] = []
        for c in g.rules[j - 1]:
            rid = c - sigma + 1 if c >= sigma else 0
            if rid in single:
                flat.extend(flattened[rid - 1])
            else:
                flat.append(c)
        flattened.append(flat)
    keep = [j - 1 for j in range(1, m + 1) if j not in single]
    return Grammar(g.alphabet, _renumbered(flattened, keep, sigma))


def stats(g: Grammar) -> GrammarStats:
    """Rule/size counts (start rule excluded) and derivation-tree depth."""
    require_valid(g)
    sigma = len(g.alphabet)
    heights = [0] * sigma  # by symbol code
    lengths = [1] * sigma
    for body in g.rules:
        h = n = 0
        for c in body:
            n += lengths[c]
            if heights[c] > h:
                h = heights[c]
        if n > MAX_TEXT_LENGTH:
            raise GrammarError("length overflow")
        heights.append(h + 1)
        lengths.append(n)
    return GrammarStats(
        rules=len(g.rules) - 1,
        depth=heights[-1],
        start=len(g.rules[-1]),
        size=sum(len(b) for b in g.rules[:-1]),
        n=lengths[-1],
    )
