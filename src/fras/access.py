"""Random access indexes over grammar-compressed strings.

``FolkloreIndex`` answers queries on CNF grammars by walking the binary
derivation tree with a per-rule left-child length array.  ``FrasIndex``
works on any grammar: rules are kept sorted by expansion length so a
per-rule length lookup collapses into rank over a one-bit-per-rule vector
plus a small array of distinct lengths, and the start-rule symbol covering
a position is found with one rank/select pair over a text-length vector.

An index is built from its grammar alone: each constructor derives every
table the index holds, so ``build_folklore``/``build_fras`` and loading a
``.fix`` file run the same construction.  Each constructor checks its
grammar (``grammar.require_valid``, run at most once per grammar object).

Each index has exactly one descent, its ``_locate``, which returns the
leaf's terminal code and the stack of rules passed on the way down.
``access``, ``access_trace`` and ``extract`` are written once on top of
it: ``extract`` continues the in-order walk from that stack,
``access`` is a length-1 ``extract``, and ``access_trace`` reads the
visited rules off the stack.

``extract`` copies memoized expansions in bulk.  The memo maps every
terminal and every non-start rule of at most ``_MEMO_RULE_LIMIT`` bytes (by
symbol code) to its bytes in the text, so nothing is translated afterwards.
It is the small-expansion table that ``grammar.expand_chunks`` also builds,
and ``extract`` continues its walk with the same leaf walk,
``grammar._walk_leaves``.  The first extract longer than one byte builds the
memo in one bottom-up pass; building, loading and ``access`` never create it.
Entries are read off the grammar's bodies alone, so a corrupted length table
or bitvector cannot put wrong bytes into it.

The memo is an index's only mutable state.  It is a table that never
changes once stored, with a plain attribute store, which keeps the
instance's attributes inline.  Threads that race to build it build equal
tables and either store may win, so any number of threads may query an
index concurrently.
"""

from __future__ import annotations

import numpy as np

from .grammar import (
    MAX_TEXT_LENGTH,
    Grammar,
    GrammarError,
    _small_expansions,
    _walk_leaves,
    expansion_lengths,
    require_valid,
    sort_and_renumber,
)
from .succinct import build_bitvector


class AccessError(Exception):
    """Query or construction failure; ``kind`` is machine-readable."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


def _out_of_range(p: int, n: int, count: int = 1) -> AccessError:
    return AccessError("position-out-of-range", f"p={p}, count={count}, n={n}")


def _malformed(p: int, exc: Exception) -> AccessError:
    return AccessError("malformed-index", f"query at p={p} failed: {exc!r}")


# Longest rule expansion, in bytes, that the extract memo stores.
_MEMO_RULE_LIMIT = 128


class _Index:
    """Queries shared by both indexes; each subclass supplies ``_locate``.

    ``_locate(p)`` descends to the leaf at 1-based position p and returns
    the leaf's terminal code with the ``[body, next_index]`` stack of the
    rules it passed through, so ``body[next_index - 1]`` is the symbol
    each level descended into.  The constructors derive the tables from the
    grammar, but assigning to an index's attributes afterwards can still
    make them disagree; a ``ValueError`` or ``IndexError`` raised below a
    query then reaches the caller as ``AccessError("malformed-index", ...)``.
    """

    _memo: dict[int, bytes] | None = None  # extract memo; see the module docstring

    def access(self, p: int) -> int:
        """Byte value at 1-based position p."""
        return self.extract(p, 1)[0]

    def access_trace(self, p: int) -> tuple[int, list[int]]:
        """Like access, also returning the visited rule-id sequence."""
        if p < 1 or p > self.n:
            raise _out_of_range(p, self.n)
        try:
            stack, sym = self._locate(p)
        except (ValueError, IndexError) as exc:
            raise _malformed(p, exc) from exc
        rules = self.grammar.rules
        sigma = len(self.grammar.alphabet)
        trace = [len(rules)]
        for body, i in stack:
            s = body[i - 1]
            if s >= sigma:
                trace.append(s - sigma + 1)
        return self.grammar.alphabet[sym], trace

    def extract(self, p: int, count: int) -> bytes:
        """Substring of ``count`` bytes starting at 1-based position p.

        Only the first byte is located by descent; the rest streams out of
        an in-order continuation of the derivation-tree walk, which copies
        the text bytes of terminals and small rules whole from the extract
        memo.
        """
        if count < 1 or p < 1 or p + count - 1 > self.n:
            raise _out_of_range(p, self.n, count)
        try:
            stack, sym = self._locate(p)
            g = self.grammar
            out = bytearray((g.alphabet[sym],))
            if count > 1:
                memo = self._memo
                if memo is None:
                    # No total budget: the memo holds every rule within its limit.
                    table = _small_expansions(g, _MEMO_RULE_LIMIT, MAX_TEXT_LENGTH)
                    self._memo = memo = table
                _walk_leaves(g.rules, len(g.alphabet), stack, out, count - 1, memo)
                del out[count:]
        except (ValueError, IndexError) as exc:
            raise _malformed(p, exc) from exc
        return bytes(out)

    def extract_memo_max_bits(self) -> int:
        """Bits the extract memo holds once built."""
        table = _small_expansions(self.grammar, _MEMO_RULE_LIMIT, MAX_TEXT_LENGTH)
        return 8 * sum(map(len, table.values()))


class FolkloreIndex(_Index):
    """CNF grammar plus the expansion length of every rule's left child.

    One bottom-up pass derives the table and checks that the grammar is in
    CNF.
    """

    kind = "folklore"

    def __init__(self, grammar: Grammar):
        require_valid(grammar)
        sigma = len(grammar.alphabet)
        lengths = [1] * sigma  # expansion length by symbol code
        lefts: list[int] = []
        for body in grammar.rules:
            if len(body) == 2 and body[0] >= sigma and body[1] >= sigma:
                left_len = lengths[body[0]]
                lengths.append(left_len + lengths[body[1]])
                lefts.append(left_len)
            elif len(body) == 1 and body[0] < sigma:
                lengths.append(1)
                lefts.append(1)  # sentinel, never read for terminal rules
            else:
                raise AccessError("malformed-index", "grammar is not in CNF")
        # Every rule is used, so the start rule's expansion is the longest.
        if lengths[-1] > MAX_TEXT_LENGTH:
            raise GrammarError("length overflow")
        self.grammar = grammar
        self.left_lengths = tuple(lefts)
        self.n = lengths[-1]

    def _locate(self, p: int) -> tuple[list[list], int]:
        rules = self.grammar.rules
        sigma = len(self.grammar.alphabet)
        lefts = self.left_lengths
        stack: list[list] = []
        j = len(rules)
        body = rules[j - 1]
        while len(body) == 2:
            left_len = lefts[j - 1]
            if p <= left_len:
                stack.append([body, 1])
                j = body[0] - sigma + 1
            else:
                p -= left_len
                stack.append([body, 2])
                j = body[1] - sigma + 1
            body = rules[j - 1]
        return stack, body[0]


class FrasIndex(_Index):
    """Sorted grammar, distinct-length array and the two query bitvectors.

    The grammar's rules must be sorted by expansion length, as
    ``sort_and_renumber`` leaves them.  The per-rule length table is only
    materialized here; queries recover lengths through rank on the rule
    marks plus the distinct-length array.
    """

    def __init__(self, grammar: Grammar, bitvector_kind: str):
        lengths = np.array(expansion_lengths(grammar), np.uint64)
        shorter = np.flatnonzero(lengths[1:] < lengths[:-1])
        if len(shorter):
            j = int(shorter[0]) + 2
            raise AccessError(
                "malformed-index",
                f"rules are not sorted by expansion length: rule {j} is shorter than rule {j - 1}",
            )
        first = np.ones(len(lengths), bool)  # the first rule of each length
        first[1:] = lengths[1:] != lengths[:-1]
        first = first.nonzero()[0]
        n = int(lengths[-1])

        # Each start symbol begins one past the lengths of the symbols before it.
        sigma = len(grammar.alphabet)
        by_code = np.concatenate((np.ones(sigma, np.uint64), lengths))
        start = grammar.rules[-1]
        sizes = by_code[np.fromiter(start, np.int64, len(start))]
        start_positions = np.cumsum(sizes) - sizes + 1

        self.grammar = grammar
        self.unique_lengths = tuple(lengths[first].tolist())
        # One bit per rule: first of its length.
        self.rule_marks = build_bitvector(first + 1, len(grammar.rules), bitvector_kind)
        # One bit per text position starting a start symbol.
        self.start_marks = build_bitvector(start_positions, n, bitvector_kind)
        self.n = n

    @property
    def kind(self) -> str:
        return f"fras-{self.start_marks.kind}"

    def _locate(self, p: int) -> tuple[list[list], int]:
        start_marks = self.start_marks
        r = start_marks.rank(p)
        p -= start_marks.select(r) - 1
        rules = self.grammar.rules
        sigma = len(self.grammar.alphabet)
        lengths = self.unique_lengths
        rule_rank = self.rule_marks.rank
        stack: list[list] = [[rules[-1], r]]
        sym = rules[-1][r - 1]
        while sym >= sigma:
            body = rules[sym - sigma]
            i = 0
            last = len(body) - 1
            while i < last:
                s = body[i]
                ln = 1 if s < sigma else lengths[rule_rank(s - sigma + 1) - 1]
                if p <= ln:
                    break
                p -= ln
                i += 1
            stack.append([body, i + 1])
            sym = body[i]
        return stack, sym


def build_folklore(g: Grammar) -> FolkloreIndex:
    """Build a CNF grammar's folklore index."""
    return FolkloreIndex(g)


def build_fras(g: Grammar, bitvector_kind: str = "sparse") -> FrasIndex:
    """Sort a grammar's rules by expansion length and build its FRAS index."""
    return FrasIndex(sort_and_renumber(g), bitvector_kind)
