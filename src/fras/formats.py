"""Bit-exact file formats for grammars and indexes, as bytes in and bytes out.

Grammar files (binary, extension ``.fgz``): magic ``FRAS1\\0``, then
little-endian u32 fields: alphabet size, the alphabet bytes in ascending
order, rule count, and per rule its body length followed by the body's
symbol codes.  The start rule is the last rule.  A whitespace-separated
decimal variant with first line ``FRAS1-TEXT`` (extension ``.fgt``) holds
the same fields for debugging and hand-written inputs.

Index files (extension ``.fix``): magic ``FRIX2\\0``, a kind byte (0
folklore, 1 FRAS with sparse bitvectors, 2 FRAS with plain ones) and the
grammar section verbatim, nothing else.  An index is built from its
grammar alone, so loading validates the grammar and calls the same
constructor, ``FolkloreIndex`` or ``FrasIndex``, as
``build_folklore``/``build_fras``, and no stored table can disagree with
the grammar.  A FRAS grammar must already be sorted by expansion length
and a folklore grammar must be in CNF, so re-serializing a loaded index
is byte-identical.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable

from .access import AccessError, FolkloreIndex, FrasIndex
from .grammar import Grammar, require_valid

GRAMMAR_MAGIC = b"FRAS1\x00"
TEXT_MAGIC = "FRAS1-TEXT"
INDEX_MAGIC = b"FRIX2\x00"
# The index kind byte is a position in this tuple.
_INDEX_KINDS = ("folklore", "fras-sparse", "fras-plain")


class FormatError(ValueError):
    """Malformed, truncated or unrecognized input data."""


def _pack(typecode: str, values: Iterable[int]) -> bytes:
    a = array(typecode, values)
    if sys.byteorder != "little":
        a.byteswap()
    return a.tobytes()


def _unpack(typecode: str, data: bytes) -> array:
    a = array(typecode)
    a.frombytes(data)
    if sys.byteorder != "little":
        a.byteswap()
    return a


class _Cursor:
    __slots__ = ("data", "off")

    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise FormatError("unexpected end of input")
        chunk = self.data[self.off : self.off + n]
        self.off += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "little")

    def done(self) -> bool:
        return self.off == len(self.data)


# --- grammars -------------------------------------------------------------


def grammar_to_bytes(g: Grammar) -> bytes:
    require_valid(g)
    out = bytearray(GRAMMAR_MAGIC)
    out += len(g.alphabet).to_bytes(4, "little")
    out += bytes(g.alphabet)
    out += len(g.rules).to_bytes(4, "little")
    words: list[int] = []
    for body in g.rules:
        words.append(len(body))
        words += body
    out += _pack("I", words)
    return bytes(out)


def grammar_to_text(g: Grammar) -> str:
    require_valid(g)
    lines = [TEXT_MAGIC, str(len(g.alphabet))]
    lines.append(" ".join(str(b) for b in g.alphabet))
    lines.append(str(len(g.rules)))
    for body in g.rules:
        lines.append(str(len(body)) + " " + " ".join(map(str, body)))
    return "\n".join(lines) + "\n"


def _read_grammar_section(cur: _Cursor) -> Grammar:
    """Read the grammar at the cursor: the rules are sliced out of one list of the u32 words."""
    sigma = cur.u32()
    alphabet = tuple(cur.take(sigma))
    m = cur.u32()
    data = cur.data
    nwords = (len(data) - cur.off) // 4
    words = _unpack("I", memoryview(data)[cur.off : cur.off + 4 * nwords]).tolist()
    rules = []
    pos = 0
    for _ in range(m):
        if pos == nwords:
            raise FormatError("unexpected end of input")
        end = pos + 1 + words[pos]
        if end > nwords:
            raise FormatError("unexpected end of input")
        rules.append(tuple(words[pos + 1 : end]))
        pos = end
    cur.off += 4 * pos
    return Grammar(alphabet, tuple(rules))


def grammar_from_bytes(data: bytes) -> Grammar:
    if data[: len(GRAMMAR_MAGIC)] == GRAMMAR_MAGIC:
        cur = _Cursor(data)
        cur.take(len(GRAMMAR_MAGIC))
        g = _read_grammar_section(cur)
        if not cur.done():
            raise FormatError("trailing data after grammar")
    elif data[: len(TEXT_MAGIC)] == TEXT_MAGIC.encode("ascii"):
        g = _grammar_from_text(data)
    else:
        raise FormatError("unrecognized format")
    require_valid(g)
    return g


def _grammar_from_text(data: bytes) -> Grammar:
    try:
        tokens = data.decode("ascii").split()
    except UnicodeDecodeError as exc:
        raise FormatError("malformed text grammar") from exc
    if not tokens or tokens[0] != TEXT_MAGIC:
        raise FormatError("unrecognized format")
    it = iter(tokens[1:])

    def next_int() -> int:
        try:
            tok = next(it)
        except StopIteration:
            raise FormatError("unexpected end of input") from None
        try:
            return int(tok)
        except ValueError:
            raise FormatError(f"malformed integer: {tok!r}") from None

    sigma = next_int()
    alphabet = tuple(next_int() for _ in range(sigma))
    m = next_int()
    rules = []
    for _ in range(m):
        k = next_int()
        rules.append(tuple(next_int() for _ in range(k)))
    leftover = next(it, None)
    if leftover is not None:
        raise FormatError("trailing data after grammar")
    return Grammar(alphabet, tuple(rules))


# --- indexes --------------------------------------------------------------


def index_to_bytes(idx: FolkloreIndex | FrasIndex) -> bytes:
    if not isinstance(idx, (FolkloreIndex, FrasIndex)):
        raise TypeError(f"not an index: {type(idx).__name__}")
    return INDEX_MAGIC + bytes((_INDEX_KINDS.index(idx.kind),)) + grammar_to_bytes(idx.grammar)


def index_from_bytes(data: bytes) -> FolkloreIndex | FrasIndex:
    """Read and validate the grammar, then call the index's constructor."""
    if data[: len(INDEX_MAGIC)] != INDEX_MAGIC:
        raise FormatError("unrecognized format")
    cur = _Cursor(data)
    cur.take(len(INDEX_MAGIC))
    kind = cur.u8()
    if kind >= len(_INDEX_KINDS):
        raise FormatError(f"unknown index kind tag: {kind}")
    if cur.take(len(GRAMMAR_MAGIC)) != GRAMMAR_MAGIC:
        raise FormatError("embedded grammar section missing")
    g = _read_grammar_section(cur)
    if not cur.done():
        raise FormatError("trailing data after index")
    require_valid(g)
    name = _INDEX_KINDS[kind]
    try:
        if name == "folklore":
            return FolkloreIndex(g)
        return FrasIndex(g, name.removeprefix("fras-"))
    except AccessError as exc:
        raise FormatError(f"{name} index: {exc.detail}") from exc
