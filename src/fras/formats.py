"""Bit-exact file formats for grammars and indexes.

Grammar files (binary, extension ``.fgz``): magic ``FRAS1\\0``, then
little-endian u32 fields: alphabet size, the alphabet bytes in ascending
order, rule count, and per rule its body length followed by the body's
symbol codes.  The start rule is the last rule.  A whitespace-separated
decimal variant with first line ``FRAS1-TEXT`` (extension ``.fgt``) holds
the same fields for debugging and hand-written inputs.

Index files (extension ``.fix``): magic ``FRIX1\\0``, a kind tag, the
grammar section verbatim, then the kind's tables (u64 lengths) and
bitvectors (kind tag, universe, set-bit count, packed 64-bit words).
Rank directories and the sparse bucket table are rebuilt on load, so
re-serialization is byte-identical.
"""

from __future__ import annotations

import sys
from array import array
from typing import BinaryIO, Iterable

from .access import FolkloreIndex, FrasIndex
from .grammar import Grammar, is_cnf, require_valid
from .succinct import PlainBitvector, SparseBitvector

GRAMMAR_MAGIC = b"FRAS1\x00"
TEXT_MAGIC = "FRAS1-TEXT"
INDEX_MAGIC = b"FRIX1\x00"

_KIND_FOLKLORE = 0
_KIND_FRAS = 1
_BV_PLAIN = 0
_BV_SPARSE = 1


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

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "little")

    def done(self) -> bool:
        return self.off == len(self.data)


# --- grammars -------------------------------------------------------------


def grammar_to_bytes(g: Grammar) -> bytes:
    require_valid(g)
    out = bytearray(GRAMMAR_MAGIC)
    out += len(g.alphabet).to_bytes(4, "little")
    out += bytes(g.alphabet)
    out += len(g.rules).to_bytes(4, "little")
    for body in g.rules:
        out += len(body).to_bytes(4, "little")
        out += _pack("I", body)
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
    """Read the grammar at the cursor: the rules are sliced out of one u32 array."""
    sigma = cur.u32()
    alphabet = tuple(cur.take(sigma))
    m = cur.u32()
    data = cur.data
    nwords = (len(data) - cur.off) // 4
    words = _unpack("I", memoryview(data)[cur.off : cur.off + 4 * nwords])
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


def write_grammar(g: Grammar, sink: BinaryIO, text: bool = False) -> None:
    if text:
        sink.write(grammar_to_text(g).encode("ascii"))
    else:
        sink.write(grammar_to_bytes(g))


def read_grammar(source: BinaryIO) -> Grammar:
    return grammar_from_bytes(source.read())


# --- bitvectors -----------------------------------------------------------


def _write_bitvector(out: bytearray, bv: PlainBitvector | SparseBitvector) -> None:
    if isinstance(bv, PlainBitvector):
        out.append(_BV_PLAIN)
        out += bv.universe.to_bytes(8, "little")
        out += bv.num_set.to_bytes(8, "little")
        words = bv.words()
        out += len(words).to_bytes(8, "little")
        out += _pack("Q", words)
    else:
        out.append(_BV_SPARSE)
        out += bv.universe.to_bytes(8, "little")
        out += bv.num_set.to_bytes(8, "little")
        out.append(bv.low_width)
        lows = bv.low_words()
        out += len(lows).to_bytes(8, "little")
        out += _pack("Q", lows)
        _write_bitvector(out, bv.high)


def _read_bitvector(cur: _Cursor) -> PlainBitvector | SparseBitvector:
    tag = cur.u8()
    if tag == _BV_PLAIN:
        universe = cur.u64()
        num_set = cur.u64()
        nwords = cur.u64()
        words = _unpack("Q", cur.take(8 * nwords))
        try:
            return PlainBitvector.from_words(words, universe, num_set)
        except ValueError as exc:
            raise FormatError(f"malformed plain bitvector: {exc}") from exc
    if tag == _BV_SPARSE:
        universe = cur.u64()
        num_set = cur.u64()
        w = cur.u8()
        nwords = cur.u64()
        lows = _unpack("Q", cur.take(8 * nwords))
        high = _read_bitvector(cur)
        if not isinstance(high, PlainBitvector):
            raise FormatError("sparse bitvector high bits must be plain")
        try:
            return SparseBitvector.from_parts(universe, num_set, w, lows, high)
        except ValueError as exc:
            raise FormatError(f"malformed sparse bitvector: {exc}") from exc
    raise FormatError(f"unknown bitvector kind tag: {tag}")


# --- indexes --------------------------------------------------------------


def index_to_bytes(idx: FolkloreIndex | FrasIndex) -> bytes:
    out = bytearray(INDEX_MAGIC)
    if isinstance(idx, FolkloreIndex):
        out.append(_KIND_FOLKLORE)
        out += grammar_to_bytes(idx.grammar)
        out += idx.n.to_bytes(8, "little")
        out += len(idx.left_lengths).to_bytes(4, "little")
        out += _pack("Q", idx.left_lengths)
    elif isinstance(idx, FrasIndex):
        out.append(_KIND_FRAS)
        out += grammar_to_bytes(idx.grammar)
        out += idx.n.to_bytes(8, "little")
        out += len(idx.unique_lengths).to_bytes(4, "little")
        out += _pack("Q", idx.unique_lengths)
        _write_bitvector(out, idx.rule_marks)
        _write_bitvector(out, idx.start_marks)
    else:
        raise TypeError(f"not an index: {type(idx).__name__}")
    return bytes(out)


def index_from_bytes(data: bytes) -> FolkloreIndex | FrasIndex:
    if data[: len(INDEX_MAGIC)] != INDEX_MAGIC:
        raise FormatError("unrecognized format")
    cur = _Cursor(data)
    cur.take(len(INDEX_MAGIC))
    kind = cur.u8()
    if kind not in (_KIND_FOLKLORE, _KIND_FRAS):
        raise FormatError(f"unknown index kind tag: {kind}")
    if cur.take(len(GRAMMAR_MAGIC)) != GRAMMAR_MAGIC:
        raise FormatError("embedded grammar section missing")
    g = _read_grammar_section(cur)
    require_valid(g)
    n = cur.u64()
    count = cur.u32()
    values = tuple(_unpack("Q", cur.take(8 * count)))
    if kind == _KIND_FOLKLORE:
        if not cur.done():
            raise FormatError("trailing data after index")
        if not is_cnf(g):
            raise FormatError("folklore index grammar is not in CNF")
        if count != len(g.rules):
            raise FormatError("left-length table size mismatch")
        return FolkloreIndex(g, values, n)
    rule_marks = _read_bitvector(cur)
    start_marks = _read_bitvector(cur)
    if not cur.done():
        raise FormatError("trailing data after index")
    if any(values[i] >= values[i + 1] for i in range(len(values) - 1)):
        raise FormatError("length array not strictly increasing")
    if not values or values[-1] != n:
        raise FormatError("length array does not end at the text length")
    if rule_marks.universe != len(g.rules) or rule_marks.num_set != count:
        raise FormatError("rule mark bitvector inconsistent with grammar")
    if start_marks.universe != n or start_marks.num_set != len(g.rules[-1]):
        raise FormatError("start mark bitvector inconsistent with grammar")
    return FrasIndex(g, values, rule_marks, start_marks, n)


def write_index(idx: FolkloreIndex | FrasIndex, sink: BinaryIO) -> None:
    sink.write(index_to_bytes(idx))


def read_index(source: BinaryIO) -> FolkloreIndex | FrasIndex:
    return index_from_bytes(source.read())
