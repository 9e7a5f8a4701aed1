"""Bit-exact file formats for grammars and indexes, as bytes in and bytes out.

Grammar files (binary, extension ``.fgz``): magic ``FRAS1\\0``, then
little-endian u32 fields: alphabet size, the alphabet bytes in ascending
order, rule count, and per rule its body length followed by the body's
symbol codes.  The start rule is the last rule.  A whitespace-separated
decimal variant with first line ``FRAS1-TEXT`` (extension ``.fgt``) holds
the same fields for debugging and hand-written inputs.  Each of its tokens
is ASCII decimal digits with a value below 2^32, and each alphabet entry is
below 256; anything else is a ``FormatError``.  ``grammar_from_bytes``
re-encodes such a text as the ``.fgz`` bytes of its fields and reads those,
so there is one grammar reader.

Index files (extension ``.fix``): magic ``FRIX2\\0``, a kind byte (0
folklore, 1 FRAS with sparse bitvectors, 2 FRAS with plain ones) and the
grammar section verbatim, nothing else.  The loader checks both magics
and the kind byte and reads the section with ``grammar_from_bytes``.  An
index is built from its grammar alone, so loading calls the same
constructor, ``FolkloreIndex`` or ``FrasIndex``, as
``build_folklore``/``build_fras``, and no stored table can disagree with
the grammar.  ``grammar_from_bytes`` checks the grammar; the constructor
and ``index_to_bytes`` reuse its cached result.  A FRAS grammar must
already be sorted by expansion length and a folklore grammar must be in
CNF, so re-serializing a loaded index is byte-identical.  A load reports
the first check that fails, in this order: the index magic, a cut before
the kind byte, the kind byte, the grammar magic, the reader's own checks
(see ``grammar_from_bytes``), the grammar check, and last the
constructor's sortedness or CNF check.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable

import numpy as np

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


def _text_to_binary(data: bytes) -> bytes:
    """The ``.fgz`` bytes of a ``.fgt`` text's fields, for the one grammar reader."""
    try:
        magic, *tokens = data.decode("ascii").split()
    except UnicodeDecodeError as exc:
        raise FormatError("malformed text grammar") from exc
    if magic != TEXT_MAGIC:
        raise FormatError("unrecognized format")
    for tok in tokens:
        if not tok.isdigit():
            raise FormatError(f"malformed integer: {tok!r}")
    try:
        values = [int(tok) for tok in tokens]
        sigma = values[0] if values else 0
        alphabet = bytes(values[1 : 1 + sigma])
        return GRAMMAR_MAGIC + _pack("I", values[:1]) + alphabet + _pack("I", values[1 + sigma :])
    except (OverflowError, ValueError):
        raise FormatError("integer out of range: fields are u32, alphabet entries bytes") from None


def grammar_from_bytes(data: bytes) -> Grammar:
    """Read a ``.fgz`` grammar, or a ``.fgt`` one re-encoded as ``.fgz``, and validate it.

    The errors come in the order of the checks: the magic, a cut inside
    the header, a rule count or body-length word that runs past the end of
    the data, data after the last body, then the grammar check.  The u32
    words after the alphabet are mapped, in one gather, to one int object
    per code, and each body is a slice of that one tuple, so every body
    that uses a code shares its int.  A code at or past ``sigma + m`` maps
    to ``sigma + m``, which the check reports as out of range.  Nothing is
    sized by the rule count before it is checked against the data.
    """
    if data[: len(TEXT_MAGIC)] == TEXT_MAGIC.encode("ascii"):
        data = _text_to_binary(data)
    elif data[: len(GRAMMAR_MAGIC)] != GRAMMAR_MAGIC:
        raise FormatError("unrecognized format")
    head = len(GRAMMAR_MAGIC) + 4
    sigma = int.from_bytes(data[len(GRAMMAR_MAGIC) : head], "little")
    start = head + sigma  # the rule count, then the rules
    nwords = (len(data) - start) // 4
    if len(data) < head or nwords < 1:
        raise FormatError("unexpected end of input")
    words = _unpack("I", data[start : start + 4 * nwords])
    m = words[0]
    if m >= nwords:  # each rule takes at least its body-length word
        raise FormatError("unexpected end of input")
    # One int per code; every word at or past sigma + m becomes sigma + m.
    codes = np.arange(sigma + m + 1).astype(object)
    shared = tuple(codes.take(np.frombuffer(words, np.uint32), mode="clip").tolist())
    rules = []
    pos = 1
    for _ in range(m):
        if pos == nwords or (end := pos + 1 + words[pos]) > nwords:
            raise FormatError("unexpected end of input")
        rules.append(shared[pos + 1 : end])
        pos = end
    if start + 4 * pos != len(data):
        raise FormatError("trailing data after grammar")
    g = Grammar(tuple(data[head:start]), tuple(rules))
    require_valid(g)
    return g


# --- indexes --------------------------------------------------------------


def index_to_bytes(idx: FolkloreIndex | FrasIndex) -> bytes:
    if not isinstance(idx, (FolkloreIndex, FrasIndex)):
        raise TypeError(f"not an index: {type(idx).__name__}")
    return INDEX_MAGIC + bytes((_INDEX_KINDS.index(idx.kind),)) + grammar_to_bytes(idx.grammar)


def index_from_bytes(data: bytes) -> FolkloreIndex | FrasIndex:
    """Check the header, read the grammar section as a ``.fgz``, then call the index's constructor."""
    if data[: len(INDEX_MAGIC)] != INDEX_MAGIC:
        raise FormatError("unrecognized format")
    head = len(INDEX_MAGIC) + 1
    if len(data) < head:
        raise FormatError("unexpected end of input")
    kind = data[head - 1]
    if kind >= len(_INDEX_KINDS):
        raise FormatError(f"unknown index kind tag: {kind}")
    if len(data) < head + len(GRAMMAR_MAGIC):
        raise FormatError("unexpected end of input")
    if data[head : head + len(GRAMMAR_MAGIC)] != GRAMMAR_MAGIC:
        raise FormatError("embedded grammar section missing")
    g = grammar_from_bytes(data[head:])
    name = _INDEX_KINDS[kind]
    try:
        if name == "folklore":
            return FolkloreIndex(g)
        return FrasIndex(g, name.removeprefix("fras-"))
    except AccessError as exc:
        raise FormatError(f"{name} index: {exc.detail}") from exc
