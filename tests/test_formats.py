import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fras import (
    FormatError,
    FrasIndex,
    Grammar,
    GrammarError,
    binarize_cnf,
    build_folklore,
    build_fras,
    expand,
    grammar_from_bytes,
    grammar_to_bytes,
    grammar_to_text,
    index_from_bytes,
    index_to_bytes,
    inline_single_use,
    repair_compress,
    sort_and_renumber,
)
from fras.cli import main
from fras.formats import INDEX_MAGIC
from helpers import FIG1_GRAMMAR, random_grammar, random_text

SINGLE_A = Grammar(alphabet=(97,), rules=((0,),))


def u32(x):
    return x.to_bytes(4, "little")


class TestGrammarEncoding:
    def test_fig1_layout(self, fig1):
        data = grammar_to_bytes(fig1)
        expected = b"FRAS1\x00"
        expected += u32(3) + bytes((97, 99, 103)) + u32(4)
        expected += u32(2) + u32(0) + u32(2)
        expected += u32(2) + u32(1) + u32(2)
        expected += u32(3) + u32(3) + u32(3) + u32(4)
        expected += u32(4) + u32(5) + u32(5) + u32(4) + u32(1)
        assert data == expected

    def test_minimal_layout(self):
        data = grammar_to_bytes(SINGLE_A)
        assert data == b"FRAS1\x00" + u32(1) + b"a" + u32(1) + u32(1) + u32(0)

    def test_binary_round_trip(self):
        rng = random.Random(107)
        for _ in range(60):
            g = random_grammar(rng)
            data = grammar_to_bytes(g)
            assert grammar_from_bytes(data) == g
            assert grammar_to_bytes(grammar_from_bytes(data)) == data

    def test_text_round_trip(self):
        rng = random.Random(109)
        for _ in range(40):
            g = random_grammar(rng)
            text = grammar_to_text(g).encode("ascii")
            assert text.startswith(b"FRAS1-TEXT\n")
            assert grammar_from_bytes(text) == g



class TestGrammarErrors:
    def test_unrecognized_magic(self):
        with pytest.raises(FormatError, match="unrecognized format"):
            grammar_from_bytes(b"\x01\x02\x03\x04\x05\x06")

    def test_truncated_body(self, fig1):
        data = grammar_to_bytes(fig1)
        with pytest.raises(FormatError, match="unexpected end of input"):
            grammar_from_bytes(data[:-3])

    def test_body_length_beyond_eof(self):
        data = b"FRAS1\x00" + u32(1) + b"a" + u32(1) + u32(100) + u32(0)
        with pytest.raises(FormatError, match="unexpected end of input"):
            grammar_from_bytes(data)

    def test_trailing_data(self, fig1):
        data = grammar_to_bytes(fig1) + b"x"
        with pytest.raises(FormatError, match="trailing data"):
            grammar_from_bytes(data)

    def test_invalid_grammar_propagates_rule_id(self):
        # rule 1 references rule 2: forward reference
        data = b"FRAS1\x00" + u32(1) + b"a" + u32(2)
        data += u32(1) + u32(2)
        data += u32(2) + u32(0) + u32(1)
        with pytest.raises(GrammarError, match="forward reference at rule 1"):
            grammar_from_bytes(data)

    def test_text_bad_token(self):
        with pytest.raises(FormatError, match="malformed integer"):
            grammar_from_bytes(b"FRAS1-TEXT\n1 97 1 1 zero\n")

    def test_text_truncated(self):
        with pytest.raises(FormatError, match="unexpected end of input"):
            grammar_from_bytes(b"FRAS1-TEXT\n1 97 2 1 0\n")

    @pytest.mark.parametrize(
        "text",
        [
            b"FRAS1-TEXT\n1 97 1 1 -1\n",
            b"FRAS1-TEXT\n1 97 1 1 +0\n",
            b"FRAS1-TEXT\n1 97 1 1 1_0\n",
            "FRAS1-TEXT\n1 97 1 1 \u0660\n".encode("utf-8"),  # ARABIC-INDIC DIGIT ZERO
            b"FRAS1-TEXT\n1 97 1 1 4294967296\n",
            b"FRAS1-TEXT\n1 300 1 1 0\n",
        ],
        ids=["minus-one", "plus-zero", "underscore", "non-ascii-digit", "2-to-the-32", "alphabet-300"],
    )
    def test_text_outside_the_binary_domain(self, text):
        # A .fgt token is an ASCII decimal below 2**32, an alphabet entry
        # below 256: what the .fgz layout can hold.
        with pytest.raises(FormatError):
            grammar_from_bytes(text)

    def test_text_junk_after_a_complete_grammar(self):
        with pytest.raises(FormatError, match="malformed integer"):
            grammar_from_bytes(b"FRAS1-TEXT\n1 97 1 1 0\nzz\n")
        with pytest.raises(FormatError, match="trailing data after grammar"):
            grammar_from_bytes(b"FRAS1-TEXT\n1 97 1 1 0\n7\n")

    def test_text_magic_with_a_suffix(self):
        with pytest.raises(FormatError, match="unrecognized format"):
            grammar_from_bytes(b"FRAS1-TEXTX\n1 97 1 1 0\n")

    def test_text_round_trip_of_alphabet_bytes_0_and_255(self):
        g = Grammar((0, 255), ((1,), (0, 2)))
        assert grammar_from_bytes(grammar_to_text(g).encode("ascii")) == g


class TestGrammarSectionBounds:
    @staticmethod
    def grammars():
        t = random_text(random.Random(7), 300, 3)
        return [SINGLE_A, repair_compress(t), inline_single_use(repair_compress(t))]

    def test_every_cut_of_a_grammar_file(self):
        for g in self.grammars():
            data = grammar_to_bytes(g)
            for cut in range(len(data)):
                with pytest.raises(FormatError):
                    grammar_from_bytes(data[:cut])

    def test_every_cut_inside_an_index_grammar_section(self):
        for g in self.grammars():
            for idx in (build_fras(g, "plain"), build_fras(g, "sparse"), build_folklore(binarize_cnf(g))):
                data = index_to_bytes(idx)
                start = data.index(b"FRAS1\x00", 1)
                end = start + len(grammar_to_bytes(idx.grammar))
                assert end == len(data)  # a cut at the end is the whole file
                for cut in range(start, end):
                    with pytest.raises(FormatError):
                        index_from_bytes(data[:cut])

    @pytest.mark.parametrize(
        "fields",
        [
            u32(0xFFFFFFFF) + b"a",  # alphabet size
            u32(1) + b"a" + u32(0xFFFFFFFF) + u32(1) + u32(0),  # rule count
            u32(1) + b"a" + u32(1) + u32(0xFFFFFFFF) + u32(0),  # body length
            u32(1) + b"a" + u32(2) + u32(1) + u32(0) + u32(0x7FFFFFFF),  # second body
        ],
    )
    def test_oversized_counts(self, fields):
        with pytest.raises(FormatError, match="unexpected end of input"):
            grammar_from_bytes(b"FRAS1\x00" + fields)
        index = INDEX_MAGIC + bytes([1]) + b"FRAS1\x00" + fields + bytes(64)
        with pytest.raises(FormatError, match="unexpected end of input"):
            index_from_bytes(index)


class TestIndexRoundTrip:
    @pytest.mark.parametrize("kind", ["plain", "sparse"])
    def test_fras_round_trip_preserves_answers(self, fig1, fig1_text, kind):
        idx = build_fras(fig1, kind)
        data = index_to_bytes(idx)
        # Loading and the constructor on the sorted grammar derive the same
        # tables as build_fras.
        for other in (index_from_bytes(data), FrasIndex(sort_and_renumber(fig1), kind)):
            assert other.kind == idx.kind
            assert other.n == idx.n
            assert other.unique_lengths == idx.unique_lengths
            for bv, ref in ((other.rule_marks, idx.rule_marks), (other.start_marks, idx.start_marks)):
                u, b = ref.universe, ref.num_set
                assert [bv.rank(i) for i in range(u + 1)] == [ref.rank(i) for i in range(u + 1)]
                assert [bv.select(r) for r in range(1, b + 1)] == [ref.select(r) for r in range(1, b + 1)]
            for p in range(1, 16):
                assert other.access(p) == fig1_text[p - 1]
            assert index_to_bytes(other) == data

    def test_folklore_round_trip(self, fig1, fig1_text):
        idx = build_folklore(binarize_cnf(fig1))
        data = index_to_bytes(idx)
        loaded = index_from_bytes(data)
        assert loaded.left_lengths == idx.left_lengths
        for p in range(1, 16):
            assert loaded.access(p) == fig1_text[p - 1]
        assert index_to_bytes(loaded) == data

    def test_random_indexes(self):
        rng = random.Random(113)
        for _ in range(25):
            t = random_text(rng, rng.randint(5, 400), rng.randint(1, 5))
            g = repair_compress(t)
            for build in (
                lambda: build_folklore(binarize_cnf(g)),
                lambda: build_fras(g, "plain"),
                lambda: build_fras(g, "sparse"),
            ):
                data = index_to_bytes(build())
                loaded = index_from_bytes(data)
                for p in rng.sample(range(1, len(t) + 1), min(25, len(t))):
                    assert loaded.access(p) == t[p - 1]
                assert index_to_bytes(loaded) == data

    def test_rank_select_preserved(self, fig1):
        idx = build_fras(fig1, "sparse")
        loaded = index_from_bytes(index_to_bytes(idx))
        for i in range(16):
            assert loaded.start_marks.rank(i) == idx.start_marks.rank(i)
        for r in range(1, 5):
            assert loaded.start_marks.select(r) == idx.start_marks.select(r)
        for j in range(5):
            assert loaded.rule_marks.rank(j) == idx.rule_marks.rank(j)

    def test_text_of_2_to_the_64_minus_1_bytes(self):
        # X1 = a, X(k+1) = X(k) X(k) for k < 64, start = X64 X63 ... X2 b:
        # (2**64 - 2) a's and a final b.  Rule j has the code j + 1.
        rules = [(0,)] + [(j + 1, j + 1) for j in range(1, 64)]
        rules.append(tuple(range(65, 2, -1)) + (1,))
        idx = build_fras(Grammar((97, 98), tuple(rules)), "sparse")
        data = index_to_bytes(idx)
        loaded = index_from_bytes(data)
        assert index_to_bytes(loaded) == data
        n = 2**64 - 1
        assert loaded.n == n
        assert [loaded.access(p) for p in (1, 2**63, n)] == [97, 97, 98]
        assert loaded.extract(n - 2, 3) == b"aab"


class TestIndexErrors:
    def test_unrecognized(self):
        with pytest.raises(FormatError, match="unrecognized format"):
            index_from_bytes(b"nonsense")

    def test_unknown_kind_tag(self, fig1):
        data = bytearray(index_to_bytes(build_fras(fig1, "plain")))
        data[6] = 9
        with pytest.raises(FormatError, match="unknown index kind"):
            index_from_bytes(bytes(data))

    def test_folklore_trailing_data(self, fig1):
        data = index_to_bytes(build_folklore(binarize_cnf(fig1)))
        with pytest.raises(FormatError, match="trailing data"):
            index_from_bytes(data + b"\x00")

    def test_text_grammar_section(self):
        data = INDEX_MAGIC + bytes([1]) + grammar_to_text(SINGLE_A).encode("ascii")
        with pytest.raises(FormatError, match="embedded grammar section missing"):
            index_from_bytes(data)

    def test_magic_alone(self):
        with pytest.raises(FormatError, match="unexpected end of input"):
            index_from_bytes(INDEX_MAGIC)


# Rules "aba", "ab", then the start rule: valid, but not sorted by length.
UNSORTED = Grammar((97, 98), ((0, 1, 0), (0, 1), (2, 3)))
# The sparse FRAS index of SINGLE_A in the earlier FRIX1 format, which
# stored length tables and bitvectors after the grammar.
FRIX1_SINGLE_A = bytes.fromhex(
    "4652495831000146524153310001000000610100000001000000000000000100000000000000"
    "0100000001000000000000000101000000000000000100000000000000000100000000000000"
    "0000000000000000000200000000000000010000000000000002000000000000000100000000"
    "0000000000000000000000010100000000000000010000000000000000010000000000000000"
    "0000000000000000020000000000000001000000000000000200000000000000010000000000"
    "00000000000000000000"
)


class TestLoadRejections:
    @pytest.mark.parametrize(
        "data, match",
        [
            (INDEX_MAGIC + bytes([1]) + grammar_to_bytes(UNSORTED), "not sorted by expansion length"),
            (INDEX_MAGIC + bytes([2]) + grammar_to_bytes(UNSORTED), "not sorted by expansion length"),
            (INDEX_MAGIC + bytes([0]) + grammar_to_bytes(FIG1_GRAMMAR), "not in CNF"),
            (FRIX1_SINGLE_A, "unrecognized format"),
            (INDEX_MAGIC + bytes([3]) + grammar_to_bytes(SINGLE_A), "unknown index kind tag: 3"),
        ],
        ids=["fras-sparse-unsorted", "fras-plain-unsorted", "folklore-not-cnf", "frix1", "kind-3"],
    )
    def test_rejected_on_load_and_by_the_cli(self, data, match, tmp_path, capsys):
        with pytest.raises(FormatError, match=match):
            index_from_bytes(data)
        path = tmp_path / "bad.fix"
        path.write_bytes(data)
        assert main(["get", "--index", str(path), "-p", "1", "-l", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and match in captured.err


def load_file(kind, data):
    """The grammar, an index and the re-serialized bytes of a ``.fgz`` or ``.fix`` file."""
    if kind == "fgz":
        g = grammar_from_bytes(data)
        return g, build_fras(g, "sparse"), grammar_to_bytes(g)
    idx = index_from_bytes(data)
    return idx.grammar, idx, index_to_bytes(idx)


def check_mutant(kind, data):
    """A mutated file is rejected as documented, or loads and answers its own grammar's text.

    Only texts of at most 10**6 bytes are extracted, so memory stays O(grammar)
    for sparse and folklore indexes.
    """
    try:
        g, idx, again = load_file(kind, data)
    except (FormatError, GrammarError):
        return False
    assert again == data
    if idx.n <= 10**6:
        assert idx.extract(1, idx.n) == expand(g)
    return True


@functools.cache
def overwrite_bases():
    g = repair_compress(random_text(random.Random(3), 400, 3))
    return {
        "fgz": grammar_to_bytes(g),
        "fix-sparse": index_to_bytes(build_fras(g, "sparse")),
        "fix-folklore": index_to_bytes(build_folklore(binarize_cnf(g))),
    }


class TestMutatedFiles:
    @pytest.mark.parametrize("kind", ["plain", "sparse", "folklore"])
    def test_single_bit_flips(self, kind):
        # Every table is rebuilt from the grammar on load, so a mutant that
        # loads is the index of whatever grammar the flip produced.  Each
        # one must be rejected, or load and answer its own grammar's text.
        # The CNF form has more rules, so folklore gets a shorter text.
        size = 1000 if kind == "folklore" else 3000
        g = repair_compress(random_text(random.Random(0), size, 2))
        idx = build_folklore(binarize_cnf(g)) if kind == "folklore" else build_fras(g, kind)
        data = index_to_bytes(idx)
        loaded = 0
        for bit in range(8 * len(data)):
            mutant = bytearray(data)
            mutant[bit >> 3] ^= 1 << (bit & 7)
            loaded += check_mutant("fix", bytes(mutant))
        assert loaded > 0

    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(["fgz", "fix-sparse", "fix-folklore"]),
        overwrites=st.lists(
            st.tuples(st.floats(min_value=0, max_value=1, exclude_max=True), st.binary(min_size=1, max_size=8)),
            min_size=1,
            max_size=4,
        ),
    )
    def test_multi_byte_overwrites(self, name, overwrites):
        # A plain index of a mutated grammar could ask for n/8 bytes, so
        # .fgz files get a sparse index and plain .fix files are left out.
        data = bytearray(overwrite_bases()[name])
        for where, chunk in overwrites:
            off = int(where * len(data))
            data[off : off + len(chunk)] = chunk[: len(data) - off]
        check_mutant(name[:3], bytes(data))
