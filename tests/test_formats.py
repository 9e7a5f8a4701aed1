import io
import random

import pytest

from fras import (
    AccessError,
    FormatError,
    Grammar,
    GrammarError,
    binarize_cnf,
    build_folklore,
    build_fras,
    grammar_from_bytes,
    grammar_to_bytes,
    grammar_to_text,
    index_from_bytes,
    index_to_bytes,
    inline_single_use,
    read_grammar,
    read_index,
    repair_compress,
    write_grammar,
    write_index,
)
from fras.formats import INDEX_MAGIC
from helpers import random_grammar, random_text

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

    def test_file_objects(self, fig1, tmp_path):
        path = tmp_path / "g.fgz"
        with open(path, "wb") as f:
            write_grammar(fig1, f)
        with open(path, "rb") as f:
            assert read_grammar(f) == fig1
        path_t = tmp_path / "g.fgt"
        with open(path_t, "wb") as f:
            write_grammar(fig1, f, text=True)
        with open(path_t, "rb") as f:
            assert read_grammar(f) == fig1


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
                for cut in range(start, end + 1):
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
        loaded = index_from_bytes(data)
        assert loaded.kind == idx.kind
        assert loaded.n == idx.n
        assert loaded.unique_lengths == idx.unique_lengths
        for p in range(1, 16):
            assert loaded.access(p) == fig1_text[p - 1]
        assert index_to_bytes(loaded) == data

    def test_folklore_round_trip(self, fig1, fig1_text):
        idx = build_folklore(binarize_cnf(fig1))
        data = index_to_bytes(idx)
        loaded = index_from_bytes(data)
        assert loaded.left_lengths == idx.left_lengths
        for p in range(1, 16):
            assert loaded.access(p) == fig1_text[p - 1]
        assert index_to_bytes(loaded) == data

    def test_random_indexes(self, tmp_path):
        rng = random.Random(113)
        for i in range(25):
            t = random_text(rng, rng.randint(5, 400), rng.randint(1, 5))
            g = repair_compress(t)
            for build in (
                lambda: build_folklore(binarize_cnf(g)),
                lambda: build_fras(g, "plain"),
                lambda: build_fras(g, "sparse"),
            ):
                idx = build()
                path = tmp_path / f"i{i}.fix"
                with open(path, "wb") as f:
                    write_index(idx, f)
                with open(path, "rb") as f:
                    loaded = read_index(f)
                for p in rng.sample(range(1, len(t) + 1), min(25, len(t))):
                    assert loaded.access(p) == t[p - 1]
                with io.BytesIO() as buf:
                    write_index(loaded, buf)
                    assert buf.getvalue() == path.read_bytes()

    def test_rank_select_preserved(self, fig1):
        idx = build_fras(fig1, "sparse")
        loaded = index_from_bytes(index_to_bytes(idx))
        for i in range(16):
            assert loaded.start_marks.rank(i) == idx.start_marks.rank(i)
        for r in range(1, 5):
            assert loaded.start_marks.select(r) == idx.start_marks.select(r)
        for j in range(5):
            assert loaded.rule_marks.rank(j) == idx.rule_marks.rank(j)


class TestIndexErrors:
    def test_unrecognized(self):
        with pytest.raises(FormatError, match="unrecognized format"):
            index_from_bytes(b"nonsense")

    def test_unknown_kind_tag(self, fig1):
        data = bytearray(index_to_bytes(build_fras(fig1, "plain")))
        data[6] = 9
        with pytest.raises(FormatError, match="unknown index kind"):
            index_from_bytes(bytes(data))

    def test_unknown_bitvector_tag(self, fig1):
        idx = build_fras(fig1, "plain")
        data = index_to_bytes(idx)
        # the first bitvector tag byte follows grammar + n + L table
        offset = data.index(b"FRAS1\x00", 1)  # embedded grammar section
        glen = len(grammar_to_bytes(idx.grammar))
        pos = offset + glen + 8 + 4 + 8 * len(idx.unique_lengths)
        corrupted = bytearray(data)
        assert corrupted[pos] in (0, 1)
        corrupted[pos] = 7
        with pytest.raises(FormatError, match="unknown bitvector kind"):
            index_from_bytes(bytes(corrupted))

    def test_truncated_bitvector_payload(self, fig1):
        data = index_to_bytes(build_fras(fig1, "sparse"))
        with pytest.raises(FormatError, match="unexpected end of input"):
            index_from_bytes(data[:-5])

    def test_folklore_trailing_data(self, fig1):
        data = index_to_bytes(build_folklore(binarize_cnf(fig1)))
        with pytest.raises(FormatError, match="trailing data"):
            index_from_bytes(data + b"\x00")

    @pytest.mark.parametrize("kind", ["plain", "sparse"])
    def test_corrupt_bitvector_words_raise_format_error(self, kind):
        # The last 40 bytes lie inside the start-mark bitvector: every flip
        # trips one of its consistency checks, which must surface as FormatError.
        data = index_to_bytes(build_fras(repair_compress(b"abracadabra" * 20), kind))
        for k in range(len(data) - 40, len(data)):
            corrupted = bytearray(data)
            corrupted[k] ^= 0x80
            with pytest.raises(FormatError):
                index_from_bytes(bytes(corrupted))


class TestCorruptIndexQueries:
    @pytest.mark.parametrize("kind", ["plain", "sparse"])
    def test_bit_flips_after_grammar_fail_only_as_documented(self, kind):
        # Flip every bit after the grammar section: n, the length table and
        # both bitvectors.  Each mutant is rejected on load, or its queries
        # return bytes or raise AccessError; no other exception escapes.
        # (Tables are not re-derived on load, so a mutant may answer wrongly.)
        t = random_text(random.Random(1), 3000, 2)
        idx = build_fras(repair_compress(t), kind)
        data = index_to_bytes(idx)
        start = data.index(b"FRAS1\x00", 1) + len(grammar_to_bytes(idx.grammar))
        loaded = 0
        for bit in range(8 * start, 8 * len(data)):
            corrupted = bytearray(data)
            corrupted[bit >> 3] ^= 1 << (bit & 7)
            try:
                mutant = index_from_bytes(bytes(corrupted))
            except (FormatError, GrammarError):
                continue
            loaded += 1
            for p in (1, mutant.n):
                try:
                    assert len(mutant.extract(p, mutant.n - p + 1)) == mutant.n - p + 1
                    assert mutant.access_trace(p)[1][0] == len(mutant.grammar.rules)
                except AccessError as exc:
                    assert exc.kind == "malformed-index"
        assert loaded > 0
