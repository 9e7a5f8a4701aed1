import random
import sys
import threading

import pytest

from fras import (
    AccessError,
    FolkloreIndex,
    FrasIndex,
    Grammar,
    GrammarError,
    binarize_cnf,
    build_bitvector,
    build_folklore,
    build_fras,
    expand,
    expand_chunks,
    index_from_bytes,
    index_to_bytes,
    inline_single_use,
    repair_compress,
    sort_and_renumber,
)
from fras.access import _MEMO_RULE_LIMIT
from fras.corpus import repetitive_text
from helpers import fresh_violations, naive_expand, naive_rule_expansions, random_grammar, random_text

SINGLE_A = Grammar(alphabet=(97,), rules=((0,),))


class TestFrasGolden:
    def test_fig1_structures(self, fig1):
        idx = build_fras(fig1, "sparse")
        assert idx.unique_lengths == (2, 6, 15)
        m = len(idx.grammar.rules)
        bx_bits = [1 if r in {idx.rule_marks.select(k) for k in range(1, idx.rule_marks.num_set + 1)} else 0 for r in range(1, m + 1)]
        assert bx_bits == [1, 0, 1, 1]
        bs_positions = [idx.start_marks.select(k) for k in range(1, idx.start_marks.num_set + 1)]
        assert bs_positions == [1, 7, 13, 15]
        assert idx.start_marks.universe == 15
        assert idx.n == 15

    @pytest.mark.parametrize("kind", ["plain", "sparse"])
    def test_fig1_all_positions(self, fig1, fig1_text, kind):
        idx = build_fras(fig1, kind)
        assert bytes(idx.access(p) for p in range(1, 16)) == fig1_text

    def test_fig1_worked_example(self, fig1):
        # T[5] = 'c': start symbol X3 at offset 5, skip two length-2 rules,
        # land on the first character of the length-2 rule cg.
        idx = build_fras(fig1, "sparse")
        assert idx.access(5) == ord("c")
        _, trace = idx.access_trace(5)
        assert trace == [4, 3, 2]

    def test_single_char(self):
        idx = build_fras(SINGLE_A, "sparse")
        assert idx.unique_lengths == (1,)
        assert idx.rule_marks.universe == 1
        assert idx.start_marks.universe == 1
        assert idx.access(1) == 97

    def test_terminal_in_start_rule(self, fig1):
        # position 15 is the bare terminal c in the start rule
        idx = build_fras(fig1, "plain")
        assert idx.access(15) == ord("c")
        _, trace = idx.access_trace(15)
        assert trace == [4]


class TestFolklore:
    def test_fig1_binarized(self, fig1, fig1_text):
        cnf = binarize_cnf(fig1)
        idx = build_folklore(cnf)
        assert bytes(idx.access(p) for p in range(1, 16)) == fig1_text

    def test_two_char_left_length(self):
        g = Grammar(alphabet=(97, 98), rules=((0,), (1,), (2, 3)))
        idx = build_folklore(g)
        assert idx.left_lengths[-1] == 1
        assert idx.access(1) == 97
        assert idx.access(2) == 98

    def test_left_lengths_match_bruteforce(self):
        rng = random.Random(71)
        for _ in range(60):
            cnf = binarize_cnf(random_grammar(rng))
            idx = build_folklore(cnf)
            exps = naive_rule_expansions(cnf)
            sigma = len(cnf.alphabet)
            for j, body in enumerate(cnf.rules, start=1):
                if len(body) == 2:
                    assert idx.left_lengths[j - 1] == len(exps[body[0] - sigma])

    def test_rejects_non_cnf(self, fig1):
        for build in (build_folklore, FolkloreIndex):
            with pytest.raises(AccessError, match="grammar is not in CNF") as exc:
                build(fig1)
            assert exc.value.kind == "malformed-index"

    def test_rejects_length_overflow(self):
        # X1 = a, X(k+1) = X(k) X(k): X65 derives 2**64 bytes, one too many.
        g = Grammar(alphabet=(97,), rules=((0,),) + tuple((k, k) for k in range(1, 65)))
        with pytest.raises(GrammarError, match="length overflow"):
            build_folklore(g)

    def test_single_terminal_start(self):
        idx = build_folklore(SINGLE_A)
        assert idx.access(1) == 97


class TestBounds:
    @pytest.mark.parametrize("kind", ["plain", "sparse"])
    def test_fras_out_of_range(self, fig1, kind):
        idx = build_fras(fig1, kind)
        for p in (0, -3, 16):
            with pytest.raises(AccessError) as exc:
                idx.access(p)
            assert exc.value.kind == "position-out-of-range"

    def test_folklore_out_of_range(self, fig1):
        idx = build_folklore(binarize_cnf(fig1))
        with pytest.raises(AccessError):
            idx.access(0)
        with pytest.raises(AccessError):
            idx.access(16)

    def test_extract_out_of_range(self, fig1):
        idx = build_fras(fig1, "sparse")
        with pytest.raises(AccessError):
            idx.extract(10, 7)
        with pytest.raises(AccessError):
            idx.extract(1, 0)
        with pytest.raises(AccessError):
            idx.extract(0, 3)


class TestMalformedIndex:
    # Tables assigned after construction can disagree with the grammar; the
    # ValueError or IndexError this raises below a query is wrapped.
    @staticmethod
    def check_queries_fail(idx, p):
        for query in (idx.access, lambda p: idx.extract(p, 3), idx.access_trace):
            with pytest.raises(AccessError) as exc:
                query(p)
            assert exc.value.kind == "malformed-index"

    @pytest.mark.parametrize("kind", ["plain", "sparse"])
    def test_fras_start_marks_too_short(self, fig1, kind):
        idx = build_fras(fig1, kind)
        idx.start_marks = build_bitvector([1], 1, kind)
        self.check_queries_fail(idx, 5)

    def test_folklore_without_left_lengths(self, fig1):
        idx = build_folklore(binarize_cnf(fig1))
        idx.left_lengths = ()
        self.check_queries_fail(idx, 5)

    def test_access_trace_out_of_range(self, fig1):
        for idx in (build_fras(fig1, "sparse"), build_folklore(binarize_cnf(fig1))):
            for p in (0, 16):
                with pytest.raises(AccessError) as exc:
                    idx.access_trace(p)
                assert exc.value.kind == "position-out-of-range"


class TestCrossOracle:
    def test_random_grammars_agree(self):
        rng = random.Random(73)
        for _ in range(40):
            g = random_grammar(rng, max_rules=10)
            text = expand(g)
            folk = build_folklore(binarize_cnf(g))
            plain = build_fras(g, "plain")
            sparse = build_fras(g, "sparse")
            assert folk.n == plain.n == sparse.n == len(text)
            for p in range(1, len(text) + 1):
                expected = text[p - 1]
                assert folk.access(p) == expected
                assert plain.access(p) == expected
                assert sparse.access(p) == expected

    def test_repair_grammars_agree(self):
        rng = random.Random(79)
        for _ in range(15):
            t = random_text(rng, rng.randint(10, 600), rng.randint(1, 6))
            g = repair_compress(t)
            for make in (
                lambda: build_folklore(binarize_cnf(g)),
                lambda: build_fras(g, "plain"),
                lambda: build_fras(g, "sparse"),
                lambda: build_fras(inline_single_use(g), "sparse"),
            ):
                idx = make()
                for p in rng.sample(range(1, len(t) + 1), min(60, len(t))):
                    assert idx.access(p) == t[p - 1]


class TestExtract:
    def test_fig1_full(self, fig1, fig1_text):
        for kind in ("plain", "sparse"):
            idx = build_fras(fig1, kind)
            assert idx.extract(1, 15) == fig1_text
        folk = build_folklore(binarize_cnf(fig1))
        assert folk.extract(1, 15) == fig1_text

    def test_length_one_equals_access(self, fig1):
        idx = build_fras(fig1, "sparse")
        for p in range(1, 16):
            assert idx.extract(p, 1)[0] == idx.access(p)

    def test_random_slices(self):
        rng = random.Random(83)
        for _ in range(10):
            t = random_text(rng, rng.randint(50, 800), rng.randint(1, 5))
            g = repair_compress(t)
            indexes = [
                build_folklore(binarize_cnf(g)),
                build_fras(g, "plain"),
                build_fras(g, "sparse"),
            ]
            for _ in range(80):
                p = rng.randint(1, len(t))
                ln = rng.randint(1, len(t) - p + 1)
                expected = t[p - 1 : p - 1 + ln]
                idx = indexes[rng.randrange(3)]
                assert idx.extract(p, ln) == expected

    def test_every_byte_value(self):
        # 0x00 and 0xFF included: each byte maps to its alphabet code and back.
        rng = random.Random(89)
        values = list(range(256))
        rng.shuffle(values)
        t = bytearray(values)
        while len(t) < 3000:
            if rng.random() < 0.8:
                p = rng.randrange(len(t))
                t += t[p : p + rng.randint(2, 40)]
            else:
                t.append(rng.randrange(256))
        t = bytes(t)
        g = repair_compress(t)
        assert g.alphabet == tuple(range(256))
        assert expand(g) == b"".join(expand_chunks(g)) == t
        for idx in TestGeneralGrammarTraces.indexes(g):
            for p in range(1, len(t) + 1):
                assert idx.access(p) == t[p - 1]
            for _ in range(200):
                p = rng.randint(1, len(t))
                c = rng.randint(1, min(len(t) - p + 1, 2 * _MEMO_RULE_LIMIT))
                assert idx.extract(p, c) == t[p - 1 : p - 1 + c]


class TestSortedDescentEquivalence:
    def test_cnf_traces_match_folklore(self):
        rng = random.Random(89)
        for _ in range(25):
            g = random_grammar(rng)
            cnf = sort_and_renumber(binarize_cnf(g))
            folk = build_folklore(cnf)
            fras = build_fras(cnf, "sparse")
            # sort_and_renumber is idempotent, so both indexes share ids
            assert fras.grammar == cnf
            n = folk.n
            for p in range(1, n + 1):
                fb, ftrace = folk.access_trace(p)
                mb, mtrace = fras.access_trace(p)
                assert fb == mb
                assert ftrace == mtrace

    def test_build_fras_idempotent_on_sorted(self, fig1):
        gs = sort_and_renumber(fig1)
        idx = build_fras(gs, "plain")
        assert idx.grammar.rules == gs.rules

    @pytest.mark.parametrize("kind", ["plain", "sparse"])
    def test_constructor_rejects_unsorted_grammar(self, kind):
        # Rules "aba", "ab", then the start rule: valid, but not sorted by length.
        unsorted = Grammar((97, 98), ((0, 1, 0), (0, 1), (2, 3)))
        with pytest.raises(
            AccessError,
            match="rules are not sorted by expansion length: rule 2 is shorter than rule 1",
        ) as exc:
            FrasIndex(unsorted, kind)
        assert exc.value.kind == "malformed-index"


class TestGeneralGrammarTraces:
    @staticmethod
    def check_every_position(idx, text):
        g = idx.grammar
        sigma = len(g.alphabet)
        for p in range(1, len(text) + 1):
            byte, trace = idx.access_trace(p)
            assert idx.access(p) == idx.extract(p, 1)[0] == byte == text[p - 1]
            assert trace[0] == len(g.rules)
            for parent, child in zip(trace, trace[1:]):
                assert sigma + child - 1 in g.rules[parent - 1]
            assert g.alphabet.index(byte) in g.rules[trace[-1] - 1]

    @staticmethod
    def indexes(g):
        return [build_fras(g, "plain"), build_fras(g, "sparse"), build_folklore(binarize_cnf(g))]

    def test_random_grammars(self):
        rng = random.Random(131)
        for _ in range(30):
            g = random_grammar(rng, max_rules=10)
            text = naive_expand(g)
            for idx in self.indexes(g):
                self.check_every_position(idx, text)

    def test_inlined_repair_grammars(self):
        rng = random.Random(137)
        for _ in range(10):
            t = random_text(rng, rng.randint(20, 400), rng.randint(1, 5))
            g = inline_single_use(repair_compress(t))
            for idx in self.indexes(g):
                self.check_every_position(idx, t)


class TestFrasInvariants:
    def test_length_lookup_matches_bruteforce(self):
        rng = random.Random(97)
        for _ in range(50):
            g = random_grammar(rng)
            idx = build_fras(g, "sparse")
            exps = naive_rule_expansions(idx.grammar)
            for j in range(1, len(idx.grammar.rules) + 1):
                looked_up = idx.unique_lengths[idx.rule_marks.rank(j) - 1]
                assert looked_up == len(exps[j - 1])

    def test_start_marks_are_prefix_sums(self):
        rng = random.Random(101)
        for _ in range(50):
            g = random_grammar(rng)
            idx = build_fras(g, "sparse")
            exps = naive_rule_expansions(idx.grammar)
            sigma = len(idx.grammar.alphabet)
            pos = 1
            expected = []
            for c in idx.grammar.rules[-1]:
                expected.append(pos)
                pos += 1 if c < sigma else len(exps[c - sigma])
            got = [idx.start_marks.select(r) for r in range(1, idx.start_marks.num_set + 1)]
            assert got == expected
            assert got[0] == 1

    def test_unique_lengths_strictly_increasing(self):
        rng = random.Random(103)
        for _ in range(50):
            g = random_grammar(rng)
            idx = build_fras(g, "plain")
            ul = idx.unique_lengths
            assert all(a < b for a, b in zip(ul, ul[1:]))
            assert ul[-1] == idx.n
            assert fresh_violations(idx.grammar) == ()


class TestExtractMemo:
    """The leaf walk's bulk copy: answers, memo contents and memo lifetime."""

    indexes = staticmethod(TestGeneralGrammarTraces.indexes)

    @staticmethod
    def check_memo(idx):
        g = idx.grammar
        sigma = len(g.alphabet)
        exps = naive_rule_expansions(g)
        memo = idx._memo
        for c, byte in enumerate(g.alphabet):
            assert memo[c] == bytes((byte,))
        for s, entry in memo.items():
            assert 0 <= s < sigma + len(g.rules) - 1
            if s >= sigma:
                assert entry == exps[s - sigma]
            assert len(entry) <= _MEMO_RULE_LIMIT

    @staticmethod
    def queries(rng, n, k):
        qs = [(1, n), (n, 1)]
        for _ in range(k):
            p = rng.randint(1, n)
            qs.append((p, rng.randint(1, min(n - p + 1, 2 * _MEMO_RULE_LIMIT))))
            qs.append((p, n - p + 1))
        return qs

    def check_grammar(self, g, text, rng):
        qs = self.queries(rng, len(text), 60)
        for p, c in qs[:12]:
            for idx in self.indexes(g):  # each extract on a cold index
                assert idx.extract(p, c) == text[p - 1 : p - 1 + c]
        for idx in self.indexes(g):
            for _ in range(2):  # the first extract builds the memo, later ones share it
                for p, c in qs:
                    assert idx.extract(p, c) == text[p - 1 : p - 1 + c]
            self.check_memo(idx)

    def test_random_grammars(self):
        rng = random.Random(151)
        for _ in range(30):
            g = random_grammar(rng, max_rules=10)
            self.check_grammar(g, naive_expand(g), rng)

    def test_repair_grammars_with_rules_past_the_limit(self):
        rng = random.Random(157)
        for seed in range(4):
            t = repetitive_text(97, 24, 0.003, seed)
            for g in (repair_compress(t), inline_single_use(repair_compress(t))):
                assert max(len(e) for e in naive_rule_expansions(g)[:-1]) > _MEMO_RULE_LIMIT
                self.check_grammar(g, t, rng)

    def test_every_cut_inside_memoized_rules(self):
        # After whole-text extracts, end an extract at every position: each
        # count ends inside, or at the end of, rules the walk copies whole
        # from the memo, and the copy past the count is trimmed.
        t = repetitive_text(31, 12, 0.02, 3)
        for idx in self.indexes(repair_compress(t)):
            idx.extract(1, idx.n)
            idx.extract(2, idx.n - 1)
            assert idx._memo
            for p in (1, 2, 17):
                for c in range(1, len(t) - p + 2):
                    assert idx.extract(p, c) == t[p - 1 : p - 1 + c]
            self.check_memo(idx)

    def test_memo_is_its_ceiling(self, fig1):
        # The first extract longer than one byte builds the whole memo: every
        # terminal and every non-start rule within the limit.
        g = repair_compress(repetitive_text(97, 24, 0.003, 1))
        for grammar in (fig1, g, inline_single_use(g), binarize_cnf(g)):
            for idx in self.indexes(grammar):
                exps = naive_rule_expansions(idx.grammar)[:-1]
                small = sum(len(e) for e in exps if len(e) <= _MEMO_RULE_LIMIT)
                ceiling = 8 * (len(idx.grammar.alphabet) + small)
                assert idx.extract_memo_max_bits() == ceiling
                idx.extract(idx.n - 1, 2)
                assert 8 * sum(map(len, idx._memo.values())) == ceiling
                self.check_memo(idx)

    def test_load_and_access_create_no_memo(self):
        t = repetitive_text(64, 8, 0.02, 5)
        for built in self.indexes(repair_compress(t)):
            idx = index_from_bytes(index_to_bytes(built))
            assert "_memo" not in vars(idx)
            for p in range(1, idx.n + 1):
                assert idx.access(p) == idx.extract(p, 1)[0] == t[p - 1]
                idx.access_trace(p)
            assert "_memo" not in vars(idx)
            assert idx._memo is None
            assert idx.extract(1, 2) == t[:2]
            assert "_memo" in vars(idx)

    def test_threads_share_a_cold_index(self):
        t = repetitive_text(257, 24, 0.01, 11)
        n = len(t)
        for idx in self.indexes(repair_compress(t)):
            rng = random.Random(163)
            work = [self.queries(rng, n, 150) for _ in range(4)]
            wrong = [0] * len(work)

            def run(k):
                for p, c in work[k]:
                    if idx.extract(p, c) != t[p - 1 : p - 1 + c]:
                        wrong[k] += 1

            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(work))]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(th.is_alive() for th in threads)
            assert wrong == [0] * len(work)
            self.check_memo(idx)
