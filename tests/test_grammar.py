import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fras.grammar
from fras import (
    FolkloreIndex,
    FrasIndex,
    Grammar,
    GrammarError,
    binarize_cnf,
    expand,
    expand_chunks,
    expansion_lengths,
    fibonacci_word,
    inline_single_use,
    is_cnf,
    repair_compress,
    repetitive_text,
    sort_and_renumber,
    stats,
    validate,
)
from helpers import fresh_violations, naive_expand, naive_rule_expansions, random_grammar, random_text

SINGLE_A = Grammar(alphabet=(97,), rules=((0,),))
# 66 doubling rules expand to 2**66 characters (TestExpansionLengths.test_overflow).
DOUBLING = Grammar(alphabet=(97,), rules=((0, 0),) + tuple((i, i) for i in range(1, 66)))
MAX_TEXT_LENGTH = fras.grammar.MAX_TEXT_LENGTH


class TestValidate:
    def test_fig1_ok(self, fig1):
        assert validate(fig1) == ()

    def test_minimal_ok(self):
        assert validate(SINGLE_A) == ()

    def test_forward_reference(self):
        g = Grammar(alphabet=(97,), rules=((2,), (0, 2)))
        assert "forward reference at rule 1" in validate(g)

    def test_empty_body(self):
        g = Grammar(alphabet=(97,), rules=((0,), ()))
        assert "empty body at rule 2" in validate(g)

    def test_unused_rule(self):
        g = Grammar(alphabet=(97,), rules=((0,), (0, 0)))
        assert "unused rule at rule 1" in validate(g)

    def test_out_of_range_symbol(self):
        g = Grammar(alphabet=(97,), rules=((0, 9),))
        assert "out-of-range symbol at rule 1" in validate(g)

    def test_no_rules(self):
        assert validate(Grammar(alphabet=(97,), rules=())) == ("no rules at rule 0",)

    def test_bad_alphabet(self):
        g = Grammar(alphabet=(99, 97), rules=((0, 1),))
        assert "bad alphabet at rule 0" in validate(g)


class TestInvalidGrammarRejected:
    """Every public reader of a grammar raises validate's message on a broken one."""

    READERS = {
        "expansion_lengths": expansion_lengths,
        "sort_and_renumber": sort_and_renumber,
        "stats": stats,
        "binarize_cnf": binarize_cnf,
        "inline_single_use": inline_single_use,
        "is_cnf": is_cnf,
        "FrasIndex-sparse": lambda g: FrasIndex(g, "sparse"),
        "FrasIndex-plain": lambda g: FrasIndex(g, "plain"),
        "FolkloreIndex": FolkloreIndex,
    }

    @pytest.mark.parametrize(
        "g, message",
        [
            (Grammar((97,), ((0, 0), (-2, 0))), "out-of-range symbol at rule 2; unused rule at rule 1"),
            (Grammar((97, 98), ((3, 0), (1, 0), (2, 3))), "forward reference at rule 1"),
        ],
        ids=["out-of-range", "forward-reference"],
    )
    @pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
    def test_raises_grammar_error(self, reader, g, message):
        assert "; ".join(validate(g)) == message
        with pytest.raises(GrammarError) as exc:
            reader(g)
        assert str(exc.value) == "invalid grammar: " + message


class TestExpansionLengths:
    def test_fig1(self, fig1):
        assert expansion_lengths(fig1) == (2, 2, 6, 15)

    def test_minimal(self):
        assert expansion_lengths(SINGLE_A) == (1,)

    def test_random_matches_bruteforce(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_grammar(rng)
            exps = naive_rule_expansions(g)
            assert expansion_lengths(g) == tuple(len(e) for e in exps)

    def test_overflow(self):
        # 66 doubling rules expand to 2**66 characters.
        rules = [(0, 0)] + [(i, i) for i in range(1, 66)]
        g = Grammar(alphabet=(97,), rules=tuple(rules))
        with pytest.raises(GrammarError, match="length overflow"):
            expansion_lengths(g)

    def test_overflow_in_stats_and_expand(self):
        with pytest.raises(GrammarError, match="length overflow"):
            stats(DOUBLING)
        # Raised before the first chunk: past the bound expand would
        # otherwise stream until memory runs out.
        with pytest.raises(GrammarError, match="length overflow"):
            next(expand_chunks(DOUBLING))


class TestSortAndRenumber:
    def test_fig1_already_sorted(self, fig1):
        assert sort_and_renumber(fig1) == fig1

    def test_single_rule(self):
        assert sort_and_renumber(SINGLE_A) == SINGLE_A

    def test_reversed_order(self):
        # Rules listed longest first get fully reversed.
        g = Grammar(
            alphabet=(97, 98),
            rules=((0, 1, 0, 1, 0, 1), (0, 1, 0, 1), (0, 1), (2, 3, 4)),
        )
        assert validate(g) == ()
        assert expansion_lengths(g) == (6, 4, 2, 12)
        gs = sort_and_renumber(g)
        assert gs.rules == ((0, 1), (0, 1, 0, 1), (0, 1, 0, 1, 0, 1), (4, 3, 2))
        assert expand(gs) == expand(g)
        assert fresh_violations(gs) == ()

    def test_random_expansion_preserved(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_grammar(rng)
            gs = sort_and_renumber(g)
            assert fresh_violations(gs) == ()
            assert expand(gs) == naive_expand(g)
            sorted_lengths = expansion_lengths(gs)
            assert list(sorted_lengths[:-1]) == sorted(sorted_lengths[:-1])


class TestExpand:
    def test_fig1(self, fig1, fig1_text):
        assert expand(fig1) == fig1_text

    def test_minimal(self):
        assert expand(SINGLE_A) == b"a"

    def test_chunks_concatenate(self, fig1, fig1_text):
        assert b"".join(expand_chunks(fig1)) == fig1_text

    def test_invalid_grammar_is_rejected(self):
        # The leaf walk would take the code -1 for a rule and descend forever.
        with pytest.raises(GrammarError, match="invalid grammar: out-of-range symbol at rule 1"):
            expand(Grammar((97,), ((-1,), (1,))))

    def test_repair_round_trip(self):
        rng = random.Random(3)
        for _ in range(40):
            t = random_text(rng, rng.randint(1, 400), rng.randint(1, 6))
            assert expand(repair_compress(t)) == t

    def test_random_matches_bruteforce(self):
        rng = random.Random(5)
        for _ in range(200):
            g = random_grammar(rng)
            assert expand(g) == naive_expand(g)

    @pytest.mark.parametrize("flush, rule_limit, total_limit", [(5, 7, 40), (1, 1, 0)])
    def test_chunks_past_the_table_limits(self, monkeypatch, flush, rule_limit, total_limit):
        # Limits this small leave rules out of the small-expansion table for
        # their length and for the total budget, and put many chunk ends
        # inside the walk; a chunk ends at the first copy that reaches the
        # flush size, so it overshoots by less than one table entry.
        monkeypatch.setattr(fras.grammar, "_FLUSH_CHUNK", flush)
        monkeypatch.setattr(fras.grammar, "_CACHE_RULE_LIMIT", rule_limit)
        monkeypatch.setattr(fras.grammar, "_CACHE_TOTAL_LIMIT", total_limit)
        rng = random.Random(29)
        grammars = [random_grammar(rng) for _ in range(100)]
        for seed in range(3):
            g = repair_compress(repetitive_text(97, 8, 0.01, seed))
            grammars += [g, inline_single_use(g)]
        for g in grammars:
            chunks = list(expand_chunks(g))
            assert b"".join(chunks) == naive_expand(g)
            assert all(flush <= len(c) < flush + rule_limit for c in chunks[:-1])


class TestSmallExpansions:
    @staticmethod
    def reference(g, rule_limit, total_limit):
        # Rules in id order, each kept if its expansion fits both limits and
        # every rule its body references was kept.
        sigma = len(g.alphabet)
        exps = naive_rule_expansions(g)
        table = {c: bytes((b,)) for c, b in enumerate(g.alphabet)}
        budget = total_limit
        for j, body in enumerate(g.rules[:-1]):
            if len(exps[j]) <= min(rule_limit, budget) and all(c in table for c in body):
                table[sigma + j] = exps[j]
                budget -= len(exps[j])
        return table

    @pytest.mark.parametrize(
        "rule_limit, total_limit, budget_runs_out",
        [
            (0, 0, False),
            (1, 1, True),
            (3, 10, True),
            (7, 40, True),
            (16, 60, True),
            (128, MAX_TEXT_LENGTH, False),
            (1 << 16, 1 << 26, False),
        ],
    )
    def test_matches_reference(self, rule_limit, total_limit, budget_runs_out):
        rng = random.Random(31)
        grammars = [random_grammar(rng) for _ in range(150)]
        for seed in range(3):
            g = repair_compress(repetitive_text(97, 8, 0.01, seed))
            grammars += [g, inline_single_use(g)]
        ran_out = False
        for g in grammars:
            want = self.reference(g, rule_limit, total_limit)
            got = fras.grammar._small_expansions(g, rule_limit, total_limit)
            assert list(got.items()) == list(want.items())
            ran_out |= want != self.reference(g, rule_limit, MAX_TEXT_LENGTH)
        assert ran_out == budget_runs_out


class TestBinarize:
    def test_fig1(self, fig1, fig1_text):
        cnf = binarize_cnf(fig1)
        assert is_cnf(cnf)
        assert fresh_violations(cnf) == ()
        assert expand(cnf) == fig1_text

    def test_terminal_only_start(self):
        g = Grammar(alphabet=(97, 98, 99, 100), rules=((0, 1, 2, 3),))
        cnf = binarize_cnf(g)
        assert expand(cnf) == b"abcd"
        proxies = [b for b in cnf.rules if len(b) == 1]
        chains = [b for b in cnf.rules if len(b) == 2]
        assert len(proxies) == 4
        assert len(chains) == 3

    def test_already_cnf_fixpoint(self, fig1):
        cnf = binarize_cnf(fig1)
        assert binarize_cnf(cnf) == cnf

    def test_single_char(self):
        cnf = binarize_cnf(SINGLE_A)
        assert cnf.rules == ((0,),)

    def test_unary_start(self):
        # Proxies for a, b are rules 1-2 (codes 2-3); the unary start rule
        # aliases its target, which is left last.
        g = Grammar(alphabet=(97, 98), rules=((0, 1), (2, 2), (3,)))
        cnf = binarize_cnf(g)
        assert fresh_violations(cnf) == () and is_cnf(cnf)
        assert expand(cnf) == b"abab"
        assert cnf.rules == ((0,), (1,), (2, 3), (4, 4))
        chain = Grammar(alphabet=(97, 98), rules=((0, 1, 0), (2,), (3, 1, 3), (4,)))
        assert binarize_cnf(chain).rules == ((0,), (1,), (2, 3), (4, 2), (5, 3), (6, 5))

    def test_random(self):
        rng = random.Random(13)
        for _ in range(200):
            g = random_grammar(rng)
            cnf = binarize_cnf(g)
            assert fresh_violations(cnf) == ()
            assert is_cnf(cnf)
            assert expand(cnf) == naive_expand(g)

    def test_balanced_shape(self):
        # Proxies for a, b, c, d are rules 1-4 (codes 4-7), pairs follow.
        g = Grammar(alphabet=(97, 98, 99, 100), rules=((0, 1, 2, 3),))
        assert binarize_cnf(g).rules[4:] == ((4, 5), (6, 7), (8, 9))
        g = Grammar(alphabet=(97, 98, 99), rules=((0, 1, 2),))
        assert binarize_cnf(g).rules[3:] == ((3, 4), (6, 5))

    def test_depth_bound(self):
        texts = (
            repetitive_text(1000, 100, 0.002, 4),
            repetitive_text(1024, 512, 0.001, 1),
            fibonacci_word(20),
        )
        depths = []
        for t in texts:
            g = repair_compress(t)
            st = stats(g)
            depths.append(stats(binarize_cnf(g)).depth)
            assert depths[-1] <= st.depth + math.ceil(math.log2(st.start))
        assert depths == [29, 33, 19]
        rng = random.Random(13)
        for _ in range(200):
            g = random_grammar(rng)
            levels = max(1, math.ceil(math.log2(max(len(b) for b in g.rules))))
            assert stats(binarize_cnf(g)).depth <= stats(g).depth * levels + 1


class TestInlineSingleUse:
    def test_keeps_shared_rule(self):
        g = Grammar(alphabet=(97, 98), rules=((0, 1), (2, 2)))
        assert inline_single_use(g) == g

    def test_collapses_chain(self):
        # S -> X2 c, X2 -> X1 g, X1 -> ab collapses into a flat start rule.
        g = Grammar(
            alphabet=(97, 98, 99, 103),
            rules=((0, 1), (4, 3), (5, 2)),
        )
        out = inline_single_use(g)
        assert out.rules == ((0, 1, 3, 2),)
        assert expand(out) == b"abgc"

    def test_repair_output_round_trip(self):
        rng = random.Random(17)
        texts = [random_text(rng, rng.randint(2, 300), rng.randint(1, 4)) for _ in range(30)]
        grammars = [repair_compress(t) for t in texts]
        grammars += [random_grammar(rng) for _ in range(20)]
        for g in grammars:
            out = inline_single_use(g)
            assert fresh_violations(out) == ()
            assert expand(out) == naive_expand(g)
            # One pass leaves no non-start rule referenced exactly once.
            sigma = len(out.alphabet)
            refs = Counter(c for body in out.rules for c in body if c >= sigma)
            assert 1 not in [refs[sigma + j] for j in range(len(out.rules) - 1)]


class TestStats:
    def test_fig1(self, fig1):
        st = stats(fig1)
        assert (st.rules, st.depth, st.start, st.size, st.n) == (3, 3, 4, 7, 15)

    def test_minimal(self):
        st = stats(SINGLE_A)
        # Depth counts edges to terminal leaves, so one rule over one
        # character has depth 1.
        assert (st.rules, st.depth, st.start, st.size, st.n) == (0, 1, 1, 0, 1)

    def test_random_consistency(self):
        rng = random.Random(19)
        for _ in range(100):
            g = random_grammar(rng)
            st = stats(g)
            exps = naive_rule_expansions(g)
            assert st.n == len(exps[-1])
            assert st.rules == len(g.rules) - 1
            assert st.size >= st.rules
            assert st.n >= st.start


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=120))
def test_transforms_preserve_expansion(data):
    g = repair_compress(data)
    assert fresh_violations(g) == ()
    assert expand(g) == data
    gs = sort_and_renumber(g)
    cnf = binarize_cnf(g)
    inl = inline_single_use(g)
    for out in (gs, cnf, inl):
        assert fresh_violations(out) == ()
        assert expand(out) == data
