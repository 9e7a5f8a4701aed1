from collections import Counter

import pytest

import fras.access
import fras.grammar
from fras import (
    Grammar,
    build_fras,
    expand,
    grammar_from_bytes,
    grammar_to_bytes,
    index_from_bytes,
    index_to_bytes,
    repair_compress,
    repetitive_text,
)
from fras.cli import main
from helpers import FIG1_GRAMMAR, FIG1_TEXT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fig1_grammar_file(tmp_path):
    from fras import grammar_to_bytes

    path = tmp_path / "fig1.fgz"
    path.write_bytes(grammar_to_bytes(FIG1_GRAMMAR))
    return str(path)


@pytest.fixture
def corpus_file(tmp_path):
    text = (b"tagtcgtacgga" * 200)[:2000] + b"tainted" + (b"tagtcgtacgga" * 100)
    path = tmp_path / "corpus.txt"
    path.write_bytes(text)
    return str(path), text


class TestBuild:
    def test_build_verify_roundtrip(self, capsys, tmp_path, corpus_file):
        corpus_path, text = corpus_file
        out_path = str(tmp_path / "c.fgz")
        code, out, _ = run(capsys, "build", "--input", corpus_path, "--output", out_path)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "rules,depth,start,size,n"
        assert int(row.split(",")[-1]) == len(text)
        g = grammar_from_bytes((tmp_path / "c.fgz").read_bytes())
        assert expand(g) == text
        code, out, _ = run(capsys, "verify", "--grammar", out_path, "--text", corpus_path)
        assert code == 0
        assert "texts match" in out

    def test_empty_input(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        code, _, err = run(
            capsys, "build", "--input", str(empty), "--output", str(tmp_path / "o.fgz")
        )
        assert code == 2
        assert "empty text" in err

    def test_inline_single_use_lengthens_bodies(self, capsys, tmp_path):
        src = tmp_path / "t.txt"
        src.write_bytes(b"abcabcabcabc")
        out_path = str(tmp_path / "t.fgz")
        code, _, _ = run(
            capsys,
            "build",
            "--input",
            str(src),
            "--output",
            out_path,
            "--inline-single-use",
        )
        assert code == 0
        g = grammar_from_bytes((tmp_path / "t.fgz").read_bytes())
        assert expand(g) == b"abcabcabcabc"
        assert any(len(body) >= 3 for body in g.rules)

    def test_text_format_output(self, capsys, tmp_path, corpus_file):
        corpus_path, text = corpus_file
        out_path = tmp_path / "c.fgt"
        code, _, _ = run(capsys, "build", "--input", corpus_path, "--output", str(out_path))
        assert code == 0
        assert out_path.read_bytes().startswith(b"FRAS1-TEXT\n")
        assert expand(grammar_from_bytes(out_path.read_bytes())) == text


class TestIndexCommand:
    def test_fras_sparse_summary(self, capsys, tmp_path, fig1_grammar_file):
        out_path = tmp_path / "fig1.fix"
        code, out, _ = run(
            capsys,
            "index",
            "--grammar",
            fig1_grammar_file,
            "--output",
            str(out_path),
            "--structure",
            "fras",
            "--bitvector",
            "sparse",
        )
        assert code == 0
        assert "L=3" in out
        assert "S=4" in out
        assert "b_bs=4" in out
        assert "depth=3" in out
        assert "fras_bound" in out
        idx = index_from_bytes(out_path.read_bytes())
        assert idx.kind == "fras-sparse"

    def test_folklore_binarizes_with_notice(self, capsys, tmp_path, fig1_grammar_file):
        out_path = tmp_path / "fig1f.fix"
        code, out, err = run(
            capsys,
            "index",
            "--grammar",
            fig1_grammar_file,
            "--output",
            str(out_path),
            "--structure",
            "folklore",
        )
        assert code == 0
        assert "binarizing" in err
        assert "depth=6" in out
        idx = index_from_bytes(out_path.read_bytes())
        assert idx.kind == "folklore"
        assert idx.extract(1, 15) == FIG1_TEXT

    def test_folklore_on_cnf_no_notice(self, capsys, tmp_path, fig1_grammar_file):
        from fras import binarize_cnf, grammar_to_bytes

        cnf_path = tmp_path / "cnf.fgz"
        cnf_path.write_bytes(grammar_to_bytes(binarize_cnf(FIG1_GRAMMAR)))
        code, _, err = run(
            capsys,
            "index",
            "--grammar",
            str(cnf_path),
            "--output",
            str(tmp_path / "c.fix"),
            "--structure",
            "folklore",
        )
        assert code == 0
        assert err == ""

    def test_plain_and_sparse_answers_match(self, capsys, tmp_path, fig1_grammar_file):
        for kind in ("plain", "sparse"):
            code, _, _ = run(
                capsys,
                "index",
                "--grammar",
                fig1_grammar_file,
                "--output",
                str(tmp_path / f"{kind}.fix"),
                "--bitvector",
                kind,
            )
            assert code == 0
        answers = []
        for kind in ("plain", "sparse"):
            idx = index_from_bytes((tmp_path / f"{kind}.fix").read_bytes())
            answers.append(idx.extract(1, 15))
        assert answers[0] == answers[1] == FIG1_TEXT


class TestGet:
    @pytest.fixture
    def fig1_index_file(self, capsys, tmp_path, fig1_grammar_file):
        out_path = str(tmp_path / "fig1.fix")
        assert (
            main(["index", "--grammar", fig1_grammar_file, "--output", out_path]) == 0
        )
        capsys.readouterr()
        return out_path

    def test_single_char(self, capsys, fig1_index_file):
        code, out, _ = run(capsys, "get", "--index", fig1_index_file, "-p", "5", "-l", "1")
        assert code == 0
        assert out == "c"

    def test_full_text(self, capsys, fig1_index_file):
        code, out, _ = run(capsys, "get", "--index", fig1_index_file, "-p", "1", "-l", "15")
        assert code == 0
        assert out.encode() == FIG1_TEXT

    def test_out_of_range(self, capsys, fig1_index_file):
        code, _, err = run(capsys, "get", "--index", fig1_index_file, "-p", "10", "-l", "10")
        assert code == 2
        assert "position-out-of-range" in err

    def test_zero_length_names_count(self, capsys, fig1_index_file):
        code, out, err = run(capsys, "get", "--index", fig1_index_file, "-p", "1", "-l", "0")
        assert code == 2
        assert out == ""
        assert "position-out-of-range: p=1, count=0, n=15" in err


class TestVerify:
    def test_mismatch_offset(self, capsys, tmp_path, corpus_file):
        corpus_path, text = corpus_file
        grammar_path = str(tmp_path / "c.fgz")
        assert main(["build", "--input", corpus_path, "--output", grammar_path]) == 0
        capsys.readouterr()
        longer = tmp_path / "longer.txt"
        longer.write_bytes(text + b"x")
        code, _, err = run(capsys, "verify", "--grammar", grammar_path, "--text", str(longer))
        assert code == 2
        assert f"mismatch at offset {len(text) + 1}" in err
        truncated = tmp_path / "short.txt"
        truncated.write_bytes(text[:-1])
        code, _, err = run(capsys, "verify", "--grammar", grammar_path, "--text", str(truncated))
        assert code == 2
        assert f"mismatch at offset {len(text)}" in err
        corrupted = tmp_path / "corrupt.txt"
        corrupted.write_bytes(text[:100] + b"!" + text[101:])
        code, _, err = run(capsys, "verify", "--grammar", grammar_path, "--text", str(corrupted))
        assert code == 2
        assert "mismatch at offset 101" in err

    def test_length_overflow_is_an_error(self, capsys, tmp_path, corpus_file):
        # 66 doubling rules expand to 2**66 bytes: rejected before any is compared.
        doubling = Grammar((97,), ((0, 0),) + tuple((i, i) for i in range(1, 66)))
        grammar_path = tmp_path / "doubling.fgz"
        grammar_path.write_bytes(grammar_to_bytes(doubling))
        code, _, err = run(capsys, "verify", "--grammar", str(grammar_path), "--text", corpus_file[0])
        assert code == 2
        assert "length overflow" in err


class TestStatsSpace:
    def test_stats_fig1(self, capsys, fig1_grammar_file):
        code, out, _ = run(capsys, "stats", "--grammar", fig1_grammar_file)
        assert code == 0
        assert out.strip().splitlines() == ["rules,depth,start,size,n", "3,3,4,7,15"]

    def test_space_fig1_formulas(self, capsys, tmp_path, fig1_grammar_file):
        out_path = str(tmp_path / "fig1.fix")
        assert (
            main(["index", "--grammar", fig1_grammar_file, "--output", out_path]) == 0
        )
        capsys.readouterr()
        code, out, _ = run(capsys, "space", "--index", out_path)
        assert code == 0
        rows = {}
        for line in out.strip().splitlines()[1:]:
            label, ceil_bits, real_bits = line.split(",")
            rows[label] = (int(ceil_bits), float(real_bits))
        # size(G)=11 incl. start, m=4, sigma=3, n=15, |S|=4, |L|=3
        assert rows["grammar_bits"][0] == 11 * 3
        assert rows["length_bits"][0] == 8 * 4
        assert rows["measured_payload"][0] <= rows["fras_bound"][0] + rows["measured_auxiliary"][0]
        # terminals a, c, g and non-start expansions ag, cg, agagcg: 13 bytes
        # the extract memo may hold
        assert rows["extract_memo_max_bits"] == (8 * 13, 8 * 13)

    def test_space_fig1_folklore_memo_ceiling(self, capsys, tmp_path, fig1_grammar_file):
        out_path = str(tmp_path / "fig1.fix")
        args = ["index", "--grammar", fig1_grammar_file, "--output", out_path]
        assert main(args + ["--structure", "folklore"]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "space", "--index", out_path)
        assert code == 0
        rows = {ln.split(",")[0]: ln.split(",")[1] for ln in out.strip().splitlines()[1:]}
        # terminals a, c, g; binarized: proxies a, c, g; ag, cg; agag, agagcg;
        # agagcgagagcg, cgc
        assert rows["extract_memo_max_bits"] == str(8 * (3 + 3 + 2 + 2 + 4 + 6 + 12 + 3))
        assert rows["measured_auxiliary"] == "0"

    def test_space_single_char_grammar(self, capsys, tmp_path):
        from fras import Grammar, grammar_to_bytes

        g = Grammar(alphabet=(97,), rules=((0,),))
        gpath = tmp_path / "a.fgz"
        gpath.write_bytes(grammar_to_bytes(g))
        ipath = str(tmp_path / "a.fix")
        assert main(["index", "--grammar", str(gpath), "--output", ipath]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "space", "--index", ipath)
        assert code == 0
        rows = {ln.split(",")[0]: ln.split(",")[1] for ln in out.strip().splitlines()[1:]}
        # every lg(n) term vanishes for n=1
        assert rows["length_bits"] == "0"


class TestBenchCommand:
    @pytest.fixture
    def small_index_file(self, capsys, tmp_path, corpus_file):
        corpus_path, _ = corpus_file
        gpath = str(tmp_path / "c.fgz")
        ipath = str(tmp_path / "c.fix")
        assert main(["build", "--input", corpus_path, "--output", gpath]) == 0
        assert main(["index", "--grammar", gpath, "--output", ipath]) == 0
        capsys.readouterr()
        return ipath

    def test_zero_iterations_empty_body(self, capsys, small_index_file):
        code, out, _ = run(
            capsys, "bench", "--index", small_index_file, "--iterations", "0",
            "--lengths", "1,10",
        )
        assert code == 0
        assert out.strip().splitlines() == [
            "corpus,index,substring_len,iterations,mean_us,checksum,seed"
        ]

    def test_same_seed_same_checksums(self, capsys, tmp_path, small_index_file):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _, _ = run(
                capsys,
                "bench",
                "--index",
                small_index_file,
                "--iterations",
                "50",
                "--lengths",
                "1,10",
                "--seed",
                "21",
                "--out",
                str(path),
            )
            assert code == 0
            outs.append(
                [ln.rsplit(",", 2)[1] for ln in path.read_text().splitlines()[1:]]
            )
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("value", ["-5", "-1", "many"])
    def test_bad_iterations_is_usage_error(self, capsys, small_index_file, value):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--index", small_index_file, "--iterations", value])
        assert exc.value.code == 1
        assert capsys.readouterr().out == ""

    def test_bad_lengths_is_usage_error(self, capsys, small_index_file):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--index", small_index_file, "--lengths", "ten"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("value", ["0", "1,-2"])
    def test_lengths_below_one_are_usage_errors(self, capsys, small_index_file, value):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--index", small_index_file, "--lengths", value])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "substring lengths must be >= 1" in captured.err


class TestPassCounts:
    """Each grammar object is checked once, and a FRAS build runs two lengths passes."""

    TEXT = repetitive_text(97, 16, 0.01, 2)

    @pytest.fixture
    def passes(self, monkeypatch):
        counts = Counter()

        def counted(name, fn):
            def wrapper(g):
                counts[name] += 1
                return fn(g)

            return wrapper

        monkeypatch.setattr(fras.grammar, "_check", counted("check", fras.grammar._check))
        lengths = counted("lengths", fras.grammar.expansion_lengths)
        monkeypatch.setattr(fras.grammar, "expansion_lengths", lengths)
        monkeypatch.setattr(fras.access, "expansion_lengths", lengths)
        return counts

    @pytest.fixture
    def files(self, tmp_path):
        text_path = tmp_path / "t.txt"
        text_path.write_bytes(self.TEXT)
        grammar_path = tmp_path / "t.fgz"
        grammar_path.write_bytes(grammar_to_bytes(repair_compress(self.TEXT)))
        return str(text_path), str(grammar_path)

    def test_index_command(self, capsys, tmp_path, files, passes):
        passes.clear()
        code, _, _ = run(capsys, "index", "--grammar", files[1], "--output", str(tmp_path / "t.fix"))
        assert code == 0
        assert passes["check"] == 1
        assert passes["lengths"] <= 2

    def test_folklore_index_of_a_non_cnf_grammar(self, capsys, tmp_path, files, passes):
        # binarize_cnf carries the read grammar's check over to its output.
        passes.clear()
        code, _, err = run(
            capsys, "index", "--grammar", files[1], "--structure", "folklore", "--output", str(tmp_path / "t.fix")
        )
        assert code == 0 and "binarizing" in err
        assert passes["check"] == 1

    def test_verify_command(self, capsys, files, passes):
        passes.clear()
        code, out, _ = run(capsys, "verify", "--grammar", files[1], "--text", files[0])
        assert code == 0 and "texts match" in out
        assert passes["check"] == 1

    def test_build_and_write(self, passes):
        g = repair_compress(self.TEXT)
        passes.clear()
        index_to_bytes(build_fras(g))
        assert passes["check"] == 1

    def test_load_and_write(self, passes):
        fix = index_to_bytes(build_fras(repair_compress(self.TEXT)))
        passes.clear()
        assert index_to_bytes(index_from_bytes(fix)) == fix
        assert passes["check"] == 1


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["get", "-p", "1"])
        assert exc.value.code == 1

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "stats", "--grammar", str(tmp_path / "nope.fgz"))
        assert code == 2
        assert err.startswith("error:")
