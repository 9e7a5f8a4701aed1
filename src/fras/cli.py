"""Command-line interface: build, index, query and benchmark grammars.

Exit codes: 0 on success, 1 for usage errors, 2 for data errors (bad
files, failed validation, out-of-range queries).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .access import (
    AccessError,
    FolkloreIndex,
    FrasIndex,
    build_folklore,
    build_fras,
)
from .bench import DEFAULT_ITERATIONS, DEFAULT_LENGTHS, report_to_csv, run_benchmark
from .formats import (
    FormatError,
    grammar_from_bytes,
    grammar_to_bytes,
    grammar_to_text,
    index_from_bytes,
    index_to_bytes,
)
from .grammar import (
    GrammarError,
    binarize_cnf,
    expand_chunks,
    inline_single_use,
    is_cnf,
    stats,
)
from .repair import repair_compress
from .succinct import ceil_log2_ratio


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_lengths(value: str) -> tuple[int, ...]:
    try:
        lengths = tuple(int(tok) for tok in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {value!r}")
    if not lengths or any(ln < 1 for ln in lengths):
        raise argparse.ArgumentTypeError("substring lengths must be >= 1")
    return lengths


def _parse_iterations(value: str) -> int:
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an int: {value!r}")
    if count < 0:
        raise argparse.ArgumentTypeError("iterations must be >= 0")
    return count


def _stats_lines(g) -> list[str]:
    st = stats(g)
    return ["rules,depth,start,size,n", f"{st.rules},{st.depth},{st.start},{st.size},{st.n}"]


def _space_lines(idx) -> list[str]:
    g = idx.grammar
    m = len(g.rules)
    sigma = len(g.alphabet)
    n = idx.n
    lines = ["label,ceil_bits,real_bits"]
    if isinstance(idx, FolkloreIndex):
        lines.append(
            f"grammar_bits,{2 * m * ceil_log2_ratio(m + sigma, 1)},"
            f"{2 * m * math.log2(m + sigma)!r}"
        )
        lines.append(f"length_bits,{m * ceil_log2_ratio(n, 1)},{m * math.log2(n)!r}")
        payload = 64 * len(idx.left_lengths)
        lines.append(f"measured_payload,{payload},{payload}")
        lines.append("measured_auxiliary,0,0")
        return _with_memo_ceiling(lines, idx)
    size_total = sum(len(b) for b in g.rules)
    nstart = len(g.rules[-1])
    nlengths = len(idx.unique_lengths)
    lines.append(
        f"grammar_bits,{size_total * ceil_log2_ratio(m + sigma, 1)},"
        f"{size_total * math.log2(m + sigma)!r}"
    )
    lines.append(
        f"length_bits,{(nstart + m) * ceil_log2_ratio(n, 1)},{(nstart + m) * math.log2(n)!r}"
    )
    bound_ceil = (
        nstart * (2 + ceil_log2_ratio(n, nstart))
        + nlengths * (2 + ceil_log2_ratio(m, nlengths))
        + nlengths * ceil_log2_ratio(nlengths, 1)
    )
    bound_real = (
        nstart * (2 + math.log2(n / nstart))
        + nlengths * (2 + math.log2(m / nlengths))
        + nlengths * math.log2(max(nlengths, 1))
    )
    lines.append(f"fras_bound,{bound_ceil},{bound_real!r}")
    bx = idx.rule_marks.space_report()
    bs = idx.start_marks.space_report()
    payload = bx["payload_bits"] + bs["payload_bits"]
    aux = bx["auxiliary_bits"] + bs["auxiliary_bits"] + 64 * nlengths
    lines.append(f"measured_payload,{payload},{payload}")
    lines.append(f"measured_auxiliary,{aux},{aux}")
    return _with_memo_ceiling(lines, idx)


def _with_memo_ceiling(lines: list[str], idx) -> list[str]:
    # Bits the extract memo holds once the first long extract builds it;
    # not part of the index's stored tables, so not counted in
    # measured_auxiliary.
    memo = idx.extract_memo_max_bits()
    lines.append(f"extract_memo_max_bits,{memo},{memo}")
    return lines


def _cmd_build(args) -> int:
    g = repair_compress(Path(args.input).read_bytes())
    if args.inline_single_use:
        g = inline_single_use(g)
    if args.output.endswith(".fgt"):
        data = grammar_to_text(g).encode("ascii")
    else:
        data = grammar_to_bytes(g)
    Path(args.output).write_bytes(data)
    for line in _stats_lines(g):
        print(line)
    return 0


def _cmd_index(args) -> int:
    g = grammar_from_bytes(Path(args.grammar).read_bytes())
    if args.structure == "folklore":
        if not is_cnf(g):
            print("notice: binarizing grammar for the folklore index", file=sys.stderr)
            g = binarize_cnf(g)
        idx = build_folklore(g)
    else:
        idx = build_fras(g, args.bitvector)
    Path(args.output).write_bytes(index_to_bytes(idx))
    depth = stats(idx.grammar).depth
    if isinstance(idx, FrasIndex):
        print(
            f"kind={idx.kind} m={len(idx.grammar.rules)} n={idx.n}"
            f" L={len(idx.unique_lengths)} S={len(idx.grammar.rules[-1])}"
            f" b_bs={idx.start_marks.num_set} depth={depth}"
        )
    else:
        print(f"kind={idx.kind} m={len(idx.grammar.rules)} n={idx.n} depth={depth}")
    for line in _space_lines(idx):
        print(line)
    return 0


def _cmd_get(args) -> int:
    idx = index_from_bytes(Path(args.index).read_bytes())
    data = idx.extract(args.position, args.length)
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()
    return 0


def _cmd_verify(args) -> int:
    g = grammar_from_bytes(Path(args.grammar).read_bytes())
    offset = 0
    mismatch = None
    with open(args.text, "rb") as f:
        for chunk in expand_chunks(g):
            ref = f.read(len(chunk))
            if ref != chunk:
                limit = min(len(ref), len(chunk))
                diff = next((k for k in range(limit) if ref[k] != chunk[k]), limit)
                mismatch = offset + diff + 1
                break
            offset += len(chunk)
        if mismatch is None and f.read(1):
            mismatch = offset + 1
    if mismatch is None:
        print(f"texts match ({offset} bytes)")
        return 0
    print(f"mismatch at offset {mismatch}", file=sys.stderr)
    return 2


def _cmd_stats(args) -> int:
    g = grammar_from_bytes(Path(args.grammar).read_bytes())
    for line in _stats_lines(g):
        print(line)
    return 0


def _cmd_space(args) -> int:
    idx = index_from_bytes(Path(args.index).read_bytes())
    for line in _space_lines(idx):
        print(line)
    return 0


def _cmd_bench(args) -> int:
    idx = index_from_bytes(Path(args.index).read_bytes())
    report = run_benchmark(
        idx,
        lengths=args.lengths,
        iterations=args.iterations,
        seed=args.seed,
        corpus=Path(args.index).stem,
    )
    csv_text = report_to_csv(report)
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="fras", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("build", help="compress a file into a grammar")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="grammar file (.fgz binary, .fgt text)")
    p.add_argument(
        "--inline-single-use",
        action="store_true",
        help="substitute away rules referenced exactly once (long rule bodies)",
    )
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("index", help="build a random-access index from a grammar")
    p.add_argument("--grammar", required=True)
    p.add_argument("--output", required=True, help="index file (.fix)")
    p.add_argument("--structure", choices=("fras", "folklore"), default="fras")
    p.add_argument("--bitvector", choices=("sparse", "plain"), default="sparse")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("get", help="extract a substring from an index")
    p.add_argument("--index", required=True)
    p.add_argument("-p", "--position", type=int, required=True, help="1-based start")
    p.add_argument("-l", "--length", type=int, required=True)
    p.set_defaults(func=_cmd_get)

    p = sub.add_parser("verify", help="compare a grammar's expansion against a file")
    p.add_argument("--grammar", required=True)
    p.add_argument("--text", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("stats", help="print grammar statistics as CSV")
    p.add_argument("--grammar", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("space", help="print theoretical and measured index space")
    p.add_argument("--index", required=True)
    p.set_defaults(func=_cmd_space)

    p = sub.add_parser("bench", help="run the seeded query benchmark")
    p.add_argument("--index", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=_parse_iterations, default=DEFAULT_ITERATIONS)
    p.add_argument("--lengths", type=_parse_lengths, default=DEFAULT_LENGTHS)
    p.add_argument("--out", help="CSV output file (default: stdout)")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (FormatError, GrammarError, AccessError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
