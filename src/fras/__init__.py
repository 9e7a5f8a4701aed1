"""Random access and substring extraction over grammar-compressed strings."""

from .access import AccessError, FolkloreIndex, FrasIndex, build_folklore, build_fras
from .bench import (
    BenchReport,
    LengthRecord,
    gen_positions,
    parse_csv,
    report_to_csv,
    run_benchmark,
)
from .corpus import fibonacci_word, repetitive_text
from .formats import (
    FormatError,
    grammar_from_bytes,
    grammar_to_bytes,
    grammar_to_text,
    index_from_bytes,
    index_to_bytes,
)
from .grammar import (
    Grammar,
    GrammarError,
    GrammarStats,
    binarize_cnf,
    expand,
    expand_chunks,
    expansion_lengths,
    inline_single_use,
    is_cnf,
    sort_and_renumber,
    stats,
    validate,
)
from .prng import Prng
from .repair import repair_compress
from .succinct import PlainBitvector, SparseBitvector, build_bitvector

__all__ = [
    "AccessError",
    "BenchReport",
    "FolkloreIndex",
    "FormatError",
    "FrasIndex",
    "Grammar",
    "GrammarError",
    "GrammarStats",
    "LengthRecord",
    "PlainBitvector",
    "Prng",
    "SparseBitvector",
    "binarize_cnf",
    "build_bitvector",
    "build_folklore",
    "build_fras",
    "expand",
    "expand_chunks",
    "expansion_lengths",
    "fibonacci_word",
    "gen_positions",
    "grammar_from_bytes",
    "grammar_to_bytes",
    "grammar_to_text",
    "index_from_bytes",
    "index_to_bytes",
    "inline_single_use",
    "is_cnf",
    "parse_csv",
    "repair_compress",
    "repetitive_text",
    "report_to_csv",
    "run_benchmark",
    "sort_and_renumber",
    "stats",
    "validate",
]
