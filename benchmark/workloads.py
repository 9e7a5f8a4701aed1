"""The benchmark workloads and the code that runs one of them.

A query workload is set up ``SETUP_REPEATS`` times: corpus generation,
the write path text -> grammar -> index -> ``.fix`` bytes, load and
warm-up queries.  After each set-up it measures one slice of the timed
window and a few loads.  Every answer is checked afterwards, off the
clock.  Every time is scaled to a reference host speed measured next to
it (see ``speed``); raw times are printed too.

Each slice is a closed loop with one client in one thread: the next
query is sent only when the previous one has returned.  Positions follow
the ``fras bench`` protocol (``bench.gen_positions`` over one
``prng.Prng`` stream), so the checksum of the first ``CHECK_QUERIES``
answers equals the one ``bench.run_benchmark`` gives for the same index,
length and seed.  The ``build`` workload's window repeats the write path
instead; each build is loaded, and queried as a check.

The traced run replays the window's positions with spans and rank/select
proxies (see ``tracing``), and also binarizes the grammar, so that every
per-layer metric is measured on every workload.
"""

from __future__ import annotations

import copy
import gc
import math
import resource
import tracemalloc
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import fmean, median
from time import perf_counter, perf_counter_ns
from zlib import crc32

import fras.access
from fras import (
    FrasIndex,
    Prng,
    binarize_cnf,
    build_folklore,
    build_fras,
    expand,
    gen_positions,
    index_from_bytes,
    index_to_bytes,
    repair_compress,
    repetitive_text,
    run_benchmark,
    stats,
)

from speed import REFERENCE_NS, Speedometer, Stopwatch, rolling_slowdowns
from tracing import SuccinctCounters, TimedBitvector, Tracer, wrapped_functions

SETUP_REPEATS = 3
WARMUP_QUERIES = 500
# The build workload warms up on a prefix of its text.
WARMUP_BUILD_BYTES = 64 * 1024
# Window minimum; also the prefix whose checksum is compared with run_benchmark.
CHECK_QUERIES = 2000
# The build workload queries each build for this long, as a check.
VERIFY_SLICE_S = 0.3
MIN_BUILDS = 6
# Query batches on each side of a batch whose loop samples set its slowdown.
SPEED_WINDOW = 25
# After each slice: at least LOAD_MIN_RUNS loads and LOAD_MIN_S seconds of them.
LOAD_MIN_RUNS = 2
LOAD_MIN_S = 0.7
# The same for the loads of each build in the build workload.
BUILD_LOAD_MIN_S = 0.3
# query_p99_us is the median of the p99s of consecutive stretches of this
# many queries: a burst of load on the host a few ms long lifts the p99 of
# a whole run, but only of the stretches it falls in.
P99_STRETCH = 1000
LEVEL_SAMPLE = 1000
WALK_PROBE_LEN = 1000
WALK_PROBE_QUERIES = 500

# Public functions that fras.access calls while building a FRAS index.
ACCESS_CALLS = {
    "sort_and_renumber": "grammar.sort_and_renumber",
    "expansion_lengths": "grammar.expansion_lengths",
    "build_bitvector": "succinct.build_bitvector",
}


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: tuple[int, int, float]  # repetitive_text(base_len, copies, mutation_rate)
    tiny_corpus: tuple[int, int, float]  # the same shape for the smoke mode
    index: str  # FRAS bitvector kind ("sparse" or "plain"), or "folklore"
    length: int  # bytes per extract
    batch: int  # queries per batch: a few ms of them, one speed sample each
    timed: str  # what the timed window repeats: "queries" or "builds"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("random-access", (16384, 32, 0.02), (1024, 16, 0.02), "sparse", 1, 256, "queries"),
        Workload("substring-scan", (1024, 512, 0.001), (256, 64, 0.004), "plain", 1000, 16, "queries"),
        Workload("folklore-access", (1024, 512, 0.001), (256, 64, 0.004), "folklore", 1, 16, "queries"),
        Workload("build", (10240, 32, 0.001), (1024, 16, 0.001), "sparse", 1, 256, "builds"),
    )
}


@dataclass(frozen=True)
class Seeds:
    """Independent sub-seeds drawn from the run's ``--seed``."""

    corpus: int
    queries: int
    warmup: int
    probe: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        rng = Prng(seed)
        return cls(*(rng.next_u64() for _ in range(4)))


class Checks:
    """Operations attempted and failed, with the first few failures described."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.failures.extend(failures[: 10 - len(self.failures)])

    def expect(self, ok: bool, what: str) -> None:
        self.add(1, [] if ok else [what])


def span(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def traced(tracer: Tracer | None, name: str, fn, *args):
    with span(tracer, name):
        return fn(*args)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def build_fix(spec: Workload, text: bytes, tracer: Tracer | None, watch: Stopwatch):
    """The write path: text -> grammar -> index -> ``.fix`` bytes, timed by ``watch``."""
    g = watch.run(traced, tracer, "repair.compress", repair_compress, text)
    if spec.index == "folklore":
        cnf = watch.run(traced, tracer, "grammar.binarize_cnf", binarize_cnf, g)
        idx = watch.run(traced, tracer, "access.build_folklore", build_folklore, cnf)
    elif tracer is None:
        idx = watch.run(build_fras, g, spec.index)
    else:
        with wrapped_functions(tracer, fras.access, ACCESS_CALLS):
            idx = watch.run(traced, tracer, "access.build_fras", build_fras, g, spec.index)
    return g, watch.run(traced, tracer, "formats.index_to_bytes", index_to_bytes, idx)


def check_build(checks: Checks, text: bytes, g, fix: bytes, loaded) -> None:
    checks.expect(expand(g) == text, "expand(grammar) differs from the text")
    checks.expect(index_to_bytes(loaded) == fix, "reloaded index re-serializes differently")


def warm_up(idx, length: int, seed: int) -> None:
    extract = idx.extract
    for p in gen_positions(Prng(seed), idx.n, length, WARMUP_QUERIES):
        extract(p, length)


@dataclass
class SetUp:
    text: bytes
    grammar: object
    fix: bytes | None
    index: object
    setup: Stopwatch
    build: Stopwatch | None
    rss_mb: float | None


def set_up(spec: Workload, corpus, seeds: Seeds, tracer, checks: Checks, speed: Speedometer) -> SetUp:
    """Corpus, write path, load and warm-up; each step timed and scaled on its own."""
    gc.collect()
    setup = Stopwatch(speed)
    with span(tracer, "bench.setup"):
        text = setup.run(traced, tracer, "corpus.generate", repetitive_text, *corpus, seeds.corpus)
        if spec.timed == "builds":
            with span(tracer, "bench.warmup"):
                build_fix(spec, text[:WARMUP_BUILD_BYTES], None, setup)
            return SetUp(text, None, None, None, setup, None, None)
        build = Stopwatch(speed)
        g, fix = build_fix(spec, text, tracer, build)
        setup.raw_s += build.raw_s
        setup.scaled_s += build.scaled_s
        rss = peak_rss_mb()
        idx = setup.run(traced, tracer, "formats.index_from_bytes", index_from_bytes, fix)
        setup.run(traced, tracer, "bench.warmup", warm_up, idx, spec.length, seeds.warmup)
    check_build(checks, text, g, fix, idx)
    return SetUp(text, g, fix, idx, setup, build, rss)


@dataclass
class QueryRun:
    positions: array = field(default_factory=lambda: array("q"))
    answers: list = field(default_factory=list)
    latencies_ns: array = field(default_factory=lambda: array("q"))
    elapsed_ns: int = 0
    # The same, scaled to the reference host speed.
    scaled_latencies_ns: array = field(default_factory=lambda: array("d"))
    scaled_elapsed_ns: float = 0.0


def run_queries(
    run: QueryRun, idx, length: int, rng: Prng, seconds: float, min_count: int, tracer, speed: Speedometer, batch_size: int
) -> None:
    """Add a slice to ``run``: a closed loop with one client, for ``seconds``.

    Positions are drawn between batches, off the clock, and one
    reference-loop sample is taken before each batch.  A batch's times are
    scaled by the median slowdown of the ``SPEED_WINDOW`` batches on each
    side of it.
    """
    extract = idx.extract
    answers = run.answers
    latencies = run.latencies_ns
    first = len(latencies)
    loop_ns = array("q")
    batch_ns = array("q")
    elapsed = count = 0
    budget = int(seconds * 1e9)
    gc.collect()
    while elapsed < budget or count < min_count:
        batch = traced(tracer, "bench.positions", gen_positions, rng, idx.n, length, batch_size)
        loop_ns.append(speed.sample())
        start = perf_counter_ns()
        for p in batch:
            t0 = perf_counter_ns()
            try:
                out = extract(p, length)
            except Exception as exc:  # a failed query; reported when answers are checked
                out = exc
            latencies.append(perf_counter_ns() - t0)
            answers.append(out)
        batch_ns.append(perf_counter_ns() - start)
        elapsed += batch_ns[-1]
        count += len(batch)
        run.positions.extend(batch)
    run.elapsed_ns += elapsed
    scaled = run.scaled_latencies_ns
    for b, slow in enumerate(rolling_slowdowns(loop_ns, SPEED_WINDOW)):
        lo = first + b * batch_size
        scaled.extend(ns / slow for ns in latencies[lo : lo + batch_size])
        run.scaled_elapsed_ns += batch_ns[b] / slow


def check_answers(checks: Checks, text: bytes, length: int, positions, answers) -> None:
    bad = [
        f"extract({p}, {length}) returned {out!r:.60}"
        for p, out in zip(positions, answers)
        if out != text[p - 1 : p - 1 + length]
    ]
    checks.add(len(answers), bad)


def checksum(answers) -> int:
    crc = 0
    for out in answers:
        if isinstance(out, bytes):
            crc = crc32(out, crc)
    return crc


def replay_traced(idx, positions, length: int, tracer: Tracer, batch_size: int):
    """Replay positions batch by batch, first untraced and then traced.

    The traced pass records one ``access.extract`` span per query on a copy
    of the index whose two bitvectors (if it is a FRAS index) are
    rank/select proxies.  Pairing the passes per batch keeps the machine's
    speed drift out of the traced/untraced comparison.
    """
    counters = SuccinctCounters()
    instrumented = copy.copy(idx)
    if isinstance(idx, FrasIndex):
        instrumented.rule_marks = TimedBitvector(idx.rule_marks, counters)
        instrumented.start_marks = TimedBitvector(idx.start_marks, counters)
    plain = idx.extract
    extract = instrumented.extract
    snapshot = counters.snapshot
    record = tracer.record
    untraced = array("q")
    latencies = array("q")
    answers: list = []
    self_ns = 0
    with tracer.span("bench.replay"):
        for b in range(0, len(positions), batch_size):
            batch = positions[b : b + batch_size]
            for p in batch:
                t0 = perf_counter_ns()
                try:
                    plain(p, length)
                except Exception:  # the window's answers are checked already
                    pass
                untraced.append(perf_counter_ns() - t0)
            for q, p in enumerate(batch, b):
                r0, rn0, s0, sn0 = snapshot()
                t0 = perf_counter_ns()
                try:
                    out = extract(p, length)
                except Exception as exc:
                    out = exc
                t1 = perf_counter_ns()
                r1, rn1, s1, sn1 = snapshot()
                latencies.append(t1 - t0)
                self_ns += t1 - t0 - (rn1 - rn0) - (sn1 - sn0)
                answers.append(out)
                record("access.extract", t0, t1, q, (r1 - r0, rn1 - rn0, s1 - s0, sn1 - sn0))
    return untraced, latencies, answers, self_ns, counters


def walk_ns_per_byte(idx, text: bytes, seed: int, checks: Checks) -> float:
    """``extract(p, len)`` minus ``access(p)`` on the same positions, per streamed byte."""
    width = min(WALK_PROBE_LEN, len(text))
    positions = gen_positions(Prng(seed), len(text), width, WALK_PROBE_QUERIES)
    walk = 0
    bad = []
    for p in positions:
        t0 = perf_counter_ns()
        first = idx.access(p)
        t1 = perf_counter_ns()
        out = idx.extract(p, width)
        t2 = perf_counter_ns()
        walk += (t2 - t1) - (t1 - t0)
        if first != text[p - 1] or out != text[p - 1 : p - 1 + width]:
            bad.append(f"walk probe at {p} returned a wrong answer")
    checks.add(2 * len(positions), bad)
    return walk / (len(positions) * max(width - 1, 1))


def measure_load(fix: bytes, min_s: float, tracer, checks: Checks, speed: Speedometer) -> tuple[list[float], list[float]]:
    """Raw and scaled seconds of each load, until ``min_s`` raw seconds are spent."""
    raw: list[float] = []
    scaled: list[float] = []
    while len(raw) < LOAD_MIN_RUNS or sum(raw) < min_s:
        gc.collect()  # every load starts from the same collector state
        idx, r, s = speed.timed(traced, tracer, "formats.index_from_bytes", index_from_bytes, fix)
        raw.append(r)
        scaled.append(s)
        checks.expect(index_to_bytes(idx) == fix, "reloaded index re-serializes differently")
    return raw, scaled


def index_heap_bytes(fix: bytes) -> int:
    """Python heap held by a freshly loaded index, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        idx = index_from_bytes(fix)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del idx
        return held
    finally:
        tracemalloc.stop()


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def stretch_p99(latencies) -> float:
    """Median over stretches of ``P99_STRETCH`` queries of each stretch's p99."""
    stretches = range(0, len(latencies) - P99_STRETCH + 1, P99_STRETCH)
    return median(percentile(sorted(latencies[i : i + P99_STRETCH]), 0.99) for i in stretches)


def median_or_zero(values) -> float:
    """The median, or 0 for a layer the workload's index does not use."""
    return median(values) if values else 0.0


def layer_metrics(spec: Workload, tracer: Tracer, idx, g, run: QueryRun, seeds: Seeds, text: bytes, checks: Checks):
    """Per-layer metrics of a traced run."""
    # What the folklore index would descend: the CNF form of the same grammar.
    cnf = traced(tracer, "grammar.binarize_cnf", binarize_cnf, g)
    checks.expect(expand(cnf) == text, "expand(binarize_cnf(grammar)) differs from the text")

    untraced, latencies, answers, self_ns, counters = replay_traced(idx, run.positions, spec.length, tracer, spec.batch)
    check_answers(checks, text, spec.length, run.positions, answers)

    levels = []
    bad = []
    for p in run.positions[:LEVEL_SAMPLE]:
        byte, path = idx.access_trace(p)
        levels.append(len(path) - 1)
        if byte != text[p - 1]:
            bad.append(f"access_trace({p}) returned {byte}")
    checks.add(len(levels), bad)
    walk = walk_ns_per_byte(idx, text, seeds.probe, checks)

    q = len(run.positions)
    st = stats(g)
    fras_index = isinstance(idx, FrasIndex)
    space = [bv.space_report() for bv in (idx.rule_marks, idx.start_marks)] if fras_index else []
    lengths = idx.unique_lengths if fras_index else set(idx.left_lengths)
    untraced_p50 = percentile(sorted(untraced), 0.5)
    traced_p50 = percentile(sorted(latencies), 0.5)
    s = tracer.durations_s
    return {
        "corpus.generate_s": (median(s("corpus.generate")), "s"),
        "repair.compress_s": (median(s("repair.compress")), "s"),
        "grammar.rules": (st.rules, "count"),
        "grammar.depth": (st.depth, "count"),
        "grammar.start_len": (st.start, "count"),
        "grammar.distinct_lengths": (len(lengths), "count"),
        "grammar.cnf_depth": (stats(cnf).depth, "count"),
        "grammar.binarize_cnf_s": (median(s("grammar.binarize_cnf")), "s"),
        "grammar.sort_and_renumber_s": (median_or_zero(s("grammar.sort_and_renumber")), "s"),
        "succinct.build_s": (median_or_zero(tracer.child_s("access.build_fras", "succinct.build_bitvector")), "s"),
        "succinct.rank_calls_per_query": (counters.rank_calls / q, "count"),
        "succinct.select_calls_per_query": (counters.select_calls / q, "count"),
        "succinct.rank_us_per_query": (counters.rank_ns / q / 1e3, "us"),
        "succinct.select_us_per_query": (counters.select_ns / q / 1e3, "us"),
        "succinct.payload_bits": (sum(r["payload_bits"] for r in space), "bits"),
        "succinct.aux_bits": (sum(r["auxiliary_bits"] for r in space), "bits"),
        "access.levels_per_query": (fmean(levels), "count"),
        "access.extract_self_us": (self_ns / q / 1e3, "us"),
        "access.walk_ns_per_byte": (walk, "ns"),
        "access.build_s": (median(s("access.build_fras") + s("access.build_folklore")), "s"),
        "formats.index_to_bytes_s": (median(s("formats.index_to_bytes")), "s"),
        "formats.index_from_bytes_s": (median(s("formats.index_from_bytes")), "s"),
        "bench.positions_s": (sum(s("bench.positions")), "s"),
        "trace.overhead_pct": ((traced_p50 / untraced_p50 - 1) * 100, "%"),
    }


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    checks: Checks
    notes: list[str]
    tracer: Tracer | None


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> Result:
    """Set up three times and measure a slice of the window after each set-up.

    (The ``build`` workload measures its slices after each of its builds.)
    The machine's speed drifts over tens of seconds, so a run samples it at
    several times instead of in one stretch, and scales every time to the
    reference speed measured next to it.  The traced run measures half its
    window, then replays the same positions untraced and traced in pairs.
    """
    spec = WORKLOADS[name]
    seeds = Seeds.derive(seed)
    tracer = Tracer() if trace else None
    checks = Checks()
    speed = Speedometer()
    corpus = spec.tiny_corpus if tiny else spec.corpus
    queries = Prng(seeds.queries)
    run = QueryRun()
    slice_s = (seconds / 2 if trace else seconds) / SETUP_REPEATS
    load_slice_s = min(LOAD_MIN_S, seconds / SETUP_REPEATS)
    setups: list[Stopwatch] = []
    builds: list[Stopwatch] = []
    load_raw: list[float] = []
    load_scaled: list[float] = []
    fixes = set()

    def measure_slice(idx, fix: bytes, query_s: float, min_count: int, load_s: float) -> None:
        run_queries(run, idx, spec.length, queries, query_s, min_count, tracer, speed, spec.batch)
        raw, scaled = measure_load(fix, load_s, tracer, checks, speed)
        load_raw.extend(raw)
        load_scaled.extend(scaled)

    state = None
    for i in range(SETUP_REPEATS):
        state = None  # free the previous set-up before the next one
        state = set_up(spec, corpus, seeds, tracer, checks, speed)
        setups.append(state.setup)
        if spec.timed == "queries":
            if i == 0:
                rss = state.rss_mb  # peak RSS so far: interpreter, corpus and the first build
            builds.append(state.build)
            fixes.add(state.fix)
            measure_slice(state.index, state.fix, slice_s, CHECK_QUERIES // SETUP_REPEATS + 1, load_slice_s)
    text = state.text

    if spec.timed == "builds":
        # The window repeats the write path; each build is loaded and queried.
        start = perf_counter()
        while perf_counter() - start < seconds or len(builds) < MIN_BUILDS:
            gc.collect()
            builds.append(Stopwatch(speed))
            g, fix = build_fix(spec, text, tracer, builds[-1])
            if len(builds) == 1:
                rss = peak_rss_mb()
            fixes.add(fix)
            idx = index_from_bytes(fix)
            check_build(checks, text, g, fix, idx)
            warm_up(idx, spec.length, seeds.warmup)
            measure_slice(
                idx, fix, min(VERIFY_SLICE_S, slice_s), CHECK_QUERIES // MIN_BUILDS + 1, min(BUILD_LOAD_MIN_S, load_slice_s)
            )
    else:
        g, fix, idx = state.grammar, state.fix, state.index
    checks.expect(len(fixes) == 1, "building the same corpus again gave different .fix bytes")
    state = None

    check_answers(checks, text, spec.length, run.positions, run.answers)
    crc = checksum(run.answers[:CHECK_QUERIES])
    ref = run_benchmark(idx, lengths=(spec.length,), iterations=CHECK_QUERIES, seed=seeds.queries).records[0].checksum
    checks.expect(crc == ref, f"checksum {crc:#010x} differs from run_benchmark's {ref:#010x}")
    raw_lat = sorted(run.latencies_ns)
    notes = [
        f"queries: {len(run.answers)} extracts of {spec.length} bytes in {run.elapsed_ns / 1e9:.3f} s, "
        f"one closed-loop client, query seed {seeds.queries}",
        f"crc32 of the first {CHECK_QUERIES} answers {crc:#010x}, run_benchmark {ref:#010x}; "
        f"of all answers {checksum(run.answers):#010x}",
        f"samples: setup_s {len(setups)}, build_s {len(builds)}, load_s {len(load_scaled)}, "
        f"query latency {len(run.answers)}, reference loop {len(speed.samples)}",
        f"host slowdown (reference-loop median over {REFERENCE_NS} ns): {speed.slowdown():.3f}",
        f"p99 of all scaled latencies: {percentile(sorted(run.scaled_latencies_ns), 0.99) / 1e3} us",
        f"raw: query_p50_us {percentile(raw_lat, 0.5) / 1e3} query_p99_us {stretch_p99(run.latencies_ns) / 1e3} "
        f"queries_per_s {len(raw_lat) / (run.elapsed_ns / 1e9)} load_s {median(load_raw)} "
        f"setup_s {median(w.raw_s for w in setups)} build_s {median(w.raw_s for w in builds)}",
    ]
    if spec.timed == "builds":
        notes.append(f"crc32 of the .fix bytes {crc32(fix):#010x}")

    if trace:
        metrics = layer_metrics(spec, tracer, idx, g, run, seeds, text, checks)
        return Result(metrics, checks, notes, tracer)
    lat = sorted(run.scaled_latencies_ns)
    metrics = {
        "query_p50_us": (percentile(lat, 0.50) / 1e3, "us"),
        "query_p99_us": (stretch_p99(run.scaled_latencies_ns) / 1e3, "us"),
        "queries_per_s": (len(lat) / (run.scaled_elapsed_ns / 1e9), "1/s"),
        "load_s": (median(load_scaled), "s"),
        "setup_s": (median(w.scaled_s for w in setups), "s"),
        "index_bytes": (len(fix), "bytes"),
        "index_mem_bytes": (index_heap_bytes(fix), "bytes"),
        "build_s": (median(w.scaled_s for w in builds), "s"),
        "build_peak_rss_mb": (rss, "MB"),
    }
    return Result(metrics, checks, notes, None)
