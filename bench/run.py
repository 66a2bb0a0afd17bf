#!/usr/bin/env python3
"""End-to-end benchmark for embanks: three query streams over built stores.

Run from the repository root::

    python3 bench/run.py --workload needle --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --smoke --seconds 1 --trace 1

Each workload makes its corpus from ``--seed`` with ``embanks.synth``,
builds a store from the generated TSVs, and then measures for
``--seconds`` seconds with one closed-loop client: the next operation is
sent only when the previous one has returned.  Every operation runs under
a wall-clock cap enforced with ``SIGALRM``; one that overruns is stopped and
counted as a failed ``timeout``.  Corpus generation, ingest and clustering
run in child processes, so the peak RSS of this process is the query
path's.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports per-layer numbers from spans recorded by
``bench/spans.py`` around the package's functions.  In a traced run, every
other query is traced, so the traced and untraced latencies come from the
same interleaved stream.  Everything above the last line is a readable
report.  Workloads, caps and calibration are described in
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_ROUNDS = 3       # set-up rounds per run, each in its own process;
SETUP_ROUND_S = 2.0    # a round repeats a small set-up to fill this.
                       # setup_s and build_s are medians over repetitions
REFERENCE_QUERIES = 2  # single-phase timings per traced run, where not every
                       # query already has a reference answer
CHILD_TIMEOUT_S = 150
SMOKE_CAP_S = 1e-6     # cap of the one operation smoke mode forces to time out

LARGE = dict(papers=20000, authors=6000, writes=30000, cites=10000,
             rare_pairs=100)
MID = dict(papers=4000, authors=1200, writes=6000, cites=2000, rare_pairs=5)
TINY = dict(papers=50, authors=15, writes=75, cites=25, rare_pairs=5)
SMOKE = dict(papers=100, authors=30, writes=150, cites=50, rare_pairs=10)
SMOKE_CORPORA = 2      # corpora per run in smoke mode, at most

BIDI_BEST = dict(phase1_algorithm="bidi", phase2_algorithm="bidi",
                 combos="best")


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: dict
    queries: str                    # "rare" planted pairs or "frequent" pairs
    config: dict = field(default_factory=dict)  # EngineConfig overrides
    store_per_query: bool = True    # open a fresh ClusterStore per query
    cap_s: float = 30.0             # wall-clock cap per operation
    distinct: int = 0               # frequent pairs per run; 0 for all
    reference: tuple = ("backward", "all")  # single-phase algorithm, combos
    checked_by_reference: bool = False  # every query has a reference answer
    corpora: int = 1                # corpora (and stores) per run


WORKLOADS = {
    "needle": Workload("needle", LARGE, "rare"),
    "broad": Workload("broad", MID, "frequent", BIDI_BEST,
                      store_per_query=False, distinct=6,
                      reference=("bidi", "best"), checked_by_reference=True),
    # query costs on one small corpus differ tenfold, so 128 corpora share
    # the stream and a run draws about seven queries from each
    "broad-default": Workload("broad-default", TINY, "frequent", cap_s=20.0,
                              corpora=128),
}

# build_s is printed but not bounded: setup_s holds it, and on
# broad-default's tiny stores it is mostly fsync time, which varied by 0.38
# between runs.
END_TO_END = [
    ("setup_s", "s"), ("store_disk_bytes", "bytes"),
    ("latency_mean_ms", "ms"), ("latency_tail_ms", "ms"), ("peak_rss_mb", "MB"),
]


class QueryTimeout(BaseException):
    """Raised by SIGALRM inside an operation that overran its cap.

    A BaseException, so no ``except Exception`` in the program swallows it.
    """


def _on_alarm(signum, frame):
    raise QueryTimeout()


def capped(cap_s: float, fn, *args):
    """Run ``fn(*args)``; raise QueryTimeout once ``cap_s`` seconds pass."""
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def import_package():
    """Import embanks from this checkout's ``src``; exit 2 if it is absent."""
    if not (SRC / "embanks" / "__init__.py").is_file():
        print(f"error: no embanks package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def workload(name: str, smoke: bool) -> Workload:
    """The named workload; smoke mode caps its number of corpora."""
    w = WORKLOADS[name]
    if smoke:
        w = replace(w, corpora=min(w.corpora, SMOKE_CORPORA))
    return w


def corpus_spec(w: Workload, seed: int, c: int, smoke: bool):
    """Corpus ``c`` of a run; a one-corpus workload uses ``seed`` itself."""
    from embanks.synth import SynthSpec
    return SynthSpec(**(SMOKE if smoke else w.corpus),
                     seed=seed * w.corpora + c)


def planted_count(spec) -> int:
    return min(spec.rare_pairs, spec.papers, spec.authors, spec.writes)


def candidate_queries(w: Workload, spec, seed: int) -> list[list[str]]:
    """One corpus's queries in stream order."""
    from embanks import synth
    rng = random.Random(seed * 7919 + 1)
    if w.queries == "rare":
        order = list(range(planted_count(spec)))
        rng.shuffle(order)
        return [list(synth.low_pair(i)) for i in order]
    pairs = [list(p) for p in itertools.combinations(synth.HIGH_WORDS, 2)]
    rng.shuffle(pairs)
    return pairs


def answerable(g, index, queries: list[list[str]]) -> list[list[str]]:
    """Queries with at least one node that reaches a match of every term."""
    reach: dict[str, set[int]] = {}
    for term in {t for q in queries for t in q}:
        seen = set(index.lookup(term))
        stack = list(seen)
        while stack:
            for y, _ in g.in_edges(stack.pop()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        reach[term] = seen
    return [q for q in queries if set.intersection(*(reach[t] for t in q))]


def one_cluster(queries: list[list[str]], planted: dict, store_dir: Path):
    """Planted queries whose paper and author share a cluster of the store.

    Phase 2 of such a query searches that one cluster; a pair split across
    clusters expands thousands of nodes instead (see README, "needle").
    """
    from embanks.storage import ClusterStore
    mapping = ClusterStore.open(store_dir).clustering.node_mapping
    return [q for q in queries
            if len({int(mapping[n]) for n in planted[" ".join(q)]}) == 1]


def query_key(c: int, terms: list[str]) -> str:
    return f"{c}:{' '.join(terms)}"


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples above it.

    Returns (value, percentile, samples above).  Below 21 samples that
    percentile would lie under the median, so the maximum is returned.
    """
    s = sorted(values)
    n = len(s)
    if n < 21:
        return s[-1], 100.0, 0
    k = n - 11                      # index with exactly ten samples above
    return s[k], 100.0 * (k + 1) / n, n - 1 - k


def disk_usage(path: Path) -> tuple[int, int, int]:
    """(files, file bytes, allocated bytes) under ``path``, itself included."""
    files = size = blocks = 0
    for p in [path, *path.rglob("*")]:
        st = p.lstat()
        blocks += st.st_blocks * 512
        if p.is_file():
            files += 1
            size += st.st_size
    return files, size, blocks


def store_report(store_dirs: list[Path]) -> dict:
    """Store-side numbers from ClusterStore headers and directory stats.

    With several stores, counts and bytes are totals and the cluster sizes
    are pooled.
    """
    import numpy as np
    from embanks.storage import ClusterStore
    sizes = np.concatenate([
        np.diff(ClusterStore.open(d).clustering.cluster_offset)
        for d in store_dirs])
    files = size = blocks = 0
    for d in store_dirs:
        f, s, b = disk_usage(d)
        files, size, blocks = files + f, size + s, blocks + b
    hist: dict[str, int] = {}
    lo = 1
    while lo <= int(sizes.max()):
        hi = 2 * lo - 1
        hist[f"{lo}-{hi}" if hi > lo else f"{lo}"] = \
            int(((sizes >= lo) & (sizes <= hi)).sum())
        lo *= 2
    return {
        "clustering.clusters": int(len(sizes)),
        "clustering.singletons": int((sizes == 1).sum()),
        "clustering.size_p50": float(np.median(sizes)),
        "storage.files": files,
        "storage.file_bytes": size,
        "storage.disk_bytes": blocks,
        "size_histogram": hist,
    }


def planted_ids(meta, count: int) -> dict[str, list[int]]:
    """Per planted query, the node ids of paper p<i> and author a<i>.

    Ids come from ``NodeMeta.node_key``; keys are the query text.
    """
    from embanks import synth
    want = {}
    for i in range(count):
        query = " ".join(synth.low_pair(i))
        want[("paper", f"p{i}")] = query
        want[("author", f"a{i}")] = query
    out: dict[str, list[int]] = {q: [] for q in want.values()}
    for node, key in enumerate(meta.node_key):
        rel = meta.relation_names[int(meta.node_relation[node])]
        query = want.get((rel, key))
        if query is not None:
            out[query].append(node)
    return out


def encode_answers(answers) -> list:
    return [[a.tree.root, [list(e) for e in a.tree.edges],
             list(a.tree.keyword_nodes), a.node_score, a.edge_score, a.score]
            for a in answers]


def decode_answers(rows) -> list:
    from embanks.scoring import AnswerTree, ScoredAnswer
    return [ScoredAnswer(AnswerTree(r[0], tuple(tuple(e) for e in r[1]),
                                    tuple(r[2])), r[3], r[4], r[5])
            for r in rows]


# --- set-up, in a child process -------------------------------------------------

def prepare(w: Workload, seed: int, smoke: bool, trace: bool,
            work: Path, select: bool) -> dict:
    """One set-up round: make the corpora and stores, timed.

    With ``select``, also pick the query stream and compute the
    single-phase reference answers, after and outside the timed set-ups.
    """
    from embanks import engine
    from embanks.keywords import build_index
    from embanks.search import SearchConfig
    from embanks.synth import generate_synthetic
    from spans import Tracer, build_stage_seconds

    specs = [corpus_spec(w, seed, c, smoke) for c in range(w.corpora)]
    tracer = Tracer() if trace else None
    setup_s, build_s, stages = [], [], []
    graphs = [None] * w.corpora     # (graph, meta) per corpus
    while not setup_s or (sum(setup_s) < SETUP_ROUND_S and len(setup_s) < 20):
        rep = len(setup_s)
        if tracer:
            tracer.query = f"setup{rep}"
        setup = build = 0.0
        for c, spec in enumerate(specs):
            data, store = work / f"data{c}", work / f"store{c}"
            for d in (data, store):
                shutil.rmtree(d, ignore_errors=True)
            t0 = time.perf_counter()
            generate_synthetic(spec, data)
            t1 = time.perf_counter()
            if tracer:
                tracer.install()
            try:
                g, meta, _ = engine.ingest_to_store(
                    data / "schema.txt", data, store)
                graphs[c] = (g, meta)
                engine.build_store(store, "close1", 100)
            finally:
                if tracer:
                    tracer.uninstall()
            t2 = time.perf_counter()
            setup += t2 - t0
            build += t2 - t1
        setup_s.append(setup)
        build_s.append(build)
        if tracer:
            stages.append(build_stage_seconds(tracer, f"setup{rep}"))

    out = {"setup_s": setup_s, "build_s": build_s, "stages": stages,
           "references": {}}
    if not select:
        return out
    per_corpus, indexes = [], []
    for c, spec in enumerate(specs):
        indexes.append(build_index(graphs[c][1]))
        queries = candidate_queries(w, spec, spec.seed)
        if w.queries == "frequent":
            queries = answerable(graphs[c][0], indexes[c], queries)
        per_corpus.append(queries)
    if w.queries == "rare":
        queries = per_corpus[0]
        out["planted"] = planted_ids(graphs[0][1], len(queries))
        queries = one_cluster(queries, out["planted"], work / "store0")
        stream = [[0, q] for q in queries]
    else:
        # round-robin over the corpora, each in its own shuffled order
        stream = [[c, q] for row in itertools.zip_longest(*per_corpus)
                  for c, q in enumerate(row) if q is not None]
        if w.distinct:
            stream = stream[:w.distinct + 1]
    out["queries"] = stream         # the last one only warms up
    if w.checked_by_reference:
        ref_queries = stream[:-1]
    else:
        ref_queries = stream[:REFERENCE_QUERIES] if trace else []
    algo, combos = w.reference
    for c, q in ref_queries:
        t0 = time.perf_counter()
        answers, stats = engine.single_phase_query(
            graphs[c][0], indexes[c], q, algo, SearchConfig(k=10, combos=combos))
        out["references"][query_key(c, q)] = {
            "ms": 1000.0 * (time.perf_counter() - t0),
            "explored": stats.nodes_explored,
            "answers": encode_answers(answers),
        }
    return out


def run_prepare_child(args, work: Path, select: bool) -> dict:
    """One set-up round in a child process, into ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--prepare",
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--work", str(work)]
    if args.smoke:
        cmd.append("--smoke")
    if select:
        cmd.append("--select")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up failed with exit code {proc.returncode}")
    return json.loads((work / "prepare.json").read_text(encoding="utf-8"))


def more_setup_rounds(args, work: Path, prep: dict) -> None:
    """Run one more set-up round, adding its timings to ``prep``.

    Rounds after the first build into a scratch directory, so the store the
    queries use is never touched.
    """
    extra = run_prepare_child(args, work / "round", select=False)
    for key in ("setup_s", "build_s", "stages"):
        prep[key] += extra[key]
    shutil.rmtree(work / "round", ignore_errors=True)


# --- checking answers ---------------------------------------------------------

class Checker:
    """Correctness of one answer list, plus its overlap with the reference.

    ``check`` returns (status, overlap): status is ``ok``, ``wrong`` (an
    answer that is not a tree covering every term, or a needle whose top
    answer is not the planted join) or ``miss`` (no answers, or, where
    every query has a reference, none of its answers reproduced).  The
    overlap is None when the query has no reference.
    """

    def __init__(self, w: Workload, prep: dict, indexes) -> None:
        from embanks.engine import compare_precision
        self._compare = compare_precision
        self.w = w
        self.indexes = indexes
        self.planted = {k: set(v) for k, v in prep.get("planted", {}).items()}
        self.reference = {k: decode_answers(v["answers"])
                          for k, v in prep["references"].items()}

    def check(self, c: int, terms: list[str], answers):
        if not answers:
            return "miss", 0.0
        if self.w.queries == "rare":
            want = self.planted[" ".join(terms)]
            found = [set(a.tree.keyword_nodes) == want for a in answers]
            return ("ok" if found[0] else "wrong"), float(any(found))
        index = self.indexes[c]
        for a in answers:
            t = a.tree
            if not t.is_valid() or len(t.keyword_nodes) != len(terms):
                return "wrong", 0.0
            for term, node in zip(terms, t.keyword_nodes):
                if node not in t.nodes or node not in index.lookup(term):
                    return "wrong", 0.0
        reference = self.reference.get(query_key(c, terms))
        if reference is None:
            return "ok", None
        overlap = self._compare(answers, reference).overlap
        if self.w.checked_by_reference and overlap == 0:
            return "miss", overlap
        return "ok", overlap


@dataclass
class Outcomes:
    """Latencies in seconds; a timeout or error reads as the cap."""

    traced: list = field(default_factory=list)
    untraced: list = field(default_factory=list)
    traced_ids: list = field(default_factory=list)
    overlaps: list = field(default_factory=list)
    status: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def add(self, status: str) -> None:
        self.status[status] = self.status.get(status, 0) + 1

    @property
    def attempted(self) -> int:
        return sum(self.status.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.status.get("ok", 0)


def timed_query(out: Outcomes, checker: Checker, op, query, cap_s: float,
                tracer=None, qid=None, run_cap_s: float | None = None) -> None:
    """One closed-loop operation: run, time, check, record.

    ``run_cap_s`` stops the operation sooner than ``cap_s``; the latency
    recorded for a stopped or failed operation is still ``cap_s``, so it
    sorts above every completed one.
    """
    c, terms = query
    if tracer:
        tracer.query = qid
        tracer.install()
        out.traced_ids.append(qid)
    answers = None
    elapsed = cap_s
    t0 = time.perf_counter()
    try:
        answers = capped(run_cap_s or cap_s, op, c, terms).answers
        elapsed = time.perf_counter() - t0
    except QueryTimeout:
        out.add("timeout")
    except Exception as exc:  # the benchmark keeps going and reports it
        out.add("error")
        out.errors.append(f"{' '.join(terms)}: {exc!r}")
    finally:
        if tracer:
            tracer.uninstall()
    (out.traced if tracer else out.untraced).append(elapsed)
    if answers is not None:
        status, overlap = checker.check(c, terms, answers)
        out.add(status)
        if overlap is not None:
            out.overlaps.append(overlap)


def query_op(w: Workload, store_dirs: list[Path]):
    """The operation one query performs, per the workload's store policy."""
    from embanks import engine
    from embanks.storage import ClusterStore
    cfg = engine.EngineConfig(**w.config)
    if w.store_per_query:
        def op(c, terms):
            return engine.two_phase_query(ClusterStore.open(store_dirs[c]),
                                          terms, cfg)
    else:
        shared = [ClusterStore.open(d) for d in store_dirs]

        def op(c, terms):
            return engine.two_phase_query(shared[c], terms, cfg)
    return op


# --- the workloads ----------------------------------------------------------------

def run_queries(w: Workload, args, prep: dict, work: Path,
                stores: list[Path], tracer):
    """The query stream, in ``SETUP_ROUNDS`` segments of equal length.

    The remaining set-up rounds run between the segments, so the samples of
    both spread over the whole run rather than one stretch of it: this
    host's speed drifts over tens of seconds (see README, Calibration).
    """
    from embanks.storage import INDEX_FILE, read_keyword_index
    indexes = [read_keyword_index(d / INDEX_FILE) for d in stores]
    checker = Checker(w, prep, indexes)
    queries, warm = prep["queries"][:-1], prep["queries"][-1]
    op = query_op(w, stores)
    out = Outcomes()
    capped(w.cap_s, op, *warm)
    j = 0
    for segment in range(SETUP_ROUNDS):
        if segment:
            more_setup_rounds(args, work, prep)
        start = time.perf_counter()
        first = j
        while j == first or time.perf_counter() - start < args.seconds / SETUP_ROUNDS:
            # every other query, with the parity flipped on each pass over
            # the stream, so each query is seen both traced and untraced
            traced = tracer if tracer and (j + j // len(queries)) % 2 else None
            timed_query(out, checker, op, queries[j % len(queries)], w.cap_s,
                        traced, j)
            j += 1
    if args.smoke and w.name == "broad-default":
        timed_query(out, checker, op, queries[0], w.cap_s,
                    run_cap_s=SMOKE_CAP_S)
    return out


# --- reporting ------------------------------------------------------------------------

def ms(seconds: float) -> float:
    return 1000.0 * seconds


def end_to_end(prep, ops: list[float], report) -> dict:
    """``ops`` are the latencies of the workload's operations, in seconds."""
    return {
        "setup_s": statistics.median(prep["setup_s"]),
        "build_s": statistics.median(prep["build_s"]),
        "store_disk_bytes": report["storage.disk_bytes"],
        "latency_mean_ms": ms(statistics.fmean(ops)),
        "latency_tail_ms": ms(tail(ops)[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(prep, out: Outcomes, report, tracer) -> dict:
    from spans import BUILD_STAGES, query_layers, summarize_queries
    stages = prep["stages"]
    metrics = {name: statistics.median(s[name] for s in stages) if stages else 0.0
               for name in BUILD_STAGES.values()}
    for key in ("storage.files", "storage.file_bytes", "storage.disk_bytes",
                "clustering.clusters", "clustering.singletons",
                "clustering.size_p50"):
        metrics[key] = report[key]
    metrics.update(summarize_queries([query_layers(tracer, q)
                                      for q in out.traced_ids]))
    t, u = out.traced, out.untraced
    metrics["trace.overhead_frac"] = \
        statistics.median(t) / statistics.median(u) if t and u else 0.0
    metrics["quality.answer_overlap"] = \
        statistics.fmean(out.overlaps) if out.overlaps else 0.0
    refs = prep["references"].values()
    metrics["reference.single_phase_ms"] = \
        statistics.median(r["ms"] for r in refs) if refs else 0.0
    metrics["reference.single_phase_explored"] = \
        statistics.fmean(r["explored"] for r in refs) if refs else 0.0
    return metrics


def print_report(w: Workload, args, out: Outcomes, ops: list[float],
                 e2e: dict, report: dict, layers: dict | None) -> None:
    _, tail_p, above = tail(ops)
    p50 = ms(statistics.median(ops))
    print(f"# {w.name}: seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} cap_s={w.cap_s} loop=closed clients=1 "
          f"store_per_query={w.store_per_query} config={w.config or 'default'}")
    print(f"# operations: attempted={out.attempted} failed={out.failed} "
          f"by_status={out.status}")
    print(f"# latency_tail_ms is p{tail_p:.1f} of {len(ops)} operations "
          f"({above} above it); latency p50 {p50:.1f} ms")
    print("# operation latencies ms: " + " ".join(f"{ms(x):.1f}" for x in ops))
    print(f"# store: clusters={report['clustering.clusters']} "
          f"singletons={report['clustering.singletons']} "
          f"size_p50={report['clustering.size_p50']} "
          f"files={report['storage.files']} "
          f"file_bytes={report['storage.file_bytes']} "
          f"disk_bytes={report['storage.disk_bytes']}")
    print(f"# cluster sizes: {report['size_histogram']}")
    for err in out.errors[:5]:
        print(f"# error: {err}")
    fail_frac = out.failed / max(out.attempted, 1)
    print(f"{w.name:14s} {'fail_frac':34s} {fail_frac:16.6f} frac")
    print(f"{w.name:14s} {'build_s':34s} {e2e['build_s']:16.6f} s")
    for name, unit in END_TO_END:
        print(f"{w.name:14s} {name:34s} {e2e[name]:16.6f} {unit}")
    from spans import PER_LAYER
    for name, unit in PER_LAYER if layers else []:
        print(f"{w.name:14s} {name:34s} {layers[name]:16.6f} {unit}")


def run_one(args) -> int:
    import_package()
    from spans import Tracer
    w = workload(args.workload, args.smoke)
    signal.signal(signal.SIGALRM, _on_alarm)
    work = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    stores = [work / f"store{c}" for c in range(w.corpora)]
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        prep = run_prepare_child(args, work, select=True)
        out = run_queries(w, args, prep, work, stores, tracer)
        report = store_report(stores)
        ops = out.untraced
        e2e = end_to_end(prep, ops, report)
        layers = None
        if tracer:
            layers = per_layer(prep, out, report, tracer)
            tracer.dump(ROOT / ".bench_out" / f"trace-{w.name}-seed{args.seed}.json",
                        {"workload": w.name, "seed": args.seed,
                         "traced_s": out.traced, "untraced_s": out.untraced,
                         "store": report})
        print_report(w, args, out, ops, e2e, report, layers)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    from spans import PER_LAYER
    units = PER_LAYER if tracer else END_TO_END
    chosen = layers if tracer else e2e
    result = {
        "correct": not (out.status.get("wrong") or out.status.get("miss")
                        or out.errors),
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": chosen[name], "unit": unit}
                    for name, unit in units},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny corpus for every workload, plus one forced timeout")
    p.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    p.add_argument("--select", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.prepare:
        import_package()
        out = prepare(workload(args.workload, args.smoke), args.seed, args.smoke,
                      bool(args.trace), Path(args.work), args.select)
        (Path(args.work) / "prepare.json").write_text(json.dumps(out),
                                                       encoding="utf-8")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
