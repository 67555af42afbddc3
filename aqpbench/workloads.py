"""The benchmark's workloads: inputs, set-up, timed phase and metrics.

Both workloads use one closed-loop client in one process: the next
operation starts when the previous one returns. The table is the power
generator's fixed 200k rows (d = 10); the seed draws the query pool (with
``make_workload`` on a seeded 20k-row sample of the table) and the probe's
append rows. Inputs and exact answers are made before any timed phase; the
program only receives them. Every synopsis uses N_s = 20k.

* ``query-power`` — the synopsis is built on all 200k rows. The timed phase
  cycles through a pool of 800 non-grouped queries (all 7 aggregate
  functions, 1-5 predicates, AND/OR nesting, selectivity >= 1e-4). The
  build is set-up here, so a build change moves ``setup_s`` and no
  ``query_*`` metric.
* ``update-power`` — the synopsis is built on the first 150k rows. A pass
  starts from a copy of it and appends the other 50k rows in 50 batches of
  1,000 encoded rows, each followed by 40 queries from such a pool;
  passes repeat until the run time is used up. After the first pass the
  pool is scored against exact answers on all 200k rows. Query state cached
  per synopsis would have to be invalidated on every append, which shows
  here and not in query-power.

Timing on a shared host: executions are intermittently slowed by other
tenants. On the host this was written on, run medians moved by 35 %
between 15 s windows while the fastest of an operation's repeated
executions moved by about 7 %. So every timed operation is repeated, and
its latency is its fastest execution in the run, as ``timeit`` advises: a
pool query's over the passes, an append's over the passes (update-power)
or the probe cycles (query-power), the storage round trip's over its
repetitions. Short operations (a storage round trip every half second; in
query-power, an append probe every quarter second) are spread through the
timed phase. ``query_p50_ms`` and ``query_p99_ms`` are percentiles over
the pool queries; ``query_qps`` is the pool size over the sum of its
queries' latencies; ``update_p50_ms`` is the median over batches.

Client timings are per-layer metrics, with no regression bound, not
end-to-end ones. On the host this was written on, phases of 1.6-1.8x
slower execution lasting minutes moved even the fastest executions: over
five sets of 10 runs of the same code, the quartile spread of
``query_p50_ms`` ranged from 10 % to 64 % of its median, beyond the 0.25
bound an end-to-end metric may have. The end-to-end metrics are those a
user sees that such a host leaves steady: set-up time (compared by median
only), synopsis size, engine memory and accuracy.

JVM warm-up is part of ``setup_s``: the build runs in a fresh JVM. Spark
is stopped before the timed phase, which runs in this Python process alone.

Determinism: the table and the build seed do not depend on ``--seed``, so
every run of a workload on the same code must build the same synopsis. The
first run in a checkout builds it a second time, requires the same bytes
and records their SHA-256 under ``.aqpbench/``, keyed by a hash of the
code; later runs compare their build with the record instead of building
twice.

Layer -> end-to-end map (the end-to-end metric each per-layer metric
should move):

* ``build.*`` (from the set-up build) -> ``setup_s``; no ``query_*``.
* ``refine.*``, ``build.sample_rows`` -> ``synopsis_bytes``, ``engine_mb``,
  ``median_rel_error_pct`` and, through matrix sizes, ``query_p50_ms``.
* ``storage.serialize_ms`` -> ``save_ms``; ``storage.deserialize_ms`` and
  ``engine.init_ms`` -> ``load_ms``.
* ``engine.*``, ``weighting.*``, ``coverage.*``, ``aggregate.*``,
  ``model.pair_lookups_per_query`` -> ``query_p50_ms``, ``query_p99_ms``
  and ``query_qps``.
* ``query.<FUNC>.*`` -> diagnostics for ``query_p50_ms`` and
  ``median_rel_error_pct``.
* ``update.*`` -> ``update_p50_ms``.
"""
from __future__ import annotations

import copy
import gc
import hashlib
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark import SparkContext
from pyspark.sql import SparkSession

from repro.core import storage, update
from repro.core.build import BuildResult, build_synopsis
from repro.core.engine import AQPResult, PHEngine
from repro.core.model import PairwiseHist
from repro.datasets import DATASETS
from repro.experiments import harness
from repro.experiments.scenarios import make_workload
from repro.gd.preprocess import ColumnInfo, encode_pandas
from repro.queries import FUNCS, Query

from tracing import Tracer

ROWS = 200_000
BASE_ROWS = 150_000  # update-power builds on this prefix
N_SAMPLE = 20_000
BUILD_SEED = 0
POOL_QUERIES = 800
POOL_SAMPLE_ROWS = 20_000
BATCH_ROWS = 1_000
QUERIES_PER_BATCH = 40
PROBE_BATCHES = 5
STORAGE_PERIOD_S = 0.5
PROBE_PERIOD_S = 0.25

END_TO_END = (
    ("setup_s", "s"),
    ("synopsis_bytes", "B"),
    ("engine_mb", "MB"),
    ("median_rel_error_pct", "%"),
    ("bound_correct_pct", "%"),
)

PER_LAYER = (
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("query_qps", "1/s"),
    ("update_p50_ms", "ms"),
    ("save_ms", "ms"),
    ("load_ms", "ms"),
    ("build.total_s", "s"),
    ("build.profile_s", "s"),
    ("build.sample_s", "s"),
    ("build.gd_s", "s"),
    ("build.hist1d_s", "s"),
    ("build.hist2d_s", "s"),
    ("build.spark_jobs", "count"),
    ("build.spark_stages", "count"),
    ("build.spark_tasks", "count"),
    ("build.sample_rows", "count"),
    ("refine.hists", "count"),
    ("refine.bins_1d", "count"),
    ("refine.cells_2d", "count"),
    ("storage.serialize_ms", "ms"),
    ("storage.deserialize_ms", "ms"),
    ("engine.init_ms", "ms"),
    ("engine.execute_ms", "ms"),
    ("engine.execute_self_ms", "ms"),
    ("weighting.weights_ms", "ms"),
    ("weighting.weights_self_ms", "ms"),
    ("weighting.weights_self_share_pct", "%"),
    ("coverage.region_coverage_ms", "ms"),
    ("aggregate.aggregate_ms", "ms"),
    ("coverage.calls_per_query", "count"),
    ("aggregate.calls_per_query", "count"),
    ("model.pair_lookups_per_query", "count"),
    *((f"query.{f}.p50_ms", "ms") for f in FUNCS),
    *((f"query.{f}.rel_error_pct", "%") for f in FUNCS),
    ("update.append_rows_ms", "ms"),
    ("update.rows_per_s", "rows/s"),
    ("trace.overhead_pct", "%"),
    ("queries.zero_truth", "count"),
    ("queries.null_truth", "count"),
    ("queries.no_estimate", "count"),
    ("failed_ops_pct", "%"),
)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Inputs (untimed)


@dataclass
class Inputs:
    frame: pd.DataFrame  # the whole table, original domain
    build_rows: int  # the synopsis is built on frame[:build_rows]
    pool: list[Query]
    truth: list[float | None]  # exact answers on the whole table
    appends: pd.DataFrame  # original-domain rows to append, encoded after the build


def make_inputs(workload: str, seed: int) -> Inputs:
    frame = DATASETS["power"].generate(ROWS)
    drawn_from = frame.sample(n=POOL_SAMPLE_ROWS, random_state=seed)
    pool = make_workload(drawn_from, n_queries=POOL_QUERIES, seed=seed)
    truths = harness.compute_truths(frame, pool)
    truth = [truths[i] for i in range(len(pool))]
    if workload == "query-power":
        build_rows = ROWS
        appends = DATASETS["power"].generate(PROBE_BATCHES * BATCH_ROWS, seed=seed)
    else:
        build_rows = BASE_ROWS
        appends = frame.iloc[BASE_ROWS:]
    return Inputs(frame, build_rows, pool, truth, appends)


def encoded_batches(rows: pd.DataFrame, infos: list[ColumnInfo]) -> list[pd.DataFrame]:
    enc = encode_pandas(rows.reset_index(drop=True), infos)
    return [enc.iloc[i : i + BATCH_ROWS] for i in range(0, len(enc), BATCH_ROWS)]


# ---------------------------------------------------------------------------
# Output checks


@dataclass
class Gate:
    """Counts operations and the ones that failed. An operation fails if it
    raises or returns an estimate outside its own [lo, hi]; a failed
    operation makes the run incorrect. A query that returns no estimate
    where the exact answer is non-null (the synopsis estimates the
    selection as empty) is not a broken operation but an accuracy miss: it
    is counted in ``missing``, scored as out of bounds in
    ``bound_correct_pct`` and reported in ``failed_ops_pct``.
    ``truth_nonnull`` is None where the exact answer is not computed
    (update-power between appends)."""

    attempted: int = 0
    failed: int = 0
    missing: int = 0
    reasons: dict = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def query(self, res: AQPResult | None, truth_nonnull: bool | None) -> None:
        self.attempted += 1
        if res is None:
            self.fail("raised")
        elif res.est is None:
            self.missing += bool(truth_nonnull)
        elif not (res.lo is not None and res.hi is not None and res.lo <= res.est <= res.hi):
            self.fail("estimate outside bounds")


def execute(engine: PHEngine, q: Query) -> AQPResult | None:
    try:
        return engine.execute(q)
    except Exception as exc:  # a failed operation is counted, not fatal
        log(f"query raised {type(exc).__name__}: {exc} -- {q}")
        return None


@dataclass
class Accuracy:
    """Scores one answer per pool query against the exact answer."""

    rel_errors: dict = field(default_factory=lambda: {f: [] for f in FUNCS})
    bound_hits: list = field(default_factory=list)
    zero_truth: int = 0
    null_truth: int = 0
    no_estimate: int = 0

    def score(self, q: Query, res: AQPResult | None, truth: float | None) -> None:
        if res is None or res.est is None:
            if truth is not None:  # no interval contains the exact answer
                self.no_estimate += 1
                self.bound_hits.append(False)
            return
        if truth is None:
            self.null_truth += 1
            return
        self.bound_hits.append(res.contains(truth))
        if truth == 0:
            self.zero_truth += 1
            return
        self.rel_errors[q.func].append(abs(res.est - truth) / abs(truth) * 100.0)


# ---------------------------------------------------------------------------
# Spark and the build


def start_spark() -> SparkSession:
    """Settings mirror the test session (Arrow on, broadcast joins off);
    master and JVM heap size come from PYSPARK_SUBMIT_ARGS."""
    spark = (
        SparkSession.builder.appName("aqpbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark: SparkSession) -> None:
    """Stop the session, then the JVM, and wait until the JVM has exited."""
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


@dataclass
class Build:
    result: BuildResult
    seconds: float
    jobs: int
    stages: int
    tasks: int


def build(spark: SparkSession, sdf, group: str) -> Build:
    """``build_synopsis`` under a Spark job group, with the jobs, stages
    and tasks the group ran."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    t0 = time.perf_counter()
    result = build_synopsis(sdf, n_sample=N_SAMPLE, seed=BUILD_SEED)
    seconds = time.perf_counter() - t0
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    stages = tasks = 0
    for jid in jobs:
        info = tracker.getJobInfo(jid)
        for sid in info.stageIds if info else ():
            st = tracker.getStageInfo(sid)
            if st is not None:  # skipped stages never ran
                stages += 1
                tasks += st.numTasks
    return Build(result, seconds, len(jobs), stages, tasks)


# ---------------------------------------------------------------------------
# Timed phases


@dataclass
class Phase:
    """Latencies (s) of one closed-loop phase, in call order."""

    query_s: list = field(default_factory=list)
    query_qi: list = field(default_factory=list)  # pool index
    append_s: list = field(default_factory=list)
    append_key: list = field(default_factory=list)  # batch index in its pass
    rows_appended: int = 0


def append(phase: Phase, synopsis: PairwiseHist, batches: list, k: int, gate: Gate) -> None:
    batch = batches[k]
    gate.attempted += 1
    t0 = time.perf_counter()
    try:
        update.append_rows(synopsis, batch)
    except Exception as exc:  # a failed operation is counted, not fatal
        log(f"append_rows raised {type(exc).__name__}: {exc}")
        gate.fail("append raised")
    phase.append_s.append(time.perf_counter() - t0)
    phase.append_key.append(k)
    phase.rows_appended += len(batch)


@dataclass
class Sidecar:
    """Short operations spread through a timed phase: a storage round trip
    of the base synopsis (serialize, deserialize, construct the engine)
    every ``STORAGE_PERIOD_S`` and, when ``probe_batches`` is given, one
    append into a copy of the base synopsis every ``PROBE_PERIOD_S``."""

    base: PairwiseHist
    infos: list
    gate: Gate
    probe_batches: list
    serialize_s: list = field(default_factory=list)
    deserialize_s: list = field(default_factory=list)
    init_s: list = field(default_factory=list)
    probe: Phase = field(default_factory=Phase)
    _copy: PairwiseHist | None = None
    _n_probes: int = 0
    _next_storage: float = 0.0
    _next_probe: float = 0.0

    def tick(self) -> None:
        now = time.perf_counter()
        if now >= self._next_storage:
            self._round_trip()
            self._next_storage = now + STORAGE_PERIOD_S
        if self.probe_batches and now >= self._next_probe:
            k = self._n_probes % len(self.probe_batches)
            if k == 0:
                self._copy = copy.deepcopy(self.base)
            append(self.probe, self._copy, self.probe_batches, k, self.gate)
            self._n_probes += 1
            self._next_probe = now + PROBE_PERIOD_S

    def _round_trip(self) -> None:
        t0 = time.perf_counter()
        buf = storage.serialize(self.base)
        t1 = time.perf_counter()
        loaded = storage.deserialize(buf)
        t2 = time.perf_counter()
        PHEngine(loaded, self.infos)
        t3 = time.perf_counter()
        self.serialize_s.append(t1 - t0)
        self.deserialize_s.append(t2 - t1)
        self.init_s.append(t3 - t2)


def timed_query(phase: Phase, engine: PHEngine, q: Query, qi: int, tracer: Tracer | None):
    if tracer is not None:
        tracer.query_id = qi
    t0 = time.perf_counter()
    res = execute(engine, q)
    phase.query_s.append(time.perf_counter() - t0)
    phase.query_qi.append(qi)
    if tracer is not None:
        tracer.query_id = -1
    return res


def query_phase(engine, inp: Inputs, seconds, gate, acc, side, tracer=None) -> Phase:
    """Cycle through the pool until ``seconds`` have passed, and at least
    once; the first pass is scored."""
    phase = Phase()
    n = len(inp.pool)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < n or time.perf_counter() < deadline:
        qi = i % n
        res = timed_query(phase, engine, inp.pool[qi], qi, tracer)
        gate.query(res, inp.truth[qi] is not None)
        if i < n and acc is not None:
            acc.score(inp.pool[qi], res, inp.truth[qi])
        i += 1
        side.tick()
    return phase


def update_phase(base, infos, batches, inp: Inputs, seconds, gate, acc, side, tracer=None):
    """Passes of appends, each followed by ``QUERIES_PER_BATCH`` pool
    queries, from a fresh copy of the base synopsis, until ``seconds`` have
    passed and at least one pass is done. Interleaved queries are checked
    for wrong outputs only; after the first pass the pool is scored against
    the exact answers on all rows.
    Returns the phase and the engine of the last pass."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    first = True
    qn = 0
    while True:
        synopsis = copy.deepcopy(base)
        engine = PHEngine(synopsis, infos)
        for k in range(len(batches)):
            if not first and time.perf_counter() >= deadline:
                return phase, engine
            append(phase, synopsis, batches, k, gate)
            for _ in range(QUERIES_PER_BATCH):
                qi = qn % len(inp.pool)
                qn += 1
                res = timed_query(phase, engine, inp.pool[qi], qi, tracer)
                gate.query(res, None)
                side.tick()
        if first and acc is not None:
            for qi, q in enumerate(inp.pool):
                res = execute(engine, q)
                gate.query(res, inp.truth[qi] is not None)
                acc.score(q, res, inp.truth[qi])
        first = False


# ---------------------------------------------------------------------------
# Metrics


def object_bytes(root) -> int:
    """Bytes held by ``root``'s object graph: numpy buffers by ``nbytes``,
    everything else by ``sys.getsizeof``. Classes, modules and functions are
    shared code, not state, and are not followed."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    array_header = sys.getsizeof(np.empty(0))
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += obj.nbytes + array_header
            continue
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def fastest(times: list, keys: list) -> np.ndarray:
    """Each distinct operation's fastest execution, in key order."""
    k = np.asarray(keys)
    order = np.argsort(k, kind="stable")
    k, t = k[order], np.asarray(times)[order]
    return np.minimum.reduceat(t, np.flatnonzero(np.r_[True, k[1:] != k[:-1]]))


def client_metrics(setup_s, buf, engine, phase: Phase, side: Sidecar, acc: Accuracy) -> dict:
    """What the client sees. Append latency comes from the workload's own
    appends (update-power) or from the probe's (query-power)."""
    upd = phase if phase.append_s else side.probe
    q = fastest(phase.query_s, phase.query_qi)
    load = np.add(side.deserialize_s, side.init_s)
    errs = [e for v in acc.rel_errors.values() for e in v]
    return {
        "setup_s": setup_s,
        "save_ms": min(side.serialize_s) * 1e3,
        "load_ms": load.min() * 1e3,
        "synopsis_bytes": len(buf),
        "engine_mb": object_bytes(engine) / 1e6,
        "query_p50_ms": float(np.percentile(q, 50)) * 1e3,
        "query_p99_ms": float(np.percentile(q, 99)) * 1e3,
        "query_qps": len(q) / q.sum(),
        "update_p50_ms": float(np.median(fastest(upd.append_s, upd.append_key))) * 1e3,
        "median_rel_error_pct": float(np.median(errs)),
        "bound_correct_pct": 100.0 * float(np.mean(acc.bound_hits)),
    }


def per_layer(cold: Build, pool: list[Query], plain: Phase, traced: Phase, side: Sidecar,
              tracer: Tracer, acc: Accuracy, gate: Gate) -> dict:
    """Per-query times are means over the traced half's queries; self time
    is a span's time minus its traced children's."""
    ph = cold.result.ph
    timings = cold.result.timings
    total, self_ns, calls = tracer.totals_ns()
    n_q = calls["engine.execute"]

    def per_query_ms(values: dict, name: str) -> float:
        return values.get(name, 0) / n_q / 1e6

    def span_ms(name: str) -> float:
        return float(np.median(tracer.durations_ns(name))) / 1e6

    out = {
        "build.total_s": cold.seconds,
        "build.profile_s": timings["profile"],
        "build.sample_s": timings["sample"],
        "build.gd_s": timings["gd"],
        "build.hist1d_s": timings["hist1d"],
        "build.hist2d_s": timings["hist2d"],
        "build.spark_jobs": cold.jobs,
        "build.spark_stages": cold.stages,
        "build.spark_tasks": cold.tasks,
        "build.sample_rows": ph.n_sample,
        "refine.hists": ph.d + len(ph.hists2d),
        "refine.bins_1d": sum(h.k for h in ph.hists1d),
        "refine.cells_2d": sum(h.counts.size for h in ph.hists2d.values()),
        "storage.serialize_ms": span_ms("storage.serialize"),
        "storage.deserialize_ms": span_ms("storage.deserialize"),
        "engine.init_ms": statistics.median(side.init_s) * 1e3,
        "engine.execute_ms": per_query_ms(total, "engine.execute"),
        "engine.execute_self_ms": per_query_ms(self_ns, "engine.execute"),
        "weighting.weights_ms": per_query_ms(total, "weighting.weights"),
        "weighting.weights_self_ms": per_query_ms(self_ns, "weighting.weights"),
        "weighting.weights_self_share_pct": 100.0
        * self_ns.get("weighting.weights", 0)
        / total["engine.execute"],
        "coverage.region_coverage_ms": per_query_ms(self_ns, "coverage.region_coverage"),
        "aggregate.aggregate_ms": per_query_ms(self_ns, "aggregate.aggregate"),
        "coverage.calls_per_query": calls.get("coverage.region_coverage", 0) / n_q,
        "aggregate.calls_per_query": calls.get("aggregate.aggregate", 0) / n_q,
        "model.pair_lookups_per_query": calls.get("model.pair", 0) / n_q,
    }
    plain_q = fastest(plain.query_s, plain.query_qi)
    funcs = np.asarray([pool[qi].func for qi in np.unique(plain.query_qi)])
    for f in FUNCS:
        out[f"query.{f}.p50_ms"] = float(np.median(plain_q[funcs == f])) * 1e3
        errs = acc.rel_errors[f]
        out[f"query.{f}.rel_error_pct"] = float(np.median(errs)) if errs else 0.0
    appends = tracer.durations_ns("update.append_rows")
    upd = traced if traced.append_s else side.probe
    out["update.append_rows_ms"] = float(np.median(appends)) / 1e6
    out["update.rows_per_s"] = upd.rows_appended / (sum(appends) / 1e9)
    # Same queries, fastest execution in each half.
    traced_q = fastest(traced.query_s, traced.query_qi)
    both = np.isin(np.unique(plain.query_qi), np.unique(traced.query_qi))
    out["trace.overhead_pct"] = 100.0 * (traced_q.sum() / plain_q[both].sum() - 1.0)
    out["queries.zero_truth"] = acc.zero_truth
    out["queries.null_truth"] = acc.null_truth
    out["queries.no_estimate"] = acc.no_estimate
    out["failed_ops_pct"] = 100.0 * (gate.failed + gate.missing) / gate.attempted
    return out


# ---------------------------------------------------------------------------
# Determinism


def code_hash() -> str:
    """Hash of the program's and the benchmark's Python sources."""
    bench = Path(__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted((bench.parent / "src").rglob("*.py")) + sorted(bench.glob("*.py")):
        h.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_determinism(spark: SparkSession, sdf, buf: bytes, record: Path, gate: Gate) -> None:
    """Compare the set-up build with the recorded digest of an earlier run,
    or, when there is none, with a second build in this run."""
    digest = hashlib.sha256(buf).hexdigest()
    gate.attempted += 1
    if record.exists():
        if record.read_text() != digest:
            gate.fail("non-deterministic build (differs from an earlier run)")
        return
    t0 = time.perf_counter()
    again = storage.serialize(build(spark, sdf, "aqpbench-rebuild").result.ph)
    log(f"determinism rebuild: {time.perf_counter() - t0:.1f} s")
    if again != buf:
        gate.fail("non-deterministic build (two builds in one run differ)")
        return
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(digest)


# ---------------------------------------------------------------------------
# One run


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run ``workload`` once; return the result object the CLI prints.
    With ``trace`` the first half of the timed phase runs plain and the
    second half under the tracer, and the result has the per-layer
    metrics; otherwise it has the end-to-end metrics."""
    t0 = time.perf_counter()
    inp = make_inputs(workload, seed)
    log(f"inputs: {len(inp.pool)} queries in {time.perf_counter() - t0:.1f} s")
    gate = Gate()
    acc = Accuracy()

    t0 = time.perf_counter()
    spark = start_spark()
    try:
        sdf = spark.createDataFrame(inp.frame.iloc[: inp.build_rows])
        cold = build(spark, sdf, "aqpbench-build")
        buf = storage.serialize(cold.result.ph)
        engine = PHEngine(storage.deserialize(buf), cold.result.infos)
        setup_s = time.perf_counter() - t0
        log(f"setup: {setup_s:.1f} s (build {cold.seconds:.1f} s)")
        record = out_dir / f"synopsis-{workload}-{code_hash()}.sha256"
        check_determinism(spark, sdf, buf, record, gate)
    finally:
        stop_spark(spark)  # the timed phase needs no Spark

    infos = cold.result.infos
    base = engine.ph
    batches = encoded_batches(inp.appends, infos)
    probe = batches if workload == "query-power" else []
    gc.collect()

    def phase(secs: float, acc_: Accuracy | None, tracer: Tracer | None = None):
        side = Sidecar(base, infos, gate, probe)
        if workload == "query-power":
            return query_phase(engine, inp, secs, gate, acc_, side, tracer), engine, side
        p, last_engine = update_phase(base, infos, batches, inp, secs, gate, acc_, side, tracer)
        return p, last_engine, side

    if trace:
        plain, _, plain_side = phase(seconds / 2, acc)
        with Tracer() as tracer:
            traced, engine, side = phase(seconds / 2, None, tracer)
        span_file = out_dir / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(span_file)
        log(f"spans: {span_file} ({len(tracer.names)} spans)")
    else:
        plain, engine, side = phase(seconds, acc)

    if trace:
        metrics = client_metrics(setup_s, buf, engine, plain, plain_side, acc)
        metrics.update(per_layer(cold, inp.pool, plain, traced, side, tracer, acc, gate))
        units = dict(PER_LAYER)
    else:
        metrics = client_metrics(setup_s, buf, engine, plain, side, acc)
        units = dict(END_TO_END)
        log("client timings (per-layer, reported with --trace 1): "
            + " ".join(f"{k}={v:.6g}" for k, v in metrics.items() if k not in units))
    if gate.reasons:
        log(f"failed operations: {gate.reasons}")
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
