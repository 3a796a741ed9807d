#!/usr/bin/env python3
"""synalloc benchmark: one workload, timed (--trace 0) or traced (--trace 1).

    python3 bench/run.py --workload preset1_default --seed 1 --seconds 36 --trace 0

The system is a single-writer, in-process, closed-loop router: one caller
calls ``AllocationEngine.ingest`` / ``allocate`` and waits for each result.
All inputs are generated from ``--seed`` before timing starts. A run repeats
*passes* (build a fresh engine from the initial data, drive the whole op
stream through it, audit it) until ``--seconds`` is used up, and reports
medians over passes and latency percentiles over all calls.

Every pass is checked: every 50th ingest and every 50th allocate decision
against an independent oracle, every injected invalid vector for rejection,
``audit()`` and mass conservation at the end, and identical decisions in
every pass. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
record (provenance, sample counts, quartiles, trace profile). The exit code
is 1 on any correctness miss, and 1 without a result line when the package
cannot be loaded.
"""

from __future__ import annotations

import os

# One single-threaded process: keep numpy's BLAS/OpenMP pools from starting
# worker threads when numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from compare import quartiles
from spans import Tracer, patched

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHECK_EVERY = 50  # every Nth ingest and every Nth allocate is re-derived by the oracle
CHUNK_OPS = 16  # operations timed between two speed-probe readings
SLICE_S = 0.05  # a long call is scaled slice by slice (see timed)
MIN_PASSES = 3  # setup and audit are medians over at least this many passes
AUDIT_REPEATS = 3  # audit() is read-only; its time is the median of these
STREAM_MU, STREAM_SIGMA, DIM = 25.0, 10.0, 5  # the preset-1 stream


@dataclass(frozen=True)
class Workload:
    """One workload; bench/README.md says why each was chosen."""

    n_partitions: int
    per_partition: int  # initial vectors per partition (SyntheticInit)
    ingests: int
    engine: dict  # EngineConfig overrides
    read_every: int  # one allocate() after every Nth ingest
    invalid_share: float = 0.0
    records: bool = False  # serialise every record, as `run --records` does


WORKLOADS = {
    "preset1_default": Workload(
        n_partitions=5, per_partition=500, ingests=5_000, engine={},
        read_every=5, records=True,
    ),
    "deep_state_refresh": Workload(
        n_partitions=2, per_partition=15_000, ingests=3_000,
        engine={"threshold": 1.0}, read_every=2,
    ),
    "wide_read_mix": Workload(
        n_partitions=16, per_partition=500, ingests=1_250,
        engine={"alpha": 5, "threshold": 4.0, "outlier_k": 1.35, "refresh_interval": 50},
        read_every=1, invalid_share=0.01,
    ),
}

INGEST, ALLOCATE = 0, 1


# -- loading the package under test ------------------------------------------


def load_package(src: Path):
    """Import synalloc from ``src`` only; an installed copy must not stand in."""
    if not (src / "synalloc" / "__init__.py").is_file():
        sys.exit(f"error: no synalloc package under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("synalloc")
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: imported synalloc from {pkg.__file__}, not {src}")
    return pkg


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(src: Path, args, np) -> dict:
    digest = hashlib.sha256()
    for path in sorted((src / "synalloc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(src.parent),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# -- inputs ------------------------------------------------------------------


@dataclass
class Inputs:
    initial: list  # per-partition arrays
    stream: object  # (ingests, DIM) array of valid vectors
    ops: list  # (kind, vector, valid, stream index or -1)
    n_invalid: int


def make_inputs(wl: Workload, seed: int, scale: float, np, synalloc) -> Inputs:
    rng = np.random.default_rng(seed)
    init_seed, stream_seed, mix_seed = (int(s) for s in rng.integers(0, 2**63, size=3))
    per_partition = max(1, round(wl.per_partition * scale))
    n = max(2, round(wl.ingests * scale))
    spec = synalloc.ScenarioSpec(STREAM_MU, STREAM_SIGMA, n, stream_seed)
    initial = synalloc.synthetic_partitions(
        synalloc.SyntheticInit(per_partition=per_partition), spec, wl.n_partitions, DIM, init_seed
    )
    stream = synalloc.synth_stream(spec, DIM)

    mix = np.random.default_rng(mix_seed)
    n_invalid = max(1, round(n * wl.invalid_share)) if wl.invalid_share else 0
    invalid_at = set(int(i) for i in mix.choice(np.arange(1, n), size=n_invalid, replace=False))
    ops, valid_so_far = [], []
    for i in range(n):
        if i in invalid_at:
            ops.append((INGEST, _corrupt(stream[i], i - len(valid_so_far), mix), False, -1))
        else:
            ops.append((INGEST, stream[i], True, i))
            valid_so_far.append(i)
        if (i + 1) % wl.read_every == 0:
            j = valid_so_far[int(mix.integers(len(valid_so_far)))]
            ops.append((ALLOCATE, stream[j], True, j))
    return Inputs(initial, stream, ops, n_invalid)


def _corrupt(v, k: int, mix):
    """An invalid vector: NaN, negative or wrong dimension, in turn."""
    bad = v.copy()
    d = int(mix.integers(len(bad)))
    kind = k % 3
    if kind == 0:
        bad[d] = float("nan")
    elif kind == 1:
        bad[d] = -1.0 - bad[d]
    else:
        bad = bad[:-1]
    return bad


# -- one pass ----------------------------------------------------------------


class SpeedProbe:
    """A fixed numpy kernel, independent of synalloc, timed next to the work.

    On a shared host the CPU's speed can drift by tens of percent from one
    minute to the next, which would swamp the differences the benchmark is
    meant to resolve. Each timed interval is therefore also reported scaled
    by ``REFERENCE_NS / t``, where ``t`` is this kernel's time measured right
    before the interval: the interval as it would take when the kernel takes
    ``REFERENCE_NS``. The kernel mixes small-array numpy calls with
    interpreter work, as the engine does. Raw figures stay in the record.
    """

    REFERENCE_NS = 1_600_000.0

    def __init__(self, np):
        rng = np.random.default_rng(20200729)
        self._np = np
        self._x = rng.random((64, DIM))
        self._c = rng.random((8, DIM))

    def ns(self) -> int:
        np, c = self._np, self._c
        t = time.perf_counter_ns()
        for x in self._x:
            d = np.abs(c - x).sum(axis=1)
            m = np.minimum(c, x).sum(axis=1)
            int(np.argmax(np.stack([d, m], axis=1).std(axis=1)))
        return time.perf_counter_ns() - t

    def scale(self) -> float:
        return self.REFERENCE_NS / self.ns()


def timed(probe: SpeedProbe, fn, *args, sliced: bool = True):
    """``fn(*args)``, its raw seconds, and its seconds at the reference speed.

    One call can last seconds, over which the speed drifts. So an interval
    timer cuts the call into slices of ``SLICE_S``: at each tick a signal
    handler, which runs in this thread between bytecodes, takes a probe
    reading, and each slice is scaled by the mean of the readings at its two
    ends. The handler's own time is left out of both figures. ``sliced=False``
    (traced passes, where the readings would land inside spans) scales the
    whole call by the readings just before and after it.
    """
    clock = time.perf_counter_ns
    ticks = []  # (slice end, probe reading, handler time), all ns

    def tick(_signum, _frame):
        t = clock()
        reading = probe.ns()
        ticks.append((t, reading, clock() - t))

    first = probe.ns()
    old = signal.signal(signal.SIGALRM, tick)
    start = clock()
    if sliced:
        signal.setitimer(signal.ITIMER_REAL, SLICE_S, SLICE_S)
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = clock()
        signal.signal(signal.SIGALRM, old)
    last = probe.ns()
    raw = scaled = 0.0
    prev, prev_reading = start, first
    for t, reading, cost in [k for k in ticks if k[0] < end] + [(end, last, 0)]:
        raw += t - prev
        scaled += (t - prev) * 2 * probe.REFERENCE_NS / (prev_reading + reading)
        prev, prev_reading = t + cost, reading
    return result, raw / 1e9, scaled / 1e9


@dataclass
class PassResult:
    traced: bool
    ops: int
    setup_s: float = 0.0  # this and the other unqualified times: at the reference speed
    setup_raw_s: float = 0.0
    stream_s: float = 0.0
    stream_raw_s: float = 0.0
    audit_s: float = 0.0
    audit_raw_s: float = 0.0
    partition_stats_s: float = 0.0
    ingest_us: list = field(default_factory=list)
    ingest_raw_us: list = field(default_factory=list)
    allocate_us: list = field(default_factory=list)
    allocate_raw_us: list = field(default_factory=list)
    decisions: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    accepted: int = 0
    ingest_calls: int = 0
    allocate_calls: int = 0
    checked: int = 0
    majority_std_ratio: float = float("nan")
    peak_rss_mb: float = 0.0  # of the process so far
    state: dict = field(default_factory=dict)


def run_pass(wl: Workload, inputs: Inputs, synalloc, probe: SpeedProbe, tracer=None) -> PassResult:
    VectorError = synalloc.VectorError
    cfg = synalloc.EngineConfig(n_partitions=wl.n_partitions, dimension=DIM, **wl.engine)
    span = tracer.wrap if tracer else (lambda name, fn: fn)
    res = PassResult(tracer is not None, len(inputs.ops))
    if tracer:
        tracer.phase = "setup"
    gc.collect()
    engine, res.setup_raw_s, res.setup_s = timed(
        probe, span("engine.__init__", synalloc.AllocationEngine), cfg, inputs.initial,
        sliced=tracer is None,
    )

    ingest = span("engine.ingest", engine.ingest)
    allocate = span("engine.allocate", engine.allocate)
    to_json = span("engine.record_json", synalloc.AllocationRecord.to_json_line)
    routed = [[] for _ in range(wl.n_partitions)]
    clock = time.perf_counter_ns
    ops = inputs.ops
    seen = [0, 0]  # operations of each kind so far, so that both kinds are checked
    if tracer:
        tracer.phase = "stream"
    gc.collect()

    for first in range(0, len(ops), CHUNK_OPS):
        scale = probe.scale()
        check_ns = 0
        chunk_start = clock()
        for i in range(first, min(first + CHUNK_OPS, len(ops))):
            kind, x, valid, idx = ops[i]
            check = seen[kind] % CHECK_EVERY == 0
            seen[kind] += 1
            if check:
                c0 = clock()
                published = [s.centroids.tolist() for s in engine.synopses]
                check_ns += clock() - c0
            if kind == INGEST:
                res.ingest_calls += 1
                t = clock()
                try:
                    rec = ingest(x)
                except VectorError as exc:
                    if valid:
                        res.failures.append(f"op {i}: valid vector rejected: {exc}")
                    continue
                except Exception as exc:  # any other exception is a wrong outcome
                    res.failures.append(f"op {i}: ingest raised {type(exc).__name__}: {exc}")
                    continue
                dt = (clock() - t) / 1e3
                res.ingest_raw_us.append(dt)
                res.ingest_us.append(dt * scale)
                if not valid:
                    res.failures.append(f"op {i}: invalid vector accepted")
                    continue
                res.accepted += 1
                if wl.records:
                    to_json(rec)
                chosen = rec.chosen
                routed[chosen - 1].append(idx)
            else:
                res.allocate_calls += 1
                t = clock()
                try:
                    chosen, scores = allocate(x)
                except Exception as exc:  # any exception on a valid read is a wrong outcome
                    res.failures.append(f"op {i}: allocate raised {type(exc).__name__}: {exc}")
                    continue
                dt = (clock() - t) / 1e3
                res.allocate_raw_us.append(dt)
                res.allocate_us.append(dt * scale)
            res.decisions.append(chosen)
            if check:
                c0 = clock()
                res.checked += 1
                sims = rec.similarities() if kind == INGEST else [s.similarity for s in scores]
                why = oracle.check_decision(chosen, sims, x.tolist(), published, cfg.theta, cfg.outlier_k)
                if why:
                    res.failures.append(f"op {i}: {why}")
                check_ns += clock() - c0
        chunk_s = (clock() - chunk_start - check_ns) / 1e9
        res.stream_raw_s += chunk_s
        res.stream_s += chunk_s * scale

    if tracer:
        tracer.phase = "end"
    audits = [timed(probe, span("engine.audit", engine.audit), sliced=tracer is None)
              for _ in range(AUDIT_REPEATS)]
    report = audits[0][0]
    res.audit_raw_s = statistics.median(a[1] for a in audits)
    res.audit_s = statistics.median(a[2] for a in audits)
    if not report.ok:
        res.failures.append(f"audit failed: {report.checks} {report.issues[:3]}")
    initial_total = sum(len(p) for p in inputs.initial)
    if engine.accepted() != res.accepted or engine.total_points() != initial_total + res.accepted:
        res.failures.append(
            f"mass: {engine.total_points()} points, {engine.accepted()} accepted; expected "
            f"{initial_total} + {res.accepted}"
        )
    if engine.rejected != inputs.n_invalid:
        res.failures.append(f"engine.rejected = {engine.rejected}, injected {inputs.n_invalid}")

    stats = span("harness.partition_stats", synalloc.partition_stats)
    t = time.perf_counter()
    stds = [stats(inputs.stream[idx])[1] if idx else None for idx in routed]
    res.partition_stats_s = time.perf_counter() - t
    majority = max(range(len(routed)), key=lambda p: (len(routed[p]), -p))
    res.majority_std_ratio = float(stds[majority].mean()) / STREAM_SIGMA

    res.state = {
        "leaf_entries": sum(len(p.tree.leaf_entries()) for p in engine.partitions),
        "total_points": engine.total_points(),
        "centroids": [s.centroids.shape[0] for s in engine.synopses],
        "height_max": max(p.tree.height() for p in engine.partitions),
        "messages": engine.messages_disseminated,
        "rejected": engine.rejected,
    }
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return res


# -- statistics --------------------------------------------------------------


def summary(values) -> dict:
    """Sample count, median and quartiles of a list of numbers."""
    vals = sorted(values)
    if not vals:
        return {"n": 0}
    q1, med, q3 = quartiles(vals)
    return {"n": len(vals), "median": med, "q1": q1, "q3": q3}


def percentile(values, q: float) -> float:
    vals = sorted(values)
    if not vals:
        return float("nan")
    pos = (len(vals) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def pooled(passes: list[PassResult], attr: str) -> list:
    return [v for p in passes for v in getattr(p, attr)]


def latency_summary(passes: list[PassResult], attr: str) -> dict:
    us = pooled(passes, attr)
    return {**summary(us), "p50": percentile(us, 0.50), "p99": percentile(us, 0.99)}


def end_to_end(passes: list[PassResult]) -> tuple[dict, dict]:
    """Metric values over untraced passes, and the samples behind them.

    Times are at the reference speed (see SpeedProbe); ``samples`` also
    holds the raw wall-clock figures.
    """
    ing = latency_summary(passes, "ingest_us")
    alc = latency_summary(passes, "allocate_us")
    setup = summary([p.setup_s for p in passes])
    ops = summary([p.ops / p.stream_s for p in passes])
    audit = summary([p.audit_s for p in passes])
    ratio = summary([p.majority_std_ratio for p in passes])
    values = {
        "setup_s": (setup["median"], "s"),
        "ops_per_s": (ops["median"], "1/s"),
        "ingest_us_p50": (ing["p50"], "us"),
        "allocate_us_p50": (alc["p50"], "us"),
        "audit_s": (audit["median"], "s"),
        # After the first pass, so that a faster program, which fits in more
        # passes and keeps more samples, does not look bigger.
        "peak_rss_mb": (passes[0].peak_rss_mb, "MB"),
        "majority_std_ratio": (ratio["median"], "ratio"),
    }
    samples = {
        "setup_s": setup, "ops_per_s": ops, "ingest_us": ing, "allocate_us": alc,
        "audit_s": audit, "majority_std_ratio": ratio,
        "raw": {
            "setup_s": summary([p.setup_raw_s for p in passes]),
            "ops_per_s": summary([p.ops / p.stream_raw_s for p in passes]),
            "ingest_us": latency_summary(passes, "ingest_raw_us"),
            "allocate_us": latency_summary(passes, "allocate_raw_us"),
            "audit_s": summary([p.audit_raw_s for p in passes]),
        },
    }
    return values, samples


def per_layer(traced: list[PassResult], plain: list[PassResult], tracer) -> dict:
    """Layer metrics from the traced passes' spans and counters."""
    st = "stream"
    ops = sum(p.ops for p in traced)
    ingests = sum(p.accepted for p in traced)
    ingest_calls = sum(p.ingest_calls for p in traced)
    stream_us = sum(p.stream_raw_s for p in traced) * 1e6  # spans are raw wall-clock
    setup_us = tracer.total_us("setup", "engine.__init__")

    def per(n, d):
        return n / d if d else 0.0

    score_calls = tracer.calls(st, "similarity.ensemble_similarity")
    score_us = tracer.total_us(st, "similarity.ensemble_similarity")
    rows = tracer.counts[(st, "similarity.rows")]
    extract_calls = tracer.calls(st, "synopsis.extract_synopsis")
    extract_us = tracer.total_us(st, "synopsis.extract_synopsis")
    insert_us = tracer.total_us(st, "synopsis.CFTree.insert")
    engine_self = tracer.self_us(st, "engine.ingest") + tracer.self_us(st, "engine.allocate")
    last = traced[-1].state
    traced_ops = statistics.median(p.ops / p.stream_s for p in traced)
    plain_ops = statistics.median(p.ops / p.stream_s for p in plain)
    m = {
        "validation.as_vector.calls_per_op": (per(tracer.calls(st, "validation.as_vector"), ops), "count"),
        "validation.as_vector.us_per_op": (per(tracer.total_us(st, "validation.as_vector"), ops), "us"),
        "similarity.ensemble_similarity.calls_per_op": (per(score_calls, ops), "count"),
        "similarity.ensemble_similarity.us_per_op": (per(score_us, ops), "us"),
        "similarity.ensemble_similarity.us_per_row": (per(score_us, rows), "us"),
        "similarity.rows_per_op": (per(rows, ops), "count"),
        "similarity.outlier_fire_share": (per(tracer.counts[(st, "similarity.outlier_fired")], score_calls), "ratio"),
        "synopsis.CFTree.insert.us_per_ingest": (per(insert_us, ingests), "us"),
        "synopsis.CFTree.insert.new_entry_share": (
            per(tracer.counts[(st, "synopsis.insert_created")], tracer.calls(st, "synopsis.CFTree.insert")), "ratio"),
        "synopsis.CFTree.insert.setup_share": (per(tracer.total_us("setup", "synopsis.CFTree.insert"), setup_us), "ratio"),
        "synopsis.extract_synopsis.calls_per_ingest": (per(extract_calls, ingests), "count"),
        "synopsis.extract_synopsis.us_per_call": (per(extract_us, extract_calls), "us"),
        "synopsis.extract_synopsis.us_per_ingest": (per(extract_us, ingests), "us"),
        "synopsis.leaf_entries_per_vector": (per(last["leaf_entries"], last["total_points"]), "ratio"),
        "synopsis.centroids_per_synopsis": (statistics.mean(last["centroids"]), "count"),
        "synopsis.fallback_share": (per(tracer.counts[(st, "synopsis.fallback")], extract_calls), "ratio"),
        "synopsis.tree_height_max": (last["height_max"], "count"),
        "engine.ingest.self_us": (per(tracer.self_us(st, "engine.ingest"), tracer.calls(st, "engine.ingest")), "us"),
        "engine.allocate.self_us": (per(tracer.self_us(st, "engine.allocate"), tracer.calls(st, "engine.allocate")), "us"),
        "engine.record_json_us_per_ingest": (per(tracer.total_us(st, "engine.record_json"), ingests), "us"),
        "engine.messages_per_ingest": (per(sum(p.state["messages"] for p in traced), ingests), "ratio"),
        "engine.rejected_share": (per(sum(p.state["rejected"] for p in traced), ingest_calls), "ratio"),
        "harness.partition_stats_ms": (statistics.median(p.partition_stats_s for p in traced) * 1e3, "ms"),
        # Self-time shares of the stream phase: which layer the time goes to.
        "share.validation": (per(tracer.self_us(st, "validation.as_vector"), stream_us), "ratio"),
        "share.similarity": (per(tracer.self_us(st, "similarity.ensemble_similarity"), stream_us), "ratio"),
        "share.synopsis.insert": (per(tracer.self_us(st, "synopsis.CFTree.insert"), stream_us), "ratio"),
        "share.synopsis.extract": (per(tracer.self_us(st, "synopsis.extract_synopsis"), stream_us), "ratio"),
        "share.engine_self": (per(engine_self, stream_us), "ratio"),
        # Tail latency of the untraced passes: too noisy to gate (spread over ten seeds above 0.1).
        "ingest_us_p99": (latency_summary(plain, "ingest_us")["p99"], "us"),
        "allocate_us_p99": (latency_summary(plain, "allocate_us")["p99"], "us"),
        "trace.ops_per_s": (traced_ops, "1/s"),
        "trace.overhead_share": (1.0 - traced_ops / plain_ops, "ratio"),
    }
    return m


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply initial and stream sizes (smoke tests use a small value)")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="source tree to benchmark (default: this checkout's src/)")
    ap.add_argument("--out", type=Path, default=None, help="append the full record to this JSONL file")
    args = ap.parse_args(argv)
    if not args.scale > 0 or not args.seconds > 0:
        ap.error("--scale and --seconds must be positive")

    synalloc = load_package(args.src)
    import numpy as np

    wl = WORKLOADS[args.workload]
    inputs = make_inputs(wl, args.seed, args.scale, np, synalloc)

    probe = SpeedProbe(np)
    tracer = None
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer = tracer or Tracer()
            with patched(tracer, synalloc):
                passes.append(run_pass(wl, inputs, synalloc, probe, tracer))
        else:
            passes.append(run_pass(wl, inputs, synalloc, probe))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    failures = [f for p in passes for f in p.failures]
    if any(p.decisions != passes[0].decisions for p in passes):
        failures.append("passes over identical inputs made different decisions")
    attempted = sum(p.ops for p in passes)
    plain = [p for p in passes if not p.traced]
    values, samples = end_to_end(plain)
    if args.trace:
        traced_passes = [p for p in passes if p.traced]
        values = per_layer(traced_passes, plain, tracer)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    record = {
        "provenance": provenance(args.src, args, np),
        "passes": len(passes),
        "ops_per_pass": len(inputs.ops),
        "ingest_calls_per_pass": passes[0].ingest_calls,
        "allocate_calls_per_pass": passes[0].allocate_calls,
        "oracle_checks": sum(p.checked for p in passes),
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
        "samples": samples,
        "metrics": metrics,
    }
    if args.trace:
        record["profile"] = tracer.profile()

    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"ops/pass={len(inputs.ops)} oracle_checks={record['oracle_checks']}")
    for name, m in metrics.items():
        print(f"  {name:46s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'error_rate':46s} {record['error_rate']:14.6g} ratio ({len(failures)} of {attempted})")
    for f in failures[:20]:
        print(f"  FAIL {f}")
    line = json.dumps(record, separators=(",", ":"))
    print(line)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("a") as fh:
            fh.write(line + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
