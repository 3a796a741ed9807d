"""Span tracer for the benchmark's traced pass.

Spans are recorded from the benchmark's side, around calls into each
synalloc module's public functions. The names are patched where they are
*called* (for example ``synalloc.engine.ensemble_similarity``, not the
definition in ``synalloc.similarity``), because each module binds them at
import. Spans nest: a span's self time is its duration minus the durations
of the spans opened inside it, so self times of all spans add up to the
traced time without double counting.

Spans are aggregated in memory as they close, keyed by
(phase, parent span, span), and written out with the run's result.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.phase = "setup"
        # (phase, parent, name) -> [calls, total_ns, self_ns]
        self.spans: dict[tuple[str, str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        # (phase, counter) -> value
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[list] = []  # open spans: [name, child_ns]

    def wrap(self, name, fn, observe=None):
        """``fn`` recorded as span ``name``; ``observe(args, result)`` sees each call."""
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else "-"
            frame = [name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                agg = spans[(self.phase, parent, name)]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.phase, name)] += n

    # -- aggregation -----------------------------------------------------

    def calls(self, phase: str, name: str) -> int:
        return sum(v[0] for (ph, _, nm), v in self.spans.items() if ph == phase and nm == name)

    def total_us(self, phase: str, name: str) -> float:
        return sum(v[1] for (ph, _, nm), v in self.spans.items() if ph == phase and nm == name) / 1e3

    def self_us(self, phase: str, name: str) -> float:
        return sum(v[2] for (ph, _, nm), v in self.spans.items() if ph == phase and nm == name) / 1e3

    def profile(self) -> list[dict]:
        """Every (phase, parent, span) row, for the written result."""
        return [
            {"phase": ph, "parent": parent, "span": name, "calls": v[0],
             "total_us": v[1] / 1e3, "self_us": v[2] / 1e3}
            for (ph, parent, name), v in sorted(self.spans.items())
        ]


@contextlib.contextmanager
def patched(tracer: Tracer, synalloc):
    """Install spans on the package's internal call sites; restore on exit."""
    engine_mod, synopsis_mod, similarity_mod = synalloc.engine, synalloc.synopsis, synalloc.similarity

    def on_score(args, score):
        tracer.count("similarity.rows", args[1].centroids.shape[0])
        w = score.weights.weights
        if not (w == w[0]).all():
            tracer.count("similarity.outlier_fired")

    def on_insert(args, result):
        if result[1]:
            tracer.count("synopsis.insert_created")

    def on_extract(args, syn):
        tree = args[0]
        if len(syn.dominant) == 1 and syn.dominant[0].count == tree.total_points:
            tracer.count("synopsis.fallback")

    targets = [
        (engine_mod, "ensemble_similarity", "similarity.ensemble_similarity", on_score),
        (engine_mod, "extract_synopsis", "synopsis.extract_synopsis", on_extract),
        (synopsis_mod.CFTree, "insert", "synopsis.CFTree.insert", on_insert),
        (engine_mod, "as_vector", "validation.as_vector", None),
        (synopsis_mod, "as_vector", "validation.as_vector", None),
        (similarity_mod, "as_vector", "validation.as_vector", None),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    try:
        for (owner, attr, name, observe), (_, _, fn) in zip(targets, originals):
            setattr(owner, attr, tracer.wrap(name, fn, observe))
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
