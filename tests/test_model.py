"""A state machine over the engine's whole accepted domain, against the routing oracle.

Each run draws one config from ``EngineConfig``'s domain and initial blocks,
then interleaves ``ingest`` of valid and invalid rows with ``allocate``.
Every decision is checked by ``bench/oracle.py``'s ``check_decision`` against
the synopses published before it, and after every step the audit must pass
and the engine's counts (accepted, rejected, resident points and messages)
must equal the machine's own.

With k drawn on both sides of sqrt(6), d from 1 to 12 and up to 8
partitions, both sides of the float path's dispatch (M < 8, at most
``FLOAT_PATH_ROWS`` rows, the outlier rule skipped) run in one machine.
From d = 8 on, a one-row matrix or segment, and sum(x), are where numpy
would sum pairwise; the kernel adds them left to right at every d.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule, run_state_machine_as_test

from synalloc import AllocationEngine, EngineConfig, VectorError

from conftest import load_bench

oracle = load_bench("oracle")

# k on both sides of sqrt(6), from which the router skips the outlier rule for three metrics.
OUTLIER_K = [0.5, 1.35, float(np.nextafter(math.sqrt(6.0), 0.0)), 2.45, 3.0]
# Bad rows, built at dimension d: each must be rejected with VectorError and touch no tree.
INVALID = {
    "nan": lambda d: np.full(d, np.nan),
    "inf": lambda d: np.full(d, np.inf),
    "negative": lambda d: -np.ones(d),
    "short": lambda d: np.ones(d - 1) if d > 1 else np.ones(2),
    "long": lambda d: np.ones(d + 1),
}


def components(scale):
    """Non-negative components around ``scale``: zeros, subnormals and values over six decades."""
    return st.one_of(
        st.just(0.0),
        st.sampled_from([5e-324, 1e-310]),
        st.floats(1e-3, 1e3).map(lambda v: v * scale),
        st.floats(0.5, 2.0).map(lambda v: v * scale),
    )


class EngineMachine(RuleBasedStateMachine):
    """The engine against its own counts, its audit and the oracle, one call at a time."""

    scales = st.just(1.0)  # the magnitude of one config's components

    def __init__(self):
        super().__init__()
        self.eng = None
        self.scale = 1.0

    def row(self, data, label="row"):
        d = self.eng.config.dimension
        return np.array(data.draw(st.lists(components(self.scale), min_size=d, max_size=d), label=label))

    @initialize(data=st.data())
    def build(self, data):
        self.scale = data.draw(self.scales, label="scale")
        cfg = EngineConfig(
            n_partitions=data.draw(st.integers(1, 8), label="n"),
            dimension=data.draw(st.integers(1, 12), label="d"),
            alpha=data.draw(st.integers(1, 12), label="alpha"),
            branching_factor=data.draw(st.integers(2, 9), label="B"),
            threshold=data.draw(st.one_of(st.none(), st.floats(0.05, 20.0).map(lambda t: t * self.scale)),
                                label="T"),
            theta=data.draw(st.floats(0.01, 0.33), label="theta"),
            outlier_k=data.draw(st.sampled_from(OUTLIER_K), label="k"),
            refresh_interval=data.draw(st.integers(1, 7), label="U"),
        )
        comp = components(self.scale)
        initial = [
            np.array(data.draw(st.lists(st.lists(comp, min_size=cfg.dimension, max_size=cfg.dimension),
                                        min_size=1, max_size=12), label=f"partition {i}"))
            for i in range(1, cfg.n_partitions + 1)
        ]
        self.eng = AllocationEngine(cfg, initial)
        self.initial = sum(len(block) for block in initial)
        self.accepted = self.rejected = 0
        self.inserts = [0] * cfg.n_partitions  # accepted vectors per partition

    def check(self, chosen, sims, x, published):
        cfg = self.eng.config
        why = oracle.check_decision(chosen, sims, x.tolist(), published, cfg.theta, cfg.outlier_k)
        assert why is None, why

    def published(self):
        return [s.centroids.tolist() for s in self.eng.synopses]

    @rule(data=st.data())
    def ingest(self, data):
        x, published = self.row(data), self.published()
        rec = self.eng.ingest(x)
        self.accepted += 1
        self.inserts[rec.chosen - 1] += 1
        self.check(rec.chosen, rec.similarities(), x, published)

    @rule(kind=st.sampled_from(sorted(INVALID)))
    def ingest_invalid(self, kind):
        with pytest.raises(VectorError):
            self.eng.ingest(INVALID[kind](self.eng.config.dimension))
        self.rejected += 1

    @rule(data=st.data())
    def allocate(self, data):
        x = self.row(data)
        chosen, scores = self.eng.allocate(x)
        self.check(chosen, [s.similarity for s in scores], x, self.published())

    @invariant()
    def counts_and_audit(self):
        if self.eng is None:
            return
        assert self.eng.accepted() == self.accepted
        assert self.eng.rejected == self.rejected
        assert self.eng.total_points() == self.initial + self.accepted
        due = sum(n // self.eng.config.refresh_interval for n in self.inserts)
        assert self.eng.messages_disseminated == due
        report = self.eng.audit()
        assert report.ok, report.issues


# About 12 s on a 2-vCPU host: 60 configs of up to 25 steps each.
MODEL_SETTINGS = settings(max_examples=60, stateful_step_count=25, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def test_the_engine_agrees_with_its_model():
    run_state_machine_as_test(EngineMachine, settings=MODEL_SETTINGS)


class HugeScaleMachine(EngineMachine):
    scales = st.floats(140.0, 160.0).map(lambda e: 10.0**e)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: square sums overflow in the 1e140-1e160 band, "
                                       "so the audit's radius check fails")
def test_the_1e140_to_1e160_band_fails_until_canonical_cf_rows():
    # Derandomised, so that it fails on every run; unshrunk, as the failing case is known.
    run_state_machine_as_test(HugeScaleMachine, settings=settings(MODEL_SETTINGS, derandomize=True,
                                                                  phases=[Phase.explicit, Phase.generate]))
