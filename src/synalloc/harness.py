"""Scenario runner: initial split -> engine -> stream -> statistics report."""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import Dataset, ScenarioSpec, SyntheticInit, random_split, synth_stream, synthetic_partitions
from .engine import AllocationEngine, AllocationRecord, EngineConfig
from .errors import EmptyClusterError, SynallocError

# Stream presets: (mu, sigma) of the generating Gaussian, 10k vectors each.
SCENARIO_PRESETS = {
    1: (25.0, 10.0),
    2: (25.0, 20.0),
    3: (50.0, 50.0),
}
DEFAULT_STREAM_COUNT = 10_000

# Tolerance for the report-vs-tree moment cross-check.
_MOMENT_RTOL = 1e-6


def partition_stats(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean and population standard deviation."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise EmptyClusterError("need at least one vector for statistics")
    return vectors.mean(axis=0), vectors.std(axis=0)


@dataclass
class PartitionReport:
    partition_id: int
    count: int
    mean: np.ndarray
    std: np.ndarray
    initial_count: int
    synthetic_count: int
    synthetic_mean: np.ndarray | None
    synthetic_std: np.ndarray | None

    def to_dict(self) -> dict:
        """Every field in declaration order, arrays as lists of floats."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values}


@dataclass
class RunReport:
    config: EngineConfig
    scenario: ScenarioSpec
    seed: int
    per_partition: list[PartitionReport]
    majority_partition: int
    messages_disseminated: int
    rejected: int
    scenario_label: str = ""
    dataset_source: str | None = None

    def to_dict(self) -> dict:
        return {
            "scenario": {"label": self.scenario_label, **asdict(self.scenario)},
            "seed": self.seed,
            "config": asdict(self.config),
            "dataset_source": self.dataset_source,
            "per_partition": [p.to_dict() for p in self.per_partition],
            "majority_partition": self.majority_partition,
            "messages_disseminated": self.messages_disseminated,
            "rejected": self.rejected,
        }


@dataclass
class ScenarioRun:
    """A finished run plus the live engine, for auditing."""

    report: RunReport
    engine: AllocationEngine
    resident: list[np.ndarray]
    moment_issues: list[str] = field(default_factory=list)  # report-vs-tree moment disagreements


def _derived_seeds(master: int) -> tuple[int, int, int]:
    rng = np.random.default_rng(master)
    split, stream, init = rng.integers(0, 2**63, size=3)
    return int(split), int(stream), int(init)


def execute_scenario(
    config: EngineConfig,
    scenario: ScenarioSpec,
    dataset: Dataset | None = None,
    init: SyntheticInit | None = None,
    label: str = "",
    on_record: Callable[[AllocationRecord], None] | None = None,
) -> ScenarioRun:
    """Run one scenario end to end and return the report with the engine.

    The scenario seed is the run's master seed; the split/stream/init seeds
    derive from it, so identical arguments give identical reports.
    """
    split_seed, stream_seed, init_seed = _derived_seeds(scenario.seed)
    if dataset is not None:
        parts = random_split(dataset, config.n_partitions, split_seed)
        initial = [dataset.rows[idx] for idx in parts]
        source = dataset.source
    else:
        initial = synthetic_partitions(
            init or SyntheticInit(), scenario, config.n_partitions, config.dimension, init_seed
        )
        source = None

    engine = AllocationEngine(config, initial)
    stream = synth_stream(replace(scenario, seed=stream_seed), config.dimension)
    routed: list[list[np.ndarray]] = [[] for _ in range(config.n_partitions)]
    for rec in engine.ingest_stream(stream):
        routed[rec.chosen - 1].append(rec.vector)
        if on_record is not None:
            on_record(rec)

    per_partition = []
    resident_sets = []
    for pid0, (base, extra) in enumerate(zip(initial, routed)):
        resident = np.vstack([base, np.array(extra)]) if extra else np.asarray(base)
        resident_sets.append(resident)
        mean, std = partition_stats(resident)
        if extra:
            smean, sstd = partition_stats(np.array(extra))
        else:
            smean = sstd = None
        per_partition.append(
            PartitionReport(
                partition_id=pid0 + 1,
                count=resident.shape[0],
                mean=mean,
                std=std,
                initial_count=np.asarray(base).shape[0],
                synthetic_count=len(extra),
                synthetic_mean=smean,
                synthetic_std=sstd,
            )
        )

    counts = [p.synthetic_count for p in per_partition]
    majority = int(np.argmax(counts)) + 1  # first max -> lowest id on ties
    report = RunReport(
        config=config,
        scenario=scenario,
        seed=scenario.seed,
        per_partition=per_partition,
        majority_partition=majority,
        messages_disseminated=engine.messages_disseminated,
        rejected=engine.rejected,
        scenario_label=label,
        dataset_source=source,
    )
    return ScenarioRun(
        report=report,
        engine=engine,
        resident=resident_sets,
        moment_issues=_cross_check_moments(engine, per_partition),
    )


def run_scenario(
    config: EngineConfig,
    scenario: ScenarioSpec,
    dataset: Dataset | None = None,
    init: SyntheticInit | None = None,
    label: str = "",
    on_record: Callable[[AllocationRecord], None] | None = None,
) -> RunReport:
    """Run one scenario; raises SynallocError if the moment cross-check fails."""
    run = execute_scenario(config, scenario, dataset, init, label, on_record)
    if run.moment_issues:
        raise SynallocError(run.moment_issues[0])
    return run.report


def _cross_check_moments(engine: AllocationEngine, reports: list[PartitionReport]) -> list[str]:
    """Where partition moments recomputed from raw vectors disagree with the tree CFs."""
    issues = []
    for rep, state in zip(reports, engine.partitions):
        cf = state.tree.root_cf()
        if cf.count != rep.count:
            issues.append(
                f"partition {rep.partition_id}: tree holds {cf.count} points, report says {rep.count}"
            )
            continue
        cf_mean = cf.centroid()
        cf_std = np.sqrt(cf.variance())
        # np.allclose holds inf close to inf: moments that overflowed on both sides would agree.
        if not all(np.isfinite(m).all() for m in (cf_mean, cf_std, rep.mean, rep.std)):
            issues.append(f"partition {rep.partition_id}: non-finite moments")
            continue
        ok = np.allclose(cf_mean, rep.mean, rtol=_MOMENT_RTOL, atol=1e-9) and np.allclose(
            cf_std, rep.std, rtol=_MOMENT_RTOL, atol=1e-6
        )
        if not ok:
            issues.append(f"partition {rep.partition_id}: tree moments disagree with raw statistics")
    return issues


@dataclass
class SummaryRow:
    scenario: str
    gen_mu: float
    gen_sigma: float
    majority_count: int
    mean_min: float
    mean_max: float
    std_min: float
    std_max: float


SUMMARY_COLUMNS = [f.name for f in fields(SummaryRow)]


def summary_table(reports: Sequence[RunReport]) -> list[SummaryRow]:
    """One row per run: the majority partition's per-dimension moment spans."""
    rows = []
    for rep in reports:
        maj = rep.per_partition[rep.majority_partition - 1]
        rows.append(
            SummaryRow(
                scenario=rep.scenario_label or str(rep.majority_partition),
                gen_mu=rep.scenario.mu,
                gen_sigma=rep.scenario.sigma,
                majority_count=maj.synthetic_count,
                mean_min=float(np.min(maj.mean)),
                mean_max=float(np.max(maj.mean)),
                std_min=float(np.min(maj.std)),
                std_max=float(np.max(maj.std)),
            )
        )
    return rows


def _atomic_write(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report_json(reports: RunReport | Sequence[RunReport], path) -> None:
    if isinstance(reports, RunReport):
        payload = reports.to_dict()
    else:
        payload = [r.to_dict() for r in reports]
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


def _summary_cells(row: SummaryRow) -> list[str]:
    """One summary row as printed text, in SUMMARY_COLUMNS order."""
    return [
        row.scenario,
        f"{row.gen_mu:.6g}",
        f"{row.gen_sigma:.6g}",
        str(row.majority_count),
        f"{row.mean_min:.6g}",
        f"{row.mean_max:.6g}",
        f"{row.std_min:.6g}",
        f"{row.std_max:.6g}",
    ]


def write_summary_csv(rows: Sequence[SummaryRow], path) -> None:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SUMMARY_COLUMNS)
    writer.writerows(_summary_cells(row) for row in rows)
    _atomic_write(path, buf.getvalue())


def format_summary(rows: Sequence[SummaryRow]) -> str:
    """Fixed-width text table of the summary rows."""
    cells = [SUMMARY_COLUMNS] + [_summary_cells(row) for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(SUMMARY_COLUMNS))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells]
    return "\n".join(lines)
