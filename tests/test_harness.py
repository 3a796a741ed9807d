"""Scenario runner, reports, and summary serialization."""

import csv
import json

import numpy as np
import pytest

from synalloc import (
    EmptyClusterError,
    EngineConfig,
    ScenarioSpec,
    SyntheticInit,
    VectorError,
    execute_scenario,
    load_air_quality,
    partition_stats,
    run_scenario,
    summary_table,
    write_report_json,
    write_summary_csv,
)
from synalloc.harness import SUMMARY_COLUMNS, format_summary

SMALL = dict(
    config=EngineConfig(n_partitions=3, dimension=2, alpha=10),
    init=SyntheticInit(per_partition=40),
)


def small_run(count=300, seed=5, **kwargs):
    params = {**SMALL, **kwargs}
    return run_scenario(
        params["config"],
        ScenarioSpec(20.0, 8.0, count, seed=seed),
        init=params["init"],
        label="unit",
    )


class TestPartitionStats:
    def test_matches_numpy(self, rng):
        pts = rng.uniform(0, 50, size=(200, 4))
        mean, std = partition_stats(pts)
        assert np.allclose(mean, pts.mean(axis=0))
        assert np.allclose(std, pts.std(axis=0))  # population convention

    def test_empty_set_is_an_error(self):
        with pytest.raises(EmptyClusterError):
            partition_stats(np.empty((0, 3)))

    @pytest.mark.parametrize("shape", [(2,), (2, 3, 1)])
    def test_a_non_matrix_names_its_shape(self, shape):
        with pytest.raises(VectorError) as exc:
            partition_stats(np.ones(shape))
        assert f"got shape {shape}" in str(exc.value)


class TestRunScenario:
    def test_counts_balance(self):
        rep = small_run(count=400)
        assert sum(p.synthetic_count for p in rep.per_partition) == 400
        for p in rep.per_partition:
            assert p.count == p.initial_count + p.synthetic_count
        assert rep.messages_disseminated == 400  # refresh interval 1
        assert rep.rejected == 0

    def test_zero_length_stream_reports_initial_statistics(self):
        rep = small_run(count=0)
        assert all(p.synthetic_count == 0 for p in rep.per_partition)
        assert all(p.synthetic_mean is None for p in rep.per_partition)
        assert rep.majority_partition == 1  # tie on zeros resolves low
        assert rep.messages_disseminated == 0
        for p in rep.per_partition:
            assert p.count == p.initial_count

    def test_deterministic_per_seed(self):
        a = small_run(seed=77)
        b = small_run(seed=77)
        c = small_run(seed=78)
        assert a.to_dict() == b.to_dict()
        assert a.to_dict() != c.to_dict()

    def test_majority_is_argmax_of_synthetic_counts(self):
        rep = small_run()
        counts = [p.synthetic_count for p in rep.per_partition]
        assert counts[rep.majority_partition - 1] == max(counts)

    def test_record_callback_sees_every_vector(self):
        seen = []
        run_scenario(
            SMALL["config"],
            ScenarioSpec(20.0, 8.0, 50, seed=5),
            init=SMALL["init"],
            on_record=seen.append,
        )
        assert len(seen) == 50
        assert [r.t for r in seen] == list(range(50))

    def test_dataset_backed_run(self, fixtures_dir):
        ds = load_air_quality(fixtures_dir / "uci_style.csv")
        cfg = EngineConfig(n_partitions=2, dimension=5, alpha=2)
        rep = run_scenario(cfg, ScenarioSpec(20.0, 8.0, 30, seed=5), dataset=ds)
        assert rep.dataset_source and rep.dataset_source.endswith("uci_style.csv")
        assert sum(p.initial_count for p in rep.per_partition) == ds.n_rows
        assert sum(p.synthetic_count for p in rep.per_partition) == 30

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows themselves
    def test_moments_that_overflow_on_both_sides_fail(self):
        # Seed clusters at sigma 1e154: the tree's square sums and the raw statistics both
        # overflow, so both sides read inf, which np.allclose holds close to inf.
        run = execute_scenario(EngineConfig(), ScenarioSpec(25.0, 10.0, 200, seed=1),
                               init=SyntheticInit(sigma=1e154))
        assert any(not np.isfinite(p.std).all() for p in run.report.per_partition)
        assert run.moment_issues
        assert all(issue.endswith(": non-finite moments") for issue in run.moment_issues)

    def test_engine_exposed_for_auditing(self):
        run = execute_scenario(
            SMALL["config"],
            ScenarioSpec(20.0, 8.0, 100, seed=5),
            init=SMALL["init"],
        )
        assert run.engine.audit().ok
        assert run.report.seed == 5
        assert len(run.resident) == 3


class TestReportSerialization:
    def test_report_round_trips_through_json(self, tmp_path):
        rep = small_run()
        out = tmp_path / "report.json"
        write_report_json(rep, out)
        payload = json.loads(out.read_text())
        assert payload["majority_partition"] == rep.majority_partition
        assert len(payload["per_partition"]) == 3
        assert payload["scenario"]["mu"] == 20.0
        assert payload["config"]["n_partitions"] == 3

    def test_report_list_serializes_as_array(self, tmp_path):
        reps = [small_run(seed=1), small_run(seed=2)]
        out = tmp_path / "reports.json"
        write_report_json(reps, out)
        payload = json.loads(out.read_text())
        assert isinstance(payload, list) and len(payload) == 2

    def test_summary_rows(self):
        rep = small_run()
        (row,) = summary_table([rep])
        maj = rep.per_partition[rep.majority_partition - 1]
        assert row.scenario == "unit"
        assert row.gen_mu == 20.0 and row.gen_sigma == 8.0
        assert row.majority_count == maj.synthetic_count
        assert row.mean_min == pytest.approx(float(maj.mean.min()))
        assert row.std_max == pytest.approx(float(maj.std.max()))

    def test_summary_csv(self, tmp_path):
        rows = summary_table([small_run(seed=1), small_run(seed=2)])
        out = tmp_path / "summary.csv"
        write_summary_csv(rows, out)
        with open(out, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == SUMMARY_COLUMNS
        assert len(parsed) == 3
        assert float(parsed[1][1]) == 20.0

    def test_format_summary_is_aligned_text(self):
        text = format_summary(summary_table([small_run()]))
        lines = text.splitlines()
        assert lines[0].split()[0] == "scenario"
        assert len(lines) == 2

    def test_writes_are_atomic(self, tmp_path):
        out = tmp_path / "report.json"
        write_report_json(small_run(), out)
        leftovers = [p for p in tmp_path.iterdir() if p.name != "report.json"]
        assert leftovers == []
