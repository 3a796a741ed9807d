"""Command-line interface: subcommands, outputs, and exit codes."""

import json
import os
import subprocess
import sys

import pytest

from synalloc import harness
from synalloc.cli import DATASET_ENV, EXIT_CONFIG, EXIT_DATA, EXIT_INVARIANT, EXIT_OK, main

from conftest import ROOT

FAST = [
    "--vectors", "200",
    "--init-per-partition", "40",
    "--alpha", "10",
]


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_writes_json_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli("run", "--scenario", "1", "--seed", "3", "--out", str(out), *FAST)
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["scenario"]["label"] == "1"
        assert payload["majority_partition"] in range(1, 6)
        assert "scenario" in capsys.readouterr().out

    def test_csv_format_inferred_from_suffix(self, tmp_path):
        out = tmp_path / "summary.csv"
        assert run_cli("run", "--out", str(out), *FAST) == EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header.split(",")[:3] == ["scenario", "gen_mu", "gen_sigma"]

    def test_all_presets_produce_three_rows(self, tmp_path):
        out = tmp_path / "summary.csv"
        code = run_cli("run", "--scenario", "all", "--out", str(out), "--format", "csv", *FAST)
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 4

    def test_record_stream(self, tmp_path):
        records = tmp_path / "records.jsonl"
        code = run_cli("run", "--records", str(records), *FAST)
        assert code == EXIT_OK
        lines = records.read_text().splitlines()
        assert len(lines) == 200
        first = json.loads(lines[0])
        assert set(first) == {"t", "chosen", "similarities"}
        assert first["t"] == 0
        assert len(first["similarities"]) == 5
        # similarities are printed to 12 significant digits
        for line in lines[:20]:
            for s in json.loads(line)["similarities"]:
                assert s == float(f"{s:.12g}")

    def test_identical_invocations_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["run", "--scenario", "2", "--seed", "9", *FAST]
        assert run_cli(*argv, "--out", str(a)) == EXIT_OK
        assert run_cli(*argv, "--out", str(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_custom_scenario_requires_parameters(self, capsys):
        assert run_cli("run", "--scenario", "custom", *FAST) == EXIT_CONFIG
        assert "custom scenario" in capsys.readouterr().err

    def test_custom_scenario_runs(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            "run", "--scenario", "custom", "--mu", "30", "--sigma", "5",
            "--vectors", "150", "--init-per-partition", "40", "--alpha", "10",
            "--out", str(out),
        )
        assert code == EXIT_OK
        assert json.loads(out.read_text())["scenario"]["mu"] == 30.0

    def test_dataset_backed_run(self, tmp_path, fixtures_dir):
        out = tmp_path / "r.json"
        code = run_cli(
            "run", "--dataset", str(fixtures_dir / "uci_style.csv"),
            "--partitions", "2", "--vectors", "100", "--alpha", "2",
            "--out", str(out),
        )
        assert code == EXIT_OK
        assert json.loads(out.read_text())["dataset_source"].endswith("uci_style.csv")

    def test_dataset_split_leaves_no_partition_empty(self, fixtures_dir):
        # Seed 1's draw of 12 partitions over the file's 48 clean rows leaves partition 5 empty.
        code = run_cli("run", "--dataset", str(fixtures_dir / "zero_rows.csv"),
                       "--partitions", "12", "--vectors", "10", "--seed", "1")
        assert code == EXIT_OK

    def test_dataset_from_environment(self, tmp_path, fixtures_dir, monkeypatch):
        monkeypatch.setenv(DATASET_ENV, str(fixtures_dir / "uci_style.csv"))
        out = tmp_path / "r.json"
        code = run_cli("run", "--partitions", "2", "--vectors", "50", "--alpha", "2",
                       "--out", str(out))
        assert code == EXIT_OK
        assert json.loads(out.read_text())["dataset_source"].endswith("uci_style.csv")


class TestValidate:
    def test_passes_on_clean_run(self, capsys):
        code = run_cli("validate", "--vectors", "300", "--init-per-partition", "40",
                       "--alpha", "10", "--seed", "2")
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for check in (
            "mass_conservation",
            "cf_consistency",
            "synopsis_alpha_compliance",
            "weight_convexity",
            "moment_agreement",
        ):
            assert f"{check}: PASS" in out
        assert "FAIL" not in out

    def test_moment_disagreement_fails(self, monkeypatch, capsys):
        real = harness.partition_stats
        monkeypatch.setattr(harness, "partition_stats",
                            lambda v: tuple(m + 1.0 for m in real(v)))
        code = run_cli("validate", *FAST, "--seed", "2")
        assert code == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert "moment_agreement: FAIL" in captured.out
        assert "tree moments disagree with raw statistics" in captured.err
        assert run_cli("run", *FAST) == EXIT_INVARIANT


class TestStats:
    def test_prints_dimension_summary(self, fixtures_dir, capsys):
        code = run_cli("stats", "--dataset", str(fixtures_dir / "plain_small.csv"))
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "3 rows x 5 dimensions" in out
        assert "NOX_GT" in out
        co_line = next(line for line in out.splitlines() if line.startswith("CO_GT"))
        assert co_line.split()[1] == "2.000"  # hand-computed column mean

    def test_empty_after_cleaning_is_a_data_error(self, fixtures_dir):
        code = run_cli("stats", "--dataset", str(fixtures_dir / "all_sentinel.csv"))
        assert code == EXIT_DATA

    def test_requires_a_dataset(self, monkeypatch, capsys):
        monkeypatch.delenv(DATASET_ENV, raising=False)
        assert run_cli("stats") == EXIT_CONFIG

    @pytest.mark.parametrize("where", ["header", "row"])
    def test_field_over_the_csv_size_limit_is_a_data_error(self, tmp_path, capsys, where):
        big = "9" * 200_000  # csv.field_size_limit() is 131072 by default
        header = "CO_GT,NMHC_GT,C6H6_GT,NOX_GT,NO2_GT"
        lines = [header + "," + big, "1,2,3,4,5,6"] if where == "header" else [header, "1,2,3,4," + big]
        path = tmp_path / "big.csv"
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("stats", "--dataset", str(path)) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "field larger than field limit" in err


class TestExitCodes:
    def test_unknown_flag_is_config_error(self, capsys):
        assert run_cli("run", "--nonsense") == EXIT_CONFIG

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning on the way out fails the test
    def test_bad_engine_parameters_are_config_errors(self, capsys):
        assert run_cli("run", "--theta", "0.9", *FAST) == EXIT_CONFIG
        assert run_cli("run", "--outlier-k", "nan", *FAST) == EXIT_CONFIG
        capsys.readouterr()
        assert run_cli("run", "--init-sigma", "inf", *FAST) == EXIT_CONFIG  # not as a bad threshold
        assert "init sigma" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_seed_ladder_beyond_the_float_range_is_a_config_error(self, capsys):
        """Named as the spread, before any draw: not as partition 5's data, after an overflow warning."""
        assert run_cli("run", "--vectors", "200", "--init-spread", "1e308") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: init spread 1e+308 ") and "partition 5" not in err

    @pytest.mark.parametrize("mu, sigma, name", [
        ("inf", "1", "mu"), ("nan", "1", "mu"), ("25", "inf", "sigma"),
    ])
    def test_non_finite_custom_scenario_names_the_flag(self, mu, sigma, name, capsys):
        code = run_cli("run", "--scenario", "custom", "--mu", mu, "--sigma", sigma,
                       "--vectors", "50")
        assert code == EXIT_CONFIG
        assert f"{name} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario", "custom", "--mu", "-1000", "--sigma", "1", "--vectors", "5"],
        ["validate", "--mu", "-1000"],
    ])
    def test_a_stream_of_all_zero_rows_is_a_config_error(self, argv):
        """Every row clamps to 0, so no redraw can end: refused, not looped on. In a subprocess, so that a hang fails."""
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        env.pop(DATASET_ENV, None)
        proc = subprocess.run([sys.executable, "-m", "synalloc", *argv], env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("error: mu -1000 and sigma ") and " 5-D rows " in proc.stderr

    def test_missing_dataset_is_data_error(self, capsys):
        assert run_cli("run", "--dataset", "/does/not/exist.csv", *FAST) == EXIT_DATA
        assert "error" in capsys.readouterr().err

    def test_unreadable_rows_in_strict_mode_are_data_errors(self, fixtures_dir):
        code = run_cli("stats", "--dataset", str(fixtures_dir / "bad_rows.csv"), "--strict")
        assert code == EXIT_DATA

    def test_validate_rejects_nan_rows_in_strict_mode(self, fixtures_dir, capsys):
        code = run_cli("validate", "--dataset", str(fixtures_dir / "bad_rows.csv"),
                       "--strict", "--vectors", "10")
        assert code == EXIT_DATA
        assert "error" in capsys.readouterr().err
