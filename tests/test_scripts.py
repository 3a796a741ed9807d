"""The scripts under ``scripts/``: the identity gate's cases and the multi-seed scenario runner."""

import csv
import json

import pytest

from synalloc.cli import build_parser

from conftest import load_script

check_identity = load_script("check_identity")
run_scenarios = load_script("run_scenarios")


class TestIdentityCases:
    def test_every_case_has_its_own_name(self):
        names = [name for name, _ in check_identity.cases()]
        assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)

    @pytest.mark.parametrize("args", [pytest.param(args, id=name) for name, args in check_identity.cases()
                                      if not name.startswith("help-")])
    def test_every_case_parses(self, args):
        # A mistyped flag fails on both trees alike, so the gate would read it as identical.
        parsed = build_parser().parse_args(args)
        assert parsed.command == args[0]


class TestRunScenarios:
    def test_writes_a_report_per_seed_and_a_summary(self, tmp_path, capsys):
        argv = ["--seeds", "1", "2", "--vectors", "30", "--scenarios", "1", "--outdir", str(tmp_path)]
        assert run_scenarios.main(argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "scenario1_seed1.json", "scenario1_seed2.json", "summary.csv"]
        for seed in (1, 2):
            report = json.loads((tmp_path / f"scenario1_seed{seed}.json").read_text())
            assert report["seed"] == seed
        with open(tmp_path / "summary.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 3 and [row[0] for row in rows[1:]] == ["1/seed1", "1/seed2"]  # a header, a row per seed
        assert "wrote 2 reports and summary.csv" in capsys.readouterr().out
