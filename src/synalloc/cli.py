"""Command-line front end: run scenarios, validate invariants, inspect data."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .data import Dataset, ScenarioSpec, SyntheticInit, load_air_quality
from .engine import EngineConfig
from .errors import ConfigError, DataError, SynallocError
from .harness import (
    DEFAULT_STREAM_COUNT,
    SCENARIO_PRESETS,
    execute_scenario,
    format_summary,
    run_scenario,
    summary_table,
    write_report_json,
    write_summary_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_INVARIANT = 3

DATASET_ENV = "SYNALLOC_DATASET"

# Flag defaults come from the library's own defaults.
_ENGINE = EngineConfig()
_INIT = SyntheticInit()


class _Parser(argparse.ArgumentParser):
    # Bad flags are configuration errors; keep exit codes under our control.
    def error(self, message):
        raise ConfigError(message)


def _engine_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("engine")
    group.add_argument("--partitions", type=int, default=_ENGINE.n_partitions, metavar="N",
                       help=f"number of partitions (default: {_ENGINE.n_partitions})")
    group.add_argument("--alpha", type=int, default=_ENGINE.alpha, metavar="A",
                       help=f"minimum micro-cluster size for the synopsis (default: {_ENGINE.alpha})")
    group.add_argument("--branching", type=int, default=_ENGINE.branching_factor, metavar="B",
                       help=f"tree branching factor (default: {_ENGINE.branching_factor})")
    group.add_argument("--threshold", type=float, default=_ENGINE.threshold, metavar="T",
                       help="leaf radius threshold (default: data-derived)")
    group.add_argument("--theta", type=float, default=_ENGINE.theta,
                       help=f"weight assigned to an outlier metric (default: {_ENGINE.theta:g})")
    group.add_argument("--outlier-k", type=float, default=_ENGINE.outlier_k, metavar="K",
                       help=f"z-score multiplier for flagging metrics (default: {_ENGINE.outlier_k:g})")
    group.add_argument("--refresh", type=int, default=_ENGINE.refresh_interval, metavar="U",
                       help=f"inserts between synopsis refreshes (default: {_ENGINE.refresh_interval})")


def _data_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("data")
    group.add_argument("--dataset", default=None, metavar="PATH",
                       help=f"air-quality CSV for the initial split (default: ${DATASET_ENV})")
    group.add_argument("--strict", action="store_true",
                       help="fail on malformed dataset rows instead of skipping them")
    group.add_argument("--init-per-partition", type=int, default=_INIT.per_partition, metavar="N",
                       help="synthetic seed vectors per partition when no dataset is given")
    group.add_argument("--init-sigma", type=float, default=_INIT.sigma, metavar="S",
                       help="sigma of the synthetic seed clusters (default: half the stream sigma)")
    group.add_argument("--init-spread", type=float, default=_INIT.spread, metavar="S",
                       help="mean spacing between synthetic seed clusters (default: the stream sigma)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="synalloc",
                     description="Similarity-driven allocation of vector streams to partitions.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[], help="run one or more stream scenarios",
                         description="Seed the partitions, replay a synthetic stream through the "
                                     "allocation engine, and report per-partition statistics.")
    run.add_argument("--scenario", default="1", choices=["1", "2", "3", "all", "custom"],
                     help="stream preset, 'all' for the three presets, or 'custom' (default: 1)")
    run.add_argument("--mu", type=float, default=None, help="custom stream mean")
    run.add_argument("--sigma", type=float, default=None, help="custom stream sigma")
    run.add_argument("--vectors", type=int, default=None, metavar="N",
                     help=f"stream length (default: {DEFAULT_STREAM_COUNT}; required for custom)")
    run.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
    run.add_argument("--out", default=None, metavar="PATH", help="write the report here")
    run.add_argument("--format", choices=["json", "csv"], default=None,
                     help="report format (default: by --out suffix, else json)")
    run.add_argument("--records", default=None, metavar="PATH",
                     help="also write one JSON allocation record per ingested vector")
    _engine_flags(run)
    _data_flags(run)
    run.set_defaults(func=_cmd_run)

    val = sub.add_parser("validate", help="run a randomized stream and audit the engine invariants",
                         description="Feed a stream through the engine, then check mass "
                                     "conservation, tree consistency, synopsis compliance, "
                                     "weight convexity, and moment agreement.")
    val.add_argument("--vectors", type=int, default=DEFAULT_STREAM_COUNT, metavar="N",
                     help=f"stream length (default: {DEFAULT_STREAM_COUNT})")
    val.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
    val.add_argument("--mu", type=float, default=SCENARIO_PRESETS[1][0], help="stream mean")
    val.add_argument("--sigma", type=float, default=SCENARIO_PRESETS[1][1], help="stream sigma")
    _engine_flags(val)
    _data_flags(val)
    val.set_defaults(func=_cmd_validate)

    stats = sub.add_parser("stats", help="print summary statistics of a dataset file",
                           description="Load a dataset, apply cleaning, and print per-dimension "
                                       "summary statistics.")
    stats.add_argument("--dataset", default=None, metavar="PATH",
                       help=f"air-quality CSV (default: ${DATASET_ENV})")
    stats.add_argument("--strict", action="store_true",
                       help="fail on malformed dataset rows instead of skipping them")
    stats.set_defaults(func=_cmd_stats)
    return parser


def _engine_config(args, dataset: Dataset | None) -> EngineConfig:
    """Engine settings from the flags; the dimension is the dataset's, if one is given."""
    return EngineConfig(
        n_partitions=args.partitions,
        dimension=dataset.dimension if dataset is not None else _ENGINE.dimension,
        alpha=args.alpha,
        branching_factor=args.branching,
        threshold=args.threshold,
        theta=args.theta,
        outlier_k=args.outlier_k,
        refresh_interval=args.refresh,
    )


def _resolve_dataset(args) -> Dataset | None:
    path = args.dataset or os.environ.get(DATASET_ENV)
    if path is None:
        return None
    return load_air_quality(path, strict=args.strict)


def _synthetic_init(args) -> SyntheticInit:
    return SyntheticInit(
        per_partition=args.init_per_partition,
        sigma=args.init_sigma,
        spread=args.init_spread,
    )


def _scenario_specs(args) -> list[tuple[str, ScenarioSpec]]:
    """Resolve --scenario into (label, spec) pairs with derived seeds."""
    count = args.vectors if args.vectors is not None else DEFAULT_STREAM_COUNT
    if args.scenario == "custom":
        if args.mu is None or args.sigma is None or args.vectors is None:
            raise ConfigError("custom scenario needs explicit --mu, --sigma and --vectors")
        return [("custom", ScenarioSpec(args.mu, args.sigma, args.vectors, args.seed))]
    if args.mu is not None or args.sigma is not None:  # a preset fixes both; ignoring them would misreport
        raise ConfigError(f"--mu and --sigma apply only to --scenario custom, not to --scenario {args.scenario}")
    if args.scenario == "all":
        keys = sorted(SCENARIO_PRESETS)
        seeds = np.random.default_rng(args.seed).integers(0, 2**63, size=len(keys))
        return [
            (str(k), ScenarioSpec(*SCENARIO_PRESETS[k], count, int(s)))
            for k, s in zip(keys, seeds)
        ]
    key = int(args.scenario)
    return [(str(key), ScenarioSpec(*SCENARIO_PRESETS[key], count, args.seed))]


def _cmd_run(args) -> int:
    dataset = _resolve_dataset(args)
    init = _synthetic_init(args)
    config = _engine_config(args, dataset)

    record_lines: list[str] = []
    on_record = (lambda rec: record_lines.append(rec.to_json_line())) if args.records else None

    reports = []
    for label, spec in _scenario_specs(args):
        reports.append(run_scenario(config, spec, dataset, init, label, on_record))

    if args.records:
        from .harness import _atomic_write

        _atomic_write(args.records, "".join(line + "\n" for line in record_lines))

    rows = summary_table(reports)
    if args.out:
        fmt = args.format or ("csv" if str(args.out).endswith(".csv") else "json")
        if fmt == "csv":
            write_summary_csv(rows, args.out)
        else:
            write_report_json(reports if len(reports) > 1 else reports[0], args.out)
    print(format_summary(rows))
    return EXIT_OK


def _cmd_validate(args) -> int:
    dataset = _resolve_dataset(args)
    init = _synthetic_init(args)
    config = _engine_config(args, dataset)
    spec = ScenarioSpec(args.mu, args.sigma, args.vectors, args.seed)

    run = execute_scenario(config, spec, dataset, init, label="validate")
    audit = run.engine.audit()
    checks = {**audit.checks, "moment_agreement": not run.moment_issues}

    for name, ok in checks.items():
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    for issue in audit.issues + run.moment_issues:
        print(f"  {issue}", file=sys.stderr)
    if not all(checks.values()):
        return EXIT_INVARIANT
    print(f"audited {run.engine.total_points()} resident vectors across "
          f"{config.n_partitions} partitions")
    return EXIT_OK


def _cmd_stats(args) -> int:
    ds = _resolve_dataset(args)
    if ds is None:
        raise ConfigError(f"stats needs --dataset or ${DATASET_ENV}")
    print(f"{ds.source}: {ds.n_rows} rows x {ds.dimension} dimensions")
    header = f"{'dimension':<10} {'mean':>10} {'std':>10} {'min':>10} {'max':>10}"
    print(header)
    for j, name in enumerate(ds.dimension_names):
        col = ds.rows[:, j]
        print(f"{name:<10} {col.mean():>10.3f} {col.std():>10.3f} "
              f"{col.min():>10.3f} {col.max():>10.3f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SynallocError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
