"""Dataset loading, synthetic vector streams, and the initial random split."""

from __future__ import annotations

import csv
import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DatasetFormatError, EmptyDatasetError
from .validation import check_int

# Evaluation dimensions, in canonical order. The published air-quality file
# spells them CO(GT), NMHC(GT), ...; fixtures use the underscore form. Header
# matching strips everything non-alphanumeric, so both spellings resolve.
DIMENSION_COLUMNS = ("CO_GT", "NMHC_GT", "C6H6_GT", "NOX_GT", "NO2_GT")

# Most all-zero rows a synthetic block may expect to redraw: at ~10 us a redraw round, some 10 s.
MAX_EXPECTED_REDRAWS = 1_000_000


@dataclass
class Dataset:
    rows: np.ndarray  # shape (n, M), non-negative, finite
    dimension_names: list[str]
    source: str

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def dimension(self) -> int:
        return self.rows.shape[1]


@dataclass
class ScenarioSpec:
    """One synthetic-stream experiment: ``count`` draws from N(mu, sigma)."""

    mu: float
    sigma: float
    count: int
    seed: int

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ConfigError("mu must be finite")
        if not 0 < self.sigma < math.inf:  # NaN fails both comparisons
            raise ConfigError("sigma must be positive and finite")
        check_int(self.count, "count", 0)


def _canon(name: str) -> str:
    return re.sub(r"[^0-9A-Za-z]", "", name).upper()


def load_air_quality(path, strict: bool = False) -> Dataset:
    """Load the five evaluation columns from an air-quality CSV.

    Handles both the published layout (semicolon-separated, decimal commas,
    -200 as the missing-value sentinel, trailing empty columns) and the plain
    comma/dot fixture layout. Any row with a negative (sentinel included) or
    unparseable value in a selected column is dropped; with ``strict`` an
    unparseable or non-finite cell raises instead.
    """
    path = Path(path)
    try:
        # newline="": only \n, \r and \r\n end a line, and csv.reader sees
        # them, so a quoted field may span lines.
        fh = open(path, newline="", encoding="utf-8-sig", errors="replace")
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc
    with fh:
        first = fh.readline()
        if not first:
            raise DatasetFormatError(f"{path}: empty file")
        delim = ";" if ";" in first else ","
        reader = csv.reader(itertools.chain([first], fh), delimiter=delim)
        try:
            header = next(reader)
            # reader.line_num: the file line on which each record ends
            records = [(reader.line_num, rec) for rec in reader]
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise DatasetFormatError(f"{path}:{reader.line_num}: {exc}") from exc
    decimal_comma = delim == ";"
    col_index: dict[str, int] = {}
    for i, name in enumerate(header):
        col_index.setdefault(_canon(name), i)
    wanted = [_canon(c) for c in DIMENSION_COLUMNS]
    missing = [c for c, key in zip(DIMENSION_COLUMNS, wanted) if key not in col_index]
    if missing:
        raise DatasetFormatError(f"{path}: missing columns {missing}")
    picks = [col_index[key] for key in wanted]

    rows: list[list[float]] = []
    for lineno, rec in records:
        if not any(field.strip() for field in rec):
            continue  # the published file ends with blank lines
        try:
            vals = []
            for i in picks:
                cell = rec[i].strip()
                if decimal_comma:
                    cell = cell.replace(",", ".")
                vals.append(float(cell))
        except (IndexError, ValueError) as exc:
            if strict:
                raise DatasetFormatError(f"{path}:{lineno}: malformed row") from exc
            continue
        if not all(np.isfinite(v) for v in vals):
            if strict:
                raise DatasetFormatError(f"{path}:{lineno}: non-finite value")
            continue
        if any(v < 0 for v in vals):  # covers the -200 sentinel
            continue
        rows.append(vals)

    if not rows:
        raise EmptyDatasetError(f"{path}: no rows survive cleaning")
    return Dataset(np.array(rows), list(DIMENSION_COLUMNS), str(path))


def _gaussian_block(
    rng: np.random.Generator, mu: float, sigma: float, count: int, dim: int
) -> np.ndarray:
    """Clamped-at-zero Gaussian rows; all-zero rows are redrawn.

    A component clamps to 0 with chance Phi(-mu/sigma), so a row is all zero
    with chance z = Phi(-mu/sigma)^dim, and ``count`` rows take
    count * z / (1 - z) redraws on average. A block that would take more
    than ``MAX_EXPECTED_REDRAWS``, or that no redraw can fill (z = 1), is a
    ``ConfigError`` before any draw: the test reads the inputs, not the draws.
    """
    zero_row = (0.5 * math.erfc(mu / (sigma * math.sqrt(2.0)))) ** dim
    redraws = count * zero_row / (1.0 - zero_row) if zero_row < 1.0 else math.inf
    if redraws > MAX_EXPECTED_REDRAWS:
        raise ConfigError(f"mu {mu:g} and sigma {sigma:g} clamp whole {dim}-D rows to 0 so often that {count} "
                          f"nonzero rows would take {redraws:.3g} redraws on average, more than {MAX_EXPECTED_REDRAWS}")
    out = np.clip(rng.normal(mu, sigma, size=(count, dim)), 0.0, None)
    while True:
        zero = ~out.any(axis=1)
        if not zero.any():
            return out
        out[zero] = np.clip(rng.normal(mu, sigma, size=(int(zero.sum()), dim)), 0.0, None)


def synth_stream(spec: ScenarioSpec, dim: int) -> np.ndarray:
    """Deterministic stream of ``spec.count`` non-negative vectors."""
    check_int(dim, "dimension", 1)
    rng = np.random.default_rng(spec.seed)
    if spec.count == 0:
        return np.empty((0, dim))
    return _gaussian_block(rng, spec.mu, spec.sigma, spec.count, dim)


def random_split(ds: Dataset, n: int, seed: int) -> list[np.ndarray]:
    """Assign every row to one of ``n`` partitions uniformly at random, leaving none empty.

    Each row draws its partition independently. A draw that leaves one empty
    is repaired from the same generator: partition i gets row
    ``permutation[i]`` of a random permutation, the other rows keep their draw.
    """
    check_int(n, "n_partitions", 1)
    if n > ds.n_rows:
        raise ConfigError(f"cannot split {ds.n_rows} rows into {n} partitions")
    rng = np.random.default_rng(seed)
    assign = rng.integers(0, n, size=ds.n_rows)
    if np.unique(assign).size < n:
        assign[rng.permutation(ds.n_rows)[:n]] = np.arange(n)
    return [np.flatnonzero(assign == i) for i in range(n)]


@dataclass
class SyntheticInit:
    """Stand-in for the initial split when no dataset file is available.

    Partition i is seeded with ``per_partition`` vectors from a Gaussian
    whose mean is offset from the stream mean by ``spread`` per partition
    step (means floored at 0), so partitions start out distinct. ``sigma``
    defaults to half the stream sigma and ``spread`` to the stream sigma;
    with five partitions that ladder keeps the heaviest stream share on an
    interior partition, whose both-sided catchment stays tighter than the
    generating distribution. ``per_partition`` is an integer >= 1, ``sigma``
    positive and ``spread`` non-negative, both finite (NaN fails).
    ``synthetic_partitions`` rejects a spread whose ladder of means leaves
    the float range, before any draw; a draw that still overflows to inf
    is caught by the engine, which checks the initial data before it
    scales a threshold to it.
    """

    per_partition: int = 500
    sigma: float | None = None
    spread: float | None = None

    def __post_init__(self):
        check_int(self.per_partition, "per_partition", 1)
        if self.sigma is not None and not 0 < self.sigma < math.inf:  # NaN fails both comparisons
            raise ConfigError("init sigma must be positive and finite")
        if self.spread is not None and not 0 <= self.spread < math.inf:
            raise ConfigError("init spread must be >= 0 and finite")


def synthetic_partitions(
    init: SyntheticInit, scenario: ScenarioSpec, n: int, dim: int, seed: int
) -> list[np.ndarray]:
    """Initial per-partition point sets for synthetic-only runs."""
    check_int(n, "n_partitions", 1)
    check_int(dim, "dimension", 1)  # a row of no components is all zero, and all-zero rows are redrawn
    sigma = init.sigma if init.sigma is not None else scenario.sigma / 2.0
    spread = init.spread if init.spread is not None else scenario.sigma
    # The outer offsets are -(n - 1)/2 and (n - 1)/2, so the ladder is finite if its two ends are:
    # checked in Python floats, which overflow to inf without numpy's RuntimeWarning.
    reach = spread * ((n - 1) / 2.0)
    if not (math.isfinite(scenario.mu - reach) and math.isfinite(scenario.mu + reach)):
        default = "" if init.spread is not None else " (the stream sigma, by default)"
        raise ConfigError(f"init spread {spread:g}{default} puts the seed-cluster means of {n} partitions "
                          f"around mu {scenario.mu:g} outside the float range")
    offsets = np.arange(1, n + 1) - (n + 1) / 2.0
    means = np.maximum(scenario.mu + spread * offsets, 0.0)
    rng = np.random.default_rng(seed)
    return [
        _gaussian_block(rng, float(m), sigma, init.per_partition, dim) for m in means
    ]
