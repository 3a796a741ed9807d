"""Dataset loading/cleaning, synthetic streams, and the random split."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from synalloc import (
    ConfigError,
    DataError,
    DatasetFormatError,
    EmptyDatasetError,
    ScenarioSpec,
    SyntheticInit,
    load_air_quality,
    random_split,
    synth_stream,
    synthetic_partitions,
)
from synalloc.data import DIMENSION_COLUMNS


# Random bytes almost never name the five columns, so most examples are a valid
# header and rows of well-formed numbers, half of them with one cell replaced
# by what the parser treats specially: separators, quotes, line breaks, signs,
# the -200 sentinel and non-finite spellings. The line breaks include the ones
# that str.splitlines() knows and a CSV file does not (\x0b, \x0c, \x1c-\x1e,
# \x85, \u2028, \u2029, UTF-8 encoded).
_GOOD_CELLS = [b"1", b"0", b"2.5", b"007"]
_TOKENS = [b"2,5", b"-200", b"-1", b"nan", b"inf", b"1e400", b",", b";", b'"', b"\r", b"\n", b"\x00",
           b"\xff", b" ", b"", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", "\x85".encode(),
           "\u2028".encode(), "\u2029".encode()]


@st.composite
def fuzz_csv(draw) -> bytes:
    sep = draw(st.sampled_from([b",", b";"]))
    lines = [sep.join(c.replace("_GT", "(GT)").encode() for c in DIMENSION_COLUMNS)]
    for _ in range(draw(st.integers(1, 6))):
        cells = draw(st.lists(st.sampled_from(_GOOD_CELLS), min_size=5, max_size=6))
        if draw(st.booleans()):
            junk = st.lists(st.sampled_from(_TOKENS + _GOOD_CELLS), max_size=3).map(b"".join)
            cells[draw(st.integers(0, len(cells) - 1))] = draw(junk)
        lines.append(sep.join(cells))
    return b"\n".join(lines)


class TestLoadAirQuality:
    def test_plain_layout(self, fixtures_dir):
        ds = load_air_quality(fixtures_dir / "plain_small.csv")
        assert ds.n_rows == 3 and ds.dimension == 5
        assert ds.dimension_names == list(DIMENSION_COLUMNS)
        assert np.allclose(ds.rows[0], [2.0, 150.0, 11.9, 166.0, 113.0])
        assert np.allclose(ds.rows.mean(axis=0)[0], 2.0)

    def test_published_layout(self, fixtures_dir):
        ds = load_air_quality(fixtures_dir / "uci_style.csv")
        # five data lines; one carries the -200 sentinel and is dropped
        assert ds.n_rows == 4
        assert np.allclose(ds.rows[0], [2.6, 150.0, 11.9, 166.0, 113.0])
        assert np.allclose(ds.rows[-1], [1.6, 51.0, 6.5, 131.0, 116.0])
        assert (ds.rows >= 0).all()

    def test_decimal_commas_are_parsed(self, fixtures_dir):
        ds = load_air_quality(fixtures_dir / "uci_style.csv")
        assert ds.rows[1][0] == pytest.approx(2.0)
        assert ds.rows[2][0] == pytest.approx(2.2)

    def test_missing_column_is_an_error(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("CO_GT,NMHC_GT\n1.0,2.0\n")
        with pytest.raises(DatasetFormatError, match="C6H6_GT"):
            load_air_quality(p)

    def test_everything_cleaned_away_is_an_error(self, fixtures_dir):
        with pytest.raises(EmptyDatasetError):
            load_air_quality(fixtures_dir / "all_sentinel.csv")

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            load_air_quality(tmp_path / "nope.csv")

    def test_lenient_mode_skips_bad_rows(self, fixtures_dir):
        ds = load_air_quality(fixtures_dir / "bad_rows.csv")
        assert ds.n_rows == 2
        assert np.allclose(ds.rows[:, 0], [1.0, 2.0])

    def test_strict_mode_raises_on_bad_rows(self, fixtures_dir):
        with pytest.raises(DatasetFormatError):
            load_air_quality(fixtures_dir / "bad_rows.csv", strict=True)

    def test_only_csv_line_breaks_end_a_row(self, tmp_path):
        p = tmp_path / "ff.csv"
        p.write_bytes(b"CO_GT,NMHC_GT,C6H6_GT,NOX_GT,NO2_GT\n1,2,3\x0c,4,5\n")
        ds = load_air_quality(p, strict=True)
        assert ds.rows.tolist() == [[1.0, 2.0, 3.0, 4.0, 5.0]]

    def test_quoted_field_spans_lines_and_messages_count_file_lines(self, tmp_path):
        p = tmp_path / "multiline.csv"
        p.write_bytes(b'CO_GT,NMHC_GT,C6H6_GT,NOX_GT,NO2_GT,Note\n'
                      b'1,2,3,4,5,"first\nsecond"\n'
                      b'6,7,8,9,10,x\n'
                      b'6,oops,8,9,10,y\n')
        ds = load_air_quality(p)
        assert ds.rows.tolist() == [[1.0, 2.0, 3.0, 4.0, 5.0], [6.0, 7.0, 8.0, 9.0, 10.0]]
        with pytest.raises(DatasetFormatError, match=r"multiline\.csv:5: malformed row"):
            load_air_quality(p, strict=True)

    @given(st.one_of(st.binary(max_size=200), fuzz_csv()), st.booleans())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_bytes_load_or_raise_a_data_error(self, tmp_path, data, strict):
        path = tmp_path / "fuzz.csv"  # rewritten by every example
        path.write_bytes(data)
        try:
            ds = load_air_quality(path, strict=strict)
        except DataError:
            return
        assert ds.rows.ndim == 2 and ds.rows.shape[1] == len(DIMENSION_COLUMNS)
        assert np.isfinite(ds.rows).all() and (ds.rows >= 0).all()


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(mu=25.0, sigma=0.0, count=10, seed=1)
        with pytest.raises(ConfigError, match="^count must be >= 0$"):
            ScenarioSpec(mu=25.0, sigma=10.0, count=-1, seed=1)

    @pytest.mark.parametrize("mu, sigma, name", [
        (float("inf"), 1.0, "mu"), (float("-inf"), 1.0, "mu"), (float("nan"), 1.0, "mu"),
        (25.0, float("inf"), "sigma"), (25.0, float("nan"), "sigma"),
    ])
    def test_non_finite_parameters_are_named(self, mu, sigma, name):
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            ScenarioSpec(mu=mu, sigma=sigma, count=10, seed=1)

    @pytest.mark.parametrize("count", [2.0, 2.5, "2"])
    def test_rejects_a_non_integer_count(self, count):
        with pytest.raises(ConfigError, match="^count must be an integer"):
            ScenarioSpec(mu=25.0, sigma=10.0, count=count, seed=1)

    def test_accepts_a_numpy_integer_count(self):
        spec = ScenarioSpec(mu=25.0, sigma=10.0, count=np.int64(4), seed=1)
        assert synth_stream(spec, dim=5).shape == (4, 5)
        spec = ScenarioSpec(mu=25.0, sigma=10.0, count=np.int64(0), seed=1)  # the minimum
        assert synth_stream(spec, dim=5).shape == (0, 5)

    def test_zero_count_allowed(self):
        spec = ScenarioSpec(mu=25.0, sigma=10.0, count=0, seed=1)
        assert synth_stream(spec, dim=5).shape == (0, 5)


class TestSynthStream:
    def test_shape_and_domain(self):
        out = synth_stream(ScenarioSpec(25.0, 10.0, 500, seed=3), dim=5)
        assert out.shape == (500, 5)
        assert (out >= 0).all()
        assert np.isfinite(out).all()

    def test_no_all_zero_rows_even_when_clamping_hard(self):
        # mean two sigma below zero: ~95% of raw draws clamp to the origin
        out = synth_stream(ScenarioSpec(-20.0, 10.0, 300, seed=7), dim=2)
        assert out.shape == (300, 2)
        assert out.any(axis=1).all()

    def test_deterministic_per_seed(self):
        a = synth_stream(ScenarioSpec(25.0, 10.0, 100, seed=11), dim=3)
        b = synth_stream(ScenarioSpec(25.0, 10.0, 100, seed=11), dim=3)
        c = synth_stream(ScenarioSpec(25.0, 10.0, 100, seed=12), dim=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_moments_roughly_match_generator(self):
        out = synth_stream(ScenarioSpec(100.0, 5.0, 4000, seed=5), dim=4)
        # far from zero, clamping is a no-op and moments are the Gaussian's
        assert out.mean() == pytest.approx(100.0, abs=0.5)
        assert out.std() == pytest.approx(5.0, abs=0.3)

    @pytest.mark.parametrize("dim", [2.0, 2.5, "2"])
    def test_rejects_a_non_integer_dimension(self, dim):
        with pytest.raises(ConfigError, match="^dimension must be an integer"):
            synth_stream(ScenarioSpec(25.0, 10.0, 4, seed=1), dim)

    def test_accepts_a_numpy_integer_dimension(self):
        assert synth_stream(ScenarioSpec(25.0, 10.0, 4, seed=1), np.int64(3)).shape == (4, 3)
        assert synth_stream(ScenarioSpec(25.0, 10.0, 4, seed=1), np.int64(1)).shape == (4, 1)  # the minimum
        with pytest.raises(ConfigError, match="^dimension must be >= 1$"):
            synth_stream(ScenarioSpec(25.0, 10.0, 4, seed=1), 0)

    @given(st.integers(0, 2**31), st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_domain_property(self, seed, count):
        out = synth_stream(ScenarioSpec(5.0, 20.0, count, seed=seed), dim=3)
        assert out.shape == (count, 3)
        assert (out >= 0).all()
        if count:
            assert out.any(axis=1).all()


class TestRandomSplit:
    def test_partitions_the_rows(self, fixtures_dir):
        ds = load_air_quality(fixtures_dir / "plain_small.csv")
        parts = random_split(ds, 2, seed=4)
        merged = np.sort(np.concatenate(parts))
        assert np.array_equal(merged, np.arange(ds.n_rows))

    def test_deterministic(self, fixtures_dir):
        ds = load_air_quality(fixtures_dir / "plain_small.csv")
        a = random_split(ds, 2, seed=9)
        b = random_split(ds, 2, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_roughly_uniform(self, rng):
        from synalloc import Dataset

        ds = Dataset(rng.uniform(0, 1, size=(5000, 2)), ["a", "b"], "mem")
        parts = random_split(ds, 5, seed=1)
        sizes = [len(p) for p in parts]
        assert sum(sizes) == 5000
        assert min(sizes) > 800  # expected 1000 each

    def test_more_partitions_than_rows(self, fixtures_dir):
        ds = load_air_quality(fixtures_dir / "plain_small.csv")
        with pytest.raises(ConfigError):
            random_split(ds, 10, seed=1)

    @pytest.mark.parametrize("n", [2.0, 2.5, "2"])
    def test_rejects_a_non_integer_partition_count(self, n):
        from synalloc import Dataset

        with pytest.raises(ConfigError, match="^n_partitions must be an integer"):
            random_split(Dataset(np.ones((10, 5)), list("abcde"), "x"), n, seed=1)

    def test_accepts_a_numpy_integer_partition_count(self):
        from synalloc import Dataset

        parts = random_split(Dataset(np.ones((10, 5)), list("abcde"), "x"), np.int64(2), seed=1)
        assert len(parts) == 2
        parts = random_split(Dataset(np.ones((10, 5)), list("abcde"), "x"), np.int64(1), seed=1)  # the minimum
        assert [len(p) for p in parts] == [10]
        with pytest.raises(ConfigError, match="^n_partitions must be >= 1$"):
            random_split(Dataset(np.ones((10, 5)), list("abcde"), "x"), 0, seed=1)


class TestSyntheticInit:
    def test_shapes_and_domain(self):
        spec = ScenarioSpec(25.0, 10.0, 100, seed=1)
        parts = synthetic_partitions(SyntheticInit(per_partition=50), spec, n=5, dim=5, seed=3)
        assert len(parts) == 5
        for p in parts:
            assert p.shape == (50, 5)
            assert (p >= 0).all()
            assert p.any(axis=1).all()

    def test_partition_means_are_spread(self):
        spec = ScenarioSpec(25.0, 10.0, 100, seed=1)
        parts = synthetic_partitions(
            SyntheticInit(per_partition=400, sigma=1.0, spread=5.0), spec, n=3, dim=4, seed=3
        )
        means = [p.mean() for p in parts]
        assert means[0] == pytest.approx(20.0, abs=0.5)
        assert means[1] == pytest.approx(25.0, abs=0.5)
        assert means[2] == pytest.approx(30.0, abs=0.5)

    def test_low_means_are_floored_at_zero(self):
        spec = ScenarioSpec(1.0, 10.0, 100, seed=1)
        parts = synthetic_partitions(
            SyntheticInit(per_partition=30, sigma=0.5, spread=100.0), spec, n=5, dim=2, seed=3
        )
        assert all((p >= 0).all() for p in parts)

    @pytest.mark.parametrize("mu, spread, n", [(25.0, 1e308, 5), (25.0, 9e307, 5), (0.0, 1e308, 5),
                                               (-1.5e308, 1e308, 3), (25.0, 2e307, 20)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_ladder_beyond_the_float_range_names_the_spread(self, mu, spread, n):
        """Caught before any draw: not as non-finite initial data, and with no numpy overflow warning."""
        spec = ScenarioSpec(mu, 10.0, 100, seed=1)
        want = f"init spread {spread:g} puts the seed-cluster means of {n} partitions around mu {mu:g} outside the float range"
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            synthetic_partitions(SyntheticInit(per_partition=5, spread=spread), spec, n=n, dim=2, seed=1)

    def test_a_ladder_of_the_default_spread_says_where_the_spread_came_from(self):
        spec = ScenarioSpec(25.0, 1e308, 100, seed=1)  # the spread defaults to the stream sigma
        with pytest.raises(ConfigError, match=re.escape("init spread 1e+308 (the stream sigma, by default) puts")):
            synthetic_partitions(SyntheticInit(per_partition=5), spec, n=5, dim=2, seed=1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_the_widest_finite_ladder_is_drawn(self):
        spec = ScenarioSpec(0.0, 10.0, 100, seed=1)
        spread = np.nextafter(np.finfo(np.float64).max, 0.0)  # n = 3: the ladder ends at -spread and +spread
        parts = synthetic_partitions(SyntheticInit(per_partition=2, sigma=1.0, spread=spread), spec, n=3, dim=2, seed=1)
        assert [p.shape for p in parts] == [(2, 2)] * 3 and all(np.isfinite(p).all() for p in parts)

    def test_deterministic(self):
        spec = ScenarioSpec(25.0, 10.0, 100, seed=1)
        a = synthetic_partitions(SyntheticInit(), spec, n=2, dim=3, seed=8)
        b = synthetic_partitions(SyntheticInit(), spec, n=2, dim=3, seed=8)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_validation(self):
        with pytest.raises(ConfigError, match="^per_partition must be >= 1$"):
            SyntheticInit(per_partition=0)
        for sigma in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="^init sigma must be"):
                SyntheticInit(sigma=sigma)
        for spread in (-0.1, float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="^init spread must be"):
                SyntheticInit(spread=spread)
        assert SyntheticInit(spread=0.0).spread == 0.0

    @pytest.mark.parametrize("per_partition", [2.0, 2.5, "2"])
    def test_rejects_a_non_integer_per_partition(self, per_partition):
        with pytest.raises(ConfigError, match="^per_partition must be an integer"):
            SyntheticInit(per_partition=per_partition)

    def test_accepts_a_numpy_integer_per_partition(self):
        spec = ScenarioSpec(25.0, 10.0, 100, seed=1)
        parts = synthetic_partitions(SyntheticInit(per_partition=np.int64(7)), spec, n=2, dim=3, seed=8)
        assert [p.shape for p in parts] == [(7, 3), (7, 3)]
        parts = synthetic_partitions(SyntheticInit(per_partition=np.int64(1)), spec, n=2, dim=3, seed=8)  # the minimum
        assert [p.shape for p in parts] == [(1, 3), (1, 3)]

    @pytest.mark.parametrize("field,value", [("n", 2.5), ("n", 2.0), ("dim", 2.5), ("dim", "5")])
    def test_rejects_non_integer_counts(self, field, value):
        spec = ScenarioSpec(25.0, 10.0, 100, seed=1)
        name = {"n": "n_partitions", "dim": "dimension"}[field]
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            synthetic_partitions(SyntheticInit(per_partition=5), spec, **{"n": 2, "dim": 5, field: value}, seed=1)

    @pytest.mark.parametrize("field,rule", [("n", "need at least one partition"),
                                            ("dim", "dimension must be >= 1")])
    def test_rejects_empty_counts(self, field, rule):
        """With dim 0 every row is all zero, and all-zero rows would be redrawn forever."""
        spec = ScenarioSpec(25.0, 10.0, 100, seed=1)
        name = {"n": "n_partitions", "dim": "dimension"}[field]
        with pytest.raises(ConfigError, match=f"^{name} must be >= 1$"):
            synthetic_partitions(SyntheticInit(per_partition=5), spec, **{"n": 2, "dim": 5, field: 0}, seed=1)

    def test_accepts_numpy_integer_counts(self):
        spec = ScenarioSpec(25.0, 10.0, 100, seed=1)
        parts = synthetic_partitions(SyntheticInit(per_partition=4), spec, n=np.int32(3), dim=np.int64(2), seed=1)
        assert [p.shape for p in parts] == [(4, 2)] * 3
        parts = synthetic_partitions(SyntheticInit(per_partition=4), spec, n=np.int64(1), dim=np.int64(1), seed=1)
        assert [p.shape for p in parts] == [(4, 1)]  # the minima
