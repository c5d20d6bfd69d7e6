import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abbrevkit.analytics import (
    dynamics,
    frequency_by_length,
    length_histogram,
    p_series,
    rare_cumulative,
)
from abbrevkit.ingest import Aggregator, IngestConfig, WordProfile, YearlyUsage
from abbrevkit.likelihood import ShareEstimate, estimate_share_params
from helpers import build_profiles

import oracles


def _entry(word, volumes=5, n_total=100, active_years=10):
    return WordProfile(
        word=word, series={}, window=(1990, 2008), n_total=n_total, N_total=n_total,
        median_share=Fraction(1), active_years=active_years, volumes_total=volumes,
    )


def _random_entries(count, seed):
    rng = random.Random(seed)
    entries = []
    for index in range(count):
        word = "ъ" + "".join(rng.choice("абвгде") for _ in range(rng.randint(1, 9)))
        entries.append(_entry(f"{word}{index}", volumes=rng.randint(1, 30), n_total=rng.randint(1, 10**6)))
    return entries


class TestRareCumulative:
    def test_direct_counting(self):
        entries = [_entry("а", 1), _entry("б", 1), _entry("в", 3)]
        report = rare_cumulative(entries, 3)
        assert report.rows == [(1, 2), (2, 2), (3, 3)]

    def test_empty_entries(self):
        report = rare_cumulative([], 4)
        assert report.rows == [(1, 0), (2, 0), (3, 0), (4, 0)]

    def test_matches_brute_force(self):
        entries = _random_entries(200, seed=31)
        report = rare_cumulative(entries, 35)
        for v, count in report.rows:
            assert count == sum(1 for e in entries if e.volumes_total <= v)

    def test_monotone_and_terminates_at_total(self):
        entries = _random_entries(50, seed=9)
        top = max(e.volumes_total for e in entries)
        report = rare_cumulative(entries, top + 5)
        counts = [c for _, c in report.rows]
        assert counts == sorted(counts)
        assert counts[-1] == len(entries)

    def test_domain(self):
        with pytest.raises(ValueError):
            rare_cumulative([], 0)


class TestPSeries:
    def test_rows_per_year(self):
        profiles = build_profiles({
            "др": {y: (95, 100) for y in range(1990, 2009)},
            "год": {y: (5, 100) for y in range(1990, 2009)},
        })
        report = p_series(estimate_share_params(profiles, ["др"], ["год"]))
        assert len(report.rows) == 19
        year, p0, p1 = report.rows[0]
        assert year == 1990 and p0 == pytest.approx(0.05) and p1 == pytest.approx(0.95)
        assert report.meta["mean_p0"] == pytest.approx(0.05)

    def test_never_with_period_seed_gives_zero_p0(self):
        profiles = build_profiles({
            "др": {y: (95, 100) for y in range(1990, 2009)},
            "год": {y: (0, 100) for y in range(1990, 2009)},
        })
        report = p_series(estimate_share_params(profiles, ["др"], ["год"]))
        assert all(row[1] == 0.0 for row in report.rows)

    def test_tsv_shape(self):
        profiles = build_profiles({
            "др": {2000: (9, 10)},
            "год": {2000: (1, 10)},
        }, window=(2000, 2000))
        report = p_series(estimate_share_params(profiles, ["др"], ["год"], window=(2000, 2000)))
        text = report.to_tsv()
        assert text.startswith("# year\tp0\tp1\n")
        assert text.count("\n") == 2


class TestLengthHistogram:
    def test_direct_counting(self):
        entries = [_entry("др"), _entry("тов"), _entry("гор")]
        report = length_histogram(entries)
        assert report.rows == [(2, 1), (3, 2)]

    def test_empty(self):
        assert length_histogram([]).rows == []

    def test_counts_sum_to_entries(self):
        entries = _random_entries(1000, seed=4)
        report = length_histogram(entries)
        assert sum(count for _, count in report.rows) == len(entries)


class TestFrequencyByLength:
    def test_exact_log_linear_relation(self):
        entries = [_entry("а" * length, n_total=10 ** (8 - length)) for length in range(1, 7)]
        report = frequency_by_length(entries)
        fit = report.meta["fit"]
        assert abs(fit["slope"] - (-1.0)) < 1e-9
        assert fit["r_squared"] == 1.0
        assert abs(fit["intercept"] - 8.0) < 1e-9

    def test_single_length_no_fit(self):
        report = frequency_by_length([_entry("др", n_total=10), _entry("гл", n_total=20)])
        assert report.meta["fit"] is None
        assert report.rows == [(2, 30, math.log10(30), math.log10(2))]

    def test_planted_decay_with_noise(self):
        rng = random.Random(17)
        entries = []
        for length in range(1, 11):
            base = 10 ** (9 - 0.5 * length)
            noisy = int(base * rng.uniform(0.9, 1.1)) + 1
            entries.append(_entry("б" * length, n_total=noisy))
        fit = frequency_by_length(entries).meta["fit"]
        assert fit["slope"] == pytest.approx(-0.5, rel=0.05)

    @pytest.mark.parametrize("seed", range(40))
    def test_fit_is_the_exact_fit_rounded_once(self, seed):
        rng = random.Random(seed)
        lengths = rng.sample(range(1, 41), rng.randint(2, 25))
        sums = {length: 0 for length in lengths}
        entries = []
        for length in lengths + rng.choices(lengths, k=2 * len(lengths)):
            n_total = rng.randint(1, 10 ** rng.randint(1, 9))
            sums[length] += n_total
            entries.append(_entry("ж" * length, n_total=n_total))
        xs = sorted(sums)
        exact = oracles.linear_fit_exact(xs, [math.log10(sums[x]) for x in xs])
        fit = frequency_by_length(entries).meta["fit"]
        assert [fit[k].hex() for k in ("slope", "intercept", "r_squared")] == [float(v).hex() for v in exact]

    def test_all_equal_frequencies(self):
        entries = [_entry("в" * length, n_total=1000) for length in (2, 3, 5)]
        fit = frequency_by_length(entries).meta["fit"]
        assert [fit[k].hex() for k in ("slope", "intercept", "r_squared")] == [0.0.hex(), 3.0.hex(), 1.0.hex()]

    def test_benchmark_pair_frozen(self):
        # the two lengths of the seed-1 corpus-noisy-jobs2 dictionary
        fit = frequency_by_length([_entry("абв", n_total=431330), _entry("абвгд", n_total=576318)]).meta["fit"]
        assert fit == {"slope": 0.06292625931206652, "intercept": 5.446030887446835, "r_squared": 1.0}
        exact = oracles.linear_fit_exact([3, 5], [math.log10(431330), math.log10(576318)])
        assert fit == dict(zip(("slope", "intercept", "r_squared"), map(float, exact)))

    def test_zero_frequency_length_omitted(self):
        entries = [_entry("др", n_total=10), _entry("гло", n_total=0)]
        report = frequency_by_length(entries)
        assert [row[0] for row in report.rows] == [2]
        for row in report.rows:
            assert all(math.isfinite(v) for v in row[1:])


class TestDynamics:
    def test_singleton(self):
        profiles = build_profiles({"др": {1995: (120, 125)}})
        report = dynamics([profiles["др"]], years=(1995, 1995), top_k=300)
        assert report.rows == [(1995, 120, 120, 1.0)]

    def test_full_coverage_ratio_one(self):
        profiles = build_profiles({
            "др": {1995: (10, 10), 1996: (20, 20)},
            "гл": {1995: (5, 5)},
        })
        report = dynamics([profiles["др"], profiles["гл"]], years=(1995, 1996), top_k=5)
        assert all(row[3] == 1.0 for row in report.rows)

    def test_matches_brute_force(self):
        rng = random.Random(23)
        counts = {}
        for index in range(40):
            word = "ъ" + "".join(chr(ord("а") + int(d)) for d in str(index))
            years = {y: (rng.randint(0, 50), 100) for y in range(1990, 2009) if rng.random() < 0.8}
            if not years:
                years = {1990: (1, 10)}
            counts[word] = years
        profiles = build_profiles(counts)
        entries = [profiles[word] for word in counts]
        top_k = 7
        report = dynamics(entries, years=(1990, 2008), top_k=top_k)
        # independent recount
        def with_period(word, year):
            usage = profiles[word].series.get(year)
            return usage.with_period if usage else 0
        totals_rank = sorted(
            (e.word for e in entries),
            key=lambda w: (-sum(with_period(w, y) for y in range(1990, 2009)), w),
        )
        chosen = set(totals_rank[:top_k])
        for year, total, top, ratio in report.rows:
            expect_total = sum(with_period(e.word, year) for e in entries)
            expect_top = sum(with_period(w, year) for w in chosen)
            assert total == expect_total
            assert top == expect_top
            assert top <= total
            assert 0.0 <= ratio <= 1.0

    def test_normalization_by_totals(self):
        profiles = build_profiles({"др": {1995: (120, 125)}})
        report = dynamics([profiles["др"]], years=(1995, 1995), top_k=1,
                          totals_by_year={1995: 1000})
        year, total, top, ratio = report.rows[0]
        assert total == pytest.approx(0.12)
        assert ratio == 1.0
        assert report.meta["normalized"] is True

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            dynamics([], years=(2000, 1999))


# a word's raw (with_period, total, volumes) cells by year, drawn in any
# year order; totals may be zero and with_period may exceed the total
# (small counts make ties in the dynamics ranking likely)
_COUNTS = st.integers(0, 3) | st.integers(0, 30)
_CELLS = st.dictionaries(st.integers(1985, 2012), st.tuples(_COUNTS, _COUNTS, st.integers(0, 5)), max_size=8)
# a year range narrower or wider than the data, or outside it
_SPANS = st.tuples(st.integers(1975, 2020), st.integers(0, 40)).map(lambda start: (start[0], start[0] + start[1]))


@st.composite
def _series(draw):
    """A hand-built plain dict in the drawn year order, or the series
    `finalize` builds from the same cells."""
    cells = draw(_CELLS)
    if draw(st.booleans()):
        return {year: YearlyUsage(year, *cell) for year, cell in cells.items()}
    agg = Aggregator(IngestConfig(year_min=1985, year_max=2012))
    agg._counts = {"w": {year: list(cell) for year, cell in cells.items()}}
    return agg.finalize()["w"].series


def _profile(word: str, series, window=(1990, 2008)) -> WordProfile:
    return WordProfile(word=word, series=series, window=window, active_years=1)


def _window_mean(shares: dict[int, float], mean_window: tuple[int, int]) -> float | None:
    values = [v for y, v in shares.items() if mean_window[0] <= y <= mean_window[1]]
    return sum(values) / len(values) if values else None


class TestReadersMatchDenseWalks:
    """The share estimate and the dynamics report read only the years each
    series has; they give what the walks over every year of the range
    (`oracles.pool_shares_reference`, `oracles.dynamics_reference`) give."""

    @given(
        st.fixed_dictionaries({word: _series() for word in ["а", "б", "в", "г", "д"]}),
        st.lists(st.sampled_from(["а", "б"]), min_size=1, max_size=4),
        st.lists(st.sampled_from(["в", "г", "д"]), min_size=1, max_size=4),
        st.none() | _SPANS,
        _SPANS,
        _SPANS,
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_share_estimate(self, series, abbrevs, commons, window, profile_window, mean_window, pooled):
        profiles = {word: _profile(word, s, profile_window) for word, s in series.items()}
        got = estimate_share_params(profiles, abbrevs, commons, window, mean_window, pooled)
        lo, hi = window or profile_window
        p1 = oracles.pool_shares_reference(profiles, abbrevs, range(lo, hi + 1), pooled)
        p0 = oracles.pool_shares_reference(profiles, commons, range(lo, hi + 1), pooled)
        assert got == ShareEstimate(p1, p0, _window_mean(p1, mean_window), _window_mean(p0, mean_window), mean_window)
        assert list(got.p1_by_year.items()) == list(p1.items())
        assert list(got.p0_by_year.items()) == list(p0.items())
        report = p_series(estimate_share_params(profiles, abbrevs, commons, window, mean_window, pooled))
        assert report.rows == [(year, p0[year], p1[year]) for year in sorted(set(p0) & set(p1))]

    @given(
        st.lists(st.tuples(st.sampled_from(["а", "б", "в", "г"]), _series()), max_size=6),
        _SPANS,
        st.sampled_from([0, 1, 2, 1000]) | st.integers(0, 6),
        st.none() | st.dictionaries(st.integers(1975, 2060), st.integers(-1, 50), max_size=10),
    )
    @settings(max_examples=300, deadline=None)
    def test_dynamics(self, drawn, years, top_k, totals_by_year):
        # a word may come twice, with the same series or another one
        entries = [_profile(word, series) for word, series in drawn]
        entries += entries[:1]
        got = dynamics(entries, years, top_k, totals_by_year)
        want = oracles.dynamics_reference(entries, years, top_k, totals_by_year)
        assert got == want
        assert got.to_tsv() == want.to_tsv() and got.to_json() == want.to_json()


class TestReportSerialization:
    def test_tsv_header_and_determinism(self):
        entries = [_entry("др", 1), _entry("гл", 2)]
        report = rare_cumulative(entries, 3)
        assert report.to_tsv() == report.to_tsv()
        assert report.to_tsv().splitlines()[0] == "# max_volumes\tentries"

    def test_json_loads(self):
        report = length_histogram([_entry("др")])
        doc = json.loads(report.to_json())
        assert doc["kind"] == "length-histogram"
        assert doc["rows"] == [[2, 1]]
