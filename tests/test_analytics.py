import json
import math
import random
from fractions import Fraction

import pytest

from abbrevkit.analytics import (
    dynamics,
    frequency_by_length,
    length_histogram,
    p_series,
    rare_cumulative,
)
from abbrevkit.ingest import WordProfile
from helpers import build_profiles


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
        report = p_series(profiles, ["др"], ["год"])
        assert len(report.rows) == 19
        year, p0, p1 = report.rows[0]
        assert year == 1990 and p0 == pytest.approx(0.05) and p1 == pytest.approx(0.95)
        assert report.meta["mean_p0"] == pytest.approx(0.05)

    def test_never_with_period_seed_gives_zero_p0(self):
        profiles = build_profiles({
            "др": {y: (95, 100) for y in range(1990, 2009)},
            "год": {y: (0, 100) for y in range(1990, 2009)},
        })
        report = p_series(profiles, ["др"], ["год"])
        assert all(row[1] == 0.0 for row in report.rows)

    def test_tsv_shape(self):
        profiles = build_profiles({
            "др": {2000: (9, 10)},
            "год": {2000: (1, 10)},
        }, window=(2000, 2000))
        report = p_series(profiles, ["др"], ["год"], window=(2000, 2000))
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
