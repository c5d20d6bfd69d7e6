import ast
import statistics
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abbrevkit
from abbrevkit import dictionary
from abbrevkit.dictionary import (
    DEFAULT_MEDIAN_THRESHOLD,
    METHOD_LRT,
    METHOD_MEDIAN,
    AbbrevEntry,
    BuildOptions,
    DecisionRecord,
    InvalidConfigError,
    as_fraction,
    build_dictionary,
    decide_lrt,
    dictionary_to_json,
    dictionary_to_tsv,
    dictionary_to_wordlist,
    filter_occasional,
)
from abbrevkit.ingest import IngestConfig, WordProfile
from abbrevkit.likelihood import HypothesisParams
from helpers import build_profiles, profile_of

PARAMS = HypothesisParams(0.068, 0.955, 1.0)


class TestYearlyShares:
    """Yearly shares as they reach the one median, `profile.median_share`."""

    def test_single_division(self):
        profile = profile_of("др", {1995: (120, 125)})
        assert profile.median_share == Fraction(120, 125)
        assert float(profile.median_share) == pytest.approx(0.96)

    def test_zero_total_year_omitted(self):
        profile = profile_of("др", {1995: (0, 100), 1996: (0, 0)})
        assert profile.median_share == Fraction(0)
        assert 1996 not in profile.series and profile.active_years == 1

    def test_nineteen_year_profile_matches_hand_ratios(self):
        years = {1990 + i: (i, 2 * i + 2) for i in range(19)}
        profile = profile_of("др", years)
        expected = [Fraction(i, 2 * i + 2) for i in range(19)]
        assert profile.median_share == statistics.median(expected) == Fraction(9, 20)


def _median_of(shares):
    years = {1990 + i: (n, t) for i, (n, t) in enumerate(shares)}
    return profile_of("w", years).median_share


class TestMedianShare:
    def test_odd_count_middle(self):
        assert _median_of([(2, 10), (9, 10), (10, 10)]) == Fraction(9, 10)

    def test_even_count_mean_of_middles(self):
        assert _median_of([(8, 10), (10, 10)]) == Fraction(9, 10)

    def test_empty_undefined(self):
        # data only outside the aggregation window: no yearly share
        profile = build_profiles(
            {"др": {1980: (5, 10)}},
            config=IngestConfig(year_min=1940, year_max=2008),
            window=(1990, 2008),
        )["др"]
        assert profile.median_share is None

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 50)), min_size=1, max_size=19))
    @settings(max_examples=100, deadline=None)
    def test_median_between_extremes(self, pairs):
        pairs = [(min(n, t), t) for n, t in pairs]
        values = [Fraction(n, t) for n, t in pairs]
        med = _median_of(pairs)
        assert min(values) <= med <= max(values)
        assert med == statistics.median(values)


def _median_build(profile: WordProfile, threshold=DEFAULT_MEDIAN_THRESHOLD) -> list[AbbrevEntry]:
    """The entries a median build admits from `profile` alone, with no
    evidence or occasionalism gate in the way of the median rule."""
    options = BuildOptions(median_threshold=threshold, min_total=0, min_volumes=0, min_active_years=0)
    return build_dictionary({profile.word: profile}, options).entries


class TestMedianRule:
    def test_above_threshold(self):
        profile = profile_of("др", {1995: (96, 100), 1996: (97, 100), 1997: (95, 100)})
        [entry] = _median_build(profile, "0.9")
        decision = entry.decision
        assert decision.is_abbreviation
        assert decision.method == METHOD_MEDIAN
        assert (decision.eta, decision.likelihood, decision.alpha, decision.beta) == (None,) * 4

    def test_exact_threshold_excluded(self):
        profile = profile_of("др", {1995: (9, 10)})
        assert profile.median_share == Fraction(9, 10)
        assert _median_build(profile, "0.9") == []

    def test_undefined_median_is_common(self):
        # data only outside the aggregates window: no evidence
        profile = build_profiles(
            {"др": {1980: (5, 10)}},
            config=IngestConfig(year_min=1940, year_max=2008),
            window=(1990, 2008),
        )["др"]
        assert profile.median_share is None
        assert _median_build(profile) == []

    def test_threshold_domain(self):
        with pytest.raises(InvalidConfigError):
            BuildOptions(median_threshold="1.5")

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 50)), min_size=1, max_size=19))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_shares(self, pairs):
        base = {1990 + i: (min(n, t), t) for i, (n, t) in enumerate(pairs)}
        raised = {year: (t, t) for year, (n, t) in base.items()}
        if _median_build(profile_of("w", base)):
            assert _median_build(profile_of("w", raised))


class TestDecideLrt:
    def test_always_with_period(self):
        profile = profile_of("др", {1995: (40, 40)})
        decision = decide_lrt(profile, PARAMS)
        assert decision.is_abbreviation
        assert profile.n_total == profile.N_total == 40
        assert decision.likelihood > 1.0
        assert 0 <= decision.alpha <= 1 and 0 <= decision.beta <= 1

    def test_never_with_period(self):
        profile = profile_of("др", {1995: (0, 40)})
        assert not decide_lrt(profile, PARAMS).is_abbreviation

    def test_no_usage_undecidable(self):
        profile = build_profiles(
            {"др": {1980: (1, 10)}},
            config=IngestConfig(year_min=1940, year_max=2008),
            window=(1990, 2008),
        )["др"]
        decision = decide_lrt(profile, PARAMS)
        assert not decision.is_abbreviation
        assert decision.eta is None and decision.likelihood is None

    def test_decision_matches_threshold(self):
        for n in range(0, 41):
            profile = profile_of("др", {1995: (n, 40)})
            decision = decide_lrt(profile, PARAMS)
            assert decision.is_abbreviation == (n > decision.eta)

    @given(st.integers(0, 39), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_n(self, n, total):
        n = min(n, total - 1) if total > 0 else 0
        low = decide_lrt(profile_of("w", {1995: (n, total)}), PARAMS)
        high = decide_lrt(profile_of("w", {1995: (min(n + 1, total), total)}), PARAMS)
        if low.is_abbreviation:
            assert high.is_abbreviation


def _entry(word, volumes, years):
    decision = DecisionRecord(is_abbreviation=True, method=METHOD_MEDIAN)
    profile = WordProfile(
        word=word, series={}, window=(1990, 2008), n_total=50, N_total=50,
        median_share=Fraction(1), active_years=years, volumes_total=volumes,
    )
    return AbbrevEntry(decision=decision, profile=profile)


class TestFilterOccasional:
    def test_low_volume_removed(self):
        kept, removed = filter_occasional([_entry("a", 1, 5)], min_volumes=2, min_active_years=0)
        assert kept == []
        assert removed[0][1] == ("low-volume",)

    def test_identity_at_zero_thresholds(self):
        entries = [_entry("a", 1, 1), _entry("b", 9, 9)]
        kept, removed = filter_occasional(entries, 0, 0)
        assert kept == entries and removed == []

    def test_short_timespan_removed(self):
        kept, removed = filter_occasional([_entry("a", 9, 1)], min_volumes=2, min_active_years=3)
        assert kept == []
        assert removed[0][1] == ("short-timespan",)

    def test_idempotent(self):
        entries = [_entry("a", 1, 1), _entry("b", 5, 5), _entry("c", 2, 1)]
        once, _ = filter_occasional(entries, 2, 2)
        twice, removed_again = filter_occasional(once, 2, 2)
        assert twice == once and removed_again == []

    def test_output_subset_of_input(self):
        entries = [_entry(w, v, y) for w, v, y in [("a", 1, 1), ("b", 3, 3), ("c", 2, 9)]]
        kept, _ = filter_occasional(entries, 2, 2)
        assert all(e in entries for e in kept)


ABBREV_YEARS = {1990 + i: (96 + (i % 3), 100, 12) for i in range(19)}
COMMON_YEARS = {1990 + i: (7, 100, 3) for i in range(19)}


def _corpus():
    return build_profiles({
        "гл": ABBREV_YEARS,
        "др": {y: (99, 100, 15) for y in ABBREV_YEARS},
        "год": COMMON_YEARS,
        "мир": {y: (2, 100, 1) for y in COMMON_YEARS},
        "ръдо": {1995: (50, 50, 1)},  # occasionalism: one year, one volume
    })


class TestBuildDictionary:
    @pytest.mark.parametrize("method", ["median", "both-must-agree"])
    @pytest.mark.parametrize("words", [1, 40])
    def test_threshold_converted_once_per_build(self, monkeypatch, method, words):
        profiles = build_profiles({f"др{'а' * i}": {1995: (95, 100, 3), 1996: (96, 100, 3)} for i in range(words)})
        options = BuildOptions(method=method, median_threshold="0.9")
        calls = []
        monkeypatch.setattr(dictionary, "as_fraction", lambda value: calls.append(value) or as_fraction(value))
        built = build_dictionary(profiles, options)
        assert len(built.entries) == words
        assert calls == []  # `BuildOptions` converted it when it was made

    def test_median_build_recovers_planted(self):
        built = build_dictionary(_corpus(), BuildOptions(method="median"))
        assert built.words() == ["гл", "др"]
        assert built.build_meta["counts"]["entries"] == 2
        assert built.build_meta["counts"]["removed_low_volume"] == 1
        assert built.build_meta["counts"]["removed_short_timespan"] == 1

    def test_lrt_build_recovers_planted(self):
        built = build_dictionary(_corpus(), BuildOptions(method="lrt"))
        assert built.words() == ["гл", "др"]
        entry = built.entries[0]
        assert entry.decision.method == METHOD_LRT
        assert entry.decision.eta is not None

    def test_both_must_agree_subset(self):
        profiles = _corpus()
        # the median rule alone admits "мед" (11 years at 100%, one large
        # year at 0%), the test alone admits "лрт" (80% every year)
        profiles.update(build_profiles({
            "мед": {**{1990 + i: (10, 10, 5) for i in range(11)}, 2001: (0, 1000, 5)},
            "лрт": {y: (80, 100, 5) for y in ABBREV_YEARS},
        }))
        built = build_dictionary(profiles, BuildOptions(method="both-must-agree"))
        med = set(build_dictionary(profiles, BuildOptions(method="median")).words())
        lrt = set(build_dictionary(profiles, BuildOptions(method="lrt")).words())
        assert med - lrt == {"мед"} and lrt - med == {"лрт"}
        assert built.words() == sorted(med & lrt) == ["гл", "др"]
        for entry in built.entries:
            assert entry.decision.method == METHOD_LRT
            assert entry.decision.eta is not None
            assert entry.decision == decide_lrt(entry.profile, BuildOptions().params)

    def test_min_total_gate(self):
        profiles = build_profiles({"гл": {1995: (30, 30, 9), 1996: (5, 5, 5)}})
        built = build_dictionary(profiles, BuildOptions(method="median", min_total=40))
        assert built.words() == []
        assert built.build_meta["counts"]["undecided_low_evidence"] == 1
        loose = build_dictionary(profiles, BuildOptions(method="median", min_total=10, min_volumes=0, min_active_years=0))
        assert loose.words() == ["гл"]

    def test_empty_corpus(self):
        built = build_dictionary({}, BuildOptions())
        assert built.entries == []
        assert built.build_meta["counts"]["entries"] == 0
        assert built.build_meta["method"] == "median"

    def test_deterministic_outputs(self):
        options = BuildOptions(method="both-must-agree")
        one = build_dictionary(_corpus(), options, {"f": "00ff"})
        two = build_dictionary(_corpus(), options, {"f": "00ff"})
        assert dictionary_to_tsv(one) == dictionary_to_tsv(two)
        assert dictionary_to_json(one) == dictionary_to_json(two)
        assert dictionary_to_wordlist(one) == dictionary_to_wordlist(two)

    def test_entries_sorted_and_unique(self):
        built = build_dictionary(_corpus(), BuildOptions())
        words = built.words()
        assert words == sorted(words)
        assert len(words) == len(set(words))

    def test_kept_entries_carry_profile_flags(self):
        import json

        profiles = {**_corpus(), **build_profiles({"кл": {y: (120, 100, 15) for y in ABBREV_YEARS}})}
        built = build_dictionary(profiles, BuildOptions())
        assert built.words() == ["гл", "др", "кл"]
        flags = {e["word"]: e["flags"] for e in json.loads(dictionary_to_json(built))["entries"]}
        assert flags == {"гл": [], "др": [], "кл": ["clamped-counts"]}
        assert dictionary_to_tsv(built).splitlines()[2].endswith("\tclamped-counts")

    def test_invalid_method_rejected(self):
        with pytest.raises(InvalidConfigError):
            BuildOptions(method="coin-flip")

    def test_invalid_threshold_rejected(self):
        with pytest.raises(InvalidConfigError):
            BuildOptions(median_threshold=Fraction(3, 2))


class TestSerializationFormats:
    def test_tsv_columns(self):
        built = build_dictionary(_corpus(), BuildOptions())
        line = dictionary_to_tsv(built).splitlines()[0]
        fields = line.split("\t")
        assert len(fields) == 8
        assert fields[0] == "гл"
        assert fields[6] == METHOD_MEDIAN

    def test_json_round_trip_fields(self):
        import json

        built = build_dictionary(_corpus(), BuildOptions(method="lrt"), {"corpus": "ab"})
        doc = json.loads(dictionary_to_json(built))
        assert doc["format"] == "abbrevkit-dictionary"
        assert doc["build_meta"]["corpus_fingerprint"] == {"corpus": "ab"}
        words = [e["word"] for e in doc["entries"]]
        assert words == built.words()
        assert doc["entries"][0]["median_share_exact"].count("/") <= 1

    def test_wordlist_one_per_line(self):
        built = build_dictionary(_corpus(), BuildOptions())
        assert dictionary_to_wordlist(built) == "гл\nдр\n"

    def test_overflowing_likelihood_serializes_null(self):
        import json
        import math

        profiles = build_profiles({"гл": {1995: (20000, 20000, 50)}})
        built = build_dictionary(
            profiles, BuildOptions(method="lrt", min_volumes=0, min_active_years=0)
        )
        assert math.isinf(built.entries[0].decision.likelihood)
        payload = dictionary_to_json(built)
        assert "Infinity" not in payload
        doc = json.loads(payload)
        assert doc["entries"][0]["likelihood"] is None
        assert doc["entries"][0]["eta"] is not None


class TestAsFraction:
    def test_decimal_float(self):
        assert as_fraction(0.9) == Fraction(9, 10)
        assert as_fraction("0.9") == Fraction(9, 10)
        assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
        assert as_fraction(1) == 1


def _strings(source: str) -> list[str]:
    """The string constants of Python `source`, docstrings included."""
    return [node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def _imported_modules(source: str) -> set[str]:
    """The abbrevkit modules Python `source` imports, or imports names
    from, by relative or absolute name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("abbrevkit."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and (module == "abbrevkit" or module.startswith("abbrevkit.")):
                module = module.partition(".")[2]
            elif node.level != 1:
                continue
            found.update([module] if module else [alias.name for alias in node.names])
    return found


def test_only_dictionary_knows_the_format():
    """The dictionary document's format is written in one module, and the
    segmenter reads no file: it takes no name from `ingest`."""
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(Path(abbrevkit.__file__).parent.glob("*.py"))}
    knowing = [name for name, source in sources.items()
               if any("abbrevkit-dictionary" in text for text in _strings(source))]
    assert knowing == ["dictionary"]
    assert "ingest" not in _imported_modules(sources["segment"])


@pytest.mark.parametrize("source, expected", [
    ("from .ingest import read_input", {"ingest"}),
    ("from . import ingest, likelihood", {"ingest", "likelihood"}),
    ("from abbrevkit.ingest import is_word", {"ingest"}),
    ("from abbrevkit import ingest", {"ingest"}),
    ("import abbrevkit.ingest as ingest\nimport json", {"ingest"}),
    ("def f():\n    from .ingest import read_input", {"ingest"}),
    ("from ..ingest import x\nfrom ingest import y\nimport ingest\nfrom abbrevkitx import ingest", set()),
])
def test_import_guard_sees_each_import(source, expected):
    assert _imported_modules(source) == expected
