import ast
import hashlib
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
    InvalidConfigError,
    as_fraction,
    build_dictionary,
    decide_lrt,
    dictionary_to_json,
    dictionary_to_tsv,
    dictionary_to_wordlist,
    load_dictionary,
)
from abbrevkit.ingest import IngestConfig, WordProfile, ingest_paths
from abbrevkit.likelihood import HypothesisParams
from abbrevkit.synth import SynthSpec, generate_ngrams, make_spec, make_vocabulary
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

    @pytest.mark.parametrize("method", ["median", "lrt", "both-must-agree"])
    def test_every_built_tsv_loads(self, tmp_path, synth_profiles, method):
        # the TSV reader checks columns 2-8: every row a build writes reads back, flags included
        profiles = {**synth_profiles, **build_profiles({"кл": {y: (120, 100, 15) for y in ABBREV_YEARS}})}
        built = build_dictionary(profiles, BuildOptions(method=method, min_total=0, min_volumes=0, min_active_years=0))
        tsv = dictionary_to_tsv(built)
        assert "\tclamped-counts\n" in tsv and len(built.entries) > 40
        (tmp_path / "d.tsv").write_text(tsv, encoding="utf-8")
        assert load_dictionary(tmp_path / "d.tsv").words == tuple(built.words())

    def test_invalid_method_rejected(self):
        with pytest.raises(InvalidConfigError):
            BuildOptions(method="coin-flip")

    def test_invalid_threshold_rejected(self):
        with pytest.raises(InvalidConfigError):
            BuildOptions(median_threshold=Fraction(3, 2))


def _counts(built):
    return built.build_meta["counts"]


# each year at a 99% share: the median rule and the test both admit it
def _admitted(years, volumes):
    return {1990 + i: (99, 100, volumes) for i in range(years)}


class TestOccasionalismGate:
    """The occasionalism filters, met in the build by every admitted word."""

    @pytest.mark.parametrize("method", ["median", "lrt", "both-must-agree"])
    @pytest.mark.parametrize("volumes, years, low, short", [
        (1, 19, 1, 0),   # 19 volumes < 30
        (20, 2, 0, 1),   # 2 years < 3
        (1, 2, 1, 1),    # both: one candidate, counted in each removal
        (20, 19, 0, 0),
    ])
    def test_removal_counts(self, method, volumes, years, low, short):
        profiles = build_profiles({"гл": _admitted(years, volumes), "год": COMMON_YEARS})
        built = build_dictionary(profiles, BuildOptions(method=method, min_volumes=30, min_active_years=3,
                                                        min_total=0))
        assert built.words() == ([] if low or short else ["гл"])
        assert _counts(built) == {"words_seen": 2, "undecided_low_evidence": 0, "candidates": 1,
                                  "removed_low_volume": low, "removed_short_timespan": short,
                                  "entries": 1 - (low or short)}

    def test_zero_thresholds_keep_every_candidate(self):
        profiles = build_profiles({"гл": _admitted(1, 1), "др": _admitted(19, 9), "год": COMMON_YEARS})
        built = build_dictionary(profiles, BuildOptions(min_total=0, min_volumes=0, min_active_years=0))
        assert built.words() == ["гл", "др"]
        assert _counts(built)["entries"] == _counts(built)["candidates"] == 2

    def test_both_must_agree_tests_only_median_admitted_words(self, monkeypatch):
        profiles = _corpus()
        median = set(build_dictionary(profiles, BuildOptions(method="median", min_volumes=0,
                                                             min_active_years=0)).words())
        tested = []
        monkeypatch.setattr(dictionary, "decide_lrt",
                            lambda profile, params: tested.append(profile.word) or decide_lrt(profile, params))
        build_dictionary(profiles, BuildOptions(method="both-must-agree"))
        assert tested == sorted(median) == ["гл", "др", "ръдо"]

    @given(
        st.dictionaries(
            st.sampled_from(["гл", "др", "год", "мир", "кл", "ръдо"]),
            st.dictionaries(st.integers(1990, 2008),
                            st.tuples(st.integers(0, 60), st.integers(1, 60), st.integers(0, 8)), max_size=6),
            max_size=6,
        ),
        st.sampled_from(["median", "lrt", "both-must-agree"]),
        st.integers(0, 80), st.integers(0, 20), st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_counts_add_up(self, counts, method, min_total, min_volumes, min_active_years):
        profiles = build_profiles(counts)
        built = build_dictionary(profiles, BuildOptions(method=method, min_total=min_total,
                                                        min_volumes=min_volumes, min_active_years=min_active_years))
        admitted = build_dictionary(profiles, BuildOptions(method=method, min_total=min_total,
                                                           min_volumes=0, min_active_years=0)).words()
        low = {w for w in admitted if profiles[w].volumes_total < min_volumes}
        short = {w for w in admitted if profiles[w].active_years < min_active_years}
        got = _counts(built)
        assert built.words() == [w for w in admitted if w not in low | short]
        assert (got["removed_low_volume"], got["removed_short_timespan"]) == (len(low), len(short))
        assert got["entries"] + len(low | short) == got["candidates"] == len(admitted)
        assert got["candidates"] <= got["words_seen"] - got["undecided_low_evidence"]


_COUNT_KEYS = ("undecided_low_evidence", "candidates", "removed_low_volume", "removed_short_timespan", "entries")


@pytest.fixture(scope="module")
def synth_profiles(tmp_path_factory):
    """Profiles of one aggregate of three synth shapes: the paper's
    shares at totals 1..60 over the whole window, the same shares active
    in five years only, and shares near the median threshold."""
    out = tmp_path_factory.mktemp("synth")
    specs = [
        make_spec(20, 200, seed=1, totals_range=(1, 60)),
        SynthSpec({w: 0.955 for w in make_vocabulary(8, "щ")}, {w: 0.068 for w in make_vocabulary(8, "ы")},
                  years=(2000, 2004), totals_range=(1, 60), seed=1),
        SynthSpec({w: 0.9 for w in make_vocabulary(20, "ё")}, {w: 0.4 for w in make_vocabulary(20, "ь")},
                  totals_range=(1, 60), seed=1),
    ]
    for index, spec in enumerate(specs):
        generate_ngrams(spec, out / f"1-{index}.tsv", out / f"2-{index}.tsv")
    return ingest_paths(sorted(out.glob("1-*")), sorted(out.glob("2-*"))).finalize()


class TestFrozenOutput:
    """sha256 of the TSV, JSON and word-list outputs and the build counts,
    pinned for every method on thresholds where each gate fires: words
    left undecided by `min_total`, removed as low-volume, as
    short-timespan, and as both.  A change to any decision, filter,
    count or rendering fails here."""

    @pytest.mark.parametrize("method, thresholds, counts, digests", [
        ("median", (40, 2, 2), (2, 46, 0, 0, 46),
         ("eef813064a52cee78b44c6e54bfc313b445c9868ecca658fb3166b5c1954e974",
          "84e9c29acb8b9778f6bfb68715bd5cf1c86a9bbb79dd5369ef7952d9b566a3cc",
          "7e0d74e9562bf166e4adf49a70f4a1edb53d9d8340ce7e5045c55599173e15e1")),
        ("median", (0, 0, 0), (0, 46, 0, 0, 46),
         ("eef813064a52cee78b44c6e54bfc313b445c9868ecca658fb3166b5c1954e974",
          "d27a46e33fa7ef757ba3def629fc31ab1aeaff216a5ac6e55bc669774328d074",
          "7e0d74e9562bf166e4adf49a70f4a1edb53d9d8340ce7e5045c55599173e15e1")),
        ("median", (100, 5, 15), (14, 40, 0, 2, 38),
         ("48e3d746942036fa2ab4008fbec4d4e9a8b39e04e065a630e3d1a335a3d887fa",
          "6a2b3f53b15fa044f6a8c5094b6249bebd83afdf74f5e1c97979f99447cc1863",
          "5ead0d933f9d65828e3fe1955300ba64a631f67aae9619be96cbdc51d46f2a82")),
        ("median", (10, 30, 18), (0, 46, 11, 8, 35),
         ("a9cb0589f7bec5860af51f5ac6aa6b665c656c9f29c71c4c16bfb0d63971798b",
          "c76ab59a9630e3b47074bdd6c49bfbb12c3532a7834436ab511233af21142355",
          "5747e7ae8eb5fac35c6e5bb38123b47b49c70e2e69cfeb2e2b7e018a47c609ea")),
        ("lrt", (40, 2, 2), (2, 48, 0, 0, 48),
         ("e81262953d591dc9665a33b6fca0a4c6a145be7dc3320cf324f259b5fee4ffef",
          "539bb79f0501763d6d046612733cea335dbcbaed9b7f12c4d4e9c8ded08d5ecc",
          "9922f1a7cc41cd282ec216f3deb9af29101e75dd2a7bcc8bda8c6e657b81da88")),
        ("lrt", (0, 0, 0), (0, 48, 0, 0, 48),
         ("e81262953d591dc9665a33b6fca0a4c6a145be7dc3320cf324f259b5fee4ffef",
          "b8a2f3ec85b65792973778ac83901a4eec996c027edf673819835cd21a2f97e1",
          "9922f1a7cc41cd282ec216f3deb9af29101e75dd2a7bcc8bda8c6e657b81da88")),
        ("lrt", (100, 5, 15), (14, 42, 0, 2, 40),
         ("10a054f7612225f33a189daa238c8c1a95f24f0f904853147ec82774058263dc",
          "996a6682b485474e5d5f93a1bcc2b946fafebeae646130757af623006a02ee23",
          "00db6698e9d61135ccee248ce2171f7f215acf8b5eac714eeb0d40793068ef23")),
        ("lrt", (10, 30, 18), (0, 48, 11, 8, 37),
         ("8d39a8d6e30b2f1a87738d1b16fd76c40626640f67ee09cd3aa45b184989f078",
          "782435c244a3eb2f967878c2d6e95f356fc628bd8ae6fed397f214ac2f999ecb",
          "ffe7dc809b0f48a49a9fce322b5fa10d054ad5618b95eedd613b4fbaaf6cb2e6")),
        ("both-must-agree", (40, 2, 2), (2, 46, 0, 0, 46),
         ("3f097f2cd928692859d658a458fe12e913686a354981d2022956ea56f6273a54",
          "59a1d34f12e889162eaed491ad9abd4d1356741c5e6a7be10231164ba1daa7ce",
          "7e0d74e9562bf166e4adf49a70f4a1edb53d9d8340ce7e5045c55599173e15e1")),
        ("both-must-agree", (0, 0, 0), (0, 46, 0, 0, 46),
         ("3f097f2cd928692859d658a458fe12e913686a354981d2022956ea56f6273a54",
          "f600636e5b5fd1b17fb9aea7384817abb801a9b3668f3e0147a12d8a8a961af0",
          "7e0d74e9562bf166e4adf49a70f4a1edb53d9d8340ce7e5045c55599173e15e1")),
        ("both-must-agree", (100, 5, 15), (14, 40, 0, 2, 38),
         ("1422e3f4c959d57b3ece939361ea0ee849089f848ee063709c24114036dcb788",
          "c18dc77d360ebf1e8f1a8c8e1a42c41de743b1fa1b1d492fcdc392ca16493936",
          "5ead0d933f9d65828e3fe1955300ba64a631f67aae9619be96cbdc51d46f2a82")),
        ("both-must-agree", (10, 30, 18), (0, 46, 11, 8, 35),
         ("196ad54224f16eb68470a6890a646bae89d1318a00a1cef2a11e85d72b8726b1",
          "03c83428befeeed18fd26aa40d6dd2c35bb32e87f15597eec5bcd437be82c8e0",
          "5747e7ae8eb5fac35c6e5bb38123b47b49c70e2e69cfeb2e2b7e018a47c609ea")),
    ])
    def test_build(self, synth_profiles, method, thresholds, counts, digests):
        min_total, min_volumes, min_active_years = thresholds
        built = build_dictionary(synth_profiles, BuildOptions(
            method=method, min_total=min_total, min_volumes=min_volumes, min_active_years=min_active_years))
        assert built.build_meta["counts"] == {"words_seen": 276, **dict(zip(_COUNT_KEYS, counts))}
        outputs = (dictionary_to_tsv(built), dictionary_to_json(built), dictionary_to_wordlist(built))
        assert tuple(hashlib.sha256(text.encode("utf-8")).hexdigest() for text in outputs) == digests


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
