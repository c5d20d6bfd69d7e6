import ast
import copy
import gzip
import hashlib
import itertools
import json
import re
import statistics
import sys
from collections import OrderedDict
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abbrevkit
from abbrevkit.ingest import (
    SCRIPT_RANGES,
    Aggregator,
    ConfigMismatchError,
    IngestConfig,
    NgramRecord,
    ParseError,
    WordProfile,
    YearlyUsage,
    _letter_class,
    _median,
    ingest_paths,
    parse_count,
    parse_line,
    parse_year,
    read_input,
)
from abbrevkit.synth import generate_ngrams, make_spec

import oracles
from helpers import BAD_COUNT_SPELLINGS, BAD_YEAR_SPELLINGS, aggregate, aggregate_states

CFG = IngestConfig()
RANGES = CFG.letter_ranges()


def _candidate(word: str, letter_ranges) -> bool:
    """The candidate filter `Aggregator.consume_lines` runs: `str.isalpha`,
    then the letter class compiled from `letter_ranges`."""
    return word.isalpha() and _letter_class(letter_ranges).fullmatch(word) is not None


class TestParseLine:
    def test_bigram_line(self):
        rec = parse_line("др .\t1995\t120\t30")
        assert rec == NgramRecord(("др", "."), 1995, 120, 30)

    def test_unigram_line(self):
        rec = parse_line("слово\t2000\t500\t45")
        assert rec == NgramRecord(("слово",), 2000, 500, 45)

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as err:
            parse_line("bad\tline", line_number=7)
        assert err.value.line_number == 7
        assert "4 tab-separated" in err.value.reason

    def test_non_integer_counts(self):
        with pytest.raises(ParseError):
            parse_line("слово\t2000\tmany\t45")

    def test_year_out_of_plausible_range(self):
        with pytest.raises(ParseError):
            parse_line("слово\t1200\t10\t1")
        with pytest.raises(ParseError):
            parse_line("слово\t2200\t10\t1")
        assert parse_line("слово\t1200\t10\t1", year_floor=1000).year == 1200

    def test_volume_invariants(self):
        with pytest.raises(ParseError):
            parse_line("слово\t2000\t10\t0")
        with pytest.raises(ParseError):
            parse_line("слово\t2000\t10\t11")
        with pytest.raises(ParseError):
            parse_line("слово\t2000\t-1\t1")

    def test_empty_and_excess_tokens(self):
        with pytest.raises(ParseError):
            parse_line(" др\t2000\t10\t1")  # leading space makes an empty token
        with pytest.raises(ParseError):
            parse_line("a b c\t2000\t10\t1")

    def test_trailing_newline_tolerated(self):
        assert parse_line("др .\t1995\t120\t30\n").tokens == ("др", ".")


class TestNumberRule:
    """A year is spelled as ``str(year)`` writes it, a count in ASCII digits."""

    @pytest.mark.parametrize("text, year", [("1995", 1995), ("0", 0), ("-50", -50), ("9" * 30, int("9" * 30))])
    def test_years(self, text, year):
        assert parse_year(text) == year

    @pytest.mark.parametrize("text", [*BAD_YEAR_SPELLINGS, "-0", "--5", "-", "", "1995\n", "1995.0", "x", "1" * 5000])
    def test_not_years(self, text):
        assert parse_year(text) is None

    @pytest.mark.parametrize("text, count", [("0", 0), ("5", 5), ("007", 7), ("01995", 1995)])
    def test_counts(self, text, count):
        assert parse_count(text) == count

    @pytest.mark.parametrize("text", [*BAD_COUNT_SPELLINGS, "-1", "", "5\n", "\u00b2", "x", "1" * 5000])
    def test_not_counts(self, text):
        assert parse_count(text) is None


class TestClassifyBigram:
    """Which 2-gram records reach a profile's with-period counts."""

    def test_word_period_matches(self):
        profiles = aggregate([
            NgramRecord(("др", "."), 1995, 120, 30),
            NgramRecord(("др",), 1995, 125, 40),
        ])
        usage = profiles["др"].series[1995]
        assert (usage.with_period, usage.volumes_with_period) == (120, 30)

    def test_numerals_excluded(self):
        assert aggregate([NgramRecord(("12", "."), 1995, 9, 1)]) == {}

    def test_non_period_second_token(self):
        profiles = aggregate([
            NgramRecord(("др", ","), 1995, 9, 1),
            NgramRecord(("др",), 1995, 20, 2),
        ])
        assert profiles["др"].series[1995].with_period == 0

    def test_requires_two_tokens(self):
        # a 1-gram adds to the total and never to the with-period count
        usage = aggregate([NgramRecord(("др",), 1995, 9, 1)])["др"].series[1995]
        assert (usage.with_period, usage.total, usage.volumes_with_period) == (0, 9, 0)

    def test_case_fold(self):
        profiles = aggregate([NgramRecord(("Др", "."), 1995, 9, 1)], IngestConfig(case_fold=True))
        assert list(profiles) == ["др"]
        assert profiles["др"].series[1995].with_period == 9

    def test_exhaustive_over_token_alphabet(self):
        firsts = ["др", "Др", "ab", "aB", "12", "a1", "а_NOUN", "т.е", "-", "ё"]
        seconds = [".", ",", "!", "а", "..", "Я"]
        for first in firsts:
            for second in seconds:
                profiles = aggregate([NgramRecord((first, second), 2000, 5, 1)])
                expected = second == "." and _candidate(first, RANGES)
                assert list(profiles) == ([first] if expected else []), (first, second)
                if expected:
                    assert profiles[first].n_total == 5

    def test_script_whitelist(self):
        assert _candidate("слово", RANGES)
        assert _candidate("word", RANGES)
        assert _candidate("ё", RANGES)
        assert not _candidate("слово1", RANGES)
        assert not _candidate("sl_NOUN", RANGES)
        assert not _candidate("", RANGES)
        greek_only = IngestConfig(scripts=("latin",)).letter_ranges()
        assert not _candidate("слово", greek_only)


# characters around the edges of the letter class: letters of every
# admitted range and just outside it, letters of other scripts, combining
# marks, non-BMP letters, a titlecase letter, digits, underscore, period
_NEAR_LETTERS = sorted(
    {chr(cp) for lo, hi in RANGES for cp in (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1)}
    | set("ъЁёßæΩωאب\u01c5\u0301\u0306\u0483\U00010400\U0001d400\U00020000\u00b2_.1 ")
)


class TestLetterClass:
    """The compiled letter class gives the verdicts of the per-character loop."""

    def test_every_codepoint(self):
        chars = map(chr, range(sys.maxunicode + 1))
        differ = [ch for ch in chars if _candidate(ch, RANGES) != oracles.is_candidate_word_reference(ch, RANGES)]
        assert differ == []

    @given(st.text(st.sampled_from(_NEAR_LETTERS) | st.characters(), max_size=8))
    @settings(max_examples=500, deadline=None)
    def test_random_words(self, word):
        assert _candidate(word, RANGES) == oracles.is_candidate_word_reference(word, RANGES)

    def test_every_subset_of_ranges(self):
        words = ["", *_NEAR_LETTERS, "слово", "word", "Straße", "ёж", "sl_NOUN", "е\u0301ж", "a\U00010400"]
        ranges = [r for script in sorted(SCRIPT_RANGES) for r in SCRIPT_RANGES[script]]
        subsets = [subset for size in range(len(ranges) + 1) for subset in itertools.combinations(ranges, size)]
        # an inverted range admits nothing, alone or beside others; bounds
        # beyond the codepoints admit up to the first or last one
        subsets += [((0x7A, 0x61),), ((0x7A, 0x61), (0x400, 0x4FF)), ((-5, 0x41),), ((0x10000, 0x200000),)]
        for subset in subsets:
            for word in words:
                expected = oracles.is_candidate_word_reference(word, subset)
                assert _candidate(word, subset) == expected, (word, subset)
        assert not any(_candidate(word, ()) for word in words)

    def test_aggregator_admits_what_the_predicate_admits(self):
        words = ["слово", "Word", "ёж", "е\u0301ж", "ab1", "a\U00010400"]
        for scripts in [(), ("latin",), ("cyrillic",), ("cyrillic", "latin")]:
            config = IngestConfig(scripts=scripts)
            profiles = aggregate([NgramRecord((w,), 2000, 5, 1) for w in words], config)
            assert sorted(profiles) == sorted(w for w in words if _candidate(w, config.letter_ranges()))


class TestAggregate:
    def test_single_year_sum(self):
        profiles = aggregate([
            NgramRecord(("др", "."), 1995, 120, 30),
            NgramRecord(("др",), 1995, 125, 40),
        ])
        usage = profiles["др"].series[1995]
        assert (usage.with_period, usage.total, usage.volumes_with_period) == (120, 125, 30)

    def test_additivity_across_shards(self):
        profiles = aggregate([
            NgramRecord(("др", "."), 1995, 60, 10),
            NgramRecord(("др", "."), 1995, 60, 10),
            NgramRecord(("др",), 1995, 125, 40),
        ])
        assert profiles["др"].series[1995].with_period == 120

    def test_unigram_only_zero_median(self):
        profiles = aggregate([NgramRecord(("др",), 1995, 125, 40)])
        profile = profiles["др"]
        assert profile.n_total == 0
        assert profile.median_share == 0
        assert profile.active_years == 1
        assert profile.flags == frozenset()

    def test_bigram_without_unigram_fills_total(self):
        profiles = aggregate([NgramRecord(("др", "."), 1995, 120, 30)])
        profile = profiles["др"]
        usage = profile.series[1995]
        assert usage.total == usage.with_period == 120
        assert profile.filled_years == 1
        assert "clamped-counts" in profile.flags

    def test_clamps_excess_with_period(self):
        profiles = aggregate([
            NgramRecord(("др", "."), 1995, 200, 30),
            NgramRecord(("др",), 1995, 125, 40),
        ])
        profile = profiles["др"]
        assert profile.series[1995].with_period == 125
        assert profile.clamped_years == 1
        assert profile.n_total <= profile.N_total

    def test_window_excludes_outside_years(self):
        profiles = aggregate([
            NgramRecord(("др",), 1980, 10, 1),
            NgramRecord(("др",), 1995, 20, 1),
        ])
        assert 1980 not in profiles["др"].series
        assert profiles["др"].N_total == 20

    def test_median_over_yearly_shares(self):
        profiles = aggregate([
            NgramRecord(("др", "."), 1995, 1, 1),
            NgramRecord(("др",), 1995, 5, 1),
            NgramRecord(("др", "."), 1996, 9, 1),
            NgramRecord(("др",), 1996, 10, 1),
            NgramRecord(("др", "."), 1997, 1, 1),
            NgramRecord(("др",), 1997, 1, 1),
        ])
        assert profiles["др"].median_share == Fraction(9, 10)

    def test_pos_tagged_and_punct_unigrams_ignored(self):
        profiles = aggregate([
            NgramRecord((".",), 1995, 10, 1),
            NgramRecord(("др_NOUN",), 1995, 10, 1),
        ])
        assert profiles == {}


# (with_period, total) pairs: ties in other terms (1/2, 2/4), zero counts,
# and totals near 1e9 whose shares differ by less than a float can tell
_NEAR = [(999_999_999, 1_000_000_000), (1_000_000_000, 1_000_000_001), (999_999_998, 999_999_999)]
_TIES = [(1, 2), (2, 4), (500_000_000, 1_000_000_000), (0, 1), (0, 7), (3, 3), (1_000_000_000, 1_000_000_000)]


# totals near 10**15: t/(t + 1) and (t - 1)/t are distinct but one float
_NEAR_15 = st.integers(10**8, 10**15).map(lambda t: [(t - 1, t), (t, t + 1), (t - 2, t - 1)])


class TestMedianOrder:
    """`_median` orders shares by an exact integer key, with the result
    of sorting them as Fractions."""

    @staticmethod
    def _reference(pairs):
        ordered = sorted(Fraction(n, t) for n, t in pairs)
        return statistics.median(ordered) if ordered else None

    def test_float_keys_would_misorder(self):
        low, high = _NEAR[0], _NEAR[1]
        assert Fraction(*low) < Fraction(*high) and low[0] / low[1] == high[0] / high[1]
        # sorted by float, `high` would stay first and be taken as the median
        assert _median([high, low, (0, 5)]) == Fraction(*low)
        assert _median([high, low, (0, 5), (1, 1)]) == (Fraction(*low) + Fraction(*high)) / 2

    @given(st.lists(
        st.sampled_from(_NEAR + _TIES)
        | st.integers(1, 2 * 10**9).flatmap(lambda t: st.tuples(st.integers(0, t), st.just(t))),
        max_size=25,
    ))
    @settings(max_examples=300, deadline=None)
    def test_matches_sorted_fractions(self, pairs):
        assert _median(pairs) == self._reference(pairs)

    def test_float_ties_near_10_15(self):
        t = 10**15
        low, high = (t - 1, t), (t, t + 1)
        assert Fraction(*low) < Fraction(*high) and low[0] / low[1] == high[0] / high[1]
        assert _median([high, low, (0, 5)]) == Fraction(*low)
        assert _median([high, (1, 1), low]) == Fraction(*high)

    @given(st.lists(
        _NEAR_15
        | st.integers(1, 10**15).flatmap(lambda t: st.tuples(st.integers(0, t), st.just(t))).map(lambda p: [p])
        | st.sampled_from(_NEAR + _TIES).map(lambda p: [p]),
        max_size=12,
    ).map(lambda groups: [pair for group in groups for pair in group]), st.randoms())
    @settings(max_examples=300, deadline=None)
    def test_totals_to_10_15_match_sorted_fractions(self, pairs, rng):
        rng.shuffle(pairs)
        assert _median(pairs) == self._reference(pairs)


def _records_strategy():
    words = st.sampled_from(["а", "б", "вг", "де", "ёж"])
    years = st.integers(1990, 1994)
    token_shape = st.sampled_from(["uni", "bi"])
    counts = st.integers(1, 50)

    def build(word, year, shape, count):
        tokens = (word,) if shape == "uni" else (word, ".")
        return NgramRecord(tokens, year, count, max(1, count // 3))

    return st.builds(build, words, years, token_shape, counts)


def _fill(records):
    agg = Aggregator(CFG)
    for record in records:
        oracles.add_record_reference(agg, record)
    return agg


def _combined(*aggs: Aggregator) -> Aggregator:
    """`aggs` folded by `Aggregator.update` into a fresh aggregator."""
    out = Aggregator(aggs[0].config)
    for agg in aggs:
        out.update(agg)
    return out


def _canonical(agg: Aggregator) -> str:
    state = agg.to_state()
    state["fingerprints"] = {}
    state["counters"] = {}
    return json.dumps(state, sort_keys=True, ensure_ascii=False)


class TestMergeMonoid:
    @given(st.lists(_records_strategy(), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_identity(self, records):
        agg = _fill(records)
        assert _canonical(_combined(Aggregator(CFG), agg)) == _canonical(agg)
        assert _canonical(_combined(agg, Aggregator(CFG))) == _canonical(agg)

    @given(st.lists(_records_strategy(), max_size=20), st.lists(_records_strategy(), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_commutative(self, left, right):
        a, b = _fill(left), _fill(right)
        assert _canonical(_combined(a, b)) == _canonical(_combined(b, a))

    @given(
        st.lists(_records_strategy(), max_size=15),
        st.lists(_records_strategy(), max_size=15),
        st.lists(_records_strategy(), max_size=15),
    )
    @settings(max_examples=50, deadline=None)
    def test_associative(self, one, two, three):
        a, b, c = _fill(one), _fill(two), _fill(three)
        assert _canonical(_combined(_combined(a, b), c)) == _canonical(_combined(a, _combined(b, c)))

    @given(st.lists(_records_strategy(), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_sharded_equals_sequential(self, records):
        whole = _fill(records)
        quarters = [Aggregator(CFG) for _ in range(4)]
        for index, record in enumerate(records):
            oracles.add_record_reference(quarters[index % 4], record)
        combined = Aggregator(CFG)
        for quarter in quarters:
            combined.update(quarter)
        assert _canonical(combined) == _canonical(whole)

    def test_config_mismatch_rejected(self):
        with pytest.raises(ConfigMismatchError):
            _combined(Aggregator(IngestConfig(case_fold=True)), Aggregator(CFG))

    def test_each_script_once(self):
        """A script named twice is the same letter class as named once, so
        the two configs are equal and their aggregates merge."""
        twice = IngestConfig(scripts=("latin", "cyrillic", "latin"))
        assert twice.scripts == ("cyrillic", "latin")
        assert twice == IngestConfig(scripts=("cyrillic", "latin"))
        assert _combined(Aggregator(twice), Aggregator(IngestConfig())).config == IngestConfig()


class TestConsumption:
    def test_skip_policy_counts(self):
        agg = Aggregator(CFG)
        agg.consume_lines(["др .\t1995\t120\t30\n", "broken\n", "др\t1995\t200\t9\n"])
        assert agg.counters.lines_parsed == 2
        assert agg.counters.lines_skipped == 1

    def test_abort_policy_raises_with_line_number(self):
        agg = Aggregator(CFG)
        with pytest.raises(ParseError) as err:
            agg.consume_lines(["др\t1995\t200\t9\n", "broken\n"], on_error="abort")
        assert err.value.line_number == 2

    def test_blank_lines_ignored(self):
        agg = Aggregator(CFG)
        agg.consume_lines(["\n", ""])
        assert agg.counters.lines_parsed == 0
        assert agg.counters.lines_skipped == 0

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            Aggregator(CFG).consume_lines([], on_error="explode")


# pieces of corpus lines around every edge of `parse_line`'s accept test:
# what `int` takes beyond plain digits (spaces, a sign, underscores, other
# decimal digits, a carriage return, a year's leading zero), counts with
# leading zeros, ints too large to take, years at and beyond the limits
# and the window, volumes of 0 and above the match count, and ngrams of
# 0 to 3 tokens with empty ones
_NGRAMS = ["др", "Др", "ДР", "ab", "Ab", "слово", "ёж", "ß", "İ", "Ω", "а_NOUN", "12", "т.е", ".",
           "др .", "Др .", "ab .", "слово .", "др ,", "12 .", "др ..", "a  .", " др", "др ", "", " ",
           "a b c", "др . .", "др\r", "Straße ."]
_YEARS = ["1995", "1990", "2008", "1989", "2009", "1499", "1500", "2100", "2101", " 1995", "+1995",
          "1_995", "\u0661\u0669\u0669\u0665", "1995\r", "-1995", "1995.0", "x", "", "9" * 30, "1" * 5000, "01995",
          "-0"]
_COUNTS = ["0", "1", "2", "5", "007", "12", " 12", "+5", "1_000", "\u0662\u0660\u0660\u0660", "-1", "5\r", "x", "",
           "9" * 40, "1" * 5000]
_ENDS = ["\n", "\r\n", "", "\r", "\r\r\n", "\n\n"]


@st.composite
def _corpus_lines(draw):
    fields = [draw(st.sampled_from(_NGRAMS)), draw(st.sampled_from(_YEARS)),
              draw(st.sampled_from(_COUNTS)), draw(st.sampled_from(_COUNTS))]
    arity = draw(st.sampled_from([4, 4, 4, 4, 3, 5]))
    fields = fields[:arity] + [draw(st.sampled_from(_COUNTS))] * (arity - 4)
    return draw(st.sampled_from(["", "\n"])) if draw(st.integers(0, 15)) == 0 else (
        "\t".join(fields) + draw(st.sampled_from(_ENDS)))


_CONFIGS = st.builds(
    IngestConfig,
    year_min=st.sampled_from([1990, 1995]),
    year_max=st.sampled_from([1995, 2008]),
    scripts=st.sampled_from([(), ("latin",), ("cyrillic",), ("cyrillic", "latin")]),
    case_fold=st.booleans(),
    year_floor=st.sampled_from([1500, 1990]),
    year_ceiling=st.sampled_from([2008, 2100]),
)


def _consumed(consume, config, lines, on_error):
    """The aggregator `consume` fills from `lines`, and the ParseError it
    raised, if any."""
    agg = Aggregator(config)
    try:
        consume(agg, lines, on_error)
    except ParseError as exc:
        return agg, exc
    return agg, None


class TestConsumeLinesMatchesReference:
    """`Aggregator.consume_lines` gives the counters, the counts and the
    ParseError of `parse_line` plus the reference record fold."""

    @staticmethod
    def _check(config, lines, on_error):
        fast, fast_error = _consumed(Aggregator.consume_lines, config, lines, on_error)
        ref, ref_error = _consumed(oracles.consume_lines_reference, config, lines, on_error)
        assert fast.counters == ref.counters
        assert _canonical(fast) == _canonical(ref)
        assert (fast_error is None) == (ref_error is None)
        if ref_error is not None:
            assert (fast_error.line_number, fast_error.reason) == (ref_error.line_number, ref_error.reason)
            assert str(fast_error) == str(ref_error)

    @given(_CONFIGS, st.lists(_corpus_lines(), max_size=30), st.sampled_from(["skip", "abort"]))
    @settings(max_examples=400, deadline=None)
    def test_random_lines(self, config, lines, on_error):
        self._check(config, lines, on_error)

    @pytest.mark.parametrize("on_error", ["skip", "abort"])
    def test_every_piece(self, on_error):
        """Each piece once beside plain values, with case folding on and off."""
        lines = [f"{ngram}\t1995\t5\t1\n" for ngram in _NGRAMS]
        lines += [f"др\t{year}\t5\t1\n" for year in _YEARS]
        lines += [f"др .\t1995\t{count}\t1\n" for count in _COUNTS]
        lines += [f"др .\t1995\t12\t{count}\n" for count in _COUNTS]
        lines += ["др\t1995\t5\n", "др\t1995\t5\t1\t1\n", "др\t1995\r\t5\t1\n", "\n", ""]
        for case_fold in (False, True):
            config = IngestConfig(case_fold=case_fold)
            self._check(config, lines, "skip")
            if on_error == "abort":
                for line in lines:
                    self._check(config, ["слово\t2000\t7\t2\n", line], "abort")

    def test_counters_kept_up_to_an_abort(self):
        agg = Aggregator(CFG)
        lines = ["др\t1995\t5\t1\n", "др\t1989\t5\t1\n", "\n", "broken\n", "др\t1995\t5\t1\n"]
        with pytest.raises(ParseError, match="line 4: expected 4 tab-separated fields, got 1"):
            agg.consume_lines(lines, on_error="abort")
        assert (agg.counters.lines_parsed, agg.counters.lines_skipped) == (2, 0)
        agg.consume_lines(lines)
        assert (agg.counters.lines_parsed, agg.counters.lines_skipped) == (5, 1)


def _shard_lines(seed: int, count: int) -> str:
    import random

    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        word = rng.choice(["др", "гл", "тов", "слово", "год", "Word", "x1"])
        year = rng.randint(1985, 2010)
        match = rng.randint(1, 500)
        ngram = f"{word} ." if rng.random() < 0.5 else word
        lines.append(f"{ngram}\t{year}\t{match}\t{max(1, match // 5)}\n" if rng.random() < 0.9 else "bad line\n")
    return "".join(lines)


class TestFingerprints:
    """A shard's fingerprint, taken in the read that parses it, is the
    sha256 of the file's bytes, compressed or not."""

    @staticmethod
    def _files(tmp_path):
        text = _shard_lines(1, 300)
        one, two = text[: len(text) // 2].encode(), text[len(text) // 2:].encode()
        files = {
            "plain.tsv": text.encode(),
            "one.tsv.gz": gzip.compress(text.encode()),
            "two-members.tsv.gz": gzip.compress(one) + gzip.compress(two),
            "zero-padded.tsv.gz": gzip.compress(text.encode()) + bytes(1000),
            "empty.tsv": b"",
            "empty.tsv.gz": b"",
            "no-final-newline.tsv": text.rstrip("\n").encode(),
        }
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        return [tmp_path / name for name in files]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fingerprint_is_sha256_of_file(self, tmp_path, jobs):
        paths = self._files(tmp_path)
        agg = ingest_paths(paths, [], CFG, jobs=jobs)
        assert agg.fingerprints == {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}
        assert agg.fingerprints[str(paths[4])] == hashlib.sha256(b"").hexdigest()
        # every member of a multi-member archive is parsed: the three
        # archives and the plain file hold the same lines, the last file
        # all of them too
        once = Aggregator(CFG)
        once.consume_lines(_shard_lines(1, 300).splitlines(keepends=True))
        assert agg.counters.lines_parsed == 5 * once.counters.lines_parsed
        assert agg.counters.lines_skipped == 5 * once.counters.lines_skipped

    @pytest.mark.parametrize("name", ["big.tsv", "big.tsv.gz"])
    def test_unread_rest_is_hashed(self, tmp_path, name):
        """A block that stops reading early still leaves the digest of the
        whole file."""
        path = tmp_path / name
        data = _shard_lines(2, 60_000).encode()
        path.write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
        digest = hashlib.sha256()
        with read_input(path, digest) as handle:
            handle.readline()
        assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("files", [1, 2, 3, 5])
def test_state_bytes_independent_of_jobs(tmp_path, files):
    paths = []
    for index in range(files):
        path = tmp_path / f"shard{index}.tsv{'.gz' if index == 2 else ''}"
        data = _shard_lines(10 + index, 200).encode()
        path.write_bytes(gzip.compress(data) if index == 2 else data)
        paths.append(path)
    states = set()
    for jobs in (1, 2, 3, 4):
        out = tmp_path / f"jobs{jobs}.json"
        ingest_paths(paths[:1], paths[1:], CFG, jobs=jobs).save(out)
        states.add(out.read_bytes())
    assert len(states) == 1


class TestFilesAndPersistence:
    def test_gzip_and_plain_inputs_equal(self, tmp_path):
        lines = "др .\t1995\t120\t30\nдр\t1995\t200\t9\n"
        plain = tmp_path / "corpus.tsv"
        plain.write_text(lines, encoding="utf-8")
        zipped = tmp_path / "corpus.tsv.gz"
        with gzip.open(zipped, "wt", encoding="utf-8") as handle:
            handle.write(lines)
        a = ingest_paths([plain], [], CFG)
        b = ingest_paths([zipped], [], CFG)
        assert _canonical(a) == _canonical(b)

    def test_state_round_trip(self, tmp_path):
        agg = _fill([
            NgramRecord(("др", "."), 1995, 120, 30),
            NgramRecord(("др",), 1995, 200, 9),
        ])
        agg.fingerprints["x"] = "d" * 64
        path = tmp_path / "agg.json"
        agg.save(path)
        loaded = Aggregator.load(path)
        assert loaded.config == agg.config
        assert loaded.fingerprints == agg.fingerprints
        assert _canonical(loaded) == _canonical(agg)

    def test_state_round_trip_gzip_deterministic(self, tmp_path):
        agg = _fill([NgramRecord(("др",), 1995, 200, 9)])
        one = tmp_path / "a.json.gz"
        two = tmp_path / "b.json.gz"
        agg.save(one)
        agg.save(two)
        assert one.read_bytes() == two.read_bytes()
        assert _canonical(Aggregator.load(one)) == _canonical(agg)
        # header: no FNAME flag (the temporary file's name stays out) and mtime 0
        header = one.read_bytes()[:10]
        assert header[3] & 0x08 == 0 and header[4:8] == bytes(4)

    @pytest.mark.parametrize("name, digest", [
        ("agg.json", "d20636ba79e24d17f38a10c51b7edc6c97e52ff9cab1974b7e9caf405a402a46"),
        ("agg.json.gz", "6706fab3918110fbe3d3dde48002406a088d88ae64f5c0188191d6eac783e1aa"),
    ])
    def test_saved_state_bytes_frozen(self, tmp_path, monkeypatch, name, digest):
        """sha256 of the state `save` writes for a fixed synth corpus, plain
        and gzipped: a change to the payload or to how it is compressed
        fails here.  The corpus is ingested by relative path, so that the
        fingerprint keys do not depend on the temporary directory."""
        monkeypatch.chdir(tmp_path)
        generate_ngrams(make_spec(20, 200, seed=7), "1.tsv", "2.tsv")
        ingest_paths(["1.tsv"], ["2.tsv"]).save(name)
        assert hashlib.sha256(Path(name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", ["agg.json", "agg.json.gz"])
    def test_failed_save_leaves_old_state(self, tmp_path, monkeypatch, name):
        path = tmp_path / name
        agg = _fill([NgramRecord(("др",), 1995, 200, 9)])
        agg.save(path)
        old = path.read_bytes()
        state = agg.to_state()
        state["words"]["\ud800"] = {}  # a lone surrogate: encoding the payload fails mid-save
        monkeypatch.setattr(Aggregator, "to_state", lambda self: state)
        with pytest.raises(UnicodeEncodeError):
            agg.save(path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_reject_foreign_state(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError):
            Aggregator.load(path)

    @pytest.mark.parametrize("key", list(dict.fromkeys(
        ["2050", "1989", "x", "01995", " 1995", "1995.0", "-1995", *BAD_YEAR_SPELLINGS])))
    def test_year_keys_are_window_years(self, key):
        state = Aggregator().to_state()
        state["words"] = {"др": {"1995": [9, 10, 1], key: [1, 2, 1]}}
        with pytest.raises(ValueError, match=re.escape(f"'др' has year key {key!r}")):
            Aggregator.from_state(state)

    @pytest.mark.parametrize("limits, message", [
        ({"year_floor": 2100, "year_ceiling": 1500}, "year_floor 2100 is above year_ceiling 1500"),
        ({"year_floor": 2001}, "year window 1990..2008 is not inside year_floor..year_ceiling 2001..2100"),
        ({"year_ceiling": 2000}, "year window 1990..2008 is not inside year_floor..year_ceiling 1500..2000"),
    ], ids=["floor-above-ceiling", "window-below-floor", "window-above-ceiling"])
    def test_year_limits_hold_the_window(self, limits, message):
        with pytest.raises(ValueError, match=message):
            IngestConfig(**limits)
        state = Aggregator().to_state()
        state["config"].update(limits)
        with pytest.raises(ValueError, match=f"aggregate state: {message}"):
            Aggregator.from_state(state)

    def test_parallel_matches_sequential(self, tmp_path):
        import random

        rng = random.Random(5)
        lines = []
        for _ in range(400):
            word = rng.choice(["др", "гл", "тов", "слово", "год"])
            year = rng.randint(1990, 2008)
            count = rng.randint(1, 500)
            if rng.random() < 0.5:
                lines.append(f"{word} .\t{year}\t{count}\t{max(1, count // 5)}\n")
            else:
                lines.append(f"{word}\t{year}\t{count}\t{max(1, count // 5)}\n")
        shards = []
        for index in range(4):
            shard = tmp_path / f"shard{index}.tsv"
            shard.write_text("".join(lines[index::4]), encoding="utf-8")
            shards.append(shard)
        sequential = ingest_paths(shards, [], CFG, jobs=1)
        parallel = ingest_paths(shards, [], CFG, jobs=4)
        assert json.dumps(sequential.to_state(), sort_keys=True) == json.dumps(parallel.to_state(), sort_keys=True)

    def test_empty_input_set_rejected(self):
        with pytest.raises(ValueError):
            ingest_paths([], [], CFG)

    def test_case_fold_merges_forms(self):
        agg = Aggregator(IngestConfig(case_fold=True))
        oracles.add_record_reference(agg, NgramRecord(("Др", "."), 1995, 10, 1))
        oracles.add_record_reference(agg, NgramRecord(("др",), 1995, 30, 1))
        profile = agg.finalize()["др"]
        assert profile.series[1995].with_period == 10
        assert profile.series[1995].total == 30


class TestFromStateMatchesReference:
    """`from_state` checks each word in bulk and runs the per-cell checker
    only for a word that fails; it accepts and refuses what that checker
    (`oracles.from_state_reference`) does, with the same message."""

    @given(aggregate_states(max_count=2**70))
    @settings(max_examples=400, deadline=None)
    def test_same_verdict_message_and_counts(self, state):
        given_state = copy.deepcopy(state)
        try:
            want = oracles.from_state_reference(copy.deepcopy(state))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                Aggregator.from_state(state)
            assert str(got.value) == str(exc)
            return
        agg = Aggregator.from_state(state)
        assert agg._counts == want._counts
        assert [list(years) for years in agg._counts.values()] == [list(years) for years in want._counts.values()]
        assert (agg.config, agg.counters, agg.fingerprints) == (want.config, want.counters, want.fingerprints)
        assert state == given_state
        given_cells = {id(cell) for years in state["words"].values() for cell in years.values()}
        assert not given_cells & {id(cell) for years in agg._counts.values() for cell in years.values()}

    def test_loaded_cells_are_not_shared_with_to_state(self):
        source = _fill([NgramRecord(("др", "."), 1995, 120, 30), NgramRecord(("др",), 1995, 200, 9)])
        loaded = Aggregator.from_state(source.to_state())
        loaded.update(source)
        assert source._counts == {"др": {1995: [120, 200, 30]}}
        assert loaded._counts == {"др": {1995: [240, 400, 60]}}

    @pytest.mark.parametrize("key", ["9" * 5000, "-" + "1" * 5000])
    def test_year_key_too_long_for_int(self, key):
        state = Aggregator().to_state()
        state["words"] = {"др": {"1995": [9, 10, 1], key: [1, 2, 1]}}
        with pytest.raises(ValueError) as want:
            oracles.from_state_reference(copy.deepcopy(state))
        with pytest.raises(ValueError) as got:
            Aggregator.from_state(state)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("key", [1995, "9" * 5000], ids=["int", "5000-digits"])
    def test_year_key_that_is_no_year_string(self, key):
        """An int key, the shape of `_counts` itself, and a key with more
        digits than `int` converts both get the year-key message."""
        state = Aggregator().to_state()
        state["words"] = {"др": {key: [1, 2, 1]}}
        for load in (oracles.from_state_reference, Aggregator.from_state):
            with pytest.raises(ValueError) as got:
                load(copy.deepcopy(state))
            assert str(got.value) == f"aggregate state: 'др' has year key {key!r}, not a year in 1990..2008"


# raw counts with small values, so that years get clamped and filled, in
# an aggregate whose window is wider than most finalize windows
_RAW_COUNTS = st.dictionaries(
    st.sampled_from(["др", "гл", "слово"]),
    st.dictionaries(st.integers(1940, 2008), st.lists(st.integers(0, 30), min_size=3, max_size=3), max_size=8),
    max_size=3,
)
_FINALIZE_WINDOWS = st.none() | st.tuples(st.integers(1930, 2010), st.integers(0, 80)).map(
    lambda start: (start[0], start[0] + start[1]))
_WIDE = IngestConfig(year_min=1940, year_max=2008)


def _raw(counts) -> Aggregator:
    agg = Aggregator(_WIDE)
    agg._counts = {word: {year: list(cell) for year, cell in years.items()} for word, years in counts.items()}
    return agg


class TestFinalizeMatchesReference:
    """`finalize` computes the scalar fields, and its `series` builds
    each normalized `YearlyUsage` on read; both as the eager finalize
    (`oracles.finalize_reference`) gives them."""

    @given(_RAW_COUNTS, _FINALIZE_WINDOWS)
    @settings(max_examples=300, deadline=None)
    def test_every_field_and_series_item(self, counts, window):
        agg = _raw(counts)
        want = oracles.finalize_reference(agg, window)
        got = agg.finalize(window)
        assert list(got) == list(want)
        for word, profile in got.items():
            for field in fields(WordProfile):
                if field.name != "series":
                    assert getattr(profile, field.name) == getattr(want[word], field.name), field.name
            assert list(profile.series.items()) == list(want[word].series.items())
            assert len(profile.series) == len(want[word].series)
            assert profile == want[word]
            for year in range(1930, 2011):
                assert (year in profile.series) == (year in want[word].series)
                assert profile.series.get(year) == want[word].series.get(year)

    def test_series_is_read_only_and_reads_once(self):
        series = _raw({"др": {1995: [5, 3, 1], 1950: [2, 0, 1]}}).finalize()["др"].series
        assert list(series) == [1950, 1995]
        assert series[1995] is series[1995] == YearlyUsage(1995, 3, 3, 1)
        with pytest.raises(KeyError):
            series[1996]
        assert series.get(1996) is None and series.get(1996, "absent") == "absent"
        with pytest.raises(TypeError):
            series[1995] = YearlyUsage(1995, 0, 0, 0)

    @pytest.mark.parametrize("change", ["update", "consume_lines"])
    def test_series_does_not_change_after_the_aggregate_does(self, change):
        agg = _fill([NgramRecord(("др", "."), 1995, 120, 30), NgramRecord(("др",), 1995, 200, 9),
                     NgramRecord(("др",), 1996, 50, 9)])
        profile = agg.finalize()["др"]
        first_read = profile.series[1996]
        want = dict(oracles.finalize_reference(agg)["др"].series)
        lines = ["др .\t1995\t7\t1\n", "др\t1995\t70\t3\n", "др .\t1996\t9\t2\n", "др\t1997\t40\t2\n"]
        if change == "update":
            other = Aggregator(CFG)
            other.consume_lines(lines)
            agg.update(other)
        else:
            agg.consume_lines(lines)
        assert agg._counts["др"][1995] == [127, 270, 31] and 1997 in agg._counts["др"]
        assert dict(profile.series) == want and profile.series[1996] is first_read
        assert 1997 not in profile.series and len(profile.series) == 2


class TestFinalizeWindows:
    def test_narrower_aggregate_window(self):
        agg = Aggregator(IngestConfig(year_min=1940, year_max=2008))
        oracles.add_record_reference(agg, NgramRecord(("др", "."), 1950, 7, 1))
        oracles.add_record_reference(agg, NgramRecord(("др",), 1950, 10, 1))
        oracles.add_record_reference(agg, NgramRecord(("др", "."), 2000, 90, 9))
        oracles.add_record_reference(agg, NgramRecord(("др",), 2000, 100, 10))
        profile = agg.finalize((1990, 2008))["др"]
        assert 1950 in profile.series  # retained for dynamics
        assert profile.N_total == 100  # aggregates cover the sub-window only
        assert profile.window == (1990, 2008)
        assert profile.active_years == 1

    def test_every_year_normalized(self):
        agg = Aggregator(IngestConfig(year_min=1940, year_max=2008))
        oracles.add_record_reference(agg, NgramRecord(("др", "."), 1950, 7, 1))
        profile = agg.finalize((1990, 2008))["др"]
        assert profile.series[1950].total == 7


# the functions of `ingest` allowed to open files: the one reader, and
# the writer, which opens its file for writing or writes a pipe in place
READERS = ("read_input", "atomic_output")


def _reads(source: str, readers: tuple[str, ...] = ()) -> list[str]:
    """The reads of files or stdin in Python `source` that bypass
    `read_input`: ``.read_text``, ``.read_bytes``, ``gzip.open``,
    ``sys.stdin``, and any ``open`` call without a write mode, outside
    the top-level functions named in `readers`."""
    found = []
    statements = [s for s in ast.parse(source).body if getattr(s, "name", None) not in readers]
    for node in (node for statement in statements for node in ast.walk(statement)):
        if isinstance(node, ast.Attribute) and node.attr == "stdin" and getattr(node.value, "id", "") == "sys":
            found.append("sys.stdin")
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in ("read_text", "read_bytes"):
            found.append(name)
        elif name == "open" and getattr(func, "value", None) is not None and getattr(func.value, "id", "") == "gzip":
            found.append("gzip.open")
        elif name == "open":
            modes = [*node.args[:2], *(k.value for k in node.keywords if k.arg == "mode")]
            if not any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wxa+") for m in modes):
                found.append("open")
    return found


def test_only_ingest_reads_inputs():
    package = Path(abbrevkit.__file__).parent
    found = {
        path.name: _reads(path.read_text(encoding="utf-8"), READERS if path.name == "ingest.py" else ())
        for path in sorted(package.glob("*.py"))
    }
    assert not any(found.values()), found


@pytest.mark.parametrize("source, expected", [
    ("sys.stdin.buffer.read()", ["sys.stdin"]),
    ("Path(p).read_text(encoding='utf-8')", ["read_text"]),
    ("p.read_bytes()", ["read_bytes"]),
    ("gzip.open(p, 'wb')", ["gzip.open"]),
    ("open(p)", ["open"]),
    ("open(p, 'rb')", ["open"]),
    ("open(p, mode=m)", ["open"]),
    ("io.open(p, encoding='utf-8')", ["open"]),
    ("open(p, 'w', encoding='utf-8'); p.open('ab'); open(p, mode='x')", []),
])
def test_read_guard_sees_each_read(source, expected):
    assert _reads(source) == expected


def test_read_guard_skips_only_the_readers():
    source = "def read_input(p):\n    open(p)\nclass A:\n    def read_input(self, p):\n        open(p, 'rb')\n"
    assert _reads(source, READERS) == ["open"]
    assert _reads(source) == ["open", "open"]


def _gzip_names(source: str, allowed: tuple[str, ...] = ()) -> list[str]:
    """Where Python `source` names `gzip` outside the top-level functions
    in `allowed`: a use of the name, an import of it under another name,
    or an import from it.  A plain ``import gzip`` names nothing by itself."""
    found = []
    statements = [s for s in ast.parse(source).body if getattr(s, "name", None) not in allowed]
    for node in (node for statement in statements for node in ast.walk(statement)):
        if isinstance(node, ast.Name) and node.id == "gzip":
            found.append(f"line {node.lineno}: gzip")
        elif isinstance(node, ast.alias) and node.name == "gzip" and node.asname:
            found.append(f"line {node.lineno}: import gzip as {node.asname}")
        elif isinstance(node, ast.ImportFrom) and node.module == "gzip":
            found.append(f"line {node.lineno}: from gzip import")
    return found


def test_one_gzip_rule():
    """A name ending in ``.gz`` is gzip: `read_input` gunzips every input
    by it and `atomic_output` gzips every output file, and no other code
    of the package names `gzip`."""
    package = Path(abbrevkit.__file__).parent
    found = {
        path.name: _gzip_names(path.read_text(encoding="utf-8"), READERS if path.name == "ingest.py" else ())
        for path in sorted(package.glob("*.py"))
    }
    assert not any(found.values()), found


@pytest.mark.parametrize("source, expected", [
    ("import gzip", []),
    ("gzip.open(p, 'wb')", ["line 1: gzip"]),
    ("with gzip.GzipFile(fileobj=raw, mode='wb') as out:\n    pass", ["line 1: gzip"]),
    ("import gzip as g", ["line 1: import gzip as g"]),
    ("from gzip import GzipFile", ["line 1: from gzip import"]),
    ("def read_input(p):\n    gzip.open(p)\nclass Aggregator:\n    def save(self, p):\n        gzip.open(p, 'wb')",
     ["line 5: gzip"]),
])
def test_gzip_guard_sees_each_name(source, expected):
    assert _gzip_names(source, READERS) == expected


# the functions that turn text into an int: the one number rule, and the
# parse loop's inline fast path, which `TestConsumeLinesMatchesReference`
# pins to `parse_line`
NUMBER_READERS = ("parse_year", "parse_count", "Aggregator.consume_lines")


def _int_conversions(source: str, allowed: tuple[str, ...] = ()) -> list[str]:
    """Where Python `source` calls `int`, passes it to a call (``map(int,
    ...)``, ``type=int``) or puts it in a dict display (a table of casts),
    outside the functions named, with their classes, in `allowed`: the
    enclosing function of each, or ``<module>``.  A type test (``type(x)
    is int``, ``isinstance(x, int)``) and an annotation are none of these."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            if scope in allowed:
                return
        uses = []
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") not in ("isinstance", "issubclass"):
            uses = [node.func, *node.args, *(keyword.value for keyword in node.keywords)]
        elif isinstance(node, ast.Dict):
            uses = node.values
        found.extend(scope or "<module>" for use in uses if isinstance(use, ast.Name) and use.id == "int")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_only_the_number_rule_reads_ints():
    package = Path(abbrevkit.__file__).parent
    found = {name: _int_conversions((package / name).read_text(encoding="utf-8"), NUMBER_READERS)
             for name in ("cli.py", "ingest.py")}
    assert found == {"cli.py": [], "ingest.py": []}


@pytest.mark.parametrize("source, expected", [
    ("year = int(text)", ["<module>"]),
    ("lo, hi = map(int, value.split(':'))", ["<module>"]),
    ("p.add_argument('--year-floor', type=int)", ["<module>"]),
    ("casts = {'seed': int, 'years': tuple}", ["<module>"]),
    ("def f(x: int) -> dict[int, int]:\n    return type(x) is int or isinstance(x, int) or {int}", []),
    ("class Aggregator:\n    def consume_lines(self):\n        int(x)\ndef consume_lines():\n    int(x)",
     ["consume_lines"]),
    ("def parse_year(t):\n    return int(t)\ndef g():\n    def parse_count(t):\n        return int(t)",
     ["g.parse_count"]),
])
def test_int_guard_sees_each_conversion(source, expected):
    assert _int_conversions(source, NUMBER_READERS) == expected


def _ordered_maps(state: dict) -> dict:
    """A copy of `state` whose word map and year maps are OrderedDicts, as
    a library caller may pass them."""
    state = copy.deepcopy(state)
    if isinstance(state.get("words"), dict):
        state["words"] = OrderedDict(
            (word, OrderedDict(years) if isinstance(years, dict) else years) for word, years in state["words"].items()
        )
    return state


class TestFromStateDictSubclass:
    """Any dict loads as a plain one, in the same order; a faulty one is
    refused with the per-cell checker's message."""

    def test_loads_as_plain_dict(self):
        state = Aggregator().to_state()
        state["words"] = {"др": {"2001": [3, 9, 1], "1995": [1, 2, 1]}, "гл": {"1999": [0, 4, 2]}}
        plain = Aggregator.from_state(copy.deepcopy(state))
        ordered = Aggregator.from_state(_ordered_maps(state))
        assert ordered._counts == plain._counts == {"др": {2001: [3, 9, 1], 1995: [1, 2, 1]}, "гл": {1999: [0, 4, 2]}}
        assert [list(years) for years in ordered._counts.values()] == [[2001, 1995], [1999]]
        assert [type(years) for years in ordered._counts.values()] == [dict, dict]

    @pytest.mark.parametrize("years", [
        {"1995": [1, 2, 1], "1_995": [1, 2, 1]},
        {"1995": [1, 2]},
        {"1996": [1, 2, 1], "1995": [1, True, 1]},
        {"9" * 5000: [1, 2, 1]},
    ])
    def test_faulty_map_message(self, years):
        state = Aggregator().to_state()
        state["words"] = {"гл": {"1999": [0, 4, 2]}, "др": years}
        with pytest.raises(ValueError) as want:
            oracles.from_state_reference(copy.deepcopy(state))
        with pytest.raises(ValueError) as got:
            Aggregator.from_state(_ordered_maps(state))
        assert str(got.value) == str(want.value)

    @given(aggregate_states(max_count=2**70))
    @settings(max_examples=200, deadline=None)
    def test_same_verdict_message_and_counts(self, state):
        try:
            want = oracles.from_state_reference(copy.deepcopy(state))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                Aggregator.from_state(_ordered_maps(state))
            assert str(got.value) == str(exc)
            return
        agg = Aggregator.from_state(_ordered_maps(state))
        assert agg._counts == want._counts
        assert [list(years) for years in agg._counts.values()] == [list(years) for years in want._counts.values()]
