import ast
import gzip
import itertools
import json
import statistics
import sys
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
    _letter_class,
    _median,
    ingest_paths,
    parse_line,
)

import oracles
from helpers import aggregate

CFG = IngestConfig()
RANGES = CFG.letter_ranges()


def _candidate(word: str, letter_ranges) -> bool:
    """The candidate filter `Aggregator.add_record` runs: `str.isalpha`,
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


class TestMedianOrder:
    """`_median` orders shares by integer cross-products, with the result
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
        agg.add_record(record)
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
            quarters[index % 4].add_record(record)
        combined = Aggregator(CFG)
        for quarter in quarters:
            combined.update(quarter)
        assert _canonical(combined) == _canonical(whole)

    def test_config_mismatch_rejected(self):
        with pytest.raises(ConfigMismatchError):
            _combined(Aggregator(IngestConfig(case_fold=True)), Aggregator(CFG))


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

    @pytest.mark.parametrize("key", ["2050", "1989", "x", "01995", " 1995", "1995.0", "-1995"])
    def test_year_keys_are_window_years(self, key):
        state = Aggregator().to_state()
        state["words"] = {"др": {"1995": [9, 10, 1], key: [1, 2, 1]}}
        with pytest.raises(ValueError, match=f"'др' has year key '{key}'"):
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
        agg.add_record(NgramRecord(("Др", "."), 1995, 10, 1))
        agg.add_record(NgramRecord(("др",), 1995, 30, 1))
        profile = agg.finalize()["др"]
        assert profile.series[1995].with_period == 10
        assert profile.series[1995].total == 30


class TestFinalizeWindows:
    def test_narrower_aggregate_window(self):
        agg = Aggregator(IngestConfig(year_min=1940, year_max=2008))
        agg.add_record(NgramRecord(("др", "."), 1950, 7, 1))
        agg.add_record(NgramRecord(("др",), 1950, 10, 1))
        agg.add_record(NgramRecord(("др", "."), 2000, 90, 9))
        agg.add_record(NgramRecord(("др",), 2000, 100, 10))
        profile = agg.finalize((1990, 2008))["др"]
        assert 1950 in profile.series  # retained for dynamics
        assert profile.N_total == 100  # aggregates cover the sub-window only
        assert profile.window == (1990, 2008)
        assert profile.active_years == 1

    def test_every_year_normalized(self):
        agg = Aggregator(IngestConfig(year_min=1940, year_max=2008))
        agg.add_record(NgramRecord(("др", "."), 1950, 7, 1))
        profile = agg.finalize((1990, 2008))["др"]
        assert profile.series[1950].total == 7


def _reads(source: str) -> list[str]:
    """The reads of files or stdin in Python `source` that bypass
    `read_input`: ``.read_text``, ``.read_bytes``, ``gzip.open``,
    ``sys.stdin``, and any ``open`` call without a write mode."""
    found = []
    for node in ast.walk(ast.parse(source)):
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
        path.name: _reads(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
        if path.name != "ingest.py"
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
