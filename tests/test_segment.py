import ast
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abbrevkit.segment import (
    KIND_ABBREV,
    KIND_NUMBER,
    KIND_PUNCT,
    KIND_WORD,
    SentenceSpan,
    sentence_texts,
    token_columns,
)
from abbrevkit import segment as segment_module
from abbrevkit import synth
from abbrevkit.dictionary import (
    BuildOptions,
    DictionaryLoadError,
    LoadedDictionary,
    build_dictionary,
    dictionary_to_json,
    dictionary_to_tsv,
    dictionary_to_wordlist,
    load_dictionary,
)
from abbrevkit.ingest import Aggregator, is_word

import oracles
from helpers import WIDE_ATOMS, boundary_f1, boundary_offsets, texts_of, wide_texts


def _ends(spans):
    return [span.end for span in spans]


def _untokenized(sentences):
    """`sentences` without their token ranges, as the oracles build them."""
    return [SentenceSpan(s.start, s.end) for s in sentences]


class TestBaseline:
    """The baseline is `token_columns` with the empty dictionary."""

    def test_two_plain_sentences(self):
        _, spans = token_columns("Он пришел. Она ушла.")
        assert len(spans) == 2

    def test_lowercase_continuation_single_sentence(self):
        assert len(token_columns("т. е. так")[1]) == 1

    def test_abbreviation_before_capital_forced_split(self):
        # the known failure mode of the naive pattern
        assert len(token_columns("Смотри гл. Вторая часть")[1]) == 2

    def test_empty_and_whitespace(self):
        assert token_columns("")[1] == []
        assert token_columns("  \n\t ")[1] == []

    def test_period_without_space_not_boundary(self):
        assert len(token_columns("гл.Вторая")[1]) == 1

    def test_number_internal_period_not_boundary(self):
        assert len(token_columns("Это 3.14 примерно")[1]) == 1

    def test_deterministic(self):
        text = "Ав. Бе ве. Ге де."
        assert token_columns(text) == token_columns(text)


class TestDictSegment:
    def test_dictionary_hit_lowercase_merges(self):
        loaded = LoadedDictionary({"гл"})
        (texts, _, _, kinds), sents = token_columns("Смотри гл. вторая", loaded)
        assert len(sents) == 1
        assert [text for text, kind in zip(texts, kinds) if kind == KIND_ABBREV] == ["гл."]

    def test_empty_dict_final_period_separate(self):
        (texts, _, _, kinds), sents = token_columns("Он пришел.", LoadedDictionary(()))
        assert len(sents) == 1
        assert kinds[-1] == KIND_PUNCT and texts[-1] == "."

    def test_abbreviation_at_end_of_text_keeps_period(self):
        (_, _, ends, kinds), sents = token_columns("Смотри гл.", LoadedDictionary({"гл"}))
        assert len(sents) == 1
        assert kinds[-1] == KIND_ABBREV
        assert sents[0].end == ends[-1]

    def test_hit_before_capital_still_boundary(self):
        (_, _, _, kinds), sents = token_columns("Смотри гл. Вторая часть", LoadedDictionary({"гл"}))
        assert len(sents) == 2
        assert kinds[1] == KIND_ABBREV  # attached despite the boundary

    def test_override_suppresses_boundary(self):
        loaded = LoadedDictionary({"гор"})
        _, plain = token_columns("Он уехал в гор. Казань вчера", loaded)
        assert len(plain) == 2
        _, overridden = token_columns("Он уехал в гор. Казань вчера", loaded, override={"гор"})
        assert len(overridden) == 1

    def test_numbers_never_consult_dictionary(self):
        loaded = LoadedDictionary({"3"})
        (texts, _, _, kinds), sents = token_columns("Пи это 3.14 точно. Да.", loaded)
        assert len(sents) == 2
        assert ("3.14", KIND_NUMBER) in zip(texts, kinds)

    def test_case_fold_lookup(self):
        loaded = LoadedDictionary({"гл"}, case_fold=True)
        _, sents = token_columns("Смотри Гл. вторая", loaded)
        assert len(sents) == 1

    def test_kind_invariant(self):
        loaded = LoadedDictionary({"гл"})
        (texts, _, _, kinds), _ = token_columns("гл. и гл и х. гл.", loaded)
        for text, kind in zip(texts, kinds):
            if kind == KIND_ABBREV:
                assert text.endswith(".")
                assert text[:-1] in loaded


class TestSpans:
    @staticmethod
    def _assert_lossless(text):
        source = text.encode("utf-8")
        (texts, starts, ends, _), sentences = token_columns(text, LoadedDictionary({"гл", "др"}))
        cursor = 0
        rebuilt = bytearray()
        for token_text, start, end in zip(texts, starts, ends):
            assert cursor <= start <= end <= len(source)
            gap = source[cursor:start]
            assert gap.decode("utf-8").isspace() or gap == b""
            rebuilt += gap
            assert source[start:end].decode("utf-8") == token_text
            rebuilt += source[start:end]
            cursor = end
        rebuilt += source[cursor:]
        assert bytes(rebuilt) == source
        # sentences partition the token sequence
        expected_start = 0
        for span in sentences:
            assert span.token_start == expected_start
            assert span.token_end > span.token_start
            expected_start = span.token_end
        if texts:
            assert expected_start == len(texts)

    def test_spans_reconstruct_fixtures(self):
        for text in [
            "Он пришел. Она ушла.",
            "т. е. так",
            "Смотри гл. вторая, и др. тоже.",
            "Это 3.14. Вот 2,5 и 1.",
            "  отступ в начале. И в конце.  ",
            "многострочный\nтекст. Вторая строка.",
            "",
        ]:
            self._assert_lossless(text)

    @given(st.text(alphabet="абвГД .,!?310\n\t ёЯ", max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_spans_reconstruct_random(self, text):
        self._assert_lossless(text)


class TestBaselineEquivalence:
    @given(st.text(alphabet="абвГД .,310\n я", max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_empty_dictionary_matches_baseline(self, text):
        _, sents = token_columns(text, LoadedDictionary(()))
        base = oracles.baseline_segment_reference(text)
        assert [(s.start, s.end) for s in sents] == [(s.start, s.end) for s in base]

    def test_on_generated_texts(self):
        spec = synth.make_spec(6, 30, seed=3)
        for seed in range(10):
            sample = synth.generate_text(
                synth.SynthSpec(
                    abbrev_words=spec.abbrev_words,
                    common_words=spec.common_words,
                    seed=seed,
                    title_like=spec.title_like,
                ),
                sentence_count=25,
            )
            _, sents = token_columns(sample.text, LoadedDictionary(()))
            assert _ends(sents) == _ends(oracles.baseline_segment_reference(sample.text))


class TestMonotoneDictionary:
    @given(
        st.text(alphabet="аб гГД.ё ", max_size=60),
        st.sets(st.sampled_from(["аб", "г", "ё", "гД"]), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_adding_words_never_adds_boundaries(self, text, words):
        _, before = token_columns(text, LoadedDictionary(()))
        _, after = token_columns(text, LoadedDictionary(words))
        assert len(after) <= len(before)
        assert set(_ends(after)) <= set(_ends(before))

    def test_incremental_growth(self):
        text = "Смотри гл. Вторая часть. Иди в гор. Казань."
        counts = []
        for words in [set(), {"гл"}, {"гл", "гор"}]:
            _, sents = token_columns(text, LoadedDictionary(words), override={"гор"})
            counts.append(len(sents))
        assert counts == sorted(counts, reverse=True)


class TestSegmenterBeatsBaseline:
    def test_f1_on_planted_corpus(self):
        spec = synth.make_spec(12, 60, seed=11)
        sample = synth.generate_text(spec, 300)
        loaded = LoadedDictionary(spec.abbrev_words)
        _, sents = token_columns(sample.text, loaded, override=spec.title_like)
        _, base = token_columns(sample.text)
        _, _, dict_f1 = boundary_f1(boundary_offsets(sents), sample.boundaries)
        _, _, base_f1 = boundary_f1(boundary_offsets(base), sample.boundaries)
        assert dict_f1 > base_f1
        assert dict_f1 == 1.0


class TestLoadDictionary:
    def test_plain_list(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("др\nгл\nтов\n", encoding="utf-8")
        loaded = load_dictionary(path)
        assert len(loaded) == 3 and "гл" in loaded and "нет" not in loaded

    def test_tsv_matches_plain(self, tmp_path):
        tsv = tmp_path / "dict.tsv"
        tsv.write_text(
            "др\t0.96\t10\t10\t5\t3\tmedian-threshold\t-\n"
            "гл\t0.99\t20\t20\t9\t9\tlrt\tlow-volume\n",
            encoding="utf-8",
        )
        plain = tmp_path / "dict.txt"
        plain.write_text("др\nгл\n", encoding="utf-8")
        a, b = load_dictionary(tsv), load_dictionary(plain)
        for stem in ("др", "гл", "x"):
            assert (stem in a) == (stem in b)

    def test_json_document(self, tmp_path):
        doc = {
            "format": "abbrevkit-dictionary",
            "version": 1,
            "build_meta": {"case_fold": True},
            "entries": [{"word": "Гл"}],
        }
        path = tmp_path / "dict.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        loaded = load_dictionary(path)
        assert loaded.case_fold and "гл" in loaded and "ГЛ" in loaded

    def test_malformed_tsv_line_number(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("др\t0.9\t1\t1\t1\t1\tmedian-threshold\t-\nброкен\tx\n", encoding="utf-8")
        with pytest.raises(DictionaryLoadError) as err:
            load_dictionary(path)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\v", "\f", "\x1c", "\x1d", "\x1e"])
    @pytest.mark.parametrize("content, line_number", [
        ("гл{}др\nbad!\n", 1),
        ("гл{}др", 1),
        ("гл{}\nbad!\n", 1),  # not stripped from the end of a line: only spaces and tabs are
    ])
    def test_lines_end_at_newlines_only(self, tmp_path, separator, content, line_number):
        # as in every other input; the word rule refuses a separator inside a word
        path = tmp_path / "words.txt"
        path.write_text(content.format(separator), encoding="utf-8")
        with pytest.raises(DictionaryLoadError) as err:
            load_dictionary(path)
        assert err.value.line_number == line_number

    @pytest.mark.parametrize("space", ["\u00a0", "\u2028", "\u3000", "\x1f"])
    @pytest.mark.parametrize("content, line_number", [
        ("гл{}\n", 1), ("{}гл\n", 1), ("{}\n", 1), ("{}# comment\n", 1),
        ("др\n{}\n", 2), ("др{}\t0.96\t10\t10\t5\t3\tmedian-threshold\t-\n", 1),
    ], ids=["trailing", "leading", "blank", "comment", "blank-second", "tsv-word"])
    def test_only_spaces_and_tabs_are_stripped(self, tmp_path, space, content, line_number):
        # a word ingest can never count, or a line only another space makes blank, is refused
        path = tmp_path / "words.txt"
        path.write_text(content.format(space), encoding="utf-8")
        with pytest.raises(DictionaryLoadError) as err:
            load_dictionary(path)
        assert err.value.line_number == line_number

    def test_spaces_and_tabs_are_stripped(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text(" \tгл \t\n  \n\t# comment\n др\t0.96\t10\t10\t5\t3\tmedian-threshold\t- \n", encoding="utf-8")
        assert load_dictionary(path).words == ("гл", "др")

    # a row as `dictionary_to_tsv` writes it, then each of columns 2-8 spelt as it never writes it
    _TSV_ROW = ["гл", "0.96", "10", "10", "5", "3", "median-threshold", "-"]

    @pytest.mark.parametrize("column, value, named", [
        (1, "x", "median_share 'x'"), (1, "", "median_share ''"), (1, "0.960", "median_share '0.960'"),
        (1, " 0.96", "median_share ' 0.96'"), (1, "1_0", "median_share '1_0'"), (1, "nan", "median_share 'nan'"),
        (1, "inf", "median_share 'inf'"), (1, "1.5", "median_share '1.5'"), (1, "-0.5", "median_share '-0.5'"),
        (2, "y", "n_total 'y'"), (2, "-1", "n_total '-1'"), (2, "+1", "n_total '+1'"), (2, "1.0", "n_total '1.0'"),
        (3, "", "N_total ''"), (3, "1_0", "N_total '1_0'"), (4, "\u0661", "volumes_total '\u0661'"),
        (5, " 3", "active_years ' 3'"), (6, "median", "verdict_method 'median'"),
        (6, "both-must-agree", "verdict_method 'both-must-agree'"), (6, "LRT", "verdict_method 'LRT'"),
        (7, "junk,a", "flags 'junk,a'"), (7, "a,a", "flags 'a,a'"), (7, "a,,b", "flags 'a,,b'"),
        (7, "a,", "flags 'a,'"), (7, "-,a", "flags '-,a'"),
    ])
    def test_tsv_columns_read_back_as_written(self, tmp_path, column, value, named):
        row = list(self._TSV_ROW)
        row[column] = value
        path = tmp_path / "dict.tsv"
        path.write_text("\t".join(self._TSV_ROW) + "\n" + "\t".join(row) + "\n", encoding="utf-8")
        with pytest.raises(DictionaryLoadError) as err:
            load_dictionary(path)
        assert err.value.line_number == 2
        assert str(err.value).startswith(f"dictionary {path} line 2: {named} ")

    @pytest.mark.parametrize("column, value", [
        (1, "-"), (1, "0.0"), (1, "1.0"), (1, "1e-05"), (1, "0.3333333333333333"), (2, "0"), (3, "007"),
        (5, "18446744073709551616"), (6, "lrt"), (7, "clamped-counts"), (7, "a,b,c"),
    ])
    def test_tsv_columns_as_written_load(self, tmp_path, column, value):
        row = list(self._TSV_ROW)
        row[column] = value
        path = tmp_path / "dict.tsv"
        path.write_text("\t".join(row) + "\n", encoding="utf-8")
        assert load_dictionary(path).words == ("гл",)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "dict.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DictionaryLoadError):
            load_dictionary(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DictionaryLoadError):
            load_dictionary(tmp_path / "absent.txt")


# aggregate word keys: letters, "#", digits, punctuation, whitespace,
# combining marks and the capital whose lower() adds one
_KEY_TEXTS = st.text(st.sampled_from([*"дрaZ#1²._-, ", "\t", "\n", "\u0301", "\u0307", "İ"]), max_size=5)


class TestWordRuleRoundTrip:
    """An aggregate `from_state` accepts builds into TSV, JSON and word
    list, and each loads back as exactly the words built."""

    @given(st.lists(_KEY_TEXTS, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_build_outputs_load_as_built(self, tmp_path_factory, keys):
        state = Aggregator().to_state()
        state["words"] = {key: {"1995": [19, 20, 2], "1996": [19, 20, 2]} for key in keys}
        try:
            agg = Aggregator.from_state(state)
        except ValueError:
            assert not all(map(is_word, keys))
            return
        options = BuildOptions(min_total=0, min_volumes=0, min_active_years=0)
        built = build_dictionary(agg.finalize(), options, agg.fingerprints)
        assert built.words() == sorted(set(keys))
        work = tmp_path_factory.mktemp("round-trip")
        for name, write in [("d.tsv", dictionary_to_tsv), ("d.json", dictionary_to_json),
                            ("d.txt", dictionary_to_wordlist)]:
            (work / name).write_text(write(built), encoding="utf-8")
            assert load_dictionary(work / name).words == tuple(built.words()), name


class TestTokenizeKinds:
    def test_classification(self):
        texts, _, _, token_kinds = token_columns("Гл. 3.14 :— слово7")[0]
        kinds = list(zip(texts, token_kinds))
        assert ("Гл", KIND_WORD) in kinds
        assert (".", KIND_PUNCT) in kinds
        assert ("3.14", KIND_NUMBER) in kinds
        assert ("слово", KIND_WORD) in kinds
        assert ("7", KIND_NUMBER) in kinds

    def test_sentence_texts_flatten_newlines(self):
        text = "Первое\nпредложение. Второе."
        assert sentence_texts(text, LoadedDictionary(())) == ["Первое предложение.", "Второе."]


class TestBoundaryF1:
    def test_perfect(self):
        assert boundary_f1([1, 2], [1, 2]) == (1.0, 1.0, 1.0)

    def test_partial(self):
        precision, recall, f1 = boundary_f1([1, 2, 3, 4], [1, 2])
        assert precision == 0.5 and recall == 1.0
        assert f1 == pytest.approx(2 / 3)

    def test_empty_both(self):
        assert boundary_f1([], []) == (1.0, 1.0, 1.0)

    def test_empty_prediction(self):
        assert boundary_f1([], [5]) == (0.0, 0.0, 0.0)


def _drawn_dictionary(data, text):
    """A dictionary and an override list drawn from the text's own letter
    runs and their case variants, with case folding on or off; the
    override list mostly repeats dictionary words, where it matters."""
    runs = sorted({v for run in re.findall(r"[^\W\d_]+", text) for v in (run, run.lower(), run.upper())})
    case_fold = data.draw(st.booleans())
    if not runs:
        return LoadedDictionary((), case_fold=case_fold), []
    words = sorted(data.draw(st.sets(st.sampled_from(runs))))
    override = data.draw(st.lists(st.sampled_from(words))) if words else []
    override += data.draw(st.lists(st.sampled_from(runs), max_size=3))
    return LoadedDictionary(words, case_fold=case_fold), override


class TestPeriodRuleMatchesOracles:
    """The period rule against the token walk and the character scan it
    replaced (tests/oracles.py): same tokens, spans and boundaries."""

    @given(wide_texts, st.data())
    @settings(max_examples=400, deadline=None)
    def test_dict_segment_and_spans(self, text, data):
        loaded, override = _drawn_dictionary(data, text)
        expected_tokens, expected = oracles.dict_segment_reference(text, loaded, override)
        columns, sentences = token_columns(text, loaded, override)
        assert (list(zip(*columns)), sentences) == (expected_tokens, expected)
        assert list(zip(*token_columns(text, loaded)[0])) == expected_tokens

    @given(wide_texts)
    @settings(max_examples=400, deadline=None)
    def test_baseline_and_tokens(self, text):
        columns, sentences = token_columns(text)
        assert _untokenized(sentences) == oracles.baseline_segment_reference(text)
        assert list(zip(*columns)) == oracles.tokenize_reference(text)

    def test_on_generated_texts(self):
        spec = synth.make_spec(12, 60, seed=11)
        text = synth.generate_text(spec, 300).text
        for case_fold in (False, True):
            loaded = LoadedDictionary(spec.abbrev_words, case_fold=case_fold)
            expected = oracles.dict_segment_reference(text, loaded, spec.title_like)
            columns, sentences = token_columns(text, loaded, spec.title_like)
            assert (list(zip(*columns)), sentences) == expected
            assert list(zip(*token_columns(text, loaded)[0])) == expected[0]
        assert _untokenized(token_columns(text)[1]) == oracles.baseline_segment_reference(text)

    def test_override_only_acts_on_dictionary_stems(self):
        text = "Он уехал в гор. Казань. Вот ул. Ленина."
        loaded = LoadedDictionary({"гор"})
        assert sentence_texts(text, loaded, ["гор", "ул"]) == ["Он уехал в гор. Казань.", "Вот ул.", "Ленина."]


# the oracle alphabet led by whitespace, with whitespace that Python's
# `\s` and `str.rstrip` take but a space-only rule would not (file
# separator, next line), a number ending in a period, an ellipsis and a
# stem with its period, anywhere and at the text's end
_EDGE_ATOMS = ["\x1c", "\x85", "1.5.", "...", "гл."]
_PIECE_TEXTS = st.builds(
    lambda lead, body, tail: lead + body + tail,
    st.sampled_from(["", " ", "\n\u00a0", "\u3000", "\x1c", "\x85 "]),
    texts_of([*WIDE_ATOMS, *_EDGE_ATOMS]),
    st.sampled_from(["", *_EDGE_ATOMS]),
)


class TestColumnsMatchChunkReference:
    """`token_columns` gives the columns and sentences of the chunk-level
    tokenizer it replaced (tests/oracles.py), and never gives one token
    text two kinds, which the ``--spans`` writer's one template per text
    relies on."""

    @given(_PIECE_TEXTS, st.data())
    @settings(max_examples=500, deadline=None)
    def test_columns_and_sentences(self, text, data):
        if data.draw(st.booleans(), label="baseline"):
            loaded, override = segment_module.EMPTY_DICTIONARY, []
        else:
            loaded, override = _drawn_dictionary(data, text)  # case-fold drawn too
        columns, sentences = token_columns(text, loaded, override)
        assert (columns, sentences) == oracles.token_columns_reference(text, loaded, override)
        kind_of = {}
        for token, kind in zip(columns[0], columns[3]):
            assert kind_of.setdefault(token, kind) == kind, token

    @pytest.mark.parametrize("text", ["", " ", "\x85", "гл.", " гл. Да", "1.5. Да\x1c", "Он... Да...", "\x1cгл.\x85Да гл."])
    @pytest.mark.parametrize("words, override", [((), ()), (("гл", "Он"), ()), (("гл", "Он"), ("гл",))])
    def test_edges(self, text, words, override):
        loaded = LoadedDictionary(words)
        assert token_columns(text, loaded, override) == oracles.token_columns_reference(text, loaded, override)


class TestProtectedStems:
    """The stems a capital cannot end a sentence after are the override
    words that start with a letter and are in the dictionary, under its
    case rule; each edge splits as the token walk does."""

    TEXT = ("Он 1. Далее ²гл. Вот гл. Там Гл. Здесь ГЛ. Итог ул. Конец . Снова ab. Next AB. Last")

    @staticmethod
    def _assert_matches_reference(text, loaded, override):
        expected_tokens, expected = oracles.dict_segment_reference(text, loaded, override)
        columns, sentences = token_columns(text, loaded, override)
        assert (list(zip(*columns)), sentences) == (expected_tokens, expected)

    @pytest.mark.parametrize("case_fold", [False, True])
    def test_empty_and_digit_led_stems_are_never_protected(self, case_fold):
        words = ["", "²гл", "гл"]
        loaded = LoadedDictionary(words, case_fold=case_fold)
        self._assert_matches_reference(self.TEXT, loaded, words)
        texts = sentence_texts(self.TEXT, loaded, words)
        assert "Он 1." in texts
        assert "Далее ²гл." in texts

    def test_mixed_case_override_under_case_fold(self):
        loaded = LoadedDictionary(["гл", "ab"], case_fold=True)
        override = ["ГЛ", "Ab"]
        self._assert_matches_reference(self.TEXT, loaded, override)
        texts = sentence_texts(self.TEXT, loaded, override)
        assert "Вот гл. Там Гл. Здесь ГЛ. Итог ул." in texts
        assert "Снова ab. Next AB. Last" in texts

    @pytest.mark.parametrize("case_fold", [False, True])
    def test_override_word_missing_from_dictionary(self, case_fold):
        loaded = LoadedDictionary(["гл"], case_fold=case_fold)
        override = ["гл", "ул", "ab"]
        self._assert_matches_reference(self.TEXT, loaded, override)
        texts = sentence_texts(self.TEXT, loaded, override)
        # ул and ab are override words only, so a capital ends a sentence after them
        assert any(sentence.endswith(" ул.") for sentence in texts) and "Снова ab." in texts


class TestFinalSigma:
    """Under case-fold a protected stem is lowercased in reading order:
    ``ΟΔΟΣ`` lowercases to ``οδος``, with a final sigma, where the
    reversed run ``ΣΟΔΟ`` would lowercase to ``σοδο``."""

    TEXT = "ΟΔΟΣ. Αθήνα вчера."

    def test_one_sentence(self):
        loaded = LoadedDictionary(["οδος"], case_fold=True)
        assert sentence_texts(self.TEXT, loaded, ["οδος"]) == [self.TEXT]
        columns, sentences = token_columns(self.TEXT, loaded, ["οδος"])
        assert columns[0][:2] == ["ΟΔΟΣ.", "Αθήνα"]
        assert _untokenized(sentences) == [SentenceSpan(0, len(self.TEXT.encode()))]
        # without the stem's protection the capital after it ends a sentence
        assert sentence_texts(self.TEXT, loaded) == ["ΟΔΟΣ.", "Αθήνα вчера."]


# the oracle alphabet plus whitespace of two and three UTF-8 bytes, on
# its own, around periods and leading a text
_CUT_TEXTS = st.builds(
    str.__add__,
    st.sampled_from(["", " ", "\n\u00a0", "\u3000", "\u2028\u0085 "]),
    texts_of([*WIDE_ATOMS, "\u00a0", "\u3000", "\u2028", "\u0085", ".\u0085Да", ".\u3000\u00a0Б", "Б. \u0085"]),
)


class TestCharCuts:
    """`sentence_texts` cuts on char offsets exactly the text that the
    sentence spans of `token_columns` cut on byte offsets, whitespace
    runs flattened."""

    @staticmethod
    def _span_texts(text, loaded, override):
        source = text.encode("utf-8")
        _, spans = token_columns(text, loaded, override)
        return [" ".join(source[s.start:s.end].decode("utf-8").split()) for s in spans]

    @given(_CUT_TEXTS, st.data())
    @settings(max_examples=400, deadline=None)
    def test_lines_are_the_span_texts(self, text, data):
        if data.draw(st.booleans(), label="baseline"):
            loaded, override = segment_module.EMPTY_DICTIONARY, []
        else:
            loaded, override = _drawn_dictionary(data, text)  # case-fold drawn too
        assert sentence_texts(text, loaded, override) == self._span_texts(text, loaded, override)

    @pytest.mark.parametrize("text", [
        "", " \t\n\u00a0\u3000\u2028\u0085", "\u0085  Он пришёл. Да", "Он пришёл. Да\u3000гл. Вторая",
    ], ids=["empty", "whitespace-only", "leading-whitespace", "no-final-period"])
    @pytest.mark.parametrize("words, case_fold", [((), False), (("гл",), False), (("ГЛ",), True)])
    def test_edges(self, text, words, case_fold):
        loaded = LoadedDictionary(words, case_fold=case_fold)
        lines = sentence_texts(text, loaded, ["гл"])
        assert lines == self._span_texts(text, loaded, ["гл"])
        assert all(line and line == " ".join(line.split()) for line in lines)
        assert sentence_texts(text) == self._span_texts(text, segment_module.EMPTY_DICTIONARY, [])


class _CountedPattern:
    """A compiled pattern that counts the calls of its methods."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.pattern, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


class TestOnePeriodScan:
    """`token_columns` reads its sentence boundaries from the one period
    scan: it runs the period pattern once.  The k-th candidate period pairs with the k-th
    whitespace-ended piece that ends in a period and has a piece after it, so the edges of
    that pairing each split as the token walk does."""

    TEXTS = [
        "  Он пришёл. Да",  # whitespace at the start
        "\n\tгл. Вторая. ",
        "Он пришёл. ",  # a period, whitespace and nothing after
        "Он пришёл. Да. ",
        "Он пришёл.\u00a0Да",  # whitespace that is not a space, then a capital
        "Он пришёл.\u2028Да",
        "Он пришёл.\u3000Да.\x1fНет",
        "Смотри гл. Вторая часть",  # a fused stem whose period ends a sentence
        "Смотри гл.",
        "Смотри гл. вторая гл.\nНовая",
        "Он.. Да",
        "Он .. Да. . Нет",
        "3. Да",
        "Пи 3.14. Да 1,5. Нет",
        "",
        " \n ",
        ".",
        ". Да",
    ]

    @pytest.mark.parametrize("text", TEXTS)
    @pytest.mark.parametrize("words, override", [((), ()), (("гл", "Он"), ()), (("гл", "Он"), ("гл",))])
    def test_edges_match_the_token_walk(self, monkeypatch, text, words, override):
        loaded = LoadedDictionary(words)
        pattern = _CountedPattern(segment_module._PERIOD_RE)
        monkeypatch.setattr(segment_module, "_PERIOD_RE", pattern)
        columns, sentences = token_columns(text, loaded, override)
        assert pattern.calls == 1
        assert (list(zip(*columns)), sentences) == oracles.dict_segment_reference(text, loaded, override)


def _splitter_uses(source):
    """Where `source` names `SentenceSpan` outside an annotation (to call
    it, alias it or take `SentenceSpan._make`) or reads `_PERIOD_RE`: a
    set of (name, owner) pairs, the owner being the module-level function
    or class the use sits in, or None at module level."""
    found = set()
    for statement in ast.parse(source).body:
        owner = getattr(statement, "name", None)
        annotations = set()
        for node in ast.walk(statement):  # parents first, so an annotation is marked before it is seen
            if id(node) in annotations:
                continue
            note = node.annotation if isinstance(node, (ast.arg, ast.AnnAssign)) else getattr(node, "returns", None)
            annotations.update(map(id, ast.walk(note)) if note else ())
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in ("SentenceSpan", "_PERIOD_RE") and isinstance(node.ctx, ast.Load):
                found.add((name, owner))
    return found


def test_one_sentence_splitter():
    """Sentences are built in `segment.token_columns` only, and the
    candidate periods found in `segment._period_verdicts` only: a second
    sentence splitter cannot come back unnoticed."""
    package = Path(segment_module.__file__).parent
    uses = {(path.stem, *use) for path in sorted(package.glob("*.py"))
            for use in _splitter_uses(path.read_text(encoding="utf-8"))}
    assert uses == {("segment", "SentenceSpan", "token_columns"), ("segment", "_PERIOD_RE", "_period_verdicts")}


@pytest.mark.parametrize("source, expected", [
    ("def f(t):\n    return [SentenceSpan(0, 1)]", {("SentenceSpan", "f")}),
    ("spans = [segment.SentenceSpan(0, 1)]", {("SentenceSpan", None)}),
    ("def f(rows):\n    return list(map(SentenceSpan._make, rows))", {("SentenceSpan", "f")}),
    ("Span = SentenceSpan\ndef f():\n    return Span(0, 1)", {("SentenceSpan", None)}),
    ("class C:\n    def m(self, t):\n        return _PERIOD_RE.finditer(t)", {("_PERIOD_RE", "C")}),
    ("def f(t):\n    def g():\n        return segment._PERIOD_RE\n    return g", {("_PERIOD_RE", "f")}),
    ("_PERIOD_RE = re.compile('.')\nspans: list[SentenceSpan] = []\n"
     "def f(s: SentenceSpan, *r: SentenceSpan) -> list[segment.SentenceSpan]:\n    return [s]", set()),
])
def test_splitter_guard_sees_each_use(source, expected):
    assert _splitter_uses(source) == expected
