import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abbrevkit.segment import (
    KIND_ABBREV,
    KIND_NUMBER,
    KIND_PUNCT,
    KIND_WORD,
    DictionaryLoadError,
    LoadedDictionary,
    SentenceSpan,
    baseline_segment,
    dict_segment,
    load_dictionary,
    sentence_spans,
    sentence_texts,
    tokenize,
)
from abbrevkit import synth

import oracles
from helpers import boundary_f1, boundary_offsets, wide_texts


def _ends(spans):
    return [span.end for span in spans]


class TestBaseline:
    def test_two_plain_sentences(self):
        spans = baseline_segment("Он пришел. Она ушла.")
        assert len(spans) == 2

    def test_lowercase_continuation_single_sentence(self):
        assert len(baseline_segment("т. е. так")) == 1

    def test_abbreviation_before_capital_forced_split(self):
        # the known failure mode of the naive pattern
        assert len(baseline_segment("Смотри гл. Вторая часть")) == 2

    def test_empty_and_whitespace(self):
        assert baseline_segment("") == []
        assert baseline_segment("  \n\t ") == []

    def test_period_without_space_not_boundary(self):
        assert len(baseline_segment("гл.Вторая")) == 1

    def test_number_internal_period_not_boundary(self):
        assert len(baseline_segment("Это 3.14 примерно")) == 1

    def test_deterministic(self):
        text = "Ав. Бе ве. Ге де."
        assert baseline_segment(text) == baseline_segment(text)


class TestDictSegment:
    def test_dictionary_hit_lowercase_merges(self):
        loaded = LoadedDictionary({"гл"})
        tokens, sents = dict_segment("Смотри гл. вторая", loaded)
        assert len(sents) == 1
        fused = [t for t in tokens if t.kind == KIND_ABBREV]
        assert len(fused) == 1 and fused[0].text == "гл."

    def test_empty_dict_final_period_separate(self):
        tokens, sents = dict_segment("Он пришел.", LoadedDictionary(()))
        assert len(sents) == 1
        assert tokens[-1].kind == KIND_PUNCT and tokens[-1].text == "."

    def test_abbreviation_at_end_of_text_keeps_period(self):
        tokens, sents = dict_segment("Смотри гл.", LoadedDictionary({"гл"}))
        assert len(sents) == 1
        assert tokens[-1].kind == KIND_ABBREV
        assert sents[0].end == tokens[-1].end

    def test_hit_before_capital_still_boundary(self):
        tokens, sents = dict_segment("Смотри гл. Вторая часть", LoadedDictionary({"гл"}))
        assert len(sents) == 2
        assert tokens[1].kind == KIND_ABBREV  # attached despite the boundary

    def test_override_suppresses_boundary(self):
        loaded = LoadedDictionary({"гор"})
        _, plain = dict_segment("Он уехал в гор. Казань вчера", loaded)
        assert len(plain) == 2
        _, overridden = dict_segment("Он уехал в гор. Казань вчера", loaded, override={"гор"})
        assert len(overridden) == 1

    def test_numbers_never_consult_dictionary(self):
        loaded = LoadedDictionary({"3"})
        tokens, sents = dict_segment("Пи это 3.14 точно. Да.", loaded)
        assert len(sents) == 2
        assert any(t.kind == KIND_NUMBER and t.text == "3.14" for t in tokens)

    def test_case_fold_lookup(self):
        loaded = LoadedDictionary({"гл"}, case_fold=True)
        _, sents = dict_segment("Смотри Гл. вторая", loaded)
        assert len(sents) == 1

    def test_kind_invariant(self):
        loaded = LoadedDictionary({"гл"})
        tokens, _ = dict_segment("гл. и гл и х. гл.", loaded)
        for token in tokens:
            if token.kind == KIND_ABBREV:
                assert token.text.endswith(".")
                assert token.text[:-1] in loaded


class TestSpans:
    @staticmethod
    def _assert_lossless(text):
        source = text.encode("utf-8")
        tokens, sentences = dict_segment(text, LoadedDictionary({"гл", "др"}))
        cursor = 0
        rebuilt = bytearray()
        for token in tokens:
            assert cursor <= token.start <= token.end <= len(source)
            gap = source[cursor:token.start]
            assert gap.decode("utf-8").isspace() or gap == b""
            rebuilt += gap
            assert source[token.start:token.end].decode("utf-8") == token.text
            rebuilt += source[token.start:token.end]
            cursor = token.end
        rebuilt += source[cursor:]
        assert bytes(rebuilt) == source
        # sentences partition the token sequence
        expected_start = 0
        for span in sentences:
            assert span.token_start == expected_start
            assert span.token_end > span.token_start
            expected_start = span.token_end
        if tokens:
            assert expected_start == len(tokens)

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
        _, sents = dict_segment(text, LoadedDictionary(()))
        base = baseline_segment(text)
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
            _, sents = dict_segment(sample.text, LoadedDictionary(()))
            assert _ends(sents) == _ends(baseline_segment(sample.text))


class TestMonotoneDictionary:
    @given(
        st.text(alphabet="аб гГД.ё ", max_size=60),
        st.sets(st.sampled_from(["аб", "г", "ё", "гД"]), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_adding_words_never_adds_boundaries(self, text, words):
        _, before = dict_segment(text, LoadedDictionary(()))
        _, after = dict_segment(text, LoadedDictionary(words))
        assert len(after) <= len(before)
        assert set(_ends(after)) <= set(_ends(before))

    def test_incremental_growth(self):
        text = "Смотри гл. Вторая часть. Иди в гор. Казань."
        counts = []
        for words in [set(), {"гл"}, {"гл", "гор"}]:
            _, sents = dict_segment(text, LoadedDictionary(words), override={"гор"})
            counts.append(len(sents))
        assert counts == sorted(counts, reverse=True)


class TestSegmenterBeatsBaseline:
    def test_f1_on_planted_corpus(self):
        spec = synth.make_spec(12, 60, seed=11)
        sample = synth.generate_text(spec, 300)
        loaded = LoadedDictionary(spec.abbrev_words)
        _, sents = dict_segment(sample.text, loaded, override=spec.title_like)
        base = baseline_segment(sample.text)
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

    def test_bad_json(self, tmp_path):
        path = tmp_path / "dict.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DictionaryLoadError):
            load_dictionary(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DictionaryLoadError):
            load_dictionary(tmp_path / "absent.txt")


class TestTokenizeKinds:
    def test_classification(self):
        tokens = tokenize("Гл. 3.14 :— слово7")
        kinds = [(t.text, t.kind) for t in tokens]
        assert ("Гл", KIND_WORD) in kinds
        assert (".", KIND_PUNCT) in kinds
        assert ("3.14", KIND_NUMBER) in kinds
        assert ("слово", KIND_WORD) in kinds
        assert ("7", KIND_NUMBER) in kinds

    def test_sentence_texts_flatten_newlines(self):
        text = "Первое\nпредложение. Второе."
        _, sents = dict_segment(text, LoadedDictionary(()))
        lines = sentence_texts(text, sents)
        assert lines == ["Первое предложение.", "Второе."]


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
        assert dict_segment(text, loaded, override) == (expected_tokens, expected)
        assert tokenize(text, loaded) == expected_tokens
        assert sentence_spans(text, loaded, override) == [SentenceSpan(s.start, s.end) for s in expected]

    @given(wide_texts)
    @settings(max_examples=400, deadline=None)
    def test_baseline_and_tokens(self, text):
        assert baseline_segment(text) == oracles.baseline_segment_reference(text)
        assert sentence_spans(text) == oracles.baseline_segment_reference(text)
        assert tokenize(text) == oracles.tokenize_reference(text)

    def test_on_generated_texts(self):
        spec = synth.make_spec(12, 60, seed=11)
        text = synth.generate_text(spec, 300).text
        for case_fold in (False, True):
            loaded = LoadedDictionary(spec.abbrev_words, case_fold=case_fold)
            expected = oracles.dict_segment_reference(text, loaded, spec.title_like)
            assert dict_segment(text, loaded, spec.title_like) == expected
            assert tokenize(text, loaded) == expected[0]
            assert sentence_spans(text, loaded, spec.title_like) == [
                SentenceSpan(s.start, s.end) for s in expected[1]
            ]
        assert baseline_segment(text) == oracles.baseline_segment_reference(text)

    def test_override_only_acts_on_dictionary_stems(self):
        text = "Он уехал в гор. Казань. Вот ул. Ленина."
        loaded = LoadedDictionary({"гор"})
        spans = sentence_spans(text, loaded, override=["гор", "ул"])
        assert sentence_texts(text, spans) == ["Он уехал в гор. Казань.", "Вот ул.", "Ленина."]
