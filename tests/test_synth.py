import hashlib
import math
import random

import pytest

from abbrevkit.ingest import IngestConfig, ingest_paths, parse_line
from abbrevkit.likelihood import estimate_share_params
from abbrevkit.synth import SynthSpec, _index_below, generate_ngrams, generate_text, make_spec, make_vocabulary


def _render(record) -> str:
    return f"{' '.join(record.tokens)}\t{record.year}\t{record.match_count}\t{record.volume_count}"


class TestSpecValidation:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(abbrev_words={"а": 0.9}, common_words={"а": 0.1})

    def test_probability_domain(self):
        with pytest.raises(ValueError):
            SynthSpec(abbrev_words={"а": 1.2}, common_words={})

    def test_title_like_subset(self):
        with pytest.raises(ValueError):
            SynthSpec(abbrev_words={"а": 0.9}, common_words={}, title_like=("б",))

    def test_vocabulary_distinct(self):
        words = make_vocabulary(500)
        assert len(set(words)) == 500
        assert all(w.isalpha() for w in words)


class TestGenerateNgrams:
    def test_p_one_pairs_every_unigram(self, tmp_path):
        spec = SynthSpec(abbrev_words={"ъгл": 1.0}, common_words={}, years=(2000, 2002), seed=5)
        uni, bi = tmp_path / "1.tsv", tmp_path / "2.tsv"
        generate_ngrams(spec, uni, bi)
        unigrams = {}
        for line in uni.read_text(encoding="utf-8").splitlines():
            record = parse_line(line)
            unigrams[record.year] = record.match_count
        for line in bi.read_text(encoding="utf-8").splitlines():
            record = parse_line(line)
            assert record.tokens == ("ъгл", ".")
            assert record.match_count == unigrams[record.year]
        assert len(unigrams) == 3

    def test_p_zero_no_bigrams(self, tmp_path):
        spec = SynthSpec(abbrev_words={}, common_words={"год": 0.0}, years=(2000, 2005), seed=5)
        uni, bi = tmp_path / "1.tsv", tmp_path / "2.tsv"
        counts = generate_ngrams(spec, uni, bi)
        assert counts["bigram_lines"] == 0
        assert bi.read_text(encoding="utf-8") == ""

    def test_round_trip_parse_fixed_point(self, tmp_path):
        spec = make_spec(5, 10, seed=13)
        uni, bi = tmp_path / "1.tsv", tmp_path / "2.tsv"
        generate_ngrams(spec, uni, bi)
        for path in (uni, bi):
            for line in path.read_text(encoding="utf-8").splitlines():
                assert _render(parse_line(line)) == line

    def test_volume_invariant(self, tmp_path):
        spec = make_spec(5, 10, seed=13, totals_range=(1, 50))
        uni, bi = tmp_path / "1.tsv", tmp_path / "2.tsv"
        generate_ngrams(spec, uni, bi)
        for path in (uni, bi):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = parse_line(line)
                assert 1 <= record.volume_count <= record.match_count

    def test_deterministic_bytes(self, tmp_path):
        spec = make_spec(4, 8, seed=99)
        first = (tmp_path / "a1.tsv", tmp_path / "a2.tsv")
        second = (tmp_path / "b1.tsv", tmp_path / "b2.tsv")
        generate_ngrams(spec, *first)
        generate_ngrams(spec, *second)
        assert first[0].read_bytes() == second[0].read_bytes()
        assert first[1].read_bytes() == second[1].read_bytes()

    def test_failed_write_keeps_old_files(self, tmp_path):
        uni, bi = tmp_path / "1.tsv", tmp_path / "2.tsv"
        uni.write_bytes(b"old\n")
        bi.write_bytes(b"old\n")
        # a word no UTF-8 encoder takes fails the write after both files opened
        spec = SynthSpec(abbrev_words={"\ud800": 0.9}, common_words={"слово": 0.1})
        with pytest.raises(UnicodeEncodeError):
            generate_ngrams(spec, uni, bi)
        assert uni.read_bytes() == bi.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["1.tsv", "2.tsv"]

    def test_empirical_share_within_binomial_noise(self, tmp_path):
        spec = make_spec(3, 3, seed=21)
        uni, bi = tmp_path / "1.tsv", tmp_path / "2.tsv"
        generate_ngrams(spec, uni, bi)
        agg = ingest_paths([uni], [bi], IngestConfig())
        for word, profile in agg.finalize().items():
            p = spec.abbrev_words.get(word, spec.common_words.get(word))
            spread = 4 * math.sqrt(p * (1 - p) / profile.N_total)
            assert abs(profile.n_total / profile.N_total - p) <= spread

    def test_share_recovery_at_scale(self, tmp_path):
        # about 1e5 total draws per class
        spec = make_spec(4, 4, seed=8, totals_range=(1000, 2000))
        uni, bi = tmp_path / "1.tsv", tmp_path / "2.tsv"
        generate_ngrams(spec, uni, bi)
        profiles = ingest_paths([uni], [bi], IngestConfig()).finalize()
        est = estimate_share_params(
            profiles, sorted(spec.abbrev_words), sorted(spec.common_words),
            mean_window=(1990, 2008),
        )
        assert est.mean_p1 == pytest.approx(0.955, abs=0.02)
        assert est.mean_p0 == pytest.approx(0.068, abs=0.02)

    def test_period_comma_swap_emits_comma_bigrams(self, tmp_path):
        spec = SynthSpec(
            abbrev_words={"ъгл": 0.9}, common_words={}, years=(2000, 2008),
            seed=3, period_comma_swap=0.5,
        )
        uni, bi = tmp_path / "1.tsv", tmp_path / "2.tsv"
        generate_ngrams(spec, uni, bi)
        seconds = {parse_line(line).tokens[1] for line in bi.read_text(encoding="utf-8").splitlines()}
        assert seconds == {".", ","}


class TestIndexBelow:
    """`generate_text` draws every index through `_index_below`, which
    must make the draws `random.Random.choice` and `randint` make."""

    @pytest.mark.parametrize("n", sorted({*range(1, 71), *(2**k + d for k in range(1, 21) for d in (-1, 1))}))
    def test_same_draws_as_choice(self, n):
        ours, reference = random.Random(n), random.Random(n)
        below = _index_below(ours)
        k = n.bit_length()
        assert [below(n, k) for _ in range(100)] == [reference.choice(range(n)) for _ in range(100)]
        assert ours.getstate() == reference.getstate()

    def test_same_draws_as_randint(self):
        ours, reference = random.Random(5), random.Random(5)
        below = _index_below(ours)
        assert [2 + below(5, 3) for _ in range(1000)] == [reference.randint(2, 6) for _ in range(1000)]
        assert ours.getstate() == reference.getstate()


class TestGenerateText:
    def test_single_sentence_without_abbreviations(self):
        spec = SynthSpec(abbrev_words={}, common_words={"год": 0.1, "мир": 0.1}, seed=1)
        sample = generate_text(spec, 1)
        assert len(sample.boundaries) == 1
        assert sample.boundaries[0] == len(sample.text.encode("utf-8"))
        assert sample.text.endswith(".")
        assert sample.abbreviations == []

    def test_boundary_count_matches_sentences(self):
        spec = make_spec(6, 20, seed=17)
        sample = generate_text(spec, 123)
        assert len(sample.boundaries) == 123
        assert sorted(sample.boundaries) == sample.boundaries

    def test_deterministic(self):
        spec = make_spec(6, 20, seed=17)
        one, two = generate_text(spec, 50), generate_text(spec, 50)
        assert one.text == two.text
        assert one.boundaries == two.boundaries
        assert one.gold_json() == two.gold_json()

    def test_planted_abbreviation_before_lowercase_is_not_gold_boundary(self):
        spec = SynthSpec(
            abbrev_words={"ъгл": 0.955}, common_words={w: 0.068 for w in make_vocabulary(10)},
            seed=2,
        )
        sample = generate_text(spec, 60)
        text_bytes = sample.text.encode("utf-8")
        probe = "ъгл.".encode("utf-8")
        start = 0
        seen_mid = 0
        while True:
            at = text_bytes.find(probe, start)
            if at < 0:
                break
            end = at + len(probe)
            follower = text_bytes[end:end + 1]
            if follower == b" " and end not in sample.boundaries:
                seen_mid += 1
            start = end
        assert seen_mid > 0  # mid-sentence plants exist and are not boundaries

    def test_sentence_count_domain(self):
        spec = make_spec(2, 5, seed=0)
        with pytest.raises(ValueError):
            generate_text(spec, 0)

    def test_needs_common_words(self):
        with pytest.raises(ValueError):
            generate_text(SynthSpec(abbrev_words={}, common_words={}), 3)


_ABBREVS = make_vocabulary(4, prefix="ъ")
_COMMONS = {w: 0.1 for w in make_vocabulary(9)}


class TestFrozenOutput:
    """sha256 of generated bytes, pinned: a change to the generators'
    draws, their order or the rendering fails here.  The n-gram digests
    also depend on numpy's `default_rng` streams."""

    @pytest.mark.parametrize("spec, sentences, digest", [
        (make_spec(300, 2000, seed=5), 2000, "a97f2106ecc78591ba3bf849c627cecbacbd909552850814c4bc436d499cf4b4"),
        # int(3 * 0.3) == 0: abbreviations, none of them title-like
        (make_spec(3, 15), 200, "867e24bcc22d5665010e4bf5b78ea094eb533a84a6d7ac20c6fb4474b98c29e3"),
        # every abbreviation title-like: the plain ones fall back to all of them
        (SynthSpec(abbrev_words={w: 0.9 for w in _ABBREVS}, common_words=_COMMONS, seed=3,
                   title_like=tuple(_ABBREVS)), 200,
         "cd7b200e51e27e025303cb20a5d53a45c5065d1ea02042e7093c14f6b6a770fa"),
        (SynthSpec(abbrev_words={}, common_words=_COMMONS, seed=4), 200,
         "73c857ae64001a4ee4f21d10cf92f8ca0eb1c4f70ebc010b951043c1d971c3ca"),
    ], ids=["300x2000", "3x15", "all-title-like", "no-abbreviations"])
    def test_text(self, spec, sentences, digest):
        sample = generate_text(spec, sentences)
        # gold_json holds the other three fields
        assert hashlib.sha256((sample.text + "\n" + sample.gold_json()).encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("spec, lines, digests", [
        (make_spec(50, 1250, seed=6), (24700, 24628),
         ("4e982bce8f282061a334b95695b28de84a0af880da7067532bb56d2ea3753517",
          "73e8ab471ca6bd67334d2f83c87205bbeac055d94fb7be58517b24610941640d")),
        (SynthSpec(abbrev_words={w: 0.9 for w in _ABBREVS}, common_words=_COMMONS, seed=8,
                   totals_range=(1, 300), period_comma_swap=0.3), (247, 299),
         ("cbbedd989b76c7d7faa3a5f7dea205fc54b20d3cd55ac78eab1d9b1d4c3c1917",
          "73bff7c4cb8a1bd19902a563bd0e6a72662b188c5d08efb0a3e89f7771ea3cb1")),
    ], ids=["50x1250", "period-comma-swap"])
    def test_ngrams(self, tmp_path, spec, lines, digests):
        uni, bi = tmp_path / "1.tsv", tmp_path / "2.tsv"
        counts = generate_ngrams(spec, uni, bi)
        assert (counts["unigram_lines"], counts["bigram_lines"]) == lines
        assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (uni, bi)) == digests
