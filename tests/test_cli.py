import ast
import gzip
import importlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abbrevkit
from abbrevkit import dictionary, segment, synth
from abbrevkit.cli import build_parser, main
from abbrevkit.ingest import Aggregator

import oracles
from helpers import WIDE_ATOMS, texts_of

SPEC_DOC = {
    "abbrev_words": ["др", "гл", "тов", "гор", "ул"],
    "common_words": ["слово", "дом", "год", "мир", "лес", "река", "поле", "союз", "народ", "книга"],
    "default_p1": 0.955,
    "default_p0": 0.068,
    "years": [1990, 2008],
    "seed": 42,
    "title_like": ["гор", "ул"],
    "sentences": 40,
}


def _cli_env() -> dict:
    """The environment of a CLI subprocess that imports this checkout's abbrevkit."""
    src = str(Path(abbrevkit.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture()
def corpus(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC_DOC, ensure_ascii=False), encoding="utf-8")
    out = tmp_path / "corpus"
    assert main(["synth", "--spec", str(spec_path), "--out-dir", str(out)]) == 0
    return out


@pytest.fixture()
def aggregate_file(corpus, tmp_path):
    agg = tmp_path / "agg.json"
    code = main([
        "ingest",
        "--unigrams", str(corpus / "1grams.tsv"),
        "--bigrams", str(corpus / "2grams.tsv"),
        "--output", str(agg),
    ])
    assert code == 0
    return agg


class TestIngestCommand:
    def test_sharded_equals_concatenated(self, corpus, tmp_path):
        lines = (corpus / "1grams.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        shard_a = tmp_path / "a.tsv"
        shard_b = tmp_path / "b.tsv"
        shard_a.write_text("".join(lines[::2]), encoding="utf-8")
        shard_b.write_text("".join(lines[1::2]), encoding="utf-8")
        whole_out = tmp_path / "whole.json"
        split_out = tmp_path / "split.json"
        assert main(["ingest", "--unigrams", str(corpus / "1grams.tsv"), "--output", str(whole_out)]) == 0
        assert main(["ingest", "--unigrams", str(shard_a), str(shard_b), "--output", str(split_out)]) == 0
        whole = Aggregator.load(whole_out).to_state()
        split = Aggregator.load(split_out).to_state()
        assert whole["words"] == split["words"]
        assert whole["counters"] == split["counters"]

    def test_corrupt_line_skip_policy(self, corpus, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("дом\t1995\t10\t1\nброкен без табов\n", encoding="utf-8")
        out = tmp_path / "agg.json"
        assert main(["ingest", "--unigrams", str(bad), "--output", str(out)]) == 0
        agg = Aggregator.load(out)
        assert agg.counters.lines_skipped == 1
        assert agg.counters.lines_parsed == 1

    def test_corrupt_line_abort_policy(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("брокен без табов\n", encoding="utf-8")
        out = tmp_path / "agg.json"
        assert main(["ingest", "--unigrams", str(bad), "--output", str(out), "--on-error", "abort"]) == 1

    def test_empty_input_set_is_error(self, tmp_path):
        assert main(["ingest", "--output", str(tmp_path / "agg.json")]) == 1

    def test_missing_file_is_error(self, tmp_path):
        assert main(["ingest", "--unigrams", str(tmp_path / "nope.tsv"), "--output", str(tmp_path / "a.json")]) == 1

    def test_parallel_jobs_equal_output(self, corpus, tmp_path):
        seq, par = tmp_path / "seq.json", tmp_path / "par.json"
        args = ["--unigrams", str(corpus / "1grams.tsv"), "--bigrams", str(corpus / "2grams.tsv")]
        assert main(["ingest", *args, "--output", str(seq), "--jobs", "1"]) == 0
        assert main(["ingest", *args, "--output", str(par), "--jobs", "3"]) == 0
        assert seq.read_bytes() == par.read_bytes()


class TestBuildCommand:
    def test_build_and_rerun_identical(self, aggregate_file, tmp_path):
        outs = [tmp_path / "dict.tsv", tmp_path / "dict.json", tmp_path / "dict.txt"]
        args = [
            "build", "--aggregate", str(aggregate_file),
            "--out-tsv", str(outs[0]), "--out-json", str(outs[1]), "--out-words", str(outs[2]),
        ]
        assert main(args) == 0
        first = [p.read_bytes() for p in outs]
        assert main(args) == 0
        assert [p.read_bytes() for p in outs] == first
        words = outs[2].read_text(encoding="utf-8").split()
        assert words == sorted(SPEC_DOC["abbrev_words"])

    def test_requires_an_output(self, aggregate_file):
        assert main(["build", "--aggregate", str(aggregate_file)]) == 1

    def test_lrt_method_flag(self, aggregate_file, tmp_path):
        out = tmp_path / "dict.txt"
        assert main(["build", "--aggregate", str(aggregate_file), "--method", "lrt", "--out-words", str(out)]) == 0
        assert out.read_text(encoding="utf-8").split() == sorted(SPEC_DOC["abbrev_words"])

    def test_error_targets_raise_gate(self, aggregate_file, tmp_path, caplog):
        out = tmp_path / "dict.txt"
        assert main([
            "build", "--aggregate", str(aggregate_file), "--method", "lrt",
            "--alpha-target", "0.001", "--beta-target", "0.001",
            "--min-total", "0", "--out-words", str(out),
        ]) == 0

    def test_empty_aggregate_empty_dictionary(self, tmp_path):
        empty_src = tmp_path / "empty.tsv"
        empty_src.write_text("", encoding="utf-8")
        agg = tmp_path / "agg.json"
        assert main(["ingest", "--unigrams", str(empty_src), "--output", str(agg)]) == 0
        out = tmp_path / "dict.tsv"
        assert main(["build", "--aggregate", str(agg), "--out-tsv", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == ""

    def test_config_file_with_flag_override(self, aggregate_file, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"method": "lrt", "min_volumes": 1}), encoding="utf-8")
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["--config", str(config), "build", "--aggregate", str(aggregate_file), "--out-json", str(out_a)]) == 0
        assert json.loads(out_a.read_text(encoding="utf-8"))["build_meta"]["method"] == "lrt"
        assert main([
            "--config", str(config), "build", "--aggregate", str(aggregate_file),
            "--method", "median", "--out-json", str(out_b),
        ]) == 0
        doc = json.loads(out_b.read_text(encoding="utf-8"))
        assert doc["build_meta"]["method"] == "median"
        assert doc["build_meta"]["thresholds"]["min_volumes"] == 1


class TestStatsCommand:
    def test_all_reports_written_and_deterministic(self, corpus, aggregate_file, tmp_path):
        dict_path = tmp_path / "dict.tsv"
        assert main(["build", "--aggregate", str(aggregate_file), "--out-tsv", str(dict_path)]) == 0
        out_one, out_two = tmp_path / "r1", tmp_path / "r2"
        args = [
            "stats", "--aggregate", str(aggregate_file), "--dictionary", str(dict_path),
            "--seed-abbrevs", str(corpus / "abbreviations.txt"),
            "--seed-commons", str(tmp_path / "commons.txt"),
        ]
        (tmp_path / "commons.txt").write_text("слово\nдом\n", encoding="utf-8")
        assert main([*args, "--out-dir", str(out_one)]) == 0
        assert main([*args, "--out-dir", str(out_two)]) == 0
        names = sorted(p.name for p in out_one.iterdir())
        assert names == [
            "dynamics.json", "dynamics.tsv",
            "freq-by-length.json", "freq-by-length.tsv",
            "length-histogram.json", "length-histogram.tsv",
            "p-series.json", "p-series.tsv",
            "rare-cumulative.json", "rare-cumulative.tsv",
        ]
        for name in names:
            assert (out_one / name).read_bytes() == (out_two / name).read_bytes()

    def test_report_meta_carries_window_and_fingerprint(self, corpus, aggregate_file, tmp_path):
        dict_path = tmp_path / "dict.tsv"
        assert main(["build", "--aggregate", str(aggregate_file), "--out-tsv", str(dict_path)]) == 0
        out = tmp_path / "reports"
        assert main([
            "stats", "--aggregate", str(aggregate_file), "--dictionary", str(dict_path),
            "--reports", "length-histogram", "--out-dir", str(out),
        ]) == 0
        doc = json.loads((out / "length-histogram.json").read_text(encoding="utf-8"))
        assert doc["meta"]["window"] == [1990, 2008]
        assert len(doc["meta"]["dictionary_fingerprint"]) == 64

    def test_macro_estimation_flag(self, corpus, aggregate_file, tmp_path, capsys):
        commons = tmp_path / "commons.txt"
        commons.write_text("слово\nдом\n", encoding="utf-8")
        base_args = [
            "params", "--aggregate", str(aggregate_file),
            "--seed-abbrevs", str(corpus / "abbreviations.txt"),
            "--seed-commons", str(commons),
        ]
        assert main(base_args) == 0
        pooled = json.loads(capsys.readouterr().out)
        assert main([*base_args, "--macro"]) == 0
        macro = json.loads(capsys.readouterr().out)
        assert pooled["p1_by_year"] != macro["p1_by_year"]
        assert macro["mean_p1"] == pytest.approx(pooled["mean_p1"], abs=0.05)

    def test_subset_without_dictionary(self, corpus, aggregate_file, tmp_path):
        (tmp_path / "commons.txt").write_text("слово\nдом\n", encoding="utf-8")
        out = tmp_path / "reports"
        assert main([
            "stats", "--aggregate", str(aggregate_file), "--reports", "p-series",
            "--seed-abbrevs", str(corpus / "abbreviations.txt"),
            "--seed-commons", str(tmp_path / "commons.txt"),
            "--out-dir", str(out),
        ]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["p-series.json", "p-series.tsv"]

    def test_dictionary_dependent_report_needs_dictionary(self, aggregate_file, tmp_path):
        assert main([
            "stats", "--aggregate", str(aggregate_file), "--reports", "dynamics",
            "--out-dir", str(tmp_path / "r"),
        ]) == 1

    def test_unknown_report_kind(self, aggregate_file, tmp_path):
        assert main([
            "stats", "--aggregate", str(aggregate_file), "--reports", "pie-chart",
            "--out-dir", str(tmp_path / "r"),
        ]) == 1


class TestSegmentCommand:
    def test_dictionary_segmentation(self, tmp_path, capsys):
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("гл\nгор\n", encoding="utf-8")
        override = tmp_path / "override.txt"
        override.write_text("гор\n", encoding="utf-8")
        text = tmp_path / "in.txt"
        text.write_text("Смотри гл. вторая часть. Он уехал в гор. Казань вчера.", encoding="utf-8")
        assert main([
            "segment", str(text), "--dictionary", str(dict_path), "--override-list", str(override),
        ]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "Смотри гл. вторая часть.",
            "Он уехал в гор. Казань вчера.",
        ]

    def test_baseline_flag(self, tmp_path, capsys):
        text = tmp_path / "in.txt"
        text.write_text("Смотри гл. Вторая часть", encoding="utf-8")
        assert main(["segment", str(text), "--baseline"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_spans_json(self, tmp_path, capsys):
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("гл\n", encoding="utf-8")
        text = tmp_path / "in.txt"
        text.write_text("Смотри гл. вторая", encoding="utf-8")
        assert main(["segment", str(text), "--dictionary", str(dict_path), "--spans"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [t["kind"] for t in doc["tokens"]].count("abbreviation-with-period") == 1
        assert len(doc["sentences"]) == 1

    def test_output_file(self, tmp_path):
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("гл\n", encoding="utf-8")
        text = tmp_path / "in.txt"
        text.write_text("Привет. Пока.", encoding="utf-8")
        out = tmp_path / "out.txt"
        assert main(["segment", str(text), "--dictionary", str(dict_path), "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "Привет.\nПока.\n"

    def test_stdin_read_like_a_file(self, tmp_path, monkeypatch, capsys):
        # universal newlines either way: \r\n and a lone \r count as one \n
        data = "Один. Два.\r\nТри.\rЧетыре.\r\n".encode("utf-8")
        (tmp_path / "in.txt").write_bytes(data)
        assert main(["segment", str(tmp_path / "in.txt"), "--baseline", "--spans"]) == 0
        from_file = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert main(["segment", "--baseline", "--spans"]) == 0
        assert capsys.readouterr().out == from_file
        text = "Один. Два.\nТри.\nЧетыре.\n"
        assert from_file == oracles.spans_json_reference(segment.baseline_segment(text), [])

    @pytest.mark.parametrize("mode", [[], ["--spans"]], ids=["lines", "spans"])
    def test_closed_stdout_exits_1_quietly(self, tmp_path, mode):
        # `segment ... | head -c 10`: the output is far larger than a pipe's buffer
        (tmp_path / "in.txt").write_text("Один. Два три. " * 20000, encoding="utf-8")
        with subprocess.Popen(
            [sys.executable, "-m", "abbrevkit.cli", "segment", "in.txt", "--baseline", *mode],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(), cwd=tmp_path,
        ) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            stderr = proc.stderr.read()
        assert proc.returncode == 1
        assert stderr == b""

    def test_needs_dictionary_without_baseline(self, tmp_path):
        text = tmp_path / "in.txt"
        text.write_text("Привет.", encoding="utf-8")
        assert main(["segment", str(text)]) == 1

    def test_unloadable_dictionary(self, tmp_path):
        text = tmp_path / "in.txt"
        text.write_text("Привет.", encoding="utf-8")
        assert main(["segment", str(text), "--dictionary", str(tmp_path / "absent")]) == 1

    def test_json_dictionary_case_policy_honored(self, tmp_path, capsys):
        doc = {
            "format": "abbrevkit-dictionary",
            "version": 1,
            "build_meta": {"case_fold": True},
            "entries": [{"word": "гл"}],
        }
        dict_path = tmp_path / "dict.json"
        dict_path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        text = tmp_path / "in.txt"
        text.write_text("Смотри Гл. вторая", encoding="utf-8")
        assert main(["segment", str(text), "--dictionary", str(dict_path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1


class TestSegmentWithoutTokens:
    """Only --spans tokenizes: with `token_columns`, the one tokenizer
    pass that `tokenize` and `dict_segment` also go through, patched to
    raise, both modes still segment.  --spans calls it once and writes
    its JSON without json.dumps."""

    @pytest.fixture()
    def inputs(self, tmp_path):
        (tmp_path / "dict.txt").write_text("гл\nгор\n", encoding="utf-8")
        (tmp_path / "override.txt").write_text("гор\n", encoding="utf-8")
        text = tmp_path / "in.txt"
        text.write_text("Смотри гл. Вторая часть. Он уехал в гор. Казань вчера.", encoding="utf-8")
        return tmp_path

    @staticmethod
    def _refuse(text, *rest):
        raise AssertionError("token_columns called")

    def test_dictionary_mode(self, inputs, monkeypatch, capsys):
        monkeypatch.setattr(segment, "token_columns", self._refuse)
        assert main([
            "segment", str(inputs / "in.txt"), "--dictionary", str(inputs / "dict.txt"),
            "--override-list", str(inputs / "override.txt"),
        ]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "Смотри гл.", "Вторая часть.", "Он уехал в гор. Казань вчера.",
        ]

    def test_baseline_mode(self, inputs, monkeypatch, capsys):
        monkeypatch.setattr(segment, "token_columns", self._refuse)
        assert main(["segment", str(inputs / "in.txt"), "--baseline"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "Смотри гл.", "Вторая часть.", "Он уехал в гор.", "Казань вчера.",
        ]
        assert main(["segment", str(inputs / "in.txt"), "--baseline", "--spans"]) == 0
        assert json.loads(capsys.readouterr().out)["tokens"] == []

    def test_spans_tokenize(self, inputs, monkeypatch, capsys):
        calls = []
        real = segment.token_columns
        monkeypatch.setattr(segment, "token_columns", lambda text, *rest: calls.append(text) or real(text, *rest))
        assert main(["segment", str(inputs / "in.txt"), "--dictionary", str(inputs / "dict.txt"), "--spans"]) == 0
        assert len(calls) == 1
        assert len(json.loads(capsys.readouterr().out)["tokens"]) == 12

    def test_spans_without_json_dumps(self, inputs, monkeypatch, capsys):
        text = (inputs / "in.txt").read_text(encoding="utf-8")
        tokens, sentences = segment.dict_segment(text, segment.LoadedDictionary(["гл", "гор"]))
        expected = oracles.spans_json_reference(sentences, tokens)

        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr(json, "dumps", refuse)
        argv = ["segment", str(inputs / "in.txt"), "--dictionary", str(inputs / "dict.txt"), "--spans"]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
        assert main([*argv, "--output", str(inputs / "spans.json")]) == 0
        assert (inputs / "spans.json").read_text(encoding="utf-8") == expected


# the wide alphabet plus what JSON escapes: quote, backslash, every
# control character, the line separator (in the wide alphabet) and a
# letter outside the BMP; \r and \r\n, which the CLI reads as \n, shift
# the byte offsets that follow them; "%" is the writer's format character
_SPANS_TEXTS = texts_of([*WIDE_ATOMS, '"', "\\", "%", *map(chr, range(0x20)), "\r\n", "\U0001d400", ". \U0001d400"])


class TestSpansMatchOracle:
    """segment --spans writes byte for byte what json.dumps wrote for the
    same spans (oracles.spans_json_reference)."""

    @staticmethod
    def _spans(work, text, argv):
        (work / "in.txt").write_bytes(text.encode("utf-8"))
        out = work / "spans.json"
        assert main(["segment", str(work / "in.txt"), "--spans", "--output", str(out), *argv]) == 0
        return out.read_text(encoding="utf-8")

    @given(_SPANS_TEXTS, st.data())
    @settings(max_examples=400, deadline=None)
    def test_dictionary_and_baseline_modes(self, tmp_path_factory, text, data):
        work = tmp_path_factory.mktemp("spans")
        read = text.replace("\r\n", "\n").replace("\r", "\n")  # universal newlines
        runs = sorted(set(re.findall(r"[^\W\d_]+", read)))
        if data.draw(st.booleans(), label="baseline"):
            argv, tokens, sentences = ["--baseline"], [], segment.baseline_segment(read)
        else:
            words = data.draw(st.lists(st.sampled_from(runs), unique=True)) if runs else []
            override = data.draw(st.lists(st.sampled_from(runs), max_size=3)) if runs else []
            case_fold = data.draw(st.booleans(), label="case_fold")
            (work / "dict.txt").write_text("".join(w + "\n" for w in words), encoding="utf-8")
            (work / "override.txt").write_text("".join(w + "\n" for w in override), encoding="utf-8")
            argv = ["--dictionary", str(work / "dict.txt"), "--override-list", str(work / "override.txt")]
            argv += ["--case-fold"] if case_fold else []
            loaded = segment.LoadedDictionary(words, case_fold=case_fold)
            tokens, sentences = segment.dict_segment(read, loaded, override)
        assert self._spans(work, text, argv) == oracles.spans_json_reference(sentences, tokens)

    @pytest.mark.parametrize("text", ["", " \n\t\r\n \u2028"], ids=["empty", "whitespace-only"])
    def test_empty_and_whitespace_only_texts(self, tmp_path, text):
        (tmp_path / "dict.txt").write_text("гл\n", encoding="utf-8")
        expected = oracles.spans_json_reference([], [])
        assert self._spans(tmp_path, text, ["--baseline"]) == expected
        assert self._spans(tmp_path, text, ["--dictionary", str(tmp_path / "dict.txt")]) == expected


    @pytest.mark.parametrize("mode", ["dictionary", "baseline"])
    def test_arrays_past_two_write_batches(self, tmp_path, mode):
        """Both arrays hold more than two write batches of 4096 records."""
        spec = synth.make_spec(12, 60, seed=13)
        text = synth.generate_text(spec, 9000).text
        if mode == "baseline":
            argv, tokens, sentences = ["--baseline"], [], oracles.baseline_segment_reference(text)
        else:
            (tmp_path / "dict.txt").write_text("".join(w + "\n" for w in sorted(spec.abbrev_words)), encoding="utf-8")
            (tmp_path / "override.txt").write_text("".join(w + "\n" for w in spec.title_like), encoding="utf-8")
            argv = ["--dictionary", str(tmp_path / "dict.txt"), "--override-list", str(tmp_path / "override.txt")]
            loaded = segment.LoadedDictionary(spec.abbrev_words)
            tokens, sentences = oracles.dict_segment_reference(text, loaded, spec.title_like)
            assert len(tokens) > 2 * 4096 and any(t.kind == segment.KIND_ABBREV for t in tokens)
        assert len(sentences) > 2 * 4096
        assert self._spans(tmp_path, text, argv) == oracles.spans_json_reference(sentences, tokens)


class TestAtomicOutputs:
    """A failure while an output is written leaves the old file and no
    temporary file."""

    def test_segment_output(self, tmp_path, monkeypatch):
        (tmp_path / "dict.txt").write_text("гл\n", encoding="utf-8")
        (tmp_path / "in.txt").write_text("Привет. Пока.", encoding="utf-8")
        out = tmp_path / "out.txt"
        out.write_bytes(b"old output\n")

        def failing_texts(text, sentences):
            yield "Привет."
            raise ValueError("write failed")

        monkeypatch.setattr(segment, "sentence_texts", failing_texts)
        code = main([
            "segment", str(tmp_path / "in.txt"), "--dictionary", str(tmp_path / "dict.txt"), "--output", str(out),
        ])
        assert code == 1
        assert out.read_bytes() == b"old output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dict.txt", "in.txt", "out.txt"]

    def test_symlink_and_pipe_targets(self, tmp_path):
        (tmp_path / "in.txt").write_text("Привет. Пока.", encoding="utf-8")
        real = tmp_path / "real.txt"
        real.write_bytes(b"old\n")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        assert main(["segment", str(tmp_path / "in.txt"), "--baseline", "--output", str(link)]) == 0
        assert link.is_symlink() and real.read_text(encoding="utf-8") == "Привет.\nПока.\n"

        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            assert main(["segment", str(tmp_path / "in.txt"), "--baseline", "--output", str(fifo)]) == 0
        finally:
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == ["Привет.\nПока.\n".encode("utf-8")]
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    def test_build_output(self, aggregate_file, tmp_path, monkeypatch):
        out = tmp_path / "out" / "dict.txt"
        out.parent.mkdir()
        out.write_bytes(b"old\n")
        # a lone surrogate cannot be encoded, so the write itself fails
        monkeypatch.setattr(dictionary, "dictionary_to_wordlist", lambda built: "гл\n\ud800\n")
        assert main(["build", "--aggregate", str(aggregate_file), "--out-words", str(out)]) == 1
        assert out.read_bytes() == b"old\n"
        assert [p.name for p in out.parent.iterdir()] == ["dict.txt"]


class TestSynthCommand:
    def test_rerun_byte_identical(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC_DOC, ensure_ascii=False), encoding="utf-8")
        one, two = tmp_path / "one", tmp_path / "two"
        assert main(["synth", "--spec", str(spec_path), "--out-dir", str(one)]) == 0
        assert main(["synth", "--spec", str(spec_path), "--out-dir", str(two)]) == 0
        for name in ("1grams.tsv", "2grams.tsv", "text.txt", "gold.json"):
            assert (one / name).read_bytes() == (two / name).read_bytes()

    def test_gold_sidecar_consistent(self, corpus):
        gold = json.loads((corpus / "gold.json").read_text(encoding="utf-8"))
        text = (corpus / "text.txt").read_bytes()
        assert gold["boundaries"][-1] == len(text)
        assert set(gold["title_like"]) <= set(gold["abbreviations"])

    def test_invalid_spec(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"abbrev_words": ["а"], "common_words": ["а"]}), encoding="utf-8")
        assert main(["synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "x")]) == 1

    def test_unknown_field_rejected(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"abbrev_wordz": ["а"]}), encoding="utf-8")
        assert main(["synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "x")]) == 1


class TestParamsCommand:
    def test_estimates_and_min_usage(self, corpus, aggregate_file, tmp_path, capsys):
        commons = tmp_path / "commons.txt"
        commons.write_text("слово\nдом\nгод\n", encoding="utf-8")
        assert main([
            "params", "--aggregate", str(aggregate_file),
            "--seed-abbrevs", str(corpus / "abbreviations.txt"),
            "--seed-commons", str(commons),
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mean_p1"] == pytest.approx(0.955, abs=0.03)
        assert doc["mean_p0"] == pytest.approx(0.068, abs=0.03)
        assert doc["min_usage"]["total"] >= 1
        assert len(doc["p1_by_year"]) == 19

    def test_missing_seed_file_is_error(self, aggregate_file, tmp_path):
        assert main([
            "params", "--aggregate", str(aggregate_file),
            "--seed-abbrevs", str(tmp_path / "absent.txt"),
            "--seed-commons", str(tmp_path / "absent2.txt"),
        ]) == 1

    def test_degenerate_zero_p0_skips_min_usage(self, tmp_path, capsys):
        src = tmp_path / "c.tsv"
        lines = []
        for year in range(1990, 2009):
            lines.append(f"др .\t{year}\t95\t9\n")
            lines.append(f"др\t{year}\t100\t10\n")
            lines.append(f"год\t{year}\t100\t10\n")  # never with period
        src.write_text("".join(lines), encoding="utf-8")
        agg = tmp_path / "agg.json"
        assert main(["ingest", "--unigrams", str(src), "--bigrams", str(src), "--output", str(agg)]) == 0
        abbrevs = tmp_path / "a.txt"
        abbrevs.write_text("др\n", encoding="utf-8")
        commons = tmp_path / "c.txt"
        commons.write_text("год\n", encoding="utf-8")
        assert main([
            "params", "--aggregate", str(agg),
            "--seed-abbrevs", str(abbrevs), "--seed-commons", str(commons),
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mean_p0"] == 0.0
        assert doc["min_usage"] is None


def _config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    return str(path)


class TestConfigFile:
    """A config entry acts as the flag it names; explicit flags override it."""

    def test_ingest(self, corpus, tmp_path):
        unigrams, bigrams = str(corpus / "1grams.tsv"), str(corpus / "2grams.tsv")
        config = _config(tmp_path, {
            "unigrams": [unigrams], "bigrams": bigrams, "output": str(tmp_path / "conf.json"),
            "window": "1995:2005", "case_fold": True, "jobs": 2, "scripts": None, "method": "lrt",
        })
        assert main(["--config", config, "ingest"]) == 0
        flags = tmp_path / "flags.json"
        assert main([
            "ingest", "--unigrams", unigrams, "--bigrams", bigrams, "--output", str(flags),
            "--window", "1995:2005", "--case-fold",
        ]) == 0
        assert (tmp_path / "conf.json").read_bytes() == flags.read_bytes()
        over = tmp_path / "over.json"
        assert main(["--config", config, "ingest", "--window", "1990:2008", "--output", str(over)]) == 0
        cfg = Aggregator.load(over).config
        assert (cfg.year_min, cfg.year_max, cfg.case_fold) == (1990, 2008, True)

    def test_build_from_config_named_like_the_command(self, aggregate_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _config(tmp_path, {
            "aggregate": str(aggregate_file), "method": "lrt", "median_threshold": 0.95,
            "p0": 0.05, "min_volumes": 1, "out_json": "conf.json", "top_k": 5,
        }, name="build")
        assert main(["--config", "build", "build"]) == 0
        assert main([
            "build", "--aggregate", str(aggregate_file), "--method", "lrt", "--median-threshold", "0.95",
            "--p0", "0.05", "--min-volumes", "1", "--out-json", "flags.json",
        ]) == 0
        assert Path("conf.json").read_bytes() == Path("flags.json").read_bytes()
        assert main(["--config", "build", "build", "--method", "median", "--out-json", "over.json"]) == 0
        meta = json.loads(Path("over.json").read_text(encoding="utf-8"))["build_meta"]
        assert meta["method"] == "median"
        assert meta["thresholds"]["min_volumes"] == 1

    def test_stats(self, corpus, aggregate_file, tmp_path):
        (tmp_path / "commons.txt").write_text("слово\nдом\n", encoding="utf-8")
        seeds = {"seed_abbrevs": str(corpus / "abbreviations.txt"), "seed_commons": str(tmp_path / "commons.txt")}
        config = _config(tmp_path, {
            "aggregate": str(aggregate_file), "out_dir": str(tmp_path / "conf"), "reports": "length-histogram",
            "pooled": False, "mean_window": "2000:2008", **seeds,
        })
        assert main(["--config", config, "stats", "--reports", "p-series"]) == 0
        assert main([
            "stats", "--aggregate", str(aggregate_file), "--out-dir", str(tmp_path / "flags"),
            "--reports", "p-series", "--macro", "--mean-window", "2000:2008",
            "--seed-abbrevs", seeds["seed_abbrevs"], "--seed-commons", seeds["seed_commons"],
        ]) == 0
        names = sorted(p.name for p in (tmp_path / "conf").iterdir())
        assert names == ["p-series.json", "p-series.tsv"]
        for name in names:
            assert (tmp_path / "conf" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()

    def test_params(self, corpus, aggregate_file, tmp_path, capsys):
        (tmp_path / "commons.txt").write_text("слово\nдом\n", encoding="utf-8")
        args = ["--aggregate", str(aggregate_file), "--seed-abbrevs", str(corpus / "abbreviations.txt"),
                "--seed-commons", str(tmp_path / "commons.txt")]
        config = _config(tmp_path, {
            "aggregate": args[1], "seed_abbrevs": args[3], "seed_commons": args[5],
            "pooled": False, "alpha_target": 0.01, "baseline": True,
        })
        assert main(["--config", config, "params"]) == 0
        from_config = capsys.readouterr().out
        assert main(["params", *args, "--macro", "--alpha-target", "0.01"]) == 0
        assert from_config == capsys.readouterr().out
        assert main(["--config", config, "params", "--alpha-target", "0.001"]) == 0
        assert json.loads(capsys.readouterr().out)["min_usage"]["alpha_target"] == 0.001
        assert main(["--config", _config(tmp_path, {"pooled": True}, name="pooled.json"), "params", *args]) == 0
        assert main(["params", *args]) == 0
        pooled, plain = capsys.readouterr().out.split("\n}\n", 1)
        assert pooled + "\n}\n" == plain

    def test_segment(self, tmp_path, capsys):
        (tmp_path / "gl.txt").write_text("гл\n", encoding="utf-8")
        (tmp_path / "tov.txt").write_text("тов\n", encoding="utf-8")
        text = tmp_path / "in.txt"
        text.write_text("Смотри Гл. вторая", encoding="utf-8")
        config = _config(tmp_path, {"dictionary": str(tmp_path / "gl.txt"), "case_fold": True, "spans": True})
        assert main(["--config", config, "segment", str(text)]) == 0
        from_config = capsys.readouterr().out
        assert main(["segment", str(text), "--dictionary", str(tmp_path / "gl.txt"), "--case-fold", "--spans"]) == 0
        assert from_config == capsys.readouterr().out
        def abbreviations(out):
            return [t["kind"] for t in json.loads(out)["tokens"]].count("abbreviation-with-period")

        assert abbreviations(from_config) == 1
        assert main(["--config", config, "segment", str(text), "--dictionary", str(tmp_path / "tov.txt")]) == 0
        assert abbreviations(capsys.readouterr().out) == 0


class TestHelp:
    @pytest.mark.parametrize("command", ["ingest", "build", "stats", "segment", "synth", "params"])
    def test_help_shows_every_default(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        shown = "".join(capsys.readouterr().out.split())
        commands = next(a.choices for a in build_parser()._actions if a.dest == "command")
        for action in commands[command]._actions:
            if action.option_strings and action.nargs != 0 and action.default not in (None, []):
                assert "".join(str(action.default).split()) in shown, action.dest


# run in a fresh interpreter: each step is an import or the argv of one
# cli.main call, and after each the script records whether numpy is loaded
_NUMPY_PROBE = """
import json, sys
steps, out = json.loads(sys.argv[1]), sys.argv[2]
loaded = []
for step in steps:
    if isinstance(step, str):
        __import__(step)
    else:
        from abbrevkit.cli import main
        if main(step) != 0:
            raise SystemExit(f"{step} failed")
    loaded.append([step, "numpy" in sys.modules])
with open(out, "w") as handle:
    json.dump(loaded, handle)
"""


class TestNumpyOnlyWhereUsed:
    """numpy serves only `synth` and the frequency-by-length fit, so no
    other command pays for importing it."""

    def test_not_loaded_by_other_commands(self, corpus, aggregate_file, tmp_path):
        words = str(tmp_path / "dict.txt")
        text, override = str(corpus / "text.txt"), str(corpus / "override.txt")
        (tmp_path / "commons.txt").write_text("слово\nдом\nгод\n", encoding="utf-8")
        seeds = ["--seed-abbrevs", str(corpus / "abbreviations.txt"), "--seed-commons", str(tmp_path / "commons.txt")]
        steps = [
            "abbrevkit",
            "abbrevkit.cli",
            ["ingest", "--unigrams", str(corpus / "1grams.tsv"), "--bigrams", str(corpus / "2grams.tsv"),
             "--output", str(tmp_path / "a.json.gz"), "--jobs", "2"],
            ["build", "--aggregate", str(aggregate_file), "--method", "lrt", "--out-words", words,
             "--out-json", str(tmp_path / "dict.json"), "--out-tsv", str(tmp_path / "dict.tsv")],
            ["segment", text, "--dictionary", words, "--override-list", override, "--output", str(tmp_path / "s1")],
            ["segment", text, "--dictionary", words, "--spans", "--output", str(tmp_path / "s2")],
            ["segment", text, "--baseline", "--output", str(tmp_path / "s3")],
            ["params", "--aggregate", str(aggregate_file), *seeds],
            ["stats", "--aggregate", str(aggregate_file), "--dictionary", words, "--out-dir", str(tmp_path / "r"),
             "--reports", "freq-by-length"],
        ]
        out = tmp_path / "loaded.json"
        result = subprocess.run(
            [sys.executable, "-c", _NUMPY_PROBE, json.dumps(steps), str(out)],
            env=_cli_env(), cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        loaded = [has_numpy for _, has_numpy in json.loads(out.read_text())]
        # the last step fits a line with numpy, which shows the probe sees it
        assert loaded == [False] * (len(steps) - 1) + [True]


def test_no_module_level_numpy_import():
    package = Path(abbrevkit.__file__).parent
    found = {
        path.name: _module_level_numpy(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    assert not any(found.values()), found


def test_every_export_resolves():
    # a name left in an __all__ after its definition moved or went
    package = Path(abbrevkit.__file__).parent
    modules = [importlib.import_module(f"abbrevkit.{path.stem}") for path in sorted(package.glob("*.py"))]
    stale = {
        module.__name__: [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        for module in modules
    }
    assert "abbrevkit.__init__" in stale and "abbrevkit.dictionary" in stale
    assert not any(stale.values()), stale


def _module_level_numpy(source: str) -> list[int]:
    """Lines of `source` that import numpy when the module is imported:
    outside any function body, conditional and class bodies included."""
    found = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "numpy":
            found.append(node.lineno)
        pending.extend(ast.iter_child_nodes(node))
    return sorted(found)


@pytest.mark.parametrize("source, expected", [
    ("import numpy as np", [1]),
    ("import os, numpy.random", [1]),
    ("from numpy import polyfit", [1]),
    ("try:\n    import numpy\nexcept ImportError:\n    pass", [2]),
    ("class A:\n    import numpy", [2]),
    ("def f():\n    import numpy as np\n    return np", []),
    ("class A:\n    def f(self):\n        from numpy import dot", []),
    ("import numpyro\nfrom .numpy import x", []),
])
def test_numpy_guard_sees_each_import(source, expected):
    assert _module_level_numpy(source) == expected


def _state(**changes):
    state = Aggregator().to_state()
    state["words"] = {"др": {"1995": [9, 10, 1]}}
    state.update(changes)
    return {key: value for key, value in state.items() if value is not None}


def _config_state(**changes):
    state = _state()
    state["config"] = {**state["config"], **changes}
    return state


def _dictionary_doc(**changes):
    return {"format": "abbrevkit-dictionary", "version": 1, "build_meta": {},
            "entries": [{"word": "гл"}], **changes}


BUILD = ["build", "--aggregate", "bad.json", "--out-words", "d.txt"]
SEGMENT = ["segment", "in.txt", "--dictionary", "bad.json"]
# a config is read through the command's parser; agg.json and in.txt are
# valid inputs, so only the config entry can make these runs fail
CONFIG_INGEST = ["--config", "bad.json", "ingest", "--unigrams", "in.txt", "--output", "a.json"]
CONFIG_BUILD = ["--config", "bad.json", "build", "--aggregate", "agg.json", "--out-words", "d.txt"]
CONFIG_STATS = ["--config", "bad.json", "stats", "--aggregate", "agg.json", "--out-dir", "r"]
SYNTH = ["synth", "--spec", "bad.json", "--out-dir", "out"]

# case -> (argv run in a directory holding agg.json, in.txt and, under each
# bad.* name in argv, doc: as JSON, or as it is if bytes)
MALFORMED = {
    "aggregate-not-json": (BUILD, b"agg"),
    "aggregate-gz-not-gzip": (["build", "--aggregate", "bad.json.gz", "--out-words", "d.txt"], b"{}"),
    "corpus-line-malformed-abort": (
        ["ingest", "--unigrams", "bad.tsv", "--output", "a.json", "--on-error", "abort"],
        "др\t1995\t5\t1\nброкен\n".encode("utf-8"),
    ),
    "aggregate-without-counters": (BUILD, _state(counters=None)),
    "aggregate-string-count": (BUILD, _state(words={"др": {"1995": [9, "12", 1]}})),
    "aggregate-top-level-list": (BUILD, [1]),
    "aggregate-year-outside-window": (BUILD, _state(words={"др": {"2050": [9, 10, 1]}})),
    "aggregate-year-not-a-number": (BUILD, _state(words={"др": {"x": [9, 10, 1]}})),
    "aggregate-config-years-strings": (BUILD, _config_state(year_min="1990", year_max="2008")),
    "aggregate-config-case-fold-string": (BUILD, _config_state(case_fold="no")),
    "aggregate-config-year-floor-float": (BUILD, _config_state(year_floor=1500.0)),
    "aggregate-config-floor-above-ceiling": (BUILD, _config_state(year_floor=2100, year_ceiling=1500)),
    "aggregate-config-window-below-floor": (BUILD, _config_state(year_floor=2001)),
    "dictionary-entry-without-word": (SEGMENT, _dictionary_doc(entries=[{"words": "гл"}])),
    "dictionary-meta-not-object": (SEGMENT, _dictionary_doc(build_meta=[1])),
    "config-jobs-list": (CONFIG_INGEST, {"jobs": [1]}),
    "config-window-number": (CONFIG_INGEST, {"window": 5}),
    "config-scripts-number": (CONFIG_INGEST, {"scripts": 5}),
    "config-scripts-empty": (CONFIG_INGEST, {"scripts": ""}),
    "config-case-fold-string": (CONFIG_INGEST, {"case_fold": "no"}),
    "config-median-threshold-list": (CONFIG_BUILD, {"median_threshold": [1]}),
    "config-min-total-float": (CONFIG_BUILD, {"min_total": 3.7}),
    "config-reports-list": (CONFIG_STATS, {"reports": ["dynamics"]}),
    "config-reports-unknown": (CONFIG_STATS, {"reports": "bogus"}),
    "config-reports-empty": (CONFIG_STATS, {"reports": ","}),
    "flag-jobs-negative": (["ingest", "--unigrams", "in.txt", "--output", "a.json", "--jobs", "-3"], {}),
    "flag-top-k-negative": (["stats", "--aggregate", "agg.json", "--top-k", "-5", "--out-dir", "r"], {}),
    "config-jobs-zero": (CONFIG_INGEST, {"jobs": 0}),
    "config-top-k-negative": (CONFIG_STATS, {"top_k": -5}),
    "aggregate-fingerprint-not-string": (BUILD, _state(fingerprints={"x.tsv": 5})),
    "dictionary-case-fold-string": (SEGMENT, _dictionary_doc(build_meta={"case_fold": "false"})),
    "dictionary-entry-with-space": (SEGMENT, _dictionary_doc(entries=[{"word": "a b"}])),
    "flag-min-total-not-int": (["build", "--aggregate", "agg.json", "--min-total", "x", "--out-words", "d.txt"], {}),
    "synth-spec-list": (SYNTH, [1]),
    "synth-sentences-list": (SYNTH, {"sentences": [3]}),
    "flag-window-inverted": (["build", "--aggregate", "agg.json", "--window", "2008:1990", "--out-words", "d.txt"], {}),
    "config-window-inverted": (CONFIG_BUILD, {"window": "2008:1990"}),
    "flag-mean-window-inverted": (["params", "--aggregate", "agg.json", "--seed-abbrevs", "in.txt",
                                   "--seed-commons", "in.txt", "--mean-window", "2008:1998"], {}),
    "config-mean-window-inverted": (CONFIG_STATS, {"mean_window": "2008:1998"}),
    "flag-dynamics-window-inverted": (["stats", "--aggregate", "agg.json", "--dynamics-window", "2008:1940",
                                       "--out-dir", "r"], {}),
    "config-dynamics-window-inverted": (CONFIG_STATS, {"dynamics_window": "2008:1940"}),
    "flag-alpha-target-alone": (["build", "--aggregate", "agg.json", "--alpha-target", "0.001", "--out-words", "d.txt"],
                                {}),
    "flag-beta-target-alone": (["build", "--aggregate", "agg.json", "--beta-target", "0.001", "--out-words", "d.txt"],
                               {}),
    "flag-min-total-negative": (["build", "--aggregate", "agg.json", "--min-total", "-1", "--out-words", "d.txt"], {}),
    "flag-min-volumes-negative": (["build", "--aggregate", "agg.json", "--min-volumes", "-2", "--out-words", "d.txt"],
                                  {}),
    "config-min-volumes-negative": (CONFIG_BUILD, {"min_volumes": -2}),
    "flag-min-active-years-negative": (["build", "--aggregate", "agg.json", "--min-active-years", "-1",
                                        "--out-words", "d.txt"], {}),
    "config-min-active-years-negative": (CONFIG_BUILD, {"min_active_years": -1}),
    "flag-max-volumes-zero": (["stats", "--aggregate", "agg.json", "--max-volumes", "0", "--out-dir", "r"], {}),
    "config-max-volumes-zero": (CONFIG_STATS, {"max_volumes": 0}),
    "flag-year-floor-above-ceiling": (["ingest", "--unigrams", "in.txt", "--output", "a.json",
                                       "--year-floor", "2100", "--year-ceiling", "1500"], {}),
    "flag-window-below-year-floor": (["ingest", "--unigrams", "in.txt", "--output", "a.json",
                                      "--window", "1990:2008", "--year-floor", "2001"], {}),
}
# case -> parts its ERROR line must contain, besides the name of its bad.* file
MESSAGE_PARTS = {
    "aggregate-not-json": ["cannot read bad.json:", "Expecting value"],
    "aggregate-gz-not-gzip": ["cannot read bad.json.gz:", "Not a gzipped file"],
    "corpus-line-malformed-abort": ["cannot read bad.tsv:", "line 2:"],
    "config-window-number": ["--window", "bad.json"],
    "config-scripts-number": ["--scripts"],
    "config-scripts-empty": ["--scripts"],
    "config-reports-unknown": ["--reports"],
    "config-reports-empty": ["--reports"],
    "flag-jobs-negative": ["--jobs", "'-3'"],
    "flag-top-k-negative": ["--top-k", "'-5'"],
    "config-jobs-zero": ["--jobs", "bad.json"],
    "config-top-k-negative": ["--top-k", "bad.json"],
    "aggregate-fingerprint-not-string": ["fingerprints", "x.tsv"],
    "dictionary-case-fold-string": ["case_fold", "'false'"],
    "dictionary-entry-with-space": ["whitespace", "'a b'"],
    "aggregate-config-years-strings": ["year_min"],
    "aggregate-config-case-fold-string": ["case_fold"],
    "aggregate-config-year-floor-float": ["year_floor"],
    "aggregate-config-floor-above-ceiling": ["aggregate state:", "year_floor 2100 is above year_ceiling 1500"],
    "aggregate-config-window-below-floor": ["aggregate state:", "1990..2008 is not inside", "2001..2100"],
    "flag-year-floor-above-ceiling": ["year_floor 2100 is above year_ceiling 1500"],
    "flag-window-below-year-floor": ["1990..2008 is not inside", "2001..2100"],
    "flag-window-inverted": ["--window", "'2008:1990'"],
    "config-window-inverted": ["--window", "'2008:1990'"],
    "flag-mean-window-inverted": ["--mean-window", "'2008:1998'"],
    "config-mean-window-inverted": ["--mean-window", "'2008:1998'"],
    "flag-dynamics-window-inverted": ["--dynamics-window", "'2008:1940'"],
    "config-dynamics-window-inverted": ["--dynamics-window", "'2008:1940'"],
    "flag-alpha-target-alone": ["--alpha-target", "--beta-target"],
    "flag-beta-target-alone": ["--alpha-target", "--beta-target"],
    "flag-min-total-negative": ["--min-total", "'-1'"],
    "flag-min-volumes-negative": ["--min-volumes", "'-2'"],
    "config-min-volumes-negative": ["--min-volumes", "'-2'"],
    "flag-min-active-years-negative": ["--min-active-years", "'-1'"],
    "config-min-active-years-negative": ["--min-active-years", "'-1'"],
    "flag-max-volumes-zero": ["--max-volumes", "'0'"],
    "config-max-volumes-zero": ["--max-volumes", "'0'"],
}


class TestMalformedInputs:
    @staticmethod
    def _error_line(tmp_path, argv, stdin=b""):
        """Run the CLI in tmp_path, which holds agg.json and in.txt, with
        `stdin` as its input; returns its one stderr line after checking
        that it is an ERROR with exit 1."""
        (tmp_path / "agg.json").write_text(json.dumps(_state(), ensure_ascii=False), encoding="utf-8")
        (tmp_path / "in.txt").write_text("Смотри гл. вторая", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "abbrevkit.cli", *argv],
            input=stdin, capture_output=True, env=_cli_env(), cwd=tmp_path,
        )
        stderr = result.stderr.decode("utf-8")
        assert result.returncode == 1
        assert "Traceback" not in stderr
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR "), stderr
        return lines[0]

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_one_error_line_exit_1(self, tmp_path, case):
        argv, doc = MALFORMED[case]
        data = doc if isinstance(doc, bytes) else json.dumps(doc, ensure_ascii=False).encode("utf-8")
        names = [name for name in argv if name.startswith("bad.")]
        for name in names:
            (tmp_path / name).write_bytes(data)
        line = self._error_line(tmp_path, argv)
        for part in [*names, *MESSAGE_PARTS.get(case, ())]:
            assert part in line, line

    @pytest.mark.parametrize("argv, source", [
        (["segment", "bad.txt", "--baseline"], "bad.txt"),
        (["segment", "--baseline"], "<stdin>"),
        (["segment", "-", "--baseline", "--spans"], "<stdin>"),
        (["segment", "in.txt", "--dictionary", "bad.txt"], "bad.txt"),
        (["segment", "in.txt", "--baseline", "--override-list", "bad.txt"], "bad.txt"),
        (["params", "--aggregate", "agg.json", "--seed-abbrevs", "bad.txt", "--seed-commons", "in.txt"], "bad.txt"),
        (["--config", "bad.json", "segment", "in.txt", "--baseline"], "bad.json"),
        (["synth", "--spec", "bad.json", "--out-dir", "out"], "bad.json"),
        (["stats", "--aggregate", "agg.json", "--reports", "p-series", "--totals", "bad.txt", "--out-dir", "r"],
         "bad.txt"),
        (["build", "--aggregate", "bad.json", "--out-words", "d.txt"], "bad.json"),
        (["build", "--aggregate", "bad.json.gz", "--out-words", "d.txt"], "bad.json.gz"),
        (["ingest", "--unigrams", "bad.txt", "--output", "a.json"], "bad.txt"),
        (["ingest", "--unigrams", "bad.txt", "in.txt", "--output", "a.json", "--jobs", "2"], "bad.txt"),
        (["ingest", "--unigrams", "in.txt", "bad.txt.gz", "--output", "a.json", "--jobs", "2"], "bad.txt.gz"),
    ], ids=["file", "stdin", "stdin-dash-spans", "dictionary", "override-list", "seed-list", "config", "spec",
            "totals", "aggregate", "aggregate-gz", "corpus-shard", "corpus-shard-jobs2", "corpus-shard-gz-jobs2"])
    def test_segment_input_not_utf8_names_its_source(self, tmp_path, argv, source):
        data = b"ab\xffc. Next."
        if source != "<stdin>":
            (tmp_path / source).write_bytes(gzip.compress(data) if source.endswith(".gz") else data)
        line = self._error_line(tmp_path, argv, stdin=data)
        assert f"cannot read {source}:" in line and "0xff in position 2" in line, line

    def test_flag_error_beside_config_names_no_config(self, tmp_path):
        (tmp_path / "good.json").write_text('{"jobs": 1}', encoding="utf-8")
        line = self._error_line(tmp_path, ["--config", "good.json", *CONFIG_INGEST[2:], "--window", "x"])
        assert line == "ERROR abbrevkit ingest: argument --window: expected 'first:last' years, got 'x'"

    @pytest.mark.parametrize("content, line_number", [
        ("1995\t0\n", 1),
        ("1995\t-5\n1996\t7\n", 1),
        ("1995\t5\n# comment\n1995\t9\n", 3),
    ], ids=["zero-count", "negative-count", "repeated-year"])
    def test_totals_rejects_nonpositive_count_and_repeated_year(self, tmp_path, content, line_number):
        (tmp_path / "totals.tsv").write_text(content, encoding="utf-8")
        (tmp_path / "words.txt").write_text("др\n", encoding="utf-8")
        line = self._error_line(tmp_path, ["stats", "--aggregate", "agg.json", "--dictionary", "words.txt",
                                           "--reports", "dynamics", "--totals", "totals.tsv", "--out-dir", "r"])
        assert "totals.tsv" in line and f"line {line_number}:" in line, line

    def test_totals_error_names_file_and_line(self, tmp_path):
        (tmp_path / "totals.tsv").write_text("1995\tx\n", encoding="utf-8")
        (tmp_path / "words.txt").write_text("др\n", encoding="utf-8")
        line = self._error_line(tmp_path, ["stats", "--aggregate", "agg.json", "--dictionary", "words.txt",
                                           "--reports", "dynamics", "--totals", "totals.tsv", "--out-dir", "r"])
        assert "totals.tsv" in line and "line 1" in line, line
