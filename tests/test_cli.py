import argparse
import ast
import contextlib
import gc
import gzip
import hashlib
import importlib
import io
import json
import logging
import math
import multiprocessing
import os
import re
import stat
import subprocess
import sys
import threading
import types
from inspect import signature
from pathlib import Path
from typing import TextIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abbrevkit
from abbrevkit import analytics, cli, dictionary, likelihood, segment, synth
from abbrevkit.cli import build_parser, main
from abbrevkit.ingest import Aggregator, IngestConfig, YearlyUsage, is_word

import oracles
from helpers import BAD_COUNT_SPELLINGS, BAD_YEAR_SPELLINGS, WIDE_ATOMS, aggregate_states, texts_of

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

# the spec entries that hold word lists
_WORD_LIST_KEYS = ["abbrev_words", "common_words", "title_like"]
_NUMBER_KEYS = ["default_p1", "default_p0", "period_comma_swap"]


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

    def test_unigram_and_bigram_flags_read_alike(self, corpus, tmp_path):
        """Both flags add files to one list, and each line's own token
        count decides what it is: any split of the files between them
        writes the same state."""
        uni, bi = str(corpus / "1grams.tsv"), str(corpus / "2grams.tsv")
        states = set()
        for name, flags in [("uu", ["--unigrams", uni, bi]), ("ub", ["--unigrams", uni, "--bigrams", bi]),
                            ("bb", ["--bigrams", uni, bi]), ("bu", ["--bigrams", uni, "--unigrams", bi])]:
            assert main(["ingest", *flags, "--output", str(tmp_path / f"{name}.json")]) == 0
            states.add((tmp_path / f"{name}.json").read_bytes())
        assert len(states) == 1

    @pytest.mark.parametrize("bad", [0, 1], ids=["in-this-process", "in-a-worker"])
    def test_abort_in_either_chunk(self, tmp_path, caplog, bad):
        """With --jobs 2 this process parses the first file and a worker the
        second; a malformed line in either is one ERROR naming its file,
        and no worker outlives the command."""
        shards = [tmp_path / "first.tsv", tmp_path / "second.tsv"]
        for index, shard in enumerate(shards):
            shard.write_text("др\t1995\t5\t1\n" * 200 + ("broken\n" if index == bad else ""), encoding="utf-8")
        out = tmp_path / "a.json"
        with caplog.at_level(logging.ERROR):
            code = main(["ingest", "--unigrams", *map(str, shards), "--output", str(out),
                         "--on-error", "abort", "--jobs", "2"])
        assert code == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"cannot read {shards[bad]}: line 201: expected 4 tab-separated fields, got 1"]
        assert multiprocessing.active_children() == []
        assert not out.exists()

    def test_hard_link_is_the_same_shard(self, tmp_path):
        shard = tmp_path / "a.tsv"
        shard.write_text("др\t1995\t5\t1\n", encoding="utf-8")
        os.link(shard, tmp_path / "b.tsv")
        out = tmp_path / "agg.json"
        assert main(["ingest", "--unigrams", str(shard), "--bigrams", str(tmp_path / "b.tsv"),
                     "--output", str(out)]) == 1
        assert not out.exists()


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

    def test_unreachable_error_targets_one_error_line(self, aggregate_file, tmp_path):
        """An exhausted error-target search is the command's own one-line
        error, raised before any output is written."""
        out = tmp_path / "dict.txt"
        code, errors = _main_errors([
            "build", "--aggregate", str(aggregate_file), "--method", "lrt", "--p0", "0.3", "--p1", "0.31",
            "--alpha-target", "0.001", "--beta-target", "0.001", "--out-words", str(out),
        ])
        assert code == 1
        assert [record.getMessage() for record in errors] == [
            "no N <= 10000 reaches alpha <= 0.001 and beta <= 0.001"]
        assert not out.exists()

    @pytest.mark.parametrize("options", [[], ["--config", "config.json"]], ids=repr)
    def test_leading_double_dash_builds_the_same(self, aggregate_file, tmp_path, monkeypatch, options):
        monkeypatch.chdir(tmp_path)
        _config(tmp_path, {"method": "lrt"})
        outs = [tmp_path / "plain.json", tmp_path / "dashed.json"]
        for dashes, out in zip(([], ["--"]), outs):
            assert main([*options, *dashes, "build", "--aggregate", str(aggregate_file), "--out-json", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        method = json.loads(outs[1].read_text(encoding="utf-8"))["build_meta"]["method"]
        assert method == ("lrt" if "--config" in options else "median")

    def test_bare_double_dash_one_error_line(self):
        code, errors = _main_errors(["--"])
        assert code == 1
        assert [record.getMessage() for record in errors] == ["abbrevkit: the following arguments are required: command"]

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


class TestUsageBuiltOnRead:
    """`finalize` builds no `YearlyUsage`; `stats` builds one per year of
    each series it reads (dictionary entries and seed words)."""

    @pytest.fixture()
    def made(self, monkeypatch):
        made = []
        new = YearlyUsage.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(YearlyUsage, "__new__", counted)
        return made

    @pytest.mark.parametrize("method", ["median", "lrt", "both-must-agree"])
    def test_build_makes_none(self, aggregate_file, tmp_path, made, method):
        out = tmp_path / "dict.tsv"
        assert main(["build", "--aggregate", str(aggregate_file), "--method", method, "--out-tsv", str(out)]) == 0
        assert out.read_text(encoding="utf-8") and made == []

    def test_stats_makes_at_most_one_per_read_year(self, aggregate_file, tmp_path, made):
        words = tmp_path / "dict.txt"
        assert main(["build", "--aggregate", str(aggregate_file), "--out-words", str(words)]) == 0
        assert made == []
        seeds = {"abbrevs": ["гл", "др"], "commons": ["год", "дом", "мир"]}
        for role, listed in seeds.items():
            (tmp_path / f"{role}.txt").write_text("\n".join(listed) + "\n", encoding="utf-8")
        assert main(["stats", "--aggregate", str(aggregate_file), "--dictionary", str(words),
                     "--seed-abbrevs", str(tmp_path / "abbrevs.txt"), "--seed-commons", str(tmp_path / "commons.txt"),
                     "--out-dir", str(tmp_path / "r")]) == 0
        entries = len(words.read_text(encoding="utf-8").split())
        years = SPEC_DOC["years"][1] - SPEC_DOC["years"][0] + 1
        assert 0 < len(made) <= (entries + len(seeds["abbrevs"]) + len(seeds["commons"])) * years


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

    def test_words_missing_from_the_aggregate_are_named(self, aggregate_file, tmp_path, caplog):
        words = tmp_path / "dict.txt"
        assert main(["build", "--aggregate", str(aggregate_file), "--out-words", str(words)]) == 0
        built = words.read_text(encoding="utf-8").split()
        args = ["stats", "--aggregate", str(aggregate_file), "--dictionary", str(words), "--reports", "length-histogram"]
        with caplog.at_level(logging.INFO):
            assert main([*args, "--out-dir", str(tmp_path / "r0")]) == 0
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        before = (tmp_path / "r0" / "length-histogram.tsv").read_bytes()

        strays = ["небылица", "ъъа", "ъъб", "ъъв", "ъъг", "ъъд"]
        for listed, shown in [(strays[:1], "небылица"), (strays + strays[:2], ", ".join(strays[:5]) + ", ...")]:
            words.write_text("\n".join(built + listed) + "\n", encoding="utf-8")
            caplog.clear()
            with caplog.at_level(logging.INFO):
                assert main([*args, "--out-dir", str(tmp_path / "r1")]) == 0
            warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
            missing = len(set(listed))
            assert warnings == [f"{missing} of {len(built) + missing} dictionary words are not in the aggregate, "
                                f"so no report counts them: {shown}"]
            assert (tmp_path / "r1" / "length-histogram.tsv").read_bytes() == before

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

    @pytest.mark.parametrize("name", ["dict.tsv", "dict.tsv.gz", "dict.json"])
    def test_dictionary_fingerprint_is_sha256_of_file(self, aggregate_file, tmp_path, name):
        """The fingerprint is taken in the read that loads the dictionary:
        the sha256 of the file's bytes, still compressed for ``.gz``."""
        built = ["--out-tsv", str(tmp_path / "dict.tsv"), "--out-json", str(tmp_path / "dict.json")]
        assert main(["build", "--aggregate", str(aggregate_file), *built]) == 0
        (tmp_path / "dict.tsv.gz").write_bytes(gzip.compress((tmp_path / "dict.tsv").read_bytes()))
        path, out = tmp_path / name, tmp_path / "reports"
        assert main([
            "stats", "--aggregate", str(aggregate_file), "--dictionary", str(path),
            "--reports", "length-histogram", "--out-dir", str(out),
        ]) == 0
        doc = json.loads((out / "length-histogram.json").read_text(encoding="utf-8"))
        assert doc["meta"]["dictionary_fingerprint"] == hashlib.sha256(path.read_bytes()).hexdigest()

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

    @pytest.mark.parametrize("seeds", [[], ["--seed-abbrevs", "absent.txt", "--seed-commons", "commons.txt"],
                                       ["--seed-abbrevs", "commons.txt", "--seed-commons", "commons.txt"]],
                             ids=["no-seed-lists", "seed-list-absent", "seed-lists-overlap"])
    def test_failing_report_writes_nothing(self, aggregate_file, tmp_path, seeds):
        """Every report is made before the first write: a p-series that
        cannot be made leaves no out dir, though the reports before it
        could have been written."""
        words = tmp_path / "dict.txt"
        assert main(["build", "--aggregate", str(aggregate_file), "--out-words", str(words)]) == 0
        (tmp_path / "commons.txt").write_text("слово\n", encoding="utf-8")
        out = tmp_path / "r"
        code, errors = _main_errors(["stats", "--aggregate", str(aggregate_file), "--dictionary", str(words),
                                     *(str(tmp_path / arg) if arg.endswith(".txt") else arg for arg in seeds),
                                     "--out-dir", str(out)])
        assert code == 1 and len(errors) == 1 and not out.exists()

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
        assert from_file == oracles.spans_json_reference(oracles.baseline_segment_reference(text), [])

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

    @pytest.mark.parametrize("encoding", ["cp1251", "ascii"])
    @pytest.mark.parametrize("mode", [["--dictionary", "dict.txt"], ["--baseline"], ["--dictionary", "dict.txt", "--spans"]],
                             ids=["lines", "baseline", "spans"])
    def test_stdout_is_utf8_whatever_the_locale(self, tmp_path, encoding, mode):
        # stdout carries the bytes of --output, not the locale's encoding
        (tmp_path / "dict.txt").write_text("гл\n", encoding="utf-8")
        (tmp_path / "in.txt").write_text("Смотри гл. Вторая часть. Ὀδός «ἡ» Ω. Конец", encoding="utf-8")
        argv = [sys.executable, "-m", "abbrevkit.cli", "segment", "in.txt", *mode]
        env = dict(_cli_env(), PYTHONIOENCODING=encoding)
        subprocess.run([*argv, "--output", "out.txt"], env=env, cwd=tmp_path, check=True)
        result = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True)
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == (tmp_path / "out.txt").read_bytes()
        assert "Конец".encode("utf-8") in result.stdout

    @pytest.mark.parametrize("mode", [[], ["--spans"]], ids=["lines", "spans"])
    def test_unbuffered_stdout_closed_mid_write(self, tmp_path, mode):
        # one write batch, far larger than a pipe's buffer, to a raw (unbuffered)
        # stdout: the write that the closed reader cuts short is retried, and fails
        (tmp_path / "in.txt").write_text("Один два три четыре пять шесть. " * 3000, encoding="utf-8")
        with subprocess.Popen(
            [sys.executable, "-m", "abbrevkit.cli", "segment", "in.txt", "--baseline", *mode],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(_cli_env(), PYTHONUNBUFFERED="1"), cwd=tmp_path,
        ) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            stderr = proc.stderr.read()
        assert proc.returncode == 1
        assert stderr == b""

    @pytest.mark.parametrize("mode", [[], ["--spans"], ["--baseline", "--spans"]], ids=["lines", "spans", "baseline-spans"])
    def test_short_writes_are_retried(self, tmp_path, monkeypatch, mode):
        """A raw stdout that takes half of each write gets every byte of --output."""
        (tmp_path / "dict.txt").write_text("гл\n", encoding="utf-8")
        spec = synth.make_spec(12, 60, seed=13)
        (tmp_path / "in.txt").write_text(synth.generate_text(spec, 5000).text, encoding="utf-8")
        argv = ["segment", str(tmp_path / "in.txt"), "--dictionary", str(tmp_path / "dict.txt"), *mode]
        assert main([*argv, "--output", str(tmp_path / "out.txt")]) == 0

        class HalfWrites(io.RawIOBase):
            def __init__(self):
                self.data = bytearray()
                self.short = 0

            def writable(self):
                return True

            def write(self, data):
                taken = bytes(data[:max(1, len(data) // 2)])
                self.data += taken
                self.short += len(taken) < len(data)
                return len(taken)

        raw = HalfWrites()
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(buffer=raw, flush=lambda: None))
        assert main(argv) == 0
        monkeypatch.undo()
        assert raw.short and bytes(raw.data) == (tmp_path / "out.txt").read_bytes()

    def test_final_sigma_under_case_fold(self, tmp_path, capsys):
        # the protected stem οδος matches ΟΔΟΣ read forwards, not a lowercased reversed run
        for name in ("dict.txt", "override.txt"):
            (tmp_path / name).write_text("οδος\n", encoding="utf-8")
        (tmp_path / "in.txt").write_text("ΟΔΟΣ. Αθήνα вчера.", encoding="utf-8")
        argv = ["segment", str(tmp_path / "in.txt"), "--dictionary", str(tmp_path / "dict.txt"),
                "--override-list", str(tmp_path / "override.txt"), "--case-fold"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "ΟΔΟΣ. Αθήνα вчера.\n"
        assert main([*argv, "--spans"]) == 0
        assert len(json.loads(capsys.readouterr().out)["sentences"]) == 1

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
    """Only --spans tokenizes: with `token_columns`, the one tokenizer,
    patched to raise, both text modes still segment.  --spans, with a
    dictionary or --baseline, calls it once and writes its JSON without
    json.dumps; --baseline lists no tokens."""

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
        real = segment.token_columns
        monkeypatch.setattr(segment, "token_columns", self._refuse)
        assert main(["segment", str(inputs / "in.txt"), "--baseline"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "Смотри гл.", "Вторая часть.", "Он уехал в гор.", "Казань вчера.",
        ]
        calls = []
        monkeypatch.setattr(segment, "token_columns", lambda text, *rest: calls.append(rest) or real(text, *rest))
        assert main(["segment", str(inputs / "in.txt"), "--baseline", "--spans"]) == 0
        assert calls == [(segment.EMPTY_DICTIONARY, ())]
        doc = json.loads(capsys.readouterr().out)
        assert doc["tokens"] == []
        text = (inputs / "in.txt").read_text(encoding="utf-8")
        assert doc["sentences"] == [
            {"start": s.start, "end": s.end, "token_start": None, "token_end": None}
            for s in oracles.baseline_segment_reference(text)
        ]

    def test_spans_tokenize(self, inputs, monkeypatch, capsys):
        calls = []
        real = segment.token_columns
        monkeypatch.setattr(segment, "token_columns", lambda text, *rest: calls.append(text) or real(text, *rest))
        assert main(["segment", str(inputs / "in.txt"), "--dictionary", str(inputs / "dict.txt"), "--spans"]) == 0
        assert len(calls) == 1
        assert len(json.loads(capsys.readouterr().out)["tokens"]) == 12

    def test_spans_without_json_dumps(self, inputs, monkeypatch, capsys):
        text = (inputs / "in.txt").read_text(encoding="utf-8")
        columns, sentences = segment.token_columns(text, dictionary.LoadedDictionary(["гл", "гор"]))
        expected = oracles.spans_json_reference(sentences, zip(*columns))

        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr(json, "dumps", refuse)
        argv = ["segment", str(inputs / "in.txt"), "--dictionary", str(inputs / "dict.txt"), "--spans"]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
        assert main([*argv, "--output", str(inputs / "spans.json")]) == 0
        assert (inputs / "spans.json").read_text(encoding="utf-8") == expected


class TestCollectorOffDuringCommands:
    """`main` runs a command with the cyclic garbage collector off and
    leaves it as it found it, whether the command succeeds, fails with a
    one-line error or loses its stdout reader."""

    @staticmethod
    def _run(monkeypatch, tmp_path, outcome: BaseException | None) -> tuple[int, list[bool]]:
        """`main` on a stand-in command that records whether the collector
        is on and then raises `outcome`, or returns 0 when it is None."""
        seen = []

        def command(args):
            seen.append(gc.isenabled())
            if outcome is not None:
                raise outcome
            return 0

        monkeypatch.setattr(cli, "cmd_segment", command)
        # a file of its own: the broken-pipe path points its descriptor at os.devnull
        with open(tmp_path / "stdout", "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            code = main(["segment", "in.txt", "--baseline"])
            monkeypatch.undo()
        return code, seen

    @pytest.mark.parametrize("outcome, code", [
        (None, 0), (cli.CliError("no such thing"), 1), (BrokenPipeError(), 1),
    ], ids=["exit-0", "cli-error", "broken-pipe"])
    def test_off_in_the_command_and_on_after(self, monkeypatch, tmp_path, outcome, code):
        assert gc.isenabled()
        assert self._run(monkeypatch, tmp_path, outcome) == (code, [False])
        assert gc.isenabled()

    def test_left_off_when_the_caller_had_it_off(self, monkeypatch, tmp_path):
        gc.disable()
        try:
            assert self._run(monkeypatch, tmp_path, None) == (0, [False])
            assert not gc.isenabled()
        finally:
            gc.enable()


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
        # letter runs of the segmenter that are words; a run such as '²гл'
        # breaks the word rule, and the CLI refuses it in any word list
        runs = sorted(run for run in set(re.findall(r"[^\W\d_]+", read)) if is_word(run))
        if data.draw(st.booleans(), label="baseline"):
            argv, tokens, sentences = ["--baseline"], [], oracles.baseline_segment_reference(read)
        else:
            words = data.draw(st.lists(st.sampled_from(runs), unique=True)) if runs else []
            override = data.draw(st.lists(st.sampled_from(runs), max_size=3)) if runs else []
            case_fold = data.draw(st.booleans(), label="case_fold")
            (work / "dict.txt").write_text("".join(w + "\n" for w in words), encoding="utf-8")
            (work / "override.txt").write_text("".join(w + "\n" for w in override), encoding="utf-8")
            argv = ["--dictionary", str(work / "dict.txt"), "--override-list", str(work / "override.txt")]
            argv += ["--case-fold"] if case_fold else []
            loaded = dictionary.LoadedDictionary(words, case_fold=case_fold)
            columns, sentences = segment.token_columns(read, loaded, override)
            tokens = list(zip(*columns))
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
            loaded = dictionary.LoadedDictionary(spec.abbrev_words)
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

        written = []
        real_write_all = cli._write_all

        def failing_write_all(out, data):
            # the first bytes reach the temporary file, then the write fails
            real_write_all(out, data[:3])
            out.flush()
            written.append(data[:3])
            raise ValueError("write failed")

        monkeypatch.setattr(cli, "_write_all", failing_write_all)
        code = main([
            "segment", str(tmp_path / "in.txt"), "--dictionary", str(tmp_path / "dict.txt"), "--output", str(out),
        ])
        assert code == 1 and written == ["Привет.".encode()[:3]]
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


def _gzip_header_is_fixed(data: bytes) -> bool:
    """No file name (FNAME flag clear) and mtime 0 in a gzip header."""
    return data[:2] == b"\x1f\x8b" and data[3] & 0x08 == 0 and data[4:8] == bytes(4)


class TestGzipOutputs:
    """Every output named ``*.gz`` is gzipped, with a fixed header, and
    read back by the commands that take it: its gunzipped bytes are those
    of the same output under a plain name."""

    def test_ingest_output(self, corpus, tmp_path):
        inputs = ["--unigrams", str(corpus / "1grams.tsv"), "--bigrams", str(corpus / "2grams.tsv")]
        for name in ("a.json", "a.json.gz"):
            assert main(["ingest", *inputs, "--output", str(tmp_path / name)]) == 0
        zipped = (tmp_path / "a.json.gz").read_bytes()
        assert _gzip_header_is_fixed(zipped)
        assert gzip.decompress(zipped) == (tmp_path / "a.json").read_bytes()
        assert Aggregator.load(tmp_path / "a.json.gz").to_state() == Aggregator.load(tmp_path / "a.json").to_state()

    @pytest.mark.parametrize("flag, name", [("--out-tsv", "d.tsv"), ("--out-json", "d.json"), ("--out-words", "d.txt")])
    def test_build_outputs_read_back(self, corpus, aggregate_file, tmp_path, flag, name):
        for target in (name, f"{name}.gz"):
            assert main(["build", "--aggregate", str(aggregate_file), flag, str(tmp_path / target)]) == 0
        plain, zipped = tmp_path / name, tmp_path / f"{name}.gz"
        assert _gzip_header_is_fixed(zipped.read_bytes())
        assert gzip.decompress(zipped.read_bytes()) == plain.read_bytes()
        read = {}
        for dictionary_path in (plain, zipped):
            out = tmp_path / f"{dictionary_path.name}-r"
            assert main(["segment", str(corpus / "text.txt"), "--dictionary", str(dictionary_path),
                         "--output", str(out / "sentences.txt")]) == 0
            assert main(["stats", "--aggregate", str(aggregate_file), "--dictionary", str(dictionary_path),
                         "--reports", "length-histogram,dynamics", "--out-dir", str(out)]) == 0
            read[dictionary_path] = [(out / f).read_bytes() for f in ("sentences.txt", "length-histogram.tsv",
                                                                     "dynamics.tsv")]
        assert read[plain] == read[zipped]

    @pytest.mark.parametrize("mode", [[], ["--baseline"], ["--spans"], ["--baseline", "--spans"]],
                             ids=["lines", "baseline", "spans", "baseline-spans"])
    def test_segment_output(self, corpus, tmp_path, mode):
        (tmp_path / "dict.txt").write_text("".join(f"{word}\n" for word in SPEC_DOC["abbrev_words"]), encoding="utf-8")
        argv = ["segment", str(corpus / "text.txt"), "--dictionary", str(tmp_path / "dict.txt"), *mode]
        for name in ("out", "out.gz"):
            assert main([*argv, "--output", str(tmp_path / name)]) == 0
        zipped = (tmp_path / "out.gz").read_bytes()
        assert _gzip_header_is_fixed(zipped)
        assert gzip.decompress(zipped) == (tmp_path / "out").read_bytes() != b""

    def test_failed_gzip_output_leaves_old_file(self, tmp_path, monkeypatch):
        out = tmp_path / "words.txt.gz"
        out.write_bytes(b"old\n")
        monkeypatch.setattr(dictionary, "dictionary_to_wordlist", lambda built: "гл\n\ud800\n")
        (tmp_path / "agg.json").write_text(json.dumps(_state(), ensure_ascii=False), encoding="utf-8")
        assert main(["build", "--aggregate", str(tmp_path / "agg.json"), "--out-words", str(out)]) == 1
        assert out.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["agg.json", "words.txt.gz"]


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

    @pytest.mark.parametrize("key", _WORD_LIST_KEYS)
    def test_word_list_given_as_a_string(self, tmp_path, key):
        """A string is no word list: it is refused, not split into one-letter words."""
        doc = {"abbrev_words": ["ab"], "common_words": ["cd"], key: "ab"}
        (tmp_path / "spec.json").write_text(json.dumps(doc), encoding="utf-8")
        code, errors = _main_errors(["synth", "--spec", str(tmp_path / "spec.json"), "--out-dir", str(tmp_path / "x")])
        assert (code, [record.getMessage() for record in errors]) == (
            1, [f"spec {tmp_path / 'spec.json'}: {key} must be a list of words, got 'ab'"])
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, value", [("seed", 1.5), ("seed", "7"), ("seed", True), ("volumes_divisor", 2.0)])
    def test_seed_and_divisor_are_json_ints(self, tmp_path, key, value):
        (tmp_path / "spec.json").write_text(json.dumps({**SPEC_DOC, key: value}), encoding="utf-8")
        code, errors = _main_errors(["synth", "--spec", str(tmp_path / "spec.json"), "--out-dir", str(tmp_path / "x")])
        assert code == 1 and "must be ints, the divisor >= 1" in errors[0].getMessage()

    def test_unknown_field_rejected(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"abbrev_wordz": ["а"]}), encoding="utf-8")
        assert main(["synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "x")]) == 1

    def test_word_lists_one_layout(self, tmp_path):
        """`synth`'s two word lists and `build --out-words` all end each
        word with a newline, so an empty list is an empty file."""
        doc = {"abbrev_words": [], "common_words": SPEC_DOC["common_words"], "seed": 1, "sentences": 5}
        for name, spec in [("some", SPEC_DOC), ("none", doc)]:
            (tmp_path / f"{name}.json").write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
            assert main(["synth", "--spec", str(tmp_path / f"{name}.json"), "--out-dir", str(tmp_path / name)]) == 0
            assert main(["ingest", "--unigrams", str(tmp_path / name / "1grams.tsv"), str(tmp_path / name / "2grams.tsv"),
                         "--output", str(tmp_path / name / "agg.json")]) == 0
            assert main(["build", "--aggregate", str(tmp_path / name / "agg.json"),
                         "--out-words", str(tmp_path / name / "words.txt")]) == 0
        lists = {name: [(tmp_path / name / f).read_text(encoding="utf-8")
                        for f in ("abbreviations.txt", "override.txt", "words.txt")] for name in ("some", "none")}
        assert lists["none"] == ["", "", ""]
        assert lists["some"][:2] == ["".join(f"{word}\n" for word in sorted(SPEC_DOC[key]))
                                     for key in ("abbrev_words", "title_like")]
        assert lists["some"][2] and lists["some"][2].endswith("\n") and "\n\n" not in lists["some"][2]


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

    @pytest.mark.parametrize("encoding", ["cp1251", "ascii"])
    def test_stdout_is_utf8_whatever_the_locale(self, corpus, aggregate_file, tmp_path, encoding):
        # a seed word missing from the aggregate puts Cyrillic into the warnings
        (tmp_path / "abbrevs.txt").write_text((corpus / "abbreviations.txt").read_text(encoding="utf-8") + "нет\n",
                                              encoding="utf-8")
        (tmp_path / "commons.txt").write_text("слово\nдом\n", encoding="utf-8")
        argv = [sys.executable, "-m", "abbrevkit.cli", "params", "--aggregate", str(aggregate_file),
                "--seed-abbrevs", "abbrevs.txt", "--seed-commons", "commons.txt"]
        utf8 = subprocess.run(argv, env=dict(_cli_env(), PYTHONIOENCODING="utf-8"), cwd=tmp_path, capture_output=True)
        result = subprocess.run(argv, env=dict(_cli_env(), PYTHONIOENCODING=encoding), cwd=tmp_path, capture_output=True)
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == utf8.stdout
        assert "нет" in " ".join(json.loads(result.stdout.decode("utf-8"))["warnings"])

    def test_window_far_wider_than_data(self, tmp_path):
        """A valid state whose window starts at -10**9 reads like the same
        words in a 1990-2008 state: no reader walks the window year by year."""
        words = {"др": {"1995": [9, 10, 1]}, "год": {"1995": [1, 10, 1]}}
        (tmp_path / "a.txt").write_text("др\n", encoding="utf-8")
        (tmp_path / "c.txt").write_text("год\n", encoding="utf-8")
        runs = {}
        for name, low in [("narrow", 1990), ("wide", -10**9)]:
            state = _state(words=words)
            state["config"].update(year_min=low, year_floor=min(low, state["config"]["year_floor"]))
            (tmp_path / f"{name}.json").write_text(json.dumps(state, ensure_ascii=False), encoding="utf-8")
            for command in (["params", "--mean-window", "1990:2008"],
                            ["stats", "--reports", "p-series", "--out-dir", f"{name}-r"]):
                result = subprocess.run(
                    [sys.executable, "-m", "abbrevkit.cli", *command, "--aggregate", f"{name}.json",
                     "--seed-abbrevs", "a.txt", "--seed-commons", "c.txt"],
                    capture_output=True, env=_cli_env(), cwd=tmp_path, timeout=60,
                )
                assert result.returncode == 0, result.stderr
                runs[name, command[0]] = result.stdout
            runs[name, "stats"] = (tmp_path / f"{name}-r" / "p-series.tsv").read_bytes()
        assert runs["wide", "params"] == runs["narrow", "params"]
        assert json.loads(runs["wide", "params"])["min_usage"]["total"] >= 1
        assert runs["wide", "stats"] == runs["narrow", "stats"] == b"# year\tp0\tp1\n1995\t0.1\t0.9\n"

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
        # one file holds both kinds of line; given twice it would be refused
        assert main(["ingest", "--unigrams", str(src), "--output", str(agg)]) == 0
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

    def test_exhausted_search_beside_the_p_series_means(self, tmp_path, capsys):
        """Seed means of 0.30 and 0.31 are too close for the error targets:
        `min_usage` holds the search's error, and the means are those of the
        p-series report on the same inputs."""
        words = {"др": {str(y): [31, 100, 1] for y in range(1990, 2009)},
                 "год": {str(y): [30, 100, 1] for y in range(1990, 2009)}}
        (tmp_path / "agg.json").write_text(json.dumps(_state(words=words), ensure_ascii=False), encoding="utf-8")
        (tmp_path / "a.txt").write_text("др\n", encoding="utf-8")
        (tmp_path / "c.txt").write_text("год\n", encoding="utf-8")
        inputs = ["--aggregate", str(tmp_path / "agg.json"),
                  "--seed-abbrevs", str(tmp_path / "a.txt"), "--seed-commons", str(tmp_path / "c.txt")]
        assert main(["params", *inputs]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["min_usage"] == {"error": "no N <= 10000 reaches alpha <= 0.001 and beta <= 0.001"}
        assert doc["mean_p0"] == pytest.approx(0.30) and doc["mean_p1"] == pytest.approx(0.31)
        assert main(["stats", *inputs, "--reports", "p-series", "--out-dir", str(tmp_path / "r")]) == 0
        meta = json.loads((tmp_path / "r" / "p-series.json").read_text(encoding="utf-8"))["meta"]
        assert (meta["mean_p0"], meta["mean_p1"]) == (doc["mean_p0"], doc["mean_p1"])


class TestEveryDictionaryFormat:
    """Each dictionary format `build` writes is read alike, as a dictionary
    and as an override or seed list."""

    @pytest.fixture()
    def built(self, aggregate_file, tmp_path):
        outs = {suffix: tmp_path / f"dict.{suffix}" for suffix in ("txt", "tsv", "json")}
        assert main(["build", "--aggregate", str(aggregate_file), "--out-words", str(outs["txt"]),
                     "--out-tsv", str(outs["tsv"]), "--out-json", str(outs["json"])]) == 0
        return outs

    @pytest.mark.parametrize("suffix", ["tsv", "json"])
    def test_override_list(self, corpus, built, tmp_path, suffix):
        def segmented(*override):
            out = tmp_path / "sentences.txt"
            argv = ["segment", str(corpus / "text.txt"), "--dictionary", str(built["txt"]), *override]
            assert main([*argv, "--output", str(out)]) == 0
            return out.read_bytes()

        plain = segmented("--override-list", str(built["txt"]))
        assert plain != segmented()
        assert segmented("--override-list", str(built[suffix])) == plain

    @pytest.mark.parametrize("suffix", ["tsv", "json"])
    def test_seed_list(self, aggregate_file, built, tmp_path, capsys, suffix):
        (tmp_path / "commons.txt").write_text("слово\nдом\n", encoding="utf-8")

        def outputs(seeds):
            argv = ["--aggregate", str(aggregate_file), "--seed-abbrevs", str(seeds),
                    "--seed-commons", str(tmp_path / "commons.txt")]
            capsys.readouterr()
            assert main(["params", *argv]) == 0
            out = tmp_path / "reports"
            assert main(["stats", *argv, "--reports", "p-series", "--out-dir", str(out)]) == 0
            return [capsys.readouterr().out.encode("utf-8")] + [
                (out / name).read_bytes() for name in ("p-series.tsv", "p-series.json")
            ]

        assert outputs(built[suffix]) == outputs(built["txt"])

    def test_case_folded_dotted_capital_i(self, tmp_path):
        # lower() of U+0130 ends in the combining mark U+0307
        src = tmp_path / "c.tsv"
        src.write_text("".join(f"İstanbul\t{year}\t100\t10\nİstanbul .\t{year}\t95\t9\n" for year in (1995, 1996)),
                       encoding="utf-8")
        agg = tmp_path / "agg.json"
        assert main(["ingest", "--unigrams", str(src), "--case-fold", "--output", str(agg)]) == 0
        assert list(Aggregator.load(agg).finalize()) == ["i\u0307stanbul"]
        outs = [tmp_path / "dict.tsv", tmp_path / "dict.json", tmp_path / "dict.txt"]
        assert main(["build", "--aggregate", str(agg), "--out-tsv", str(outs[0]), "--out-json", str(outs[1]),
                     "--out-words", str(outs[2])]) == 0
        for out in outs:
            assert dictionary.load_dictionary(out).words == ("i\u0307stanbul",), out


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


def _usage_outcome(argv: list[str], whole: bool) -> tuple[str, list[str]]:
    """What `main(argv)`, or a parse of `argv` by the whole parser of
    `build_parser()`, prints on stdout, with its errors and exit."""
    out = io.StringIO()
    try:
        if whole:
            with contextlib.redirect_stdout(out):
                build_parser().parse_args(argv)
            return out.getvalue(), ["parsed"]
        _, errors = _main_errors(argv, out)
        return out.getvalue(), [record.getMessage() for record in errors]
    except SystemExit as exc:
        return out.getvalue(), [f"exit {exc.code}"]
    except cli.CliError as exc:
        return out.getvalue(), [str(exc)]


_COMMAND_ARGV = {
    "ingest": ["ingest", "--unigrams", "in.txt", "--output", "a.json"],
    "build": ["build", "--aggregate", "agg.json", "--out-words", "d.txt"],
    "stats": ["stats", "--aggregate", "agg.json", "--out-dir", "r"],
    "segment": ["segment", "in.txt", "--baseline"],
    "synth": ["synth", "--spec", "spec.json", "--out-dir", "out"],
    "params": ["params", "--aggregate", "agg.json", "--seed-abbrevs", "a.txt", "--seed-commons", "c.txt"],
}


class TestParserPerCommand:
    """`main` builds the options of the named command alone; its help,
    its usage errors and its config errors are those of the whole parser
    that `build_parser()` makes."""

    @staticmethod
    def _signature(action: argparse.Action) -> tuple:
        # a type made by _int_at_least or _comma_list is a fresh closure per parser
        kind = action.type
        if kind is not None and getattr(kind, "__closure__", None):
            kind = (kind.__qualname__, *(cell.cell_contents for cell in kind.__closure__))
        fields = {key: value for key, value in vars(action).items() if key != "container"}
        return type(action), {**fields, "type": kind}

    @pytest.mark.parametrize("command", sorted(_COMMAND_ARGV))
    def test_same_actions_as_the_whole_parser(self, command):
        def subparsers(parser):
            return next(action.choices for action in parser._actions if action.dest == "command")

        whole, own = subparsers(build_parser()), subparsers(build_parser([command]))
        assert list(own) == list(whole)
        assert [self._signature(a) for a in own[command]._actions] == [
            self._signature(a) for a in whole[command]._actions]
        # the other commands are named, with no option but --help
        assert all([a.dest for a in p._actions] == ["help"] for name, p in own.items() if name != command)

    @pytest.mark.parametrize("argv", [
        ["--help"], [], ["bogus"], ["-v"], ["--config"], ["-h", "build"],
        *([command, "--help"] for command in _COMMAND_ARGV),
        *([command] for command in _COMMAND_ARGV if command != "segment"),  # segment's input defaults to stdin
        *([*argv, "--no-such-flag"] for argv in _COMMAND_ARGV.values()),
        *(["-v", command, "-h"] for command in _COMMAND_ARGV),
        ["build", "--aggregate", "a", "--method", "x"], ["stats", "--aggregate", "a", "--out-dir", "r",
                                                         "--reports", "x"],
        ["ingest", "--output", "a", "--jobs", "0"], ["params", "--aggregate", "a", "--window", "x"],
    ], ids=repr)
    def test_help_and_usage_errors_as_the_whole_parser(self, argv):
        assert _usage_outcome(argv, whole=False) == _usage_outcome(argv, whole=True)

    @pytest.mark.parametrize("argv, without", [
        (["--"], []), (["--", "build"], ["build"]), (["-v", "--", "build"], ["-v", "build"]),
        (["--", "bogus"], ["bogus"]), (["--", "build", "--help"], ["build", "--help"]),
    ], ids=repr)
    def test_leading_double_dash_is_dropped(self, argv, without):
        """A `--` before the command is dropped: argparse alone would take
        it for the command and fail with `invalid choice: '--'`."""
        assert _usage_outcome(argv, whole=False) == _usage_outcome(without, whole=True)

    @pytest.mark.parametrize("command, entry", [
        ("ingest", {"jobs": 0}), ("build", {"min_total": "x"}), ("stats", {"top_k": [1]}),
        ("segment", {"spans": "yes"}), ("synth", {"out_dir": {}}), ("params", {"alpha_target": "x"}),
    ])
    def test_config_errors_name_the_config(self, tmp_path, command, entry):
        config = _config(tmp_path, entry)
        code, errors = _main_errors(["--config", config, *_COMMAND_ARGV[command]])
        assert code == 1 and len(errors) == 1
        assert errors[0].getMessage().endswith(f"(from --config {config})"), errors[0].getMessage()


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
    """numpy serves only `synth`, so no other command pays for importing
    it: `stats` fits its line in exact rationals."""

    def test_not_loaded_by_other_commands(self, corpus, aggregate_file, tmp_path):
        words = str(tmp_path / "dict.txt")
        text, override = str(corpus / "text.txt"), str(corpus / "override.txt")
        (tmp_path / "commons.txt").write_text("слово\nдом\nгод\n", encoding="utf-8")
        seeds = ["--seed-abbrevs", str(corpus / "abbreviations.txt"), "--seed-commons", str(tmp_path / "commons.txt")]
        (tmp_path / "spec.json").write_text(json.dumps(SPEC_DOC, ensure_ascii=False), encoding="utf-8")
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
             "--reports", ",".join(analytics.REPORT_KINDS), *seeds],
            ["synth", "--spec", str(tmp_path / "spec.json"), "--out-dir", str(tmp_path / "synth")],
        ]
        out = tmp_path / "loaded.json"
        result = subprocess.run(
            [sys.executable, "-c", _NUMPY_PROBE, json.dumps(steps), str(out)],
            env=_cli_env(), cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert sorted(path.stem for path in (tmp_path / "r").glob("*.json")) == sorted(analytics.REPORT_KINDS)
        # the dictionary has words of two lengths, so `stats` made a fit
        fit = json.loads((tmp_path / "r" / "freq-by-length.json").read_text(encoding="utf-8"))["meta"]["fit"]
        assert set(fit) == {"slope", "intercept", "r_squared"}
        loaded = [has_numpy for _, has_numpy in json.loads(out.read_text())]
        # the last step draws with numpy, which shows the probe sees it
        assert loaded == [False] * (len(steps) - 1) + [True]


# run in a fresh interpreter: import abbrevkit alone (argv null) or run
# cli.main(argv), then record the abbrevkit modules loaded
_IMPORT_PROBE = """
import json, sys
argv, out = json.loads(sys.argv[1]), sys.argv[2]
if argv is None:
    import abbrevkit
else:
    from abbrevkit.cli import main
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    if code != 0:
        raise SystemExit(f"{argv} failed")
with open(out, "w") as handle:
    json.dump(sorted(name for name in sys.modules if name.startswith("abbrevkit.")), handle)
"""

_BUILD_MODULES = ["cli", "dictionary", "ingest", "likelihood"]
# each step of the probe and the modules it may load, no more and no fewer
_IMPORT_PLAN = {
    "package": [],
    "help": ["cli", "ingest"],
    "ingest": ["cli", "ingest"],
    "build": _BUILD_MODULES,
    "params": _BUILD_MODULES,
    "stats": ["analytics", *_BUILD_MODULES],
    "segment": ["cli", "dictionary", "ingest", "segment"],
    "segment-baseline-spans": ["cli", "dictionary", "ingest", "segment"],
    "synth": ["cli", "ingest", "synth"],
}


class TestImportPlan:
    """Each command loads only the abbrevkit modules it runs, so no call
    compiles or imports the rest, and importing the package loads none
    of its modules: a stray top-level import fails here."""

    def test_each_command_loads_its_modules(self, corpus, aggregate_file, tmp_path):
        words = str(tmp_path / "dict.txt")
        assert main(["build", "--aggregate", str(aggregate_file), "--out-words", words]) == 0
        (tmp_path / "commons.txt").write_text("слово\nдом\nгод\n", encoding="utf-8")
        (tmp_path / "spec.json").write_text(json.dumps(SPEC_DOC, ensure_ascii=False), encoding="utf-8")
        seeds = ["--seed-abbrevs", str(corpus / "abbreviations.txt"), "--seed-commons", str(tmp_path / "commons.txt")]
        text = str(corpus / "text.txt")
        steps = {
            "package": None,
            "help": ["--help"],
            "ingest": ["ingest", "--unigrams", str(corpus / "1grams.tsv"), "--bigrams", str(corpus / "2grams.tsv"),
                       "--output", str(tmp_path / "a.json.gz"), "--jobs", "2"],
            "build": ["build", "--aggregate", str(aggregate_file), "--method", "lrt",
                      "--alpha-target", "0.001", "--beta-target", "0.001", "--out-tsv", str(tmp_path / "d.tsv")],
            "params": ["params", "--aggregate", str(aggregate_file), *seeds],
            "stats": ["stats", "--aggregate", str(aggregate_file), "--dictionary", words,
                      "--out-dir", str(tmp_path / "r"), *seeds],
            "segment": ["segment", text, "--dictionary", words, "--override-list", str(corpus / "override.txt"),
                        "--output", str(tmp_path / "s1")],
            "segment-baseline-spans": ["segment", text, "--baseline", "--spans", "--output", str(tmp_path / "s2")],
            "synth": ["synth", "--spec", str(tmp_path / "spec.json"), "--out-dir", str(tmp_path / "synth")],
        }
        loaded = {}
        for name, argv in steps.items():
            out = tmp_path / f"{name}.modules.json"
            result = subprocess.run(
                [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argv), str(out)],
                env=_cli_env(), cwd=tmp_path, capture_output=True, text=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            loaded[name] = [module.removeprefix("abbrevkit.") for module in json.loads(out.read_text())]
        assert loaded == _IMPORT_PLAN

    def test_package_names_come_from_their_modules(self):
        for name in abbrevkit.__all__:
            if name != "__version__":
                value = getattr(abbrevkit, name)
                assert getattr(sys.modules[value.__module__], name) is value, name
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            abbrevkit.no_such_name
        from abbrevkit import synth as module  # a submodule, not a public name

        assert module is synth


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
    doc = {"format": "abbrevkit-dictionary", "version": 1, "build_meta": {}, "entries": [{"word": "гл"}], **changes}
    return {key: value for key, value in doc.items() if value is not None}


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
    "corpus-shard-given-twice": (
        ["ingest", "--unigrams", "bad.tsv", "bad.tsv", "--output", "a.json"], "др\t1995\t5\t1\n".encode("utf-8"),
    ),
    "corpus-shard-two-spellings": (
        ["ingest", "--unigrams", "bad.tsv", "--bigrams", "./bad.tsv", "--output", "a.json"],
        "др\t1995\t5\t1\n".encode("utf-8"),
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
    "synth-default-p1-string": (SYNTH, {"abbrev_words": ["ab"], "common_words": ["cd"], "default_p1": "0.9"}),
    "synth-default-p0-true": (SYNTH, {"abbrev_words": ["ab"], "common_words": ["cd"], "default_p0": True}),
    "synth-word-map-string": (SYNTH, {"abbrev_words": {"ab": "0.9"}, "common_words": ["cd"]}),
    "synth-word-map-false": (SYNTH, {"abbrev_words": ["ab"], "common_words": {"cd": False}}),
    "synth-period-comma-swap-true": (SYNTH, {"abbrev_words": ["ab"], "common_words": ["cd"],
                                             "period_comma_swap": True}),
    "synth-period-comma-swap-string": (SYNTH, {"abbrev_words": ["ab"], "common_words": ["cd"],
                                               "period_comma_swap": "0.5"}),
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
    "flag-verbose-unknown": (["-v", "build", "--aggregate", "agg.json", "--out-words", "d.txt"], {}),
    "flag-max-volumes-zero": (["stats", "--aggregate", "agg.json", "--max-volumes", "0", "--out-dir", "r"], {}),
    "config-max-volumes-zero": (CONFIG_STATS, {"max_volumes": 0}),
    "flag-year-floor-above-ceiling": (["ingest", "--unigrams", "in.txt", "--output", "a.json",
                                       "--year-floor", "2100", "--year-ceiling", "1500"], {}),
    "flag-window-below-year-floor": (["ingest", "--unigrams", "in.txt", "--output", "a.json",
                                      "--window", "1990:2008", "--year-floor", "2001"], {}),
    "flag-c-infinite": (["build", "--aggregate", "agg.json", "--method", "lrt", "--C", "inf", "--min-total", "1",
                         "--out-words", "d.txt"], {}),
    "flag-p0-p1-adjacent": (["build", "--aggregate", "agg.json", "--method", "lrt", "--p0", "0.4389616300445631",
                             "--p1", "0.4389616300445632", "--min-total", "1", "--out-words", "d.txt"], {}),
    "aggregate-word-empty": (BUILD, _state(words={"": {"1995": [9, 10, 1]}})),
    "aggregate-word-with-tab": (BUILD, _state(words={"a\tb c": {"1995": [9, 10, 1]}})),
    "aggregate-word-hash": (BUILD, _state(words={"#x": {"1995": [9, 10, 1]}})),
    "dictionary-entry-hash": (SEGMENT, _dictionary_doc(entries=[{"word": "#x"}])),
    "dictionary-version-99": (SEGMENT, _dictionary_doc(version=99)),
    "dictionary-version-true": (SEGMENT, _dictionary_doc(version=True)),
    "dictionary-version-float": (SEGMENT, _dictionary_doc(version=1.0)),
    "dictionary-without-entries": (SEGMENT, _dictionary_doc(entries=None)),
    "dictionary-without-build-meta": (SEGMENT, _dictionary_doc(build_meta=None)),
    "dictionary-tsv-columns-junk": (["segment", "in.txt", "--dictionary", "bad.tsv"],
                                    "др\tx\ty\tz\tq\tw\te\tjunk\n".encode("utf-8")),
    "stats-dictionary-tsv-flags-unsorted": (["stats", "--aggregate", "agg.json", "--dictionary", "bad.tsv",
                                             "--out-dir", "out"],
                                            "гл\t0.95\t19\t20\t2\t1\tlrt\tb,a\n".encode("utf-8")),
    "stats-dictionary-without-entries": (["stats", "--aggregate", "agg.json", "--dictionary", "bad.json",
                                          "--reports", "length-histogram", "--out-dir", "r"],
                                         _dictionary_doc(entries=None)),
    "aggregate-version-true": (BUILD, _state(version=True)),
    "aggregate-version-float": (BUILD, _state(version=1.0)),
    "seed-word-digit": (["params", "--aggregate", "agg.json", "--seed-abbrevs", "bad.txt", "--seed-commons", "in.txt"],
                        "др\nг1\n".encode("utf-8")),
    "override-word-inner-space": (["segment", "in.txt", "--baseline", "--override-list", "bad.txt"],
                                  "гор\nгл вторая\n".encode("utf-8")),
    # Le Cam's bound puts any N meeting both targets beyond the search's cap
    "flag-error-targets-out-of-reach": (["build", "--aggregate", "agg.json", "--method", "lrt", "--p0", "0.3",
                                         "--p1", "0.31", "--alpha-target", "0.001", "--beta-target", "0.001",
                                         "--out-words", "d.txt"], {}),
    # the float log-ratio slope is -1.4e-17 here: an error-target scan would run for minutes
    "flag-p0-p1-flat-error-targets": (["build", "--aggregate", "agg.json", "--method", "lrt", "--p0", "0.1",
                                       "--p1", "0.10000000000000002", "--alpha-target", "0.001",
                                       "--beta-target", "0.001", "--out-words", "d.txt"], {}),
}
# case -> parts its ERROR line must contain, besides the name of its bad.* file
MESSAGE_PARTS = {
    "aggregate-not-json": ["cannot read bad.json:", "Expecting value"],
    "aggregate-gz-not-gzip": ["cannot read bad.json.gz:", "Not a gzipped file"],
    "corpus-line-malformed-abort": ["cannot read bad.tsv:", "line 2:"],
    "corpus-shard-given-twice": ["input file given twice: bad.tsv and bad.tsv"],
    "corpus-shard-two-spellings": ["input file given twice: bad.tsv and ./bad.tsv"],
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
    "flag-c-infinite": ["decision threshold C", "inf"],
    "flag-p0-p1-adjacent": ["p0=0.4389616300445631", "p1=0.4389616300445632"],
    "aggregate-word-empty": ["aggregate state:", "word key ''"],
    "aggregate-word-with-tab": ["aggregate state:", "word key 'a\\tb c'"],
    "aggregate-word-hash": ["aggregate state:", "word key '#x' is not a word"],
    "dictionary-entry-hash": ["entry 0", "'#x' is not a word"],
    "dictionary-version-99": ["unsupported dictionary version 99"],
    "dictionary-version-true": ["unsupported dictionary version True"],
    "dictionary-version-float": ["unsupported dictionary version 1.0"],
    "dictionary-without-entries": ["needs 'entries' and 'build_meta'"],
    "dictionary-without-build-meta": ["needs 'entries' and 'build_meta'"],
    "dictionary-tsv-columns-junk": ["dictionary bad.tsv line 1:", "median_share 'x'"],
    "stats-dictionary-tsv-flags-unsorted": ["dictionary bad.tsv line 1:", "flags 'b,a'"],
    "stats-dictionary-without-entries": ["needs 'entries' and 'build_meta'"],
    "aggregate-version-true": ["unsupported aggregate state version True"],
    "aggregate-version-float": ["unsupported aggregate state version 1.0"],
    "seed-word-digit": ["line 2:", "'г1' is not a word"],
    "override-word-inner-space": ["line 2:", "'гл вторая' is not a word"],
    "flag-p0-p1-flat-error-targets": ["min usage search", "p0=0.1", "p1=0.10000000000000002"],
    "flag-error-targets-out-of-reach": ["no N <= 10000 reaches alpha <= 0.001 and beta <= 0.001"],
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
    "flag-verbose-unknown": ["unrecognized arguments: -v"],
    "flag-max-volumes-zero": ["--max-volumes", "'0'"],
    "config-max-volumes-zero": ["--max-volumes", "'0'"],
    "synth-default-p1-string": ["spec bad.json: default_p1 must be a number, got '0.9'"],
    "synth-default-p0-true": ["spec bad.json: default_p0 must be a number, got True"],
    "synth-word-map-string": ["spec bad.json: abbrev_words['ab'] must be a number, got '0.9'"],
    "synth-word-map-false": ["spec bad.json: common_words['cd'] must be a number, got False"],
    "synth-period-comma-swap-true": ["spec bad.json: period_comma_swap must be a number, got True"],
    "synth-period-comma-swap-string": ["spec bad.json: period_comma_swap must be a number, got '0.5'"],
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
            input=stdin, capture_output=True, env=_cli_env(), cwd=tmp_path, timeout=60,
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

    @pytest.mark.parametrize("config", [{"method": "median"}, {"min_total": -1}], ids=["argv", "argv-and-config"])
    def test_flag_error_in_argv_names_no_config(self, tmp_path, config):
        """A bad flag on the command line, alone or also in the config, is
        the command line's own error, in process as in a subprocess."""
        (tmp_path / "ok.json").write_text(json.dumps(config), encoding="utf-8")
        code, errors = _main_errors(["--config", str(tmp_path / "ok.json"), "build", "--aggregate", "agg.json",
                                     "--out-words", "d.txt", "--min-total", "-1"])
        assert code == 1
        assert [record.getMessage() for record in errors] == [
            "abbrevkit build: argument --min-total: expected an int >= 0, got '-1'"]

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

    @pytest.mark.parametrize("content", list(dict.fromkeys([
        "1_995\t5", "١٩٩٥\t5", "1995\t 5", "1995\t+5", "+1995\t5", "01995\t5", "-0\t5",
        *(f"{year}\t5" for year in BAD_YEAR_SPELLINGS), *(f"1995\t{count}" for count in BAD_COUNT_SPELLINGS),
        "1995\t5\tjunk", "1995\t5\u20281997\t7", "1995\t5\x851997\t7",
    ])))
    def test_totals_year_and_count_in_plain_digits_only(self, tmp_path, content):
        # an int() spelling of a year or a count, which the number rule refuses, or a third field
        (tmp_path / "totals.tsv").write_text(f"1996\t7\n{content}\n", encoding="utf-8")
        (tmp_path / "words.txt").write_text("др\n", encoding="utf-8")
        line = self._error_line(tmp_path, ["stats", "--aggregate", "agg.json", "--dictionary", "words.txt",
                                           "--reports", "dynamics", "--totals", "totals.tsv", "--out-dir", "r"])
        assert line.endswith(f"totals file totals.tsv line 2: expected 'year TAB count' as ints, got {content!r}"), line
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("space", ["\u00a0", "\u2028", "\u3000", "\x1f"])
    @pytest.mark.parametrize("content", ["{}", "{}# comment", "1995\t5{}"], ids=["blank", "comment", "trailing"])
    def test_totals_trims_only_spaces_and_tabs(self, tmp_path, space, content):
        # a line that only another space makes blank, or a comment, is read as a number line and refused
        line_text = content.format(space)
        (tmp_path / "totals.tsv").write_text(f"1996\t7\n{line_text}\n", encoding="utf-8")
        (tmp_path / "words.txt").write_text("др\n", encoding="utf-8")
        line = self._error_line(tmp_path, ["stats", "--aggregate", "agg.json", "--dictionary", "words.txt",
                                           "--reports", "dynamics", "--totals", "totals.tsv", "--out-dir", "r"])
        assert line.endswith(f"totals file totals.tsv line 2: expected 'year TAB count' as ints, got {line_text!r}"), line

    def test_totals_blank_and_comment_lines_of_spaces_and_tabs(self, tmp_path):
        (tmp_path / "agg.json").write_text(json.dumps(_state(), ensure_ascii=False), encoding="utf-8")
        (tmp_path / "words.txt").write_text("др\n", encoding="utf-8")
        (tmp_path / "totals.tsv").write_text(" \t\n1995\t5\n\t # comment\n  \n", encoding="utf-8")
        code, errors = _main_errors(["stats", "--aggregate", str(tmp_path / "agg.json"), "--dictionary",
                                     str(tmp_path / "words.txt"), "--reports", "dynamics", "--totals",
                                     str(tmp_path / "totals.tsv"), "--out-dir", str(tmp_path / "r")])
        assert (code, errors) == (0, [])


_INGEST = ["ingest", "--unigrams", "in.txt", "--output", "a.json"]
_BUILD = ["build", "--aggregate", "agg.json", "--out-words", "d.txt"]
_STATS = ["stats", "--aggregate", "agg.json", "--dictionary", "words.txt", "--reports", "dynamics", "--out-dir", "r"]
_PARAMS = ["params", "--aggregate", "agg.json", "--seed-abbrevs", "abbrevs.txt", "--seed-commons", "commons.txt"]
# each count flag, with its least value and a command that takes it
_COUNT_FLAGS = {"--jobs": (1, _INGEST), "--min-total": (0, _BUILD), "--min-volumes": (0, _BUILD),
                "--min-active-years": (0, _BUILD), "--top-k": (0, _STATS), "--max-volumes": (1, _STATS)}


class TestOneNumberRule:
    """Corpus lines and every year and count flag refuse each spelling
    that `int` reads but `ingest.parse_year`/`parse_count` do not, with
    their own one-line error (`--totals` and the aggregate's year keys
    take the same list in their own tests); counts with leading zeros and
    negative years under a negative floor are read.  Each run is in
    process, in a `_fuzz_dir`."""

    @staticmethod
    def _run(tmp_path_factory, argv: list[str], files: dict[str, str] | None = None):
        """The run's directory, exit code and ERROR messages."""
        work = _fuzz_dir(tmp_path_factory)
        for name, text in (files or {}).items():
            (work / name).write_text(text, encoding="utf-8")
        with contextlib.chdir(work):
            code, errors = _main_errors(argv)
        return work, code, [record.getMessage() for record in errors]

    @pytest.mark.parametrize("line", [
        *(f"др\t{year}\t7\t1" for year in BAD_YEAR_SPELLINGS),
        *(f"др\t1995\t{count}\t1" for count in BAD_COUNT_SPELLINGS),
        *(f"др .\t1995\t5000\t{count}" for count in BAD_COUNT_SPELLINGS),
    ])
    def test_corpus_line(self, tmp_path_factory, line):
        files = {"shard.tsv": f"гл\t1995\t5\t1\n{line}\n"}
        work, code, errors = self._run(tmp_path_factory, ["ingest", "--unigrams", "shard.tsv", "--output", "a.json"],
                                       files)
        assert (code, errors) == (0, [])
        state = json.loads((work / "a.json").read_text(encoding="utf-8"))
        assert state["counters"] == {"lines_parsed": 1, "lines_skipped": 1}
        assert state["words"] == {"гл": {"1995": [0, 5, 0]}}
        work, code, errors = self._run(tmp_path_factory, ["ingest", "--unigrams", "shard.tsv", "--output", "a.json",
                                                          "--on-error", "abort"], files)
        fields = "/".join(map(repr, line.split("\t")[1:]))
        assert (code, errors) == (1, [f"cannot read shard.tsv: line 2: non-integer count fields: {fields}"])
        assert not (work / "a.json").exists()

    @pytest.mark.parametrize("flag, argv", [("--window", _INGEST), ("--window", _BUILD),
                                            ("--dynamics-window", _STATS), ("--mean-window", _PARAMS)])
    @pytest.mark.parametrize("year", BAD_YEAR_SPELLINGS)
    def test_window_flags(self, tmp_path_factory, flag, argv, year):
        for window in (f"{year}:2008", f"1990:{year}"):
            _, code, errors = self._run(tmp_path_factory, [*argv, f"{flag}={window}"])
            assert (code, errors) == (
                1, [f"abbrevkit {argv[0]}: argument {flag}: expected 'first:last' years, got {window!r}"])

    @pytest.mark.parametrize("flag", ["--year-floor", "--year-ceiling"])
    @pytest.mark.parametrize("year", BAD_YEAR_SPELLINGS)
    def test_year_limit_flags(self, tmp_path_factory, flag, year):
        _, code, errors = self._run(tmp_path_factory, [*_INGEST, f"{flag}={year}"])
        assert (code, errors) == (1, [f"abbrevkit ingest: argument {flag}: expected a year, got {year!r}"])

    @pytest.mark.parametrize("flag", sorted(_COUNT_FLAGS))
    @pytest.mark.parametrize("count", BAD_COUNT_SPELLINGS)
    def test_count_flags(self, tmp_path_factory, flag, count):
        low, argv = _COUNT_FLAGS[flag]
        _, code, errors = self._run(tmp_path_factory, [*argv, f"{flag}={count}"])
        assert (code, errors) == (1, [f"abbrevkit {argv[0]}: argument {flag}: expected an int >= {low}, got {count!r}"])

    def test_counts_with_leading_zeros(self, tmp_path_factory):
        work, code, errors = self._run(tmp_path_factory, ["ingest", "--unigrams", "shard.tsv", "--output", "a.json",
                                                          "--jobs", "01"], {"shard.tsv": "гл\t1995\t007\t001\n"})
        assert (code, errors) == (0, [])
        assert json.loads((work / "a.json").read_text(encoding="utf-8"))["words"] == {"гл": {"1995": [0, 7, 0]}}
        for argv in ([*_BUILD, "--min-total", "007"], [*_STATS, "--top-k", "007", "--totals", "totals.tsv"]):
            assert self._run(tmp_path_factory, argv, {"totals.tsv": "1995\t007\n"})[1:] == (0, [])

    def test_negative_years_under_a_negative_floor(self, tmp_path_factory):
        work, code, errors = self._run(
            tmp_path_factory, ["ingest", "--unigrams", "shard.tsv", "--output", "a.json", "--year-floor=-500",
                               "--window=-100:2008"], {"shard.tsv": "гл\t-50\t5\t1\nгл\t-101\t5\t1\n"})
        assert (code, errors) == (0, [])
        state = json.loads((work / "a.json").read_text(encoding="utf-8"))
        assert (state["counters"], state["words"]) == ({"lines_parsed": 2, "lines_skipped": 0}, {"гл": {"-50": [0, 5, 0]}})
        with contextlib.chdir(work):
            assert _main_errors(["build", "--aggregate", "a.json", "--window=-60:-40", "--min-total", "0",
                                 "--out-words", "d.txt"]) == (0, [])


# word-list files in the three dictionary formats, holding any words
_LIST_WORDS = st.text(st.sampled_from([*"дрГлab#1²{}\".,\\ ", "\t", "\u0301", "\u0307", "İ"]), max_size=5)
_WORD_LISTS = st.one_of(
    st.lists(_LIST_WORDS, max_size=4).map("\n".join),
    st.lists(_LIST_WORDS, max_size=3).map(
        lambda words: "".join(f"{word}\t0.95\t19\t20\t2\t1\tmedian-threshold\t-\n" for word in words)
    ),
    st.lists(_LIST_WORDS | st.integers() | st.none(), max_size=3).map(
        lambda words: json.dumps(_dictionary_doc(entries=[{"word": word} for word in words]), ensure_ascii=False)
    ),
)


def _main_errors(argv: list[str], stdout: TextIO | None = None) -> tuple[int, list[logging.LogRecord]]:
    """`main(argv)` in this process, with stdout sent to `stdout` or
    discarded (a text layer over bytes, as `segment` and `params` write
    to `sys.stdout.buffer`): its exit code and the ERROR records it logged."""
    errors = []
    handler = logging.Handler(logging.ERROR)
    handler.emit = errors.append
    logging.getLogger("abbrevkit").addHandler(handler)
    try:
        with contextlib.redirect_stdout(stdout or io.TextIOWrapper(io.BytesIO(), encoding="utf-8")):
            code = main(argv)
    finally:
        logging.getLogger("abbrevkit").removeHandler(handler)
    return code, errors


def _exit_0_or_one_error(code: int, errors: list[logging.LogRecord]) -> bool:
    return code in (0, 1) and len(errors) == code and all("\n" not in record.getMessage() for record in errors)


class TestWordListFuzz:
    """Any dictionary, override or seed list through `main` exits 0 with
    no ERROR line or 1 with one, and raises nothing."""

    ROLES = {
        "dictionary": ["segment", "in.txt", "--dictionary", "list", "--output", "out.txt"],
        "stats-dictionary": ["stats", "--aggregate", "agg.json", "--dictionary", "list",
                             "--reports", "length-histogram", "--out-dir", "r"],
        "override": ["segment", "in.txt", "--dictionary", "words.txt", "--override-list", "list", "--output", "out.txt"],
        "seed": ["params", "--aggregate", "agg.json", "--seed-abbrevs", "list", "--seed-commons", "words.txt"],
    }

    @given(st.sampled_from(sorted(ROLES)), _WORD_LISTS)
    @settings(max_examples=150, deadline=None)
    def test_exit_and_error_lines(self, tmp_path_factory, role, content):
        work = tmp_path_factory.mktemp("lists")
        words = {"др": {"1995": [9, 10, 1]}, "гл": {"1995": [1, 10, 1]}}
        (work / "agg.json").write_text(json.dumps(_state(words=words), ensure_ascii=False), encoding="utf-8")
        (work / "in.txt").write_text("Смотри гл. Вторая гор. Казань.", encoding="utf-8")
        (work / "words.txt").write_text("гл\n", encoding="utf-8")
        (work / "list").write_text(content, encoding="utf-8")
        names = {"agg.json", "in.txt", "words.txt", "list", "out.txt", "r"}
        argv = [str(work / arg) if arg in names else arg for arg in self.ROLES[role]]
        assert _exit_0_or_one_error(*_main_errors(argv))


class TestAggregateFuzz:
    """A valid aggregate state with faults in its counts, year keys,
    cells, word values, word keys, counters or config, through `build`,
    `stats` and `params` in `main`: exit 0 with no ERROR record or 1 with
    one single-line one, and no exception.  Each command refuses exactly
    the states the per-cell checker (`oracles.from_state_reference`)
    refuses."""

    @given(aggregate_states(), st.sampled_from(["median", "lrt", "both-must-agree"]))
    @settings(max_examples=150, deadline=None)
    def test_build_and_stats(self, tmp_path_factory, state, method):
        work = tmp_path_factory.mktemp("aggregates")
        text = json.dumps(state, ensure_ascii=False)
        (work / "agg.json").write_text(text, encoding="utf-8")
        (work / "abbrevs.txt").write_text("др\nгл\n", encoding="utf-8")
        (work / "commons.txt").write_text("слово\n", encoding="utf-8")
        try:
            oracles.from_state_reference(json.loads(text))
            refused = False
        except ValueError:
            refused = True
        files = {"agg.json", "abbrevs.txt", "commons.txt", "d.tsv", "d.json", "d.txt", "r"}
        for argv in (
            ["build", "--aggregate", "agg.json", "--method", method, "--min-total", "1",
             "--out-tsv", "d.tsv", "--out-json", "d.json", "--out-words", "d.txt"],
            ["stats", "--aggregate", "agg.json", "--dictionary", "abbrevs.txt", "--seed-abbrevs", "abbrevs.txt",
             "--seed-commons", "commons.txt", "--out-dir", "r"],
            # no share means, so no error-target scan, whose run time grows
            # as the random seed shares come close
            ["params", "--aggregate", "agg.json", "--seed-abbrevs", "abbrevs.txt", "--seed-commons", "commons.txt",
             "--mean-window", "1:1"],
        ):
            code, errors = _main_errors([str(work / arg) if arg in files else arg for arg in argv])
            assert _exit_0_or_one_error(code, errors)
            if refused:
                assert code == 1 and "aggregate state" in errors[0].getMessage()
            elif argv[0] == "build":
                assert code == 0


# JSON values for config and spec entries, bounded so that no accepted
# input asks for a long run or a large output
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 60),
    st.sampled_from([0.0, 0.5, 1e-3, 0.9, -1.0, 1.5, 3.0, 1e300, math.inf, -math.inf, math.nan]),
    st.sampled_from(["", "x", "0", "-1", "3", "0.5", "1e3", "inf", "nan", "-", "--verbose", "гл", "ab",
                     "1990:2008", "2008:1990", "1995:1995", "1:2:3", "lrt", "median", "both-must-agree",
                     "skip", "abort", "cyrillic", "latin,cyrillic", "dynamics", "p-series,length-histogram"]),
)
_VALUES = _SCALARS | st.lists(_SCALARS, max_size=3) | st.dictionaries(st.sampled_from(["гл", "x"]), _SCALARS,
                                                                       max_size=2)


def _fuzz_dir(tmp_path_factory) -> Path:
    """A directory holding agg.json, in.txt, words.txt and the seed lists
    abbrevs.txt and commons.txt."""
    work = tmp_path_factory.mktemp("inputs")
    words = {"др": {"1995": [9, 10, 1], "1996": [5, 6, 1]}, "гл": {"1995": [1, 10, 1]}}
    (work / "agg.json").write_text(json.dumps(_state(words=words), ensure_ascii=False), encoding="utf-8")
    (work / "in.txt").write_text("Смотри гл. Вторая гор. Казань.\nдр\t1995\t5\t1\n", encoding="utf-8")
    (work / "words.txt").write_text("др\nгл\n", encoding="utf-8")
    (work / "abbrevs.txt").write_text("др\n", encoding="utf-8")
    (work / "commons.txt").write_text("гл\n", encoding="utf-8")
    return work


# a command for each config fuzz run, and every option of those commands
# as a config key; no drawn value names an existing file, so an ingest
# reads in.txt alone and starts no worker process
_CONFIG_COMMANDS = {
    "ingest": ["ingest", "--unigrams", "in.txt", "--output", "a.json"],
    "build": ["build", "--aggregate", "agg.json", "--out-words", "d.txt"],
    "stats": ["stats", "--aggregate", "agg.json", "--dictionary", "words.txt", "--seed-abbrevs", "abbrevs.txt",
              "--seed-commons", "commons.txt", "--out-dir", "r"],
    "segment": ["segment", "in.txt", "--dictionary", "words.txt", "--output", "out.txt"],
    "params": ["params", "--aggregate", "agg.json", "--seed-abbrevs", "abbrevs.txt", "--seed-commons", "commons.txt"],
}
_SUBPARSERS = next(action.choices for action in build_parser()._actions if action.dest == "command")
_CONFIG_KEYS = sorted({action.dest for name in _CONFIG_COMMANDS for action in _SUBPARSERS[name]._actions
                       if action.option_strings})


# a valid value for every synth spec entry, small enough for a quick run
_SPEC_ENTRIES = {
    "abbrev_words": st.lists(st.sampled_from(["др", "гл", "тов"]), unique=True, max_size=3)
    | st.dictionaries(st.sampled_from(["др", "гл", "тов"]), st.floats(0, 1), max_size=3),
    "common_words": st.lists(st.sampled_from(["год", "дом", "мир"]), unique=True, max_size=3),
    "default_p1": st.floats(0, 1),
    "default_p0": st.floats(0, 1),
    "years": st.tuples(st.integers(1988, 1994), st.integers(0, 3)).map(lambda y: [y[0], y[0] + y[1]]),
    "totals_range": st.tuples(st.integers(1, 20), st.integers(0, 20)).map(lambda t: [t[0], t[0] + t[1]]),
    "seed": st.integers(0, 100),
    "volumes_divisor": st.integers(1, 20),
    "title_like": st.lists(st.sampled_from(["др", "гл"]), unique=True, max_size=2),
    "period_comma_swap": st.floats(0, 1),
    "sentences": st.integers(1, 20),
}


@st.composite
def _specs(draw):
    """A synth spec of valid entries, with common words, one time in eight
    a word list given as a string, one time in eight a probability given
    as a string or a boolean, and up to two entries set to any JSON
    value, under a spec key or an unknown one."""
    doc = draw(st.fixed_dictionaries({}, optional=_SPEC_ENTRIES))
    doc.setdefault("common_words", ["год"])
    if draw(st.integers(0, 7)) == 0:
        doc[draw(st.sampled_from(_WORD_LIST_KEYS))] = draw(st.sampled_from(["", "ab", "др"]))
    if draw(st.integers(0, 7)) == 0:
        not_a_number = draw(st.sampled_from(["0.5", "1", "", True, False]))
        key = draw(st.sampled_from([*_NUMBER_KEYS, "word map"]))
        if key == "word map":
            doc["abbrev_words"] = {"др": not_a_number}
        else:
            doc[key] = not_a_number
    for _ in range(draw(st.integers(0, 2))):
        doc[draw(st.sampled_from([*sorted(_SPEC_ENTRIES), "unknown"]))] = draw(_VALUES)
    return doc


# totals files whose lines hold up to three fields, valid or not
_TOTALS_FIELDS = st.sampled_from(["1995", "1996", "2008", "1939", "-1995", "0", "5", "-5", "x", "", " 7", "1_995",
                                  "١٩٩٥", "1e3", "9" * 30, "# c"])
_TOTALS_FILES = st.lists(st.lists(_TOTALS_FIELDS, max_size=3).map("\t".join), max_size=5).map("\n".join)


class TestInputFileFuzz:
    """Any config, synth spec or totals file through `main` exits 0 with
    no ERROR record or 1 with one single-line one, and raises nothing.
    Each run is in its own directory, which any relative output path a
    config names lands in."""

    @given(st.sampled_from(sorted(_CONFIG_COMMANDS)),
           st.dictionaries(st.sampled_from(_CONFIG_KEYS), _VALUES, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_config(self, tmp_path_factory, command, doc):
        work = _fuzz_dir(tmp_path_factory)
        (work / "config.json").write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        with contextlib.chdir(work):
            assert _exit_0_or_one_error(*_main_errors(["--config", "config.json", *_CONFIG_COMMANDS[command]]))

    @given(_specs())
    @settings(max_examples=150, deadline=None)
    def test_spec(self, tmp_path_factory, doc):
        work = _fuzz_dir(tmp_path_factory)
        (work / "spec.json").write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        with contextlib.chdir(work):
            code, errors = _main_errors(["synth", "--spec", "spec.json", "--out-dir", "out"])
        assert _exit_0_or_one_error(code, errors)
        # a string where a word list belongs is refused, never split into letters
        if any(isinstance(doc.get(key), str) for key in _WORD_LIST_KEYS):
            assert code == 1
        # and a string or a boolean where a probability belongs is refused, never cast
        probabilities = [doc.get(key, 0.5) for key in _NUMBER_KEYS]
        for key in ("abbrev_words", "common_words"):
            if isinstance(doc.get(key), dict):
                probabilities += doc[key].values()
        if any(isinstance(value, (str, bool)) for value in probabilities):
            assert code == 1

    @given(_TOTALS_FILES, st.sampled_from([[], ["--top-k", "1"], ["--dynamics-window", "1995:1996"]]))
    @settings(max_examples=150, deadline=None)
    def test_totals(self, tmp_path_factory, content, flags):
        work = _fuzz_dir(tmp_path_factory)
        (work / "totals.tsv").write_text(content, encoding="utf-8")
        with contextlib.chdir(work):
            assert _exit_0_or_one_error(*_main_errors(["stats", "--aggregate", "agg.json", "--dictionary",
                                                        "words.txt", "--reports", "dynamics", "--totals", "totals.tsv",
                                                        *flags, "--out-dir", "r"]))


def test_cli_defaults_are_the_library_defaults():
    """The paper's operating point is spelled out both in the parser and in
    the library's defaults; the two must not drift apart."""
    parser = build_parser()
    ingest_args = parser.parse_args(["ingest", "--output", "a.json"])
    assert IngestConfig(
        year_min=ingest_args.window[0], year_max=ingest_args.window[1], scripts=ingest_args.scripts,
        case_fold=ingest_args.case_fold, year_floor=ingest_args.year_floor, year_ceiling=ingest_args.year_ceiling,
    ) == IngestConfig()

    build_args = parser.parse_args(["build", "--aggregate", "a.json"])
    options = dictionary.BuildOptions()
    assert (build_args.method, build_args.median_threshold) == (options.method, options.median_threshold)
    assert (build_args.p0, build_args.p1, build_args.C) == (options.params.p0, options.params.p1, options.params.c)
    assert (build_args.min_total, build_args.min_volumes, build_args.min_active_years) == (
        options.min_total, options.min_volumes, options.min_active_years)

    stats_args = parser.parse_args(["stats", "--aggregate", "a.json", "--out-dir", "r"])
    params_args = parser.parse_args(["params", "--aggregate", "a.json", "--seed-abbrevs", "a.txt",
                                     "--seed-commons", "c.txt"])
    mean_window = signature(likelihood.estimate_share_params).parameters["mean_window"].default
    assert stats_args.mean_window == params_args.mean_window == mean_window
    assert params_args.C == options.params.c
    dynamics = signature(analytics.dynamics).parameters
    assert (stats_args.dynamics_window, stats_args.top_k) == (dynamics["years"].default, dynamics["top_k"].default)
