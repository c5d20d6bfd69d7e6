"""The two benchmark workloads: inputs, CLI commands and output checks.

Every workload runs the whole user pipeline (ingest, build, stats and
segment in its three modes), so every end-to-end metric exists on every
workload.  What differs is where the work lies:

- ``corpus-noisy-jobs2``: a corpus of which about half of the lines are
  noise that ingest discards (see noise.py), cut into shards, ingested
  with --jobs 2 and built with the median rule.  Ingest (clean parse,
  reject path, shard merge) and finalize do nearly all the work.
- ``lrt-segment``: few words with pooled totals of 1e4 to 1e5, built
  with the likelihood-ratio rule, and 2 MB of running text with
  planted abbreviations.  The segmenter and the error-probability sums
  do nearly all the work; ingest does almost none.

Each is the control for the other's layers.  Inputs depend only on the
seed.  Paths in the commands are relative to the workload's directory,
so output bytes (which embed input paths) are the same on every run of
one seed.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from abbrevkit import synth

import noise

NAMES = ("corpus-noisy-jobs2", "lrt-segment")


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload at one scale."""

    abbrevs: int
    commons: int
    text_bytes: int          # the text is cut at the first sentence end past this
    totals: tuple[int, int] = (40, 5000)
    method: str = "median"
    jobs: int = 1
    noise_share: float = 0.0
    shards: int = 0          # 0: one 1-gram and one 2-gram file
    text_abbrevs: int = 0    # 0: the text reuses the corpus vocabulary
    text_commons: int = 0


# "full" is what the benchmark measures.  One cycle of all six commands
# takes about 4 s (corpus-noisy-jobs2) or 9 s (lrt-segment) on a 2-core
# machine, so a run gets five or more cycles; every input size except
# the LRT totals is fixed whatever the seed.  The lrt-segment text is
# large so that a segmenter change shows in the segment rates: the CLI's
# start-up (about 0.25 s: interpreter and numpy import) is at most about
# 0.3 of a segment call there (cli_startup_share in run.json).
# "toy" is for the benchmark's own tests.
SHAPES = {
    "full": {
        "corpus-noisy-jobs2": Shape(abbrevs=50, commons=1250, text_bytes=20_000,
                                    jobs=2, noise_share=0.5, shards=4),
        "lrt-segment": Shape(abbrevs=3, commons=15, text_bytes=2_000_000, totals=(500, 5000),
                             method="lrt", text_abbrevs=300, text_commons=2000),
    },
    "toy": {
        "corpus-noisy-jobs2": Shape(abbrevs=5, commons=40, text_bytes=2000,
                                    jobs=2, noise_share=0.5, shards=4),
        "lrt-segment": Shape(abbrevs=3, commons=6, text_bytes=20_000, totals=(100, 400),
                             method="lrt", text_abbrevs=20, text_commons=60),
    },
}

REPORT_KINDS = ("rare-cumulative", "p-series", "length-histogram", "freq-by-length", "dynamics")


@dataclass
class Command:
    """One CLI call: its name, abbrevkit arguments and output files."""

    name: str
    argv: list[str]
    outputs: list[str]


@dataclass
class Workload:
    name: str
    seed: int
    commands: list[Command]
    sizes: dict   # input sizes, reported with every run
    truth: dict   # what the checks compare the outputs against
    inputs_sha256: str  # of every input file, names included


def _write_words(path: Path, words) -> None:
    words = list(words)
    path.write_text("\n".join(words) + ("\n" if words else ""), encoding="utf-8")


def _file_stats(paths: list[Path]) -> tuple[int, int]:
    lines = 0
    size = 0
    for path in paths:
        data = path.read_bytes()
        lines += data.count(b"\n")
        size += len(data)
    return lines, size


def _count_sums(paths: list[Path]) -> list[int]:
    """Expected sums of the aggregate cells [with_period, total, volumes]
    over a clean corpus, every line of which is kept."""
    sums = [0, 0, 0]
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                ngram, _, match, volumes = line.rstrip("\n").split("\t")
                if ngram.endswith(" ."):
                    sums[0] += int(match)
                    sums[2] += int(volumes)
                else:
                    sums[1] += int(match)
    return sums


def _inputs_sha256(work: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(work.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(work).as_posix().encode("utf-8") + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _text(spec, target_bytes: int) -> tuple[bytes, list[int]]:
    """Generated text cut at its first sentence end at or past
    `target_bytes`, so its size hardly depends on the seed."""
    sentences = max(1, target_bytes // 60)
    while True:
        sample = synth.generate_text(spec, sentences)
        cut = next((end for end in sample.boundaries if end >= target_bytes), None)
        if cut is not None:
            text = sample.text.encode("utf-8")[:cut]
            return text, [end for end in sample.boundaries if end <= cut]
        sentences *= 2


def generate(name: str, seed: int, scale: str, work: Path) -> Workload:
    """Write the workload's inputs into `work` and return its commands."""
    shape = SHAPES[scale][name]
    work.mkdir(parents=True, exist_ok=True)
    spec = synth.make_spec(shape.abbrevs, shape.commons, seed=seed, totals_range=shape.totals)
    clean = [work / "1grams.tsv", work / "2grams.tsv"]
    synth.generate_ngrams(spec, clean[0], clean[1])
    truth: dict = {
        "planted": sorted(spec.abbrev_words),
        "cell_sums": _count_sums(clean),
        "exact_dictionary": shape.noise_share > 0,
    }

    if shape.shards:
        mix = noise.write_noisy_shards(clean, work, shape.shards, shape.noise_share, seed)
        for path in clean:
            path.unlink()
        ingest_argv = ["--unigrams", *mix["shards"]]
        inputs = [work / shard for shard in mix["shards"]]
        truth["lines_skipped"] = mix["class_counts"]["malformed"]
        truth["lines_kept"] = mix["clean_lines"]
        truth["noise_class_shares"] = mix["class_shares"]
    else:
        ingest_argv = ["--unigrams", clean[0].name, "--bigrams", clean[1].name]
        inputs = clean
        truth["lines_skipped"] = 0
    lines, size = _file_stats(inputs)
    truth["lines_read"] = lines
    truth["lines_parsed"] = lines - truth["lines_skipped"]
    truth.setdefault("lines_kept", lines)

    commons = sorted(spec.common_words)
    _write_words(work / "seed_abbrevs.txt", truth["planted"][:20])
    _write_words(work / "seed_commons.txt", commons[:50])

    if shape.text_abbrevs:
        text_spec = synth.make_spec(shape.text_abbrevs, shape.text_commons, seed=seed)
    else:
        text_spec = spec
    text, boundaries = _text(text_spec, shape.text_bytes)
    (work / "text.txt").write_bytes(text)
    _write_words(work / "segdict.txt", sorted(text_spec.abbrev_words))
    _write_words(work / "override.txt", sorted(text_spec.title_like))
    truth["gold_boundaries"] = boundaries

    segment_dict = ["--dictionary", "segdict.txt", "--override-list", "override.txt"]
    commands = [
        Command("ingest", ["ingest", *ingest_argv, "--output", "agg.json", "--jobs", str(shape.jobs)],
                ["agg.json"]),
        Command("build", ["build", "--aggregate", "agg.json", "--method", shape.method,
                          "--out-tsv", "dict.tsv", "--out-json", "dict.json", "--out-words", "dict.txt"],
                ["dict.tsv", "dict.json", "dict.txt"]),
        Command("stats", ["stats", "--aggregate", "agg.json", "--dictionary", "dict.tsv",
                          "--out-dir", "reports", "--seed-abbrevs", "seed_abbrevs.txt",
                          "--seed-commons", "seed_commons.txt"],
                [f"reports/{kind}.{ext}" for kind in REPORT_KINDS for ext in ("tsv", "json")]),
        Command("segment", ["segment", "text.txt", *segment_dict, "--output", "seg.txt"], ["seg.txt"]),
        Command("baseline_segment", ["segment", "text.txt", "--baseline", "--output", "seg_baseline.txt"],
                ["seg_baseline.txt"]),
        Command("segment_spans", ["segment", "text.txt", *segment_dict, "--spans",
                                  "--output", "seg_spans.json"], ["seg_spans.json"]),
    ]
    words = len(spec.abbrev_words) + len(spec.common_words)
    sizes = {
        "lines": lines,
        "bytes": size,
        "words": words,
        "mean_total": truth["cell_sums"][1] / words,
        "text_mb": len(text) / 1e6,
        "text_sentences": len(boundaries),
        "dictionary_words": len(text_spec.abbrev_words),
    }
    return Workload(name, seed, commands, sizes, truth, _inputs_sha256(work))


def _gold_sentences(text: str, boundaries: list[int]) -> list[str]:
    source = text.encode("utf-8")
    out = []
    start = 0
    for end in boundaries:
        out.append(" ".join(source[start:end].decode("utf-8").split()))
        start = end
    return out


def check(workload: Workload, command: Command, work: Path) -> str | None:
    """Check one command's outputs against the workload's ground truth;
    returns the reason for a failure, or None."""
    truth = workload.truth
    if command.name == "ingest":
        state = json.loads((work / "agg.json").read_text(encoding="utf-8"))
        counters = state["counters"]
        expected = {"lines_parsed": truth["lines_parsed"], "lines_skipped": truth["lines_skipped"]}
        if counters != expected:
            return f"ingest counters {counters} != {expected}"
        sums = [0, 0, 0]
        for years in state["words"].values():
            for cell in years.values():
                for index in range(3):
                    sums[index] += cell[index]
        if sums != truth["cell_sums"]:
            return f"aggregate count sums {sums} != {truth['cell_sums']}"
        return None
    if command.name == "build":
        got = set(_read_lines(work / "dict.txt"))
        planted = set(truth["planted"])
        if truth["exact_dictionary"]:
            return None if got == planted else f"dictionary differs from the planted set by {sorted(got ^ planted)[:5]}"
        hits = len(got & planted)
        precision = hits / len(got) if got else 0.0
        recall = hits / len(planted)
        if precision < 0.99 or recall < 0.99:
            return f"dictionary precision {precision:.3f} / recall {recall:.3f} below 0.99"
        return None
    if command.name == "stats":
        entries = len(_read_lines(work / "dict.txt"))
        for kind in REPORT_KINDS:
            doc = json.loads((work / "reports" / f"{kind}.json").read_text(encoding="utf-8"))
            if doc["kind"] != kind:
                return f"report {kind} has kind {doc['kind']!r}"
            if kind == "length-histogram" and sum(row[1] for row in doc["rows"]) != entries:
                return f"length histogram counts {entries} entries wrongly"
        return None
    text = (work / "text.txt").read_text(encoding="utf-8")
    if command.name == "segment":
        if "gold_sentences" not in truth:
            truth["gold_sentences"] = _gold_sentences(text, truth["gold_boundaries"])
        got = (work / "seg.txt").read_text(encoding="utf-8").split("\n")[:-1]
        return None if got == truth["gold_sentences"] else "dictionary segmentation differs from gold"
    if command.name == "baseline_segment":
        got = (work / "seg_baseline.txt").read_text(encoding="utf-8").split("\n")[:-1]
        if " ".join(got).split() != text.split() or not all(got):
            return "baseline segmentation lost or reordered text"
        if len(got) < len(truth["gold_boundaries"]):
            return "baseline segmentation missed a gold boundary"
        return None
    doc = json.loads((work / "seg_spans.json").read_text(encoding="utf-8"))
    ends = [span["end"] for span in doc["sentences"]]
    return None if ends == truth["gold_boundaries"] else "segment spans differ from gold boundaries"


def _read_lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").split("\n") if line]


def digests(command: Command, work: Path) -> dict[str, str]:
    """sha256 of every output file of the command."""
    return {name: hashlib.sha256((work / name).read_bytes()).hexdigest() for name in command.outputs}
