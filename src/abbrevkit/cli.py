"""Command-line pipeline: ingest, build, stats, segment, synth, params.

Every option of a command can also come from a JSON config file
(--config): each key is an option's flag name with ``_`` for ``-``, and
its entry goes through the same parser as that flag.  Explicit flags win
over the file, which wins over the defaults declared on the parser.
Diagnostics go to stderr, data to the declared outputs or stdout; exit
status is 0 exactly when the command succeeded, and every error, a usage
error included, is one ``ERROR`` line with exit 1.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import os
import sys
from contextlib import nullcontext
from importlib import import_module
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Sequence

# every command reads its inputs through `ingest`; `build_parser` binds
# the other modules here, those of the commands whose options it adds
from . import ingest

if TYPE_CHECKING:  # pragma: no cover
    from . import analytics, dictionary, likelihood, segment, synth

logger = logging.getLogger("abbrevkit")
_BATCH = 4096  # output lines or --spans records a write; about 0.5 MB of records


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise CliError instead of exiting with status 2."""

    def error(self, message: str):
        raise CliError(f"{self.prog}: {message}")


def _year(value: str) -> int:
    """argparse type for a year, spelled as `ingest.parse_year` reads one."""
    year = ingest.parse_year(value)
    if year is None:
        raise argparse.ArgumentTypeError(f"expected a year, got {value!r}")
    return year


def _parse_window(value: str) -> tuple[int, int]:
    lo, hi = map(ingest.parse_year, value.partition(":")[::2])
    if lo is None or hi is None:
        raise argparse.ArgumentTypeError(f"expected 'first:last' years, got {value!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"expected first <= last year, got {value!r}")
    return lo, hi


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type for a count, spelled as `ingest.parse_count` reads
    one, no smaller than `low`."""

    def parse(value: str) -> int:
        number = ingest.parse_count(value)
        if number is None or number < low:
            raise argparse.ArgumentTypeError(f"expected an int >= {low}, got {value!r}")
        return number

    return parse


def _comma_list(what: str, choices: Iterable[str]) -> Callable[[str], tuple[str, ...]]:
    """argparse type for a non-empty comma-separated list of `choices`."""
    choices = sorted(choices)

    def parse(value: str) -> tuple[str, ...]:
        items = tuple(s.strip() for s in value.split(",") if s.strip())
        if not items or any(item not in choices for item in items):
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list of {what} from {choices}, got {value!r}"
            )
        return items

    return parse


def _load_object(path: str, what: str) -> dict:
    with ingest.read_input(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise CliError(f"{what} {path} must be a JSON object, got {type(doc).__name__}")
    return doc


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse `argv` with the options of the command it names alone (of
    none when it names none, as for ``--help``, whose text names no
    option of a command), and with the --config file's entries spliced in
    right after the command name, as the flags they name.  argparse keeps
    the last occurrence of a flag, so the command line's own flags win.
    An error the config's entries cause names the config file."""
    pre = _Parser(prog=_PROG, add_help=False)
    pre.add_argument("--config")
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    found = pre.parse_known_args(argv)[0]
    rest = found.rest  # the tail of argv from the command on
    if rest[:1] == ["--"]:  # `-- build ...` names build, which argparse would take for a command `--`
        start = len(argv) - len(rest)
        argv, rest = argv[:start] + rest[1:], rest[1:]
    command = rest[0] if rest and rest[0] in _COMMANDS else None
    parser = build_parser([command] if command else [])
    if not found.config or command is None:
        return parser.parse_args(argv)
    at = len(argv) - len(rest) + 1
    config = _load_object(found.config, "config")
    try:
        commands = next(a.choices for a in parser._actions if a.dest == "command")
        flags = _config_flags(commands[command], config)
        return parser.parse_args([*argv[:at], *flags, *argv[at:]])
    except CliError as exc:
        # the same error without the config's entries is the command line's own
        try:
            parser.parse_args(argv)
        except CliError as own:
            if str(own) == str(exc):
                raise
        raise CliError(f"{exc} (from --config {found.config})") from None


def _config_flags(command: argparse.ArgumentParser, config: dict) -> list[str]:
    """The entries of `config` that name an option of `command`, as flags;
    null leaves an option unset and other keys are ignored."""
    flags: list[str] = []
    for action in command._actions:
        value = config.get(action.dest)
        if value is None or not action.option_strings:
            continue
        flag = action.option_strings[-1]
        if action.nargs == 0:  # store_true / store_false
            if not isinstance(value, bool):
                raise CliError(f"config {action.dest}: expected true or false, got {value!r}")
            if value == action.const:
                flags.append(flag)
        elif action.nargs == "+":
            values = [value] if isinstance(value, str) else value
            if not (isinstance(values, list) and all(isinstance(v, str) for v in values)):
                raise CliError(f"config {action.dest}: expected a string or a list of strings, got {value!r}")
            flags += [flag, *values]
        elif isinstance(value, (list, dict)):
            raise CliError(f"config {action.dest}: expected a single value, got {value!r}")
        else:
            flags.append(f"{flag}={value}")  # '=' keeps a value starting with '-' a value
    return flags


def _write_output(path: str | Path, payload: str) -> None:
    with ingest.atomic_output(path) as handle:
        handle.write(payload)


# -- subcommands ------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace) -> int:
    if not args.unigrams and not args.bigrams:
        raise CliError("nothing to ingest: no 1-gram or 2-gram files given")
    files: dict[tuple[int, int], str] = {}
    for path in args.unigrams + args.bigrams:
        if not Path(path).exists():
            raise CliError(f"input file not found: {path}")
        # a shard given twice, under any spelling, would count every line twice
        info = os.stat(path)
        key = (info.st_dev, info.st_ino)
        if key in files:
            raise CliError(f"input file given twice: {files[key]} and {path} are the same file")
        files[key] = path
    cfg = ingest.IngestConfig(
        year_min=args.window[0],
        year_max=args.window[1],
        scripts=args.scripts,
        case_fold=args.case_fold,
        year_floor=args.year_floor,
        year_ceiling=args.year_ceiling,
    )
    agg = ingest.ingest_paths(args.unigrams, args.bigrams, cfg, jobs=args.jobs, on_error=args.on_error)
    agg.save(args.output)
    logger.info(
        "ingested %d lines (%d skipped) -> %s",
        agg.counters.lines_parsed, agg.counters.lines_skipped, args.output,
    )
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    if not (args.out_tsv or args.out_json or args.out_words):
        raise CliError("build needs at least one of --out-tsv/--out-json/--out-words")
    if (args.alpha_target is None) != (args.beta_target is None):
        raise CliError("--alpha-target and --beta-target go together: give both or neither")
    agg = ingest.Aggregator.load(args.aggregate)
    profiles = agg.finalize(args.window)
    params = likelihood.HypothesisParams(args.p0, args.p1, args.C)
    min_total = args.min_total
    if args.alpha_target is not None:
        # error targets pin the evidence gate at the smallest workable N
        try:
            result = likelihood.min_usage_for_error(params, args.alpha_target, args.beta_target)
        except likelihood.SearchExhaustedError as exc:
            raise CliError(str(exc)) from None
        min_total = max(min_total, result.total)
        logger.info(
            "error targets need usage >= %d (eta=%d, alpha=%.3g, beta=%.3g); min_total=%d",
            result.total, result.eta, result.alpha, result.beta, min_total,
        )
    options = dictionary.BuildOptions(
        method=args.method,
        median_threshold=args.median_threshold,
        params=params,
        min_total=min_total,
        min_volumes=args.min_volumes,
        min_active_years=args.min_active_years,
        case_fold=agg.config.case_fold,
    )
    built = dictionary.build_dictionary(profiles, options, agg.fingerprints)
    if args.out_tsv:
        _write_output(args.out_tsv, dictionary.dictionary_to_tsv(built))
    if args.out_json:
        _write_output(args.out_json, dictionary.dictionary_to_json(built))
    if args.out_words:
        _write_output(args.out_words, dictionary.dictionary_to_wordlist(built))
    counts = built.build_meta["counts"]
    logger.info(
        "dictionary: %d entries (%d candidates, %d removed low-volume, %d removed short-timespan, "
        "%d undecided), %d clamped years, %d filled years",
        counts["entries"], counts["candidates"], counts["removed_low_volume"],
        counts["removed_short_timespan"], counts["undecided_low_evidence"],
        sum(p.clamped_years for p in profiles.values()),
        sum(p.filled_years for p in profiles.values()),
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    agg = ingest.Aggregator.load(args.aggregate)
    profiles = agg.finalize(args.window)
    effective_window = args.window or (agg.config.year_min, agg.config.year_max)

    entries = None
    dictionary_digest = None
    if args.dictionary:
        digest = hashlib.sha256()
        loaded = dictionary.load_dictionary(args.dictionary, digest=digest)
        entries = [profiles[w] for w in sorted(profiles) if w in loaded]
        dictionary_digest = digest.hexdigest()
        words = dict.fromkeys(loaded.words)
        held = dictionary.LoadedDictionary((entry.word for entry in entries), loaded.case_fold)
        missing = [w for w in words if w not in held]
        if missing:
            logger.warning("%d of %d dictionary words are not in the aggregate, so no report counts them: %s",
                           len(missing), len(words), ", ".join(missing[:5]) + (", ..." if len(missing) > 5 else ""))
    needs_dict = [k for k in args.reports if k != "p-series"]
    if needs_dict and entries is None:
        raise CliError(f"reports {needs_dict} need --dictionary")

    totals_by_year = _read_totals(args.totals) if args.totals else None

    reports = []
    for kind in args.reports:
        if kind == "rare-cumulative":
            report = analytics.rare_cumulative(entries, args.max_volumes)
        elif kind == "p-series":
            if not (args.seed_abbrevs and args.seed_commons):
                raise CliError("p-series needs --seed-abbrevs and --seed-commons")
            report = analytics.p_series(_share_estimate(args, profiles))
        elif kind == "length-histogram":
            report = analytics.length_histogram(entries)
        elif kind == "freq-by-length":
            report = analytics.frequency_by_length(entries)
        else:
            report = analytics.dynamics(entries, args.dynamics_window, args.top_k, totals_by_year)
        report.meta.setdefault("window", list(effective_window))
        report.meta.setdefault("dictionary_fingerprint", dictionary_digest)
        reports.append(report)
    # every input is read and every report made before the first write
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for report in reports:
        _write_output(out_dir / f"{report.kind}.tsv", report.to_tsv())
        _write_output(out_dir / f"{report.kind}.json", report.to_json())
        logger.info("wrote %s (%d rows)", out_dir / f"{report.kind}.tsv", len(report.rows))
    return 0


def _read_totals(path: str) -> dict[int, int]:
    with ingest.read_input(path) as handle:
        lines = handle.read().split("\n")
    totals: dict[int, int] = {}
    for line_number, line in enumerate(lines, 1):
        # blank and comment lines by spaces and tabs only: any other space is refused by the number rule
        if not line.strip(" \t") or line.lstrip(" \t").startswith("#"):
            continue
        year_s, _, count_s = line.partition("\t")
        where = f"totals file {path} line {line_number}"
        year, count = ingest.parse_year(year_s), ingest.parse_count(count_s)
        if year is None or count is None:
            raise CliError(f"{where}: expected 'year TAB count' as ints, got {line!r}")
        if count <= 0:
            raise CliError(f"{where}: count must be positive, got {line!r}")
        if year in totals:
            raise CliError(f"{where}: year {year} repeats an earlier line")
        totals[year] = count
    return totals


def cmd_segment(args: argparse.Namespace) -> int:
    if not (args.baseline or args.dictionary):
        raise CliError("segment needs --dictionary (or --baseline)")
    # the baseline is the empty dictionary; None defers to the dictionary's own case policy (JSON metadata)
    loaded = segment.EMPTY_DICTIONARY if args.baseline else (
        dictionary.load_dictionary(args.dictionary, case_fold=args.case_fold or None))
    override = dictionary.load_dictionary(args.override_list).words if args.override_list else ()
    with ingest.read_input(None if args.input == "-" else args.input) as handle:
        text = handle.read()
    sys.stdout.flush()  # every output is UTF-8 bytes, written to the binary layer beneath
    with ingest.atomic_output(args.output, binary=True) if args.output else nullcontext(sys.stdout.buffer) as out:
        # only --spans needs tokens; the boundaries come from periods alone
        if not args.spans:
            lines = segment.sentence_texts(text, loaded, override)
            for lo in range(0, len(lines), _BATCH):
                _write_all(out, ("\n".join(lines[lo:lo + _BATCH]) + "\n").encode("utf-8"))
        else:
            columns, sentences = segment.token_columns(text, loaded, override)
            if args.baseline:  # the baseline's document lists no tokens
                columns = ((), (), (), ())
            _write_spans(out, columns, sentences)
    return 0


def _write_all(out: BinaryIO, data: bytes) -> None:
    """Write all of `data`, which a raw, unbuffered stdout may take in parts."""
    view = memoryview(data)
    while view:
        view = view[out.write(view):]


def _write_spans(
    out: BinaryIO,
    columns: tuple[Sequence[str], Sequence[int], Sequence[int], Sequence[str]],
    sentences: Sequence[segment.SentenceSpan],
) -> None:
    """Write the ``--spans`` document from the token columns (texts,
    starts, ends, kinds) and the sentences of `segment.token_columns`, a
    bounded batch of records at a time; empty columns, as ``--baseline``
    passes, list no tokens and give every sentence a null token range.
    The bytes are the UTF-8 of ``json.dumps(doc, ensure_ascii=False,
    sort_keys=True, indent=2) + "\\n"``, whose pure-Python encoder (the
    one `indent` selects) is slow.  Each record is a fixed template with
    its keys in sorted order.  A token's text fixes its kind, so its
    template, quoted text and kind included, is made once per distinct
    text and leaves only its end and start to fill: a batch of tokens is
    one bytes ``%`` of joined templates, and a batch of sentences one of
    a repeated template."""
    texts, starts, ends, kinds = columns
    quote = json.encoder.encode_basestring
    tokenized = bool(texts)
    token_field = b"%d" if tokenized else b"null"
    sentence_template = (
        b',\n    {\n      "end": %d,\n      "start": %d,\n      "token_end": ' + token_field
        + b',\n      "token_start": ' + token_field + b"\n    }"
    )
    sentence_values = itemgetter(1, 0, 3, 2) if tokenized else itemgetter(1, 0)  # end, start[, token_end, token_start]

    def sentence_records(lo: int, hi: int) -> bytes:
        batch = sentences[lo:hi]
        return sentence_template * len(batch) % tuple(chain.from_iterable(map(sentence_values, batch)))

    templates = {
        text: f',\n    {{\n      "end": %d,\n      "kind": {quote(kind)},\n      "start": %d,\n      '
        f'"text": {quote(text).replace("%", "%%")}\n    }}'.encode()
        for text, kind in dict(zip(texts, kinds)).items()
    }

    def token_records(lo: int, hi: int) -> bytes:
        batch = texts[lo:hi]
        values = [0] * (2 * len(batch))
        values[::2], values[1::2] = ends[lo:hi], starts[lo:hi]  # each record's end, then its start
        return b"".join(map(templates.__getitem__, batch)) % tuple(values)

    _write_all(out, b'{\n  "sentences": ')
    _write_array(out, len(sentences), sentence_records)
    _write_all(out, b',\n  "tokens": ')
    _write_array(out, len(texts), token_records)
    _write_all(out, b"\n}\n")


def _write_array(out: BinaryIO, size: int, records: Callable[[int, int], bytes]) -> None:
    """A JSON array of `size` records as indent=2 lays it out at the top
    level of the document, one bounded batch at a time; `records(lo, hi)`
    renders records lo..hi-1, each starting with the separator
    ``b",\\n"`` that the first record drops.  ``[]`` when there are none."""
    if not size:
        _write_all(out, b"[]")
        return
    for lo in range(0, size, _BATCH):
        batch = records(lo, lo + _BATCH)
        _write_all(out, b"[" + batch[1:] if lo == 0 else batch)
    _write_all(out, b"\n  ]")


def cmd_synth(args: argparse.Namespace) -> int:
    doc = _load_object(args.spec, "spec")
    sentences = doc.pop("sentences", 1000)
    if type(sentences) is not int or sentences < 1:
        raise CliError(f"spec {args.spec}: sentences must be a positive int, got {sentences!r}")
    spec = _spec_from_doc(doc, args.spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = synth.generate_ngrams(spec, out_dir / "1grams.tsv", out_dir / "2grams.tsv")
    sample = synth.generate_text(spec, sentences)
    _write_output(out_dir / "text.txt", sample.text)
    _write_output(out_dir / "gold.json", sample.gold_json())
    _write_output(out_dir / "abbreviations.txt", "".join(f"{word}\n" for word in sorted(spec.abbrev_words)))
    _write_output(out_dir / "override.txt", "".join(f"{word}\n" for word in sorted(spec.title_like)))
    logger.info(
        "synth: %d unigram lines, %d bigram lines, %d sentences -> %s",
        counts["unigram_lines"], counts["bigram_lines"], sentences, out_dir,
    )
    return 0


def _spec_from_doc(doc: dict, path: str) -> synth.SynthSpec:
    def number(key: str, value) -> float:
        """A JSON number as a float: a string or a boolean is refused, not cast."""
        if type(value) not in (int, float):
            raise CliError(f"spec {path}: {key} must be a number, got {value!r}")
        return float(value)

    def word_map(key: str, value, default_p: float) -> dict[str, float]:
        if isinstance(value, dict):
            return {w: number(f"{key}[{w!r}]", p) for w, p in value.items()}
        return {w: default_p for w in value}

    # fields left out keep the SynthSpec defaults; a None cast passes the value as it is, for SynthSpec to check
    casts = {"years": tuple, "totals_range": tuple, "title_like": tuple,
             "period_comma_swap": lambda value: number("period_comma_swap", value),
             "seed": None, "volumes_divisor": None}
    unknown = set(doc) - set(casts) - {"abbrev_words", "common_words", "default_p1", "default_p0"}
    if unknown:
        raise CliError(f"spec {path}: unknown fields {sorted(unknown)}")
    for key in ("abbrev_words", "common_words", "title_like"):
        if isinstance(doc.get(key), str):
            raise CliError(f"spec {path}: {key} must be a list of words, got {doc[key]!r}")
    try:
        return synth.SynthSpec(
            abbrev_words=word_map("abbrev_words", doc.get("abbrev_words", []),
                                  number("default_p1", doc.get("default_p1", 0.955))),
            common_words=word_map("common_words", doc.get("common_words", []),
                                  number("default_p0", doc.get("default_p0", 0.068))),
            **{key: cast(doc[key]) if cast else doc[key] for key, cast in casts.items() if key in doc},
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"spec {path}: {exc}") from None


def _share_estimate(args: argparse.Namespace, profiles: dict[str, ingest.WordProfile]) -> likelihood.ShareEstimate:
    """p0 and p1 by year from the seed lists, for `params` and the p-series report."""
    return likelihood.estimate_share_params(
        profiles,
        dictionary.load_dictionary(args.seed_abbrevs).words,
        dictionary.load_dictionary(args.seed_commons).words,
        args.window,
        args.mean_window,
        args.pooled,
    )


def cmd_params(args: argparse.Namespace) -> int:
    agg = ingest.Aggregator.load(args.aggregate)
    profiles = agg.finalize(args.window)
    est = _share_estimate(args, profiles)
    doc: dict = {
        "p0_by_year": {str(y): est.p0_by_year[y] for y in sorted(est.p0_by_year)},
        "p1_by_year": {str(y): est.p1_by_year[y] for y in sorted(est.p1_by_year)},
        "mean_p0": est.mean_p0,
        "mean_p1": est.mean_p1,
        "mean_window": list(est.mean_window),
        "warnings": est.warnings,
        "min_usage": None,
    }
    if (
        est.mean_p0 is not None
        and est.mean_p1 is not None
        and 0.0 < est.mean_p0 < est.mean_p1 < 1.0
    ):
        params = likelihood.HypothesisParams(est.mean_p0, est.mean_p1, args.C)
        try:
            result = likelihood.min_usage_for_error(params, args.alpha_target, args.beta_target)
            doc["min_usage"] = {
                "total": result.total,
                "eta": result.eta,
                "alpha": result.alpha,
                "beta": result.beta,
                "alpha_target": args.alpha_target,
                "beta_target": args.beta_target,
            }
        except likelihood.SearchExhaustedError as exc:
            doc["min_usage"] = {"error": str(exc)}
    payload = json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    sys.stdout.flush()  # UTF-8 bytes, written to the binary layer beneath, as `segment` writes
    _write_all(sys.stdout.buffer, payload.encode("utf-8"))
    return 0


# -- parser -----------------------------------------------------------------
# Each command's options are added by a function of their own, so that a
# call builds, and imports the modules of, the command it runs alone.

def _aggregate_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--aggregate", required=True, help="aggregate state from 'ingest'")
    p.add_argument("--window", type=_parse_window, help="aggregate sub-window, default: the ingest window")


def _threshold_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--C", type=float, default=1.0, help="likelihood-ratio decision threshold, default %(default)s")


def _share_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mean-window", type=_parse_window, default="1998:2008",
                   help="share-mean window, default %(default)s")
    p.add_argument("--macro", dest="pooled", action="store_false",
                   help="average per-word shares instead of pooling counts (p-series)")


def _ingest_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--unigrams", nargs="+", default=[], help="1-gram files (optionally .gz)")
    p.add_argument("--bigrams", nargs="+", default=[], help="2-gram files (optionally .gz)")
    p.add_argument("--output", required=True, help="aggregate state file to write (.json or .json.gz)")
    p.add_argument("--window", type=_parse_window, default="1990:2008",
                   help="analysis year window, default %(default)s")
    p.add_argument("--scripts", type=_comma_list("scripts", ingest.SCRIPT_RANGES), default="cyrillic,latin",
                   help="comma-separated letter scripts, default %(default)s")
    p.add_argument("--case-fold", action="store_true",
                   help="lowercase word forms at ingestion (default: case-sensitive)")
    p.add_argument("--jobs", type=_int_at_least(1), default=1,
                   help="parser processes, this one included, default %(default)s")
    p.add_argument("--on-error", choices=("skip", "abort"), default="skip",
                   help="malformed line policy, default %(default)s")
    p.add_argument("--year-floor", type=_year, default=1500, help="reject years below this, default %(default)s")
    p.add_argument("--year-ceiling", type=_year, default=2100, help="reject years above this, default %(default)s")
    p.set_defaults(func=cmd_ingest)


def _build_options(p: argparse.ArgumentParser) -> None:
    _aggregate_options(p)
    _threshold_option(p)
    p.add_argument("--method", choices=dictionary.METHODS, default="median", help="decision rule, default %(default)s")
    p.add_argument("--median-threshold", type=dictionary.as_fraction, default="0.9",
                   help="median share cut, default %(default)s (strictly above)")
    p.add_argument("--p0", type=float, default=0.068, help="common-word with-period share, default %(default)s")
    p.add_argument("--p1", type=float, default=0.955, help="abbreviation with-period share, default %(default)s")
    p.add_argument("--alpha-target", type=float, help="with --beta-target: raise the evidence gate to the smallest N meeting both error targets")
    p.add_argument("--beta-target", type=float, help="see --alpha-target")
    p.add_argument("--min-total", type=_int_at_least(0), default=40, help="evidence gate on pooled usage, default %(default)s")
    p.add_argument("--min-volumes", type=_int_at_least(0), default=2, help="occasionalism filter, default %(default)s")
    p.add_argument("--min-active-years", type=_int_at_least(0), default=2, help="occasionalism filter, default %(default)s")
    p.add_argument("--out-tsv", help="write the TSV table here")
    p.add_argument("--out-json", help="write the JSON document here")
    p.add_argument("--out-words", help="write the plain word list here")
    p.set_defaults(func=cmd_build)


def _stats_options(p: argparse.ArgumentParser) -> None:
    _aggregate_options(p)
    _share_options(p)
    p.add_argument("--dictionary", help="dictionary file (needed by all reports except p-series)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--reports", type=_comma_list("reports", analytics.REPORT_KINDS),
                   default=",".join(analytics.REPORT_KINDS),
                   help="comma-separated subset of %(default)s")
    p.add_argument("--seed-abbrevs", help="seed abbreviation list for p-series")
    p.add_argument("--seed-commons", help="seed common-word list for p-series")
    p.add_argument("--dynamics-window", type=_parse_window, default="1940:2008",
                   help="dynamics year range, default %(default)s")
    p.add_argument("--top-k", type=_int_at_least(0), default=300, help="top entries tracked by dynamics, default %(default)s")
    p.add_argument("--max-volumes", type=_int_at_least(1), default=10, help="rare-cumulative x-axis limit, default %(default)s")
    p.add_argument("--totals", help="optional 'year TAB total' file to normalize dynamics")
    p.set_defaults(func=cmd_stats)


def _segment_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", default="-", help="text file, default stdin")
    p.add_argument("--dictionary", help="dictionary in any build output format")
    p.add_argument("--override-list", help="title-like prefixes kept non-terminal before capitals")
    p.add_argument("--baseline", action="store_true", help="use the period-space-capital pattern only")
    p.add_argument("--spans", action="store_true", help="emit token/sentence byte spans as JSON")
    p.add_argument("--case-fold", action="store_true", help="case-insensitive stem lookup")
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(func=cmd_segment)


def _synth_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, help="JSON spec (word lists, probabilities, seed)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)


def _params_options(p: argparse.ArgumentParser) -> None:
    _aggregate_options(p)
    _threshold_option(p)
    _share_options(p)
    p.add_argument("--seed-abbrevs", required=True)
    p.add_argument("--seed-commons", required=True)
    p.add_argument("--alpha-target", type=float, default=0.001, help="default %(default)s")
    p.add_argument("--beta-target", type=float, default=0.001, help="default %(default)s")
    p.set_defaults(func=cmd_params)


_PROG = "abbrevkit"
# each command's help line, the function that adds its options, and the
# abbrevkit modules besides `ingest` that it and its options use
_COMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None], tuple[str, ...]]] = {
    "ingest": ("parse ngram files into a reusable aggregate state", _ingest_options, ()),
    "build": ("classify word forms and write the dictionary", _build_options, ("dictionary", "likelihood")),
    "stats": ("emit analytics reports", _stats_options, ("analytics", "dictionary", "likelihood")),
    "segment": ("split text into sentences using a dictionary", _segment_options, ("dictionary", "segment")),
    "synth": ("generate a synthetic corpus with ground truth", _synth_options, ("synth",)),
    "params": ("estimate p0/p1 from seed lists and the minimum usable usage", _params_options,
               ("dictionary", "likelihood")),
}


def build_parser(commands: Iterable[str] = tuple(_COMMANDS)) -> argparse.ArgumentParser:
    """The CLI's parser.  Every option's default is declared once, in its
    command's options function; `--config` entries go through the same
    parser (see `_parse_args`).  Every command is named, with its help
    line, but only the options of `commands` (all, by default) are added,
    and only their modules are imported and bound in this module."""
    parser = _Parser(
        prog=_PROG,
        description="Mine abbreviation dictionaries from ngram corpora and segment text with them.",
    )
    parser.add_argument("--config", help="JSON config file; explicit flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_options, modules) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if name in commands:
            globals().update((module, import_module(f".{module}", __package__)) for module in modules)
            add_options(p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)
    try:
        args = _parse_args(list(sys.argv[1:] if argv is None else argv))
        # a command's containers live until it ends, so the cyclic collector's passes find nothing
        collecting = gc.isenabled()
        gc.disable()
        try:
            code = args.func(args)
        finally:
            if collecting:
                gc.enable()
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:  # stdout's reader left: exit 1, and quietly at the final flush
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except (CliError, ValueError, OSError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
