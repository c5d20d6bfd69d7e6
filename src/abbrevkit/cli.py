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
import json
import logging
import os
import sys
from contextlib import nullcontext
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Sequence

from . import analytics, dictionary, ingest, likelihood, segment, synth

logger = logging.getLogger("abbrevkit")


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise CliError instead of exiting with status 2."""

    def error(self, message: str):
        raise CliError(f"{self.prog}: {message}")


def _parse_window(value: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, value.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'first:last' years, got {value!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"expected first <= last year, got {value!r}")
    return lo, hi


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type for an int no smaller than `low`."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            number = None
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


def _read_words(path: str) -> list[str]:
    with ingest.read_input(path) as handle:
        lines = [line.strip() for line in handle.read().splitlines()]
    return [line for line in lines if line and not line.startswith("#")]


def _load_object(path: str, what: str) -> dict:
    with ingest.read_input(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise CliError(f"{what} {path} must be a JSON object, got {type(doc).__name__}")
    return doc


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse `argv` with the --config file's entries spliced in right after
    the command name, as the flags they name.  argparse keeps the last
    occurrence of a flag, so the command line's own flags win.  An error
    the config's entries cause names the config file."""
    pre = _Parser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    found = pre.parse_known_args(argv)[0]
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    if not found.config or not found.rest or found.rest[0] not in commands:
        return parser.parse_args(argv)
    at = len(argv) - len(found.rest) + 1
    config = _load_object(found.config, "config")
    try:
        flags = _config_flags(commands[found.rest[0]], config)
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
    for path in args.unigrams + args.bigrams:
        if not Path(path).exists():
            raise CliError(f"input file not found: {path}")
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
        result = likelihood.min_usage_for_error(params, args.alpha_target, args.beta_target)
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
        loaded = segment.load_dictionary(args.dictionary)
        entries = [profiles[w] for w in sorted(profiles) if w in loaded]
        dictionary_digest = ingest.sha256_file(args.dictionary)
    needs_dict = [k for k in args.reports if k != "p-series"]
    if needs_dict and entries is None:
        raise CliError(f"reports {needs_dict} need --dictionary")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    totals_by_year = _read_totals(args.totals) if args.totals else None

    for kind in args.reports:
        if kind == "rare-cumulative":
            report = analytics.rare_cumulative(entries, args.max_volumes)
        elif kind == "p-series":
            if not (args.seed_abbrevs and args.seed_commons):
                raise CliError("p-series needs --seed-abbrevs and --seed-commons")
            report = analytics.p_series(
                profiles,
                _read_words(args.seed_abbrevs),
                _read_words(args.seed_commons),
                args.window,
                args.mean_window,
                args.pooled,
            )
        elif kind == "length-histogram":
            report = analytics.length_histogram(entries)
        elif kind == "freq-by-length":
            report = analytics.frequency_by_length(entries)
        else:
            report = analytics.dynamics(entries, args.dynamics_window, args.top_k, totals_by_year)
        report.meta.setdefault("window", list(effective_window))
        report.meta.setdefault("dictionary_fingerprint", dictionary_digest)
        _write_output(out_dir / f"{kind}.tsv", report.to_tsv())
        _write_output(out_dir / f"{kind}.json", report.to_json())
        logger.info("wrote %s (%d rows)", out_dir / f"{kind}.tsv", len(report.rows))
    return 0


def _read_totals(path: str) -> dict[int, int]:
    with ingest.read_input(path) as handle:
        lines = handle.read().splitlines()
    totals: dict[int, int] = {}
    for line_number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        where = f"totals file {path} line {line_number}"
        try:
            year, count = int(fields[0]), int(fields[1])
        except (IndexError, ValueError):
            raise CliError(f"{where}: expected 'year TAB count' as ints, got {line!r}") from None
        if count <= 0:
            raise CliError(f"{where}: count must be positive, got {line!r}")
        if year in totals:
            raise CliError(f"{where}: year {year} repeats an earlier line")
        totals[year] = count
    return totals


def cmd_segment(args: argparse.Namespace) -> int:
    if args.baseline:
        loaded = None
    else:
        if not args.dictionary:
            raise CliError("segment needs --dictionary (or --baseline)")
        # None defers to the dictionary's own case policy (JSON metadata)
        loaded = segment.load_dictionary(
            args.dictionary, case_fold=True if args.case_fold else None
        )
    override = _read_words(args.override_list) if args.override_list else []
    with ingest.read_input(None if args.input == "-" else args.input) as handle:
        text = handle.read()
    # only --spans needs tokens; the boundaries come from periods alone
    columns: tuple[Sequence, ...] = ((), (), (), ())
    if args.baseline:
        sentences = segment.baseline_segment(text)
    elif args.spans:
        columns, sentences = segment.token_columns(text, loaded, override)
    else:
        sentences = segment.sentence_spans(text, loaded, override)
    if args.spans:
        sys.stdout.flush()  # the document goes to the binary layer beneath
        with ingest.atomic_output(args.output, binary=True) if args.output else nullcontext(sys.stdout.buffer) as out:
            _write_spans(out, sentences, *columns)
        return 0
    with ingest.atomic_output(args.output) if args.output else nullcontext(sys.stdout) as out:
        for line in segment.sentence_texts(text, sentences):
            out.write(line + "\n")
    return 0


def _write_spans(
    out: BinaryIO,
    sentences: Sequence[segment.SentenceSpan],
    texts: Sequence[str],
    starts: Sequence[int],
    ends: Sequence[int],
    kinds: Sequence[str],
) -> None:
    """Write the ``--spans`` document from the sentences and the token
    columns of `segment.token_columns`, a bounded batch of records at a
    time.  The bytes are the UTF-8 of ``json.dumps(doc, ensure_ascii=False,
    sort_keys=True, indent=2) + "\\n"``, whose pure-Python encoder (the
    one `indent` selects) is slow.  Each record is a fixed template with
    its keys in sorted order; a token's template, its quoted text
    included, and its kind piece are made once per distinct text and
    kind, so a batch of tokens is one bytes ``%`` of joined templates."""
    quote = json.encoder.encode_basestring

    def number(value: int | None) -> bytes:
        return b"null" if value is None else b"%d" % value

    def sentence_records(lo: int, hi: int) -> bytes:
        return b"".join(
            b',\n    {\n      "end": %d,\n      "start": %d,\n      "token_end": %b,\n      "token_start": %b\n    }'
            % (s.end, s.start, number(s.token_end), number(s.token_start))
            for s in sentences[lo:hi]
        )

    kind_pieces = {kind: f',\n      "kind": {quote(kind)},\n      "start": '.encode() for kind in set(kinds)}
    templates = {
        text: b',\n    {\n      "end": %d%b%d' + f',\n      "text": {quote(text)}\n    }}'.replace("%", "%%").encode()
        for text in dict.fromkeys(texts)
    }

    def token_records(lo: int, hi: int) -> bytes:
        values = zip(ends[lo:hi], map(kind_pieces.__getitem__, kinds[lo:hi]), starts[lo:hi])
        return b"".join(map(templates.__getitem__, texts[lo:hi])) % tuple(chain.from_iterable(values))

    out.write(b'{\n  "sentences": ')
    _write_array(out, len(sentences), sentence_records)
    out.write(b',\n  "tokens": ')
    _write_array(out, len(texts), token_records)
    out.write(b"\n}\n")


def _write_array(out: BinaryIO, size: int, records: Callable[[int, int], bytes]) -> None:
    """A JSON array of `size` records as indent=2 lays it out at the top
    level of the document, one bounded batch at a time; `records(lo, hi)`
    renders records lo..hi-1, each starting with the separator
    ``b",\\n"`` that the first record drops.  ``[]`` when there are none."""
    if not size:
        out.write(b"[]")
        return
    for lo in range(0, size, 4096):  # about 0.5 MB a write
        batch = records(lo, lo + 4096)
        out.write(b"[" + batch[1:] if lo == 0 else batch)
    out.write(b"\n  ]")


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
    _write_output(out_dir / "abbreviations.txt", "\n".join(sorted(spec.abbrev_words)) + "\n")
    _write_output(
        out_dir / "override.txt", "\n".join(sorted(spec.title_like)) + ("\n" if spec.title_like else "")
    )
    logger.info(
        "synth: %d unigram lines, %d bigram lines, %d sentences -> %s",
        counts["unigram_lines"], counts["bigram_lines"], sentences, out_dir,
    )
    return 0


def _spec_from_doc(doc: dict, path: str) -> synth.SynthSpec:
    def word_map(value, default_p: float) -> dict[str, float]:
        if isinstance(value, dict):
            return {w: float(p) for w, p in value.items()}
        return {w: default_p for w in value}

    # fields left out keep the SynthSpec defaults
    casts = {
        "years": tuple, "totals_range": tuple, "seed": int, "volumes_divisor": int,
        "title_like": tuple, "period_comma_swap": float,
    }
    unknown = set(doc) - set(casts) - {"abbrev_words", "common_words", "default_p1", "default_p0"}
    if unknown:
        raise CliError(f"spec {path}: unknown fields {sorted(unknown)}")
    try:
        return synth.SynthSpec(
            abbrev_words=word_map(doc.get("abbrev_words", []), float(doc.get("default_p1", 0.955))),
            common_words=word_map(doc.get("common_words", []), float(doc.get("default_p0", 0.068))),
            **{key: cast(doc[key]) for key, cast in casts.items() if key in doc},
        )
    except (TypeError, ValueError) as exc:
        raise CliError(f"spec {path}: {exc}") from None


def cmd_params(args: argparse.Namespace) -> int:
    agg = ingest.Aggregator.load(args.aggregate)
    profiles = agg.finalize(args.window)
    est = likelihood.estimate_share_params(
        profiles,
        _read_words(args.seed_abbrevs),
        _read_words(args.seed_commons),
        args.window,
        args.mean_window,
        args.pooled,
    )
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
    sys.stdout.write(json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n")
    return 0


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """Every option's default lives here, once; `--config` entries go
    through the same parser (see `_parse_args`)."""
    parser = _Parser(
        prog="abbrevkit",
        description="Mine abbreviation dictionaries from ngram corpora and segment text with them.",
    )
    parser.add_argument("--config", help="JSON config file; explicit flags override its values")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    # options several commands share, declared once and passed as parents
    aggregate = _Parser(add_help=False)
    aggregate.add_argument("--aggregate", required=True, help="aggregate state from 'ingest'")
    aggregate.add_argument("--window", type=_parse_window, help="aggregate sub-window, default: the ingest window")
    threshold = _Parser(add_help=False)
    threshold.add_argument("--C", type=float, default=1.0,
                           help="likelihood-ratio decision threshold, default %(default)s")
    shares = _Parser(add_help=False)
    shares.add_argument("--mean-window", type=_parse_window, default="1998:2008",
                        help="share-mean window, default %(default)s")
    shares.add_argument("--macro", dest="pooled", action="store_false",
                        help="average per-word shares instead of pooling counts (p-series)")

    p = sub.add_parser("ingest", help="parse ngram files into a reusable aggregate state")
    p.add_argument("--unigrams", nargs="+", default=[], help="1-gram files (optionally .gz)")
    p.add_argument("--bigrams", nargs="+", default=[], help="2-gram files (optionally .gz)")
    p.add_argument("--output", required=True, help="aggregate state file to write (.json or .json.gz)")
    p.add_argument("--window", type=_parse_window, default="1990:2008",
                   help="analysis year window, default %(default)s")
    p.add_argument("--scripts", type=_comma_list("scripts", ingest.SCRIPT_RANGES), default="cyrillic,latin",
                   help="comma-separated letter scripts, default %(default)s")
    p.add_argument("--case-fold", action="store_true",
                   help="lowercase word forms at ingestion (default: case-sensitive)")
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help="parallel parser processes, default %(default)s")
    p.add_argument("--on-error", choices=("skip", "abort"), default="skip",
                   help="malformed line policy, default %(default)s")
    p.add_argument("--year-floor", type=int, default=1500, help="reject years below this, default %(default)s")
    p.add_argument("--year-ceiling", type=int, default=2100, help="reject years above this, default %(default)s")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build", parents=[aggregate, threshold], help="classify word forms and write the dictionary")
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

    p = sub.add_parser("stats", parents=[aggregate, shares], help="emit analytics reports")
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

    p = sub.add_parser("segment", help="split text into sentences using a dictionary")
    p.add_argument("input", nargs="?", default="-", help="text file, default stdin")
    p.add_argument("--dictionary", help="dictionary in any build output format")
    p.add_argument("--override-list", help="title-like prefixes kept non-terminal before capitals")
    p.add_argument("--baseline", action="store_true", help="use the period-space-capital pattern only")
    p.add_argument("--spans", action="store_true", help="emit token/sentence byte spans as JSON")
    p.add_argument("--case-fold", action="store_true", help="case-insensitive stem lookup")
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    p.add_argument("--spec", required=True, help="JSON spec (word lists, probabilities, seed)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("params", parents=[aggregate, threshold, shares],
                       help="estimate p0/p1 from seed lists and the minimum usable usage")
    p.add_argument("--seed-abbrevs", required=True)
    p.add_argument("--seed-commons", required=True)
    p.add_argument("--alpha-target", type=float, default=0.001, help="default %(default)s")
    p.add_argument("--beta-target", type=float, default=0.001, help="default %(default)s")
    p.set_defaults(func=cmd_params)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)
    parser = build_parser()
    try:
        args = _parse_args(parser, list(sys.argv[1:] if argv is None else argv))
        if args.verbose:
            logger.setLevel(logging.DEBUG)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:  # stdout's reader left: exit 1, and quietly at the final flush
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except (CliError, ValueError, OSError, likelihood.SearchExhaustedError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
