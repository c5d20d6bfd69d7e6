"""Command-line pipeline: ingest, build, stats, segment, synth, params.

Every option can come from a JSON config file (--config); explicit
command-line flags win over the file, which wins over built-in
defaults.  Diagnostics go to stderr, data to the declared outputs or
stdout; exit status is 0 exactly when the command succeeded.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from pathlib import Path
from typing import Sequence

from . import analytics, dictionary, ingest, likelihood, segment, synth

logger = logging.getLogger("abbrevkit")


class CliError(Exception):
    pass


def _parse_window(value: str) -> tuple[int, int]:
    try:
        lo, hi = value.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise CliError(f"window must look like '1990:2008', got {value!r}") from None


def _read_words(path: str) -> list[str]:
    words = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.append(line)
    return words


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot load config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(f"config must be a JSON object, got {type(doc).__name__}")
    return doc


def _effective(args: argparse.Namespace, config: dict, defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    merged = dict(defaults)
    for key in defaults:
        if key in config:
            merged[key] = config[key]
    for key in defaults:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            merged[key] = value
    return merged


def _write_output(path: str, payload: str) -> None:
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(payload, encoding="utf-8")


# -- subcommands ------------------------------------------------------------

INGEST_DEFAULTS = {
    "window": "1990:2008",
    "scripts": "cyrillic,latin",
    "case_fold": False,
    "jobs": 1,
    "on_error": "skip",
    "year_floor": 1500,
    "year_ceiling": 2100,
}


def cmd_ingest(args: argparse.Namespace, config: dict) -> int:
    opts = _effective(args, config, INGEST_DEFAULTS)
    unigrams = args.unigrams or config.get("unigrams") or []
    bigrams = args.bigrams or config.get("bigrams") or []
    if not unigrams and not bigrams:
        raise CliError("nothing to ingest: no 1-gram or 2-gram files given")
    for path in list(unigrams) + list(bigrams):
        if not Path(path).exists():
            raise CliError(f"input file not found: {path}")
    window = _parse_window(opts["window"])
    cfg = ingest.IngestConfig(
        year_min=window[0],
        year_max=window[1],
        scripts=tuple(s.strip() for s in opts["scripts"].split(",") if s.strip()),
        case_fold=bool(opts["case_fold"]),
        year_floor=int(opts["year_floor"]),
        year_ceiling=int(opts["year_ceiling"]),
    )
    agg = ingest.ingest_paths(unigrams, bigrams, cfg, jobs=int(opts["jobs"]), on_error=opts["on_error"])
    agg.save(args.output)
    logger.info(
        "ingested %d lines (%d skipped) -> %s",
        agg.counters.lines_parsed, agg.counters.lines_skipped, args.output,
    )
    return 0


BUILD_DEFAULTS = {
    "method": "median",
    "median_threshold": "0.9",
    "p0": 0.068,
    "p1": 0.955,
    "C": 1.0,
    "alpha_target": None,
    "beta_target": None,
    "min_total": 40,
    "min_volumes": 2,
    "min_active_years": 2,
    "window": None,
}


def cmd_build(args: argparse.Namespace, config: dict) -> int:
    opts = _effective(args, config, BUILD_DEFAULTS)
    if not (args.out_tsv or args.out_json or args.out_words):
        raise CliError("build needs at least one of --out-tsv/--out-json/--out-words")
    agg = ingest.Aggregator.load(args.aggregate)
    window = _parse_window(opts["window"]) if opts["window"] else None
    profiles = agg.finalize(window)
    params = likelihood.HypothesisParams(float(opts["p0"]), float(opts["p1"]), float(opts["C"]))
    min_total = int(opts["min_total"])
    if opts["alpha_target"] is not None and opts["beta_target"] is not None:
        # error targets pin the evidence gate at the smallest workable N
        result = likelihood.min_usage_for_error(
            params, float(opts["alpha_target"]), float(opts["beta_target"])
        )
        min_total = max(min_total, result.total)
        logger.info(
            "error targets need usage >= %d (eta=%d, alpha=%.3g, beta=%.3g); min_total=%d",
            result.total, result.eta, result.alpha, result.beta, min_total,
        )
    options = dictionary.BuildOptions(
        method=opts["method"],
        median_threshold=dictionary.as_fraction(opts["median_threshold"]),
        params=params,
        min_total=min_total,
        min_volumes=int(opts["min_volumes"]),
        min_active_years=int(opts["min_active_years"]),
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


STATS_DEFAULTS = {
    "reports": ",".join(analytics.REPORT_KINDS),
    "window": None,
    "mean_window": "1998:2008",
    "dynamics_window": "1940:2008",
    "top_k": 300,
    "max_volumes": 10,
    "pooled": True,
}


def cmd_stats(args: argparse.Namespace, config: dict) -> int:
    opts = _effective(args, config, STATS_DEFAULTS)
    kinds = [k.strip() for k in opts["reports"].split(",") if k.strip()]
    unknown = [k for k in kinds if k not in analytics.REPORT_KINDS]
    if unknown:
        raise CliError(f"unknown report kinds {unknown}; available: {list(analytics.REPORT_KINDS)}")
    agg = ingest.Aggregator.load(args.aggregate)
    window = _parse_window(opts["window"]) if opts["window"] else None
    profiles = agg.finalize(window)
    effective_window = window or (agg.config.year_min, agg.config.year_max)

    entries = None
    dictionary_digest = None
    if args.dictionary:
        loaded = segment.load_dictionary(args.dictionary)
        entries = [profiles[w] for w in sorted(profiles) if w in loaded]
        dictionary_digest = hashlib.sha256(Path(args.dictionary).read_bytes()).hexdigest()
    needs_dict = [k for k in kinds if k != "p-series"]
    if needs_dict and entries is None:
        raise CliError(f"reports {needs_dict} need --dictionary")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    totals_by_year = _read_totals(args.totals) if args.totals else None

    for kind in kinds:
        if kind == "rare-cumulative":
            report = analytics.rare_cumulative(entries, int(opts["max_volumes"]))
        elif kind == "p-series":
            if not (args.seed_abbrevs and args.seed_commons):
                raise CliError("p-series needs --seed-abbrevs and --seed-commons")
            report = analytics.p_series(
                profiles,
                _read_words(args.seed_abbrevs),
                _read_words(args.seed_commons),
                window,
                _parse_window(opts["mean_window"]),
                bool(opts["pooled"]),
            )
        elif kind == "length-histogram":
            report = analytics.length_histogram(entries)
        elif kind == "freq-by-length":
            report = analytics.frequency_by_length(entries)
        else:
            report = analytics.dynamics(
                entries,
                _parse_window(opts["dynamics_window"]),
                int(opts["top_k"]),
                totals_by_year,
            )
        report.meta.setdefault("window", list(effective_window))
        report.meta.setdefault("dictionary_fingerprint", dictionary_digest)
        (out_dir / f"{kind}.tsv").write_text(report.to_tsv(), encoding="utf-8")
        (out_dir / f"{kind}.json").write_text(report.to_json(), encoding="utf-8")
        logger.info("wrote %s (%d rows)", out_dir / f"{kind}.tsv", len(report.rows))
    return 0


def _read_totals(path: str) -> dict[int, int]:
    totals: dict[int, int] = {}
    for line_number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise CliError(f"totals file line {line_number}: expected 'year TAB count'")
        totals[int(fields[0])] = int(fields[1])
    return totals


def cmd_segment(args: argparse.Namespace, config: dict) -> int:
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
    if args.input and args.input != "-":
        text = Path(args.input).read_text(encoding="utf-8")
    else:
        text = sys.stdin.read()
    if args.baseline:
        sentences = segment.baseline_segment(text)
        tokens: list[segment.Token] = []
    else:
        tokens, sentences = segment.dict_segment(text, loaded, override)
    out = sys.stdout if not args.output else open(args.output, "w", encoding="utf-8")
    try:
        if args.spans:
            doc = {
                "sentences": [
                    {"start": s.start, "end": s.end, "token_start": s.token_start, "token_end": s.token_end}
                    for s in sentences
                ],
                "tokens": [
                    {"text": t.text, "start": t.start, "end": t.end, "kind": t.kind}
                    for t in tokens
                ],
            }
            out.write(json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n")
        else:
            for line in segment.sentence_texts(text, sentences):
                out.write(line + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_synth(args: argparse.Namespace, config: dict) -> int:
    try:
        doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot load spec {args.spec}: {exc}") from exc
    sentences = int(doc.pop("sentences", 1000))
    spec = _spec_from_doc(doc)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = synth.generate_ngrams(spec, out_dir / "1grams.tsv", out_dir / "2grams.tsv")
    sample = synth.generate_text(spec, sentences)
    (out_dir / "text.txt").write_text(sample.text, encoding="utf-8")
    (out_dir / "gold.json").write_text(sample.gold_json(), encoding="utf-8")
    (out_dir / "abbreviations.txt").write_text(
        "\n".join(sorted(spec.abbrev_words)) + "\n", encoding="utf-8"
    )
    (out_dir / "override.txt").write_text(
        "\n".join(sorted(spec.title_like)) + ("\n" if spec.title_like else ""), encoding="utf-8"
    )
    logger.info(
        "synth: %d unigram lines, %d bigram lines, %d sentences -> %s",
        counts["unigram_lines"], counts["bigram_lines"], sentences, out_dir,
    )
    return 0


def _spec_from_doc(doc: dict) -> synth.SynthSpec:
    def word_map(value, default_p: float) -> dict[str, float]:
        if isinstance(value, dict):
            return {w: float(p) for w, p in value.items()}
        return {w: default_p for w in value}

    known = {
        "abbrev_words", "common_words", "default_p1", "default_p0", "years",
        "totals_range", "seed", "volumes_divisor", "title_like", "period_comma_swap",
    }
    unknown = set(doc) - known
    if unknown:
        raise CliError(f"unknown spec fields: {sorted(unknown)}")
    try:
        return synth.SynthSpec(
            abbrev_words=word_map(doc.get("abbrev_words", []), float(doc.get("default_p1", 0.955))),
            common_words=word_map(doc.get("common_words", []), float(doc.get("default_p0", 0.068))),
            years=tuple(doc.get("years", (1990, 2008))),
            totals_range=tuple(doc.get("totals_range", (40, 5000))),
            seed=int(doc.get("seed", 0)),
            volumes_divisor=int(doc.get("volumes_divisor", 10)),
            title_like=tuple(doc.get("title_like", ())),
            period_comma_swap=float(doc.get("period_comma_swap", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid spec: {exc}") from exc


PARAMS_DEFAULTS = {
    "window": None,
    "mean_window": "1998:2008",
    "alpha_target": 0.001,
    "beta_target": 0.001,
    "C": 1.0,
    "pooled": True,
}


def cmd_params(args: argparse.Namespace, config: dict) -> int:
    opts = _effective(args, config, PARAMS_DEFAULTS)
    agg = ingest.Aggregator.load(args.aggregate)
    window = _parse_window(opts["window"]) if opts["window"] else None
    profiles = agg.finalize(window)
    est = likelihood.estimate_share_params(
        profiles,
        _read_words(args.seed_abbrevs),
        _read_words(args.seed_commons),
        window,
        _parse_window(opts["mean_window"]),
        bool(opts["pooled"]),
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
        params = likelihood.HypothesisParams(est.mean_p0, est.mean_p1, float(opts["C"]))
        try:
            result = likelihood.min_usage_for_error(
                params, float(opts["alpha_target"]), float(opts["beta_target"])
            )
            doc["min_usage"] = {
                "total": result.total,
                "eta": result.eta,
                "alpha": result.alpha,
                "beta": result.beta,
                "alpha_target": float(opts["alpha_target"]),
                "beta_target": float(opts["beta_target"]),
            }
        except likelihood.SearchExhaustedError as exc:
            doc["min_usage"] = {"error": str(exc)}
    sys.stdout.write(json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n")
    return 0


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abbrevkit",
        description="Mine abbreviation dictionaries from ngram corpora and segment text with them.",
    )
    parser.add_argument("--config", help="JSON config file; explicit flags override its values")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse ngram files into a reusable aggregate state")
    p.add_argument("--unigrams", nargs="+", help="1-gram files (optionally .gz)")
    p.add_argument("--bigrams", nargs="+", help="2-gram files (optionally .gz)")
    p.add_argument("--output", required=True, help="aggregate state file to write (.json or .json.gz)")
    p.add_argument("--window", help="analysis year window, default 1990:2008")
    p.add_argument("--scripts", help="comma-separated letter scripts, default cyrillic,latin")
    p.add_argument("--case-fold", action="store_const", const=True, default=None,
                   help="lowercase word forms at ingestion (default: case-sensitive)")
    p.add_argument("--jobs", type=int, help="parallel parser processes, default 1")
    p.add_argument("--on-error", choices=("skip", "abort"), help="malformed line policy, default skip")
    p.add_argument("--year-floor", type=int, help="reject years below this, default 1500")
    p.add_argument("--year-ceiling", type=int, help="reject years above this, default 2100")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build", help="classify word forms and write the dictionary")
    p.add_argument("--aggregate", required=True, help="aggregate state from 'ingest'")
    p.add_argument("--method", choices=dictionary.METHODS, help="decision rule, default median")
    p.add_argument("--median-threshold", help="median share cut, default 0.9 (strictly above)")
    p.add_argument("--p0", type=float, help="common-word with-period share, default 0.068")
    p.add_argument("--p1", type=float, help="abbreviation with-period share, default 0.955")
    p.add_argument("--C", type=float, help="likelihood-ratio decision threshold, default 1")
    p.add_argument("--alpha-target", type=float, help="with --beta-target: raise the evidence gate to the smallest N meeting both error targets")
    p.add_argument("--beta-target", type=float, help="see --alpha-target")
    p.add_argument("--min-total", type=int, help="evidence gate on pooled usage, default 40")
    p.add_argument("--min-volumes", type=int, help="occasionalism filter, default 2")
    p.add_argument("--min-active-years", type=int, help="occasionalism filter, default 2")
    p.add_argument("--window", help="aggregate sub-window, default: the ingest window")
    p.add_argument("--out-tsv", help="write the TSV table here")
    p.add_argument("--out-json", help="write the JSON document here")
    p.add_argument("--out-words", help="write the plain word list here")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("stats", help="emit analytics reports")
    p.add_argument("--aggregate", required=True)
    p.add_argument("--dictionary", help="dictionary file (needed by all reports except p-series)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--reports", help=f"comma-separated subset of {','.join(analytics.REPORT_KINDS)}")
    p.add_argument("--seed-abbrevs", help="seed abbreviation list for p-series")
    p.add_argument("--seed-commons", help="seed common-word list for p-series")
    p.add_argument("--window", help="aggregate sub-window, default: the ingest window")
    p.add_argument("--mean-window", help="share-mean window, default 1998:2008")
    p.add_argument("--dynamics-window", help="dynamics year range, default 1940:2008")
    p.add_argument("--top-k", type=int, help="top entries tracked by dynamics, default 300")
    p.add_argument("--max-volumes", type=int, help="rare-cumulative x-axis limit, default 10")
    p.add_argument("--totals", help="optional 'year TAB total' file to normalize dynamics")
    p.add_argument("--macro", dest="pooled", action="store_const", const=False,
                   help="average per-word shares instead of pooling counts (p-series)")
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

    p = sub.add_parser("params", help="estimate p0/p1 from seed lists and the minimum usable usage")
    p.add_argument("--aggregate", required=True)
    p.add_argument("--seed-abbrevs", required=True)
    p.add_argument("--seed-commons", required=True)
    p.add_argument("--window", help="aggregate sub-window, default: the ingest window")
    p.add_argument("--mean-window", help="default 1998:2008")
    p.add_argument("--alpha-target", type=float, help="default 0.001")
    p.add_argument("--beta-target", type=float, help="default 0.001")
    p.add_argument("--C", type=float, help="default 1")
    p.add_argument("--macro", dest="pooled", action="store_const", const=False,
                   help="average per-word shares instead of pooling counts")
    p.set_defaults(func=cmd_params)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
    )
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except CliError as exc:
        logger.error("%s", exc)
        return 1
    except (ingest.ParseError, ingest.ConfigMismatchError, dictionary.InvalidConfigError,
            segment.DictionaryLoadError, likelihood.EstimationError,
            likelihood.SearchExhaustedError, ValueError, OSError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
