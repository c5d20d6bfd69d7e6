"""Build an abbreviation dictionary from aggregated word profiles, write it and read it.

Two decision rules are offered: the median-share rule (the word counts
as an abbreviation when the median of its yearly with-period shares
exceeds a threshold, 90% by default) and the binomial likelihood-ratio
test on pooled counts.  Candidate entries then pass occasionalism
filters on volume spread and active timespan.  Builds are deterministic
for fixed inputs and configuration.  `load_dictionary`, the one reader,
also reads the override and seed word lists.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from .ingest import WORD_RULE, WordProfile, is_word, parse_count, read_input

if TYPE_CHECKING:  # pragma: no cover
    from . import likelihood
    from .likelihood import HypothesisParams

__all__ = [
    "DecisionRecord",
    "AbbrevEntry",
    "AbbrevDictionary",
    "BuildOptions",
    "InvalidConfigError",
    "DEFAULT_MEDIAN_THRESHOLD",
    "METHOD_LRT",
    "METHOD_MEDIAN",
    "decide_lrt",
    "build_dictionary",
    "as_fraction",
    "dictionary_to_tsv",
    "dictionary_to_json",
    "dictionary_to_wordlist",
    "LoadedDictionary",
    "DictionaryLoadError",
    "load_dictionary",
]

DEFAULT_MEDIAN_THRESHOLD = Fraction(9, 10)

METHOD_LRT = "lrt"
METHOD_MEDIAN = "median-threshold"

METHODS = ("median", "lrt", "both-must-agree")


class InvalidConfigError(ValueError):
    """Build configuration outside its documented domain."""


def as_fraction(value: Fraction | float | int | str) -> Fraction:
    """Exact rational from a user-facing value; floats go through their
    decimal repr so 0.9 means 9/10, not the nearest binary float."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class DecisionRecord:
    """Verdict on one word form and the statistics of the rule that gave
    it; the likelihood-ratio rule fills in eta, likelihood, alpha and
    beta, the median-share rule leaves them None."""

    is_abbreviation: bool
    method: str
    eta: float | None = None
    likelihood: float | None = None
    alpha: float | None = None
    beta: float | None = None


def _median_rule(profile: WordProfile, threshold: Fraction) -> DecisionRecord:
    """Median-share rule: abbreviation iff the median yearly share is
    strictly above the threshold ("more than 90%" at the default)."""
    med = profile.median_share
    return DecisionRecord(med is not None and med > threshold, METHOD_MEDIAN)


def decide_lrt(profile: WordProfile, params: HypothesisParams) -> DecisionRecord:
    """Likelihood-ratio rule on counts pooled over the window: solve
    L(eta) = C and call abbreviation iff n > eta.  A profile with no
    usage at all is undecidable and stays a common word with empty
    statistics."""
    n, total = profile.n_total, profile.N_total
    if total == 0:
        return DecisionRecord(False, METHOD_LRT)
    likelihood = sys.modules[__name__].likelihood  # the module, imported on first use (see `__getattr__`)
    eta = likelihood.solve_threshold(total, params)
    return DecisionRecord(
        is_abbreviation=n > eta,
        method=METHOD_LRT,
        eta=eta,
        likelihood=likelihood.likelihood_ratio(n, total, params),
        alpha=likelihood.alpha_error(eta, total, params.p0),
        beta=likelihood.beta_error(eta, total, params.p1),
    )


@dataclass(frozen=True)
class AbbrevEntry:
    """One dictionary entry: the decision that admitted the word and the
    finalized profile it was made from."""

    decision: DecisionRecord
    profile: WordProfile


@dataclass
class AbbrevDictionary:
    entries: list[AbbrevEntry] = field(default_factory=list)
    build_meta: dict = field(default_factory=dict)

    def words(self) -> list[str]:
        return [entry.profile.word for entry in self.entries]


def _paper_params() -> HypothesisParams:
    """The paper's operating point, the default of `BuildOptions.params`."""
    return sys.modules[__name__].likelihood.HypothesisParams(0.068, 0.955, 1.0)


@dataclass(frozen=True)
class BuildOptions:
    """Decision method and all thresholds of a dictionary build."""

    method: str = "median"
    median_threshold: Fraction = DEFAULT_MEDIAN_THRESHOLD
    params: HypothesisParams = field(default_factory=_paper_params)
    min_total: int = 40
    min_volumes: int = 2
    min_active_years: int = 2
    case_fold: bool = False

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise InvalidConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        object.__setattr__(self, "median_threshold", as_fraction(self.median_threshold))  # the one conversion
        if not 0 < self.median_threshold < 1:
            raise InvalidConfigError(f"median threshold must be in (0,1), got {self.median_threshold}")
        if self.min_total < 0 or self.min_volumes < 0 or self.min_active_years < 0:
            raise InvalidConfigError("thresholds must be non-negative")


def build_dictionary(
    profiles: Mapping[str, WordProfile],
    options: BuildOptions | None = None,
    fingerprints: Mapping[str, str] | None = None,
) -> AbbrevDictionary:
    """Classify every sufficiently attested word form and assemble the
    filtered, sorted dictionary.

    Words with pooled totals below `min_total` are left undecided (the
    test has no power there) and counted in the build metadata.  With
    method ``both-must-agree`` a word enters only when the median rule
    and the likelihood-ratio test both say abbreviation: the test runs
    on the words the median rule admits, and its decision is stored.
    Each admitted word then meets the occasionalism filters, on volumes
    and on active years, in the same pass; one that fails both counts
    in both removal counts.
    """
    options = options or BuildOptions()
    window = None
    undecided = candidates = low_volume = short_timespan = 0
    kept: list[AbbrevEntry] = []
    for word in sorted(profiles):
        profile = profiles[word]
        if window is None:
            window = profile.window
        if profile.N_total < options.min_total:
            undecided += 1
            continue
        if options.method == "median":
            decision = _median_rule(profile, options.median_threshold)
        elif options.method == "lrt" or _median_rule(profile, options.median_threshold).is_abbreviation:
            decision = decide_lrt(profile, options.params)
        else:
            continue
        if not decision.is_abbreviation:
            continue
        candidates += 1
        few_volumes = profile.volumes_total < options.min_volumes
        few_years = profile.active_years < options.min_active_years
        low_volume += few_volumes
        short_timespan += few_years
        if not (few_volumes or few_years):
            kept.append(AbbrevEntry(decision, profile))
    meta = {
        "window": list(window) if window else None,
        "method": options.method,
        "case_fold": options.case_fold,
        "thresholds": {
            "median_threshold": str(options.median_threshold),
            "p0": options.params.p0,
            "p1": options.params.p1,
            "C": options.params.c,
            "min_total": options.min_total,
            "min_volumes": options.min_volumes,
            "min_active_years": options.min_active_years,
        },
        "corpus_fingerprint": dict(sorted((fingerprints or {}).items())),
        "counts": {
            "words_seen": len(profiles),
            "undecided_low_evidence": undecided,
            "candidates": candidates,
            "removed_low_volume": low_volume,
            "removed_short_timespan": short_timespan,
            "entries": len(kept),
        },
    }
    return AbbrevDictionary(entries=kept, build_meta=meta)


# -- serialization ---------------------------------------------------------

# the JSON document's format and version, for its writer and its reader
DOCUMENT_FORMAT = "abbrevkit-dictionary"
DOCUMENT_VERSION = 1


def _share_repr(share: Fraction | None) -> str:
    return repr(float(share)) if share is not None else "-"


def _flags_repr(flags: frozenset[str]) -> str:
    return ",".join(sorted(flags)) if flags else "-"


def dictionary_to_tsv(dictionary: AbbrevDictionary) -> str:
    """Tab-separated dump: word, median_share, n_total, N_total,
    volumes_total, active_years, verdict_method, flags."""
    lines = []
    for e in dictionary.entries:
        p = e.profile
        lines.append(
            "\t".join(
                (
                    p.word,
                    _share_repr(p.median_share),
                    str(p.n_total),
                    str(p.N_total),
                    str(p.volumes_total),
                    str(p.active_years),
                    e.decision.method,
                    _flags_repr(p.flags),
                )
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def _finite_or_none(value: float | None) -> float | None:
    if value is None or not math.isfinite(value):
        return None
    return value


def dictionary_to_json(dictionary: AbbrevDictionary) -> str:
    """Single-document dump with build metadata; exact shares are kept as
    rational strings next to their float rendering.  A likelihood ratio
    that overflows the float range serializes as null (strict JSON has
    no Infinity)."""
    doc = {
        "format": DOCUMENT_FORMAT,
        "version": DOCUMENT_VERSION,
        "build_meta": dictionary.build_meta,
        "entries": [
            {
                "word": e.profile.word,
                "median_share": float(e.profile.median_share) if e.profile.median_share is not None else None,
                "median_share_exact": str(e.profile.median_share) if e.profile.median_share is not None else None,
                "n_total": e.profile.n_total,
                "N_total": e.profile.N_total,
                "volumes_total": e.profile.volumes_total,
                "active_years": e.profile.active_years,
                "verdict_method": e.decision.method,
                "eta": e.decision.eta,
                "likelihood": _finite_or_none(e.decision.likelihood),
                "alpha": e.decision.alpha,
                "beta": e.decision.beta,
                "flags": sorted(e.profile.flags),
            }
            for e in dictionary.entries
        ],
    }
    return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def dictionary_to_wordlist(dictionary: AbbrevDictionary) -> str:
    """Plain list, one word per line, for segmenter consumption."""
    return "".join(f"{word}\n" for word in dictionary.words())


def _tsv_fault(columns: list[str]) -> str | None:
    """Which of columns 2-8 of a TSV row does not read back as
    `dictionary_to_tsv` writes it, and why; None when all do."""
    share, *counts, method, flags = columns
    try:
        share_ok = share == "-" or repr(value := float(share)) == share and 0 <= value <= 1
    except ValueError:
        share_ok = False
    if not share_ok:
        return f"median_share {share!r} is neither '-' nor a float in [0, 1]"
    for name, count in zip(("n_total", "N_total", "volumes_total", "active_years"), counts):
        if parse_count(count) is None:
            return f"{name} {count!r} is not a count in ASCII digits"
    if method not in (METHOD_MEDIAN, METHOD_LRT):
        return f"verdict_method {method!r} is neither {METHOD_MEDIAN!r} nor {METHOD_LRT!r}"
    names = flags.split(",")
    if flags != "-" and not (all(names) and "-" not in names and names == sorted(set(names))):
        return f"flags {flags!r} is neither '-' nor a sorted comma list of distinct names"
    return None


class DictionaryLoadError(ValueError):
    """An unreadable or malformed dictionary; the message names the file."""

    def __init__(self, message: str, line_number: int = 0):
        super().__init__(message)
        self.line_number = line_number


class LoadedDictionary:
    """Read-only stem membership with O(len(stem)) lookup; `words` as given."""

    def __init__(self, words: Iterable[str], case_fold: bool = False):
        self.case_fold = case_fold
        self.words = tuple(words)
        self._stems = frozenset(w.lower() for w in self.words) if case_fold else frozenset(self.words)

    def __contains__(self, stem: str) -> bool:
        return (stem.lower() if self.case_fold else stem) in self._stems

    def __len__(self) -> int:
        return len(self._stems)


def load_dictionary(path: str | Path, case_fold: bool | None = None, digest=None) -> LoadedDictionary:
    """Load words, each passing `is_word`, from any dictionary output
    format, detected from content: the JSON document, the TSV table
    (first column; the other seven must read back as `dictionary_to_tsv`
    writes them) or a plain word list, where lines blank or starting
    with ``#`` once stripped of spaces and tabs are skipped.  Unreadable
    and malformed files raise DictionaryLoadError naming `path` and the
    offending line.  A hashlib `digest` is fed the bytes in the read (see
    `read_input`)."""
    try:
        with read_input(path, digest) as handle:
            content = handle.read()
    except ValueError as exc:
        raise DictionaryLoadError(str(exc)) from None

    def error(reason: str, line_number: int = 0) -> DictionaryLoadError:
        where = f"{path} line {line_number}" if line_number else path
        return DictionaryLoadError(f"dictionary {where}: {reason}", line_number)

    if content.lstrip().startswith("{"):
        try:
            doc = json.loads(content)
        except json.JSONDecodeError as exc:
            raise error(f"invalid JSON dictionary: {exc}", exc.lineno) from None
        if doc.get("format") != DOCUMENT_FORMAT:
            raise error(f"not a dictionary document: format={doc.get('format')!r}")
        if type(doc.get("version")) is not int or doc["version"] != DOCUMENT_VERSION:
            raise error(f"unsupported dictionary version {doc.get('version')!r}, expected {DOCUMENT_VERSION}")
        if "entries" not in doc or "build_meta" not in doc:
            raise error("a dictionary document needs 'entries' and 'build_meta'")
        entries, meta = doc["entries"], doc["build_meta"]
        if not isinstance(entries, list) or not isinstance(meta, dict):
            raise error("'entries' must be a list and 'build_meta' an object")
        words = [entry.get("word") if isinstance(entry, dict) else None for entry in entries]
        for index, word in enumerate(words):
            if not is_word(word):
                raise error(f"entry {index} 'word' {word!r} is not a word ({WORD_RULE})")
        fold = meta.get("case_fold", False)
        if type(fold) is not bool:
            raise error(f"build_meta case_fold must be true or false, got {fold!r}")
        return LoadedDictionary(words, case_fold=fold if case_fold is None else case_fold)
    words = []
    for line_number, line in enumerate(content.split("\n"), 1):
        line = line.strip(" \t")  # any other space is left for the word rule to refuse
        if not line or line.startswith("#"):
            continue
        word, *rest = fields = line.split("\t")
        if rest and len(fields) != 8:
            raise error(f"expected 8 TSV columns, got {len(fields)}", line_number)
        if not is_word(word):
            raise error(f"{word!r} is not a word ({WORD_RULE})", line_number)
        if rest and (fault := _tsv_fault(rest)):
            raise error(fault, line_number)
        words.append(word)
    return LoadedDictionary(words, case_fold=bool(case_fold))


def __getattr__(name: str):
    """`dictionary.likelihood`, imported on first use: only the
    likelihood-ratio test and `BuildOptions`' default params need it, so
    reading a dictionary (`segment`) does without it."""
    if name != "likelihood":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import likelihood

    globals()[name] = likelihood
    return likelihood
