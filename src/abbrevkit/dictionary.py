"""Turn aggregated word profiles into an abbreviation dictionary.

Two decision rules are offered: the median-share rule (the word counts
as an abbreviation when the median of its yearly with-period shares
exceeds a threshold, 90% by default) and the binomial likelihood-ratio
test on pooled counts.  Candidate entries then pass occasionalism
filters on volume spread and active timespan.  Builds are deterministic
for fixed inputs and configuration.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .ingest import WordProfile
from .likelihood import (
    HypothesisParams,
    alpha_error,
    beta_error,
    likelihood_ratio,
    solve_threshold,
)

__all__ = [
    "DecisionRecord",
    "AbbrevEntry",
    "AbbrevDictionary",
    "BuildOptions",
    "InvalidConfigError",
    "FLAG_LOW_VOLUME",
    "FLAG_SHORT_TIMESPAN",
    "DEFAULT_MEDIAN_THRESHOLD",
    "METHOD_LRT",
    "METHOD_MEDIAN",
    "decide_lrt",
    "filter_occasional",
    "build_dictionary",
    "as_fraction",
    "dictionary_to_tsv",
    "dictionary_to_json",
    "dictionary_to_wordlist",
]

FLAG_LOW_VOLUME = "low-volume"
FLAG_SHORT_TIMESPAN = "short-timespan"

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


def _median_threshold(value: Fraction | float | str) -> Fraction:
    thr = as_fraction(value)
    if not 0 < thr < 1:
        raise InvalidConfigError(f"median threshold must be in (0,1), got {thr}")
    return thr


def _median_rule(profile: WordProfile, threshold: Fraction) -> DecisionRecord:
    med = profile.median_share
    return DecisionRecord(med is not None and med > threshold, METHOD_MEDIAN)


def decide_median(profile: WordProfile, threshold: Fraction | float | str = DEFAULT_MEDIAN_THRESHOLD) -> DecisionRecord:
    """Median-share rule: abbreviation iff the median yearly share is
    strictly above the threshold ("more than 90%" at the default)."""
    return _median_rule(profile, _median_threshold(threshold))


def decide_lrt(profile: WordProfile, params: HypothesisParams) -> DecisionRecord:
    """Likelihood-ratio rule on counts pooled over the window: solve
    L(eta) = C and call abbreviation iff n > eta.  A profile with no
    usage at all is undecidable and stays a common word with empty
    statistics."""
    n, total = profile.n_total, profile.N_total
    if total == 0:
        return DecisionRecord(False, METHOD_LRT)
    eta = solve_threshold(total, params)
    return DecisionRecord(
        is_abbreviation=n > eta,
        method=METHOD_LRT,
        eta=eta,
        likelihood=likelihood_ratio(n, total, params),
        alpha=alpha_error(eta, total, params.p0),
        beta=beta_error(eta, total, params.p1),
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


@dataclass(frozen=True)
class BuildOptions:
    """Decision method and all thresholds of a dictionary build."""

    method: str = "median"
    median_threshold: Fraction = DEFAULT_MEDIAN_THRESHOLD
    params: HypothesisParams = field(default_factory=lambda: HypothesisParams(0.068, 0.955, 1.0))
    min_total: int = 40
    min_volumes: int = 2
    min_active_years: int = 2
    case_fold: bool = False

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise InvalidConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        object.__setattr__(self, "median_threshold", _median_threshold(self.median_threshold))
        if self.min_total < 0 or self.min_volumes < 0 or self.min_active_years < 0:
            raise InvalidConfigError("thresholds must be non-negative")


def filter_occasional(
    entries: Sequence[AbbrevEntry],
    min_volumes: int,
    min_active_years: int,
) -> tuple[list[AbbrevEntry], list[tuple[AbbrevEntry, tuple[str, ...]]]]:
    """Drop occasionalisms: entries printed in too few volumes or active
    in too few years.  Returns (kept, removed-with-reasons); idempotent,
    and identity at zero thresholds."""
    if min_volumes < 0 or min_active_years < 0:
        raise InvalidConfigError("occasionalism thresholds must be non-negative")
    kept: list[AbbrevEntry] = []
    removed: list[tuple[AbbrevEntry, tuple[str, ...]]] = []
    for entry in entries:
        reasons = []
        if entry.profile.volumes_total < min_volumes:
            reasons.append(FLAG_LOW_VOLUME)
        if entry.profile.active_years < min_active_years:
            reasons.append(FLAG_SHORT_TIMESPAN)
        if reasons:
            removed.append((entry, tuple(reasons)))
        else:
            kept.append(entry)
    return kept, removed


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
    """
    options = options or BuildOptions()
    threshold = _median_threshold(options.median_threshold)  # once per build, not per word
    window = None
    candidates: list[AbbrevEntry] = []
    undecided = 0
    for word in sorted(profiles):
        profile = profiles[word]
        if window is None:
            window = profile.window
        if profile.N_total < options.min_total:
            undecided += 1
            continue
        if options.method == "median":
            decision = _median_rule(profile, threshold)
        elif options.method == "lrt" or _median_rule(profile, threshold).is_abbreviation:
            decision = decide_lrt(profile, options.params)
        else:
            continue
        if decision.is_abbreviation:
            candidates.append(AbbrevEntry(decision, profile))
    kept, removed = filter_occasional(candidates, options.min_volumes, options.min_active_years)
    removal_counts = {FLAG_LOW_VOLUME: 0, FLAG_SHORT_TIMESPAN: 0}
    for _, reasons in removed:
        for reason in reasons:
            removal_counts[reason] += 1
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
            "candidates": len(candidates),
            "removed_low_volume": removal_counts[FLAG_LOW_VOLUME],
            "removed_short_timespan": removal_counts[FLAG_SHORT_TIMESPAN],
            "entries": len(kept),
        },
    }
    return AbbrevDictionary(entries=kept, build_meta=meta)


# -- serialization ---------------------------------------------------------

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
        "format": "abbrevkit-dictionary",
        "version": 1,
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
    words = dictionary.words()
    return "\n".join(words) + ("\n" if words else "")
