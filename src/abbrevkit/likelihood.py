"""Binomial two-hypothesis machinery for with-period usage shares.

A word form observed N times, n of them immediately followed by a period,
is modelled as n ~ Binomial(N, p).  Two hypotheses compete: the form is a
common word (p = p0, low with-period share) or an abbreviation (p = p1,
high share).  This module provides the probability mass function, the
likelihood ratio between the hypotheses, the closed-form count threshold
eta solving L(eta) = C, the type I/II error probabilities of the
resulting decision rule, the minimum sample size meeting error targets,
and estimation of p0/p1 from labelled seed word lists.

Everything is evaluated in log space so corpus-scale N does not overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .ingest import WordProfile

__all__ = [
    "HypothesisParams",
    "ShareEstimate",
    "MinUsageResult",
    "SearchExhaustedError",
    "EstimationError",
    "binomial_pmf",
    "log_binomial_pmf",
    "likelihood_ratio",
    "log_likelihood_ratio",
    "solve_threshold",
    "alpha_error",
    "beta_error",
    "min_usage_for_error",
    "estimate_share_params",
]

class SearchExhaustedError(RuntimeError):
    """No sample size within the configured cap meets the error targets."""


class EstimationError(ValueError):
    """Share estimation is impossible (e.g. no usable seed words)."""


@dataclass(frozen=True)
class HypothesisParams:
    """Operating point of the test: shares under both hypotheses plus the
    likelihood-ratio decision threshold C.

    p0 is the with-period share of a common word, p1 that of an
    abbreviation.  Normal use requires p0 < p1; equality is tolerated at
    construction (it makes the ratio degenerate to 1) but rejected by
    every operation that needs a unique threshold.
    """

    p0: float
    p1: float
    c: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.p0 < 1.0):
            raise ValueError(f"p0 must be in (0,1), got {self.p0}")
        if not (0.0 < self.p1 < 1.0):
            raise ValueError(f"p1 must be in (0,1), got {self.p1}")
        if self.p0 > self.p1:
            raise ValueError(f"p0 must not exceed p1, got p0={self.p0} > p1={self.p1}")
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"decision threshold C must be positive and finite, got {self.c}")


def log_binomial_pmf(total: int, successes: int, p: float) -> float:
    """Natural log of C(total, successes) * p^successes * (1-p)^rest.

    Requires 0 < p < 1; the p = 0/1 edge cases are handled by
    binomial_pmf, where the mass collapses to a single point.
    """
    return (
        math.lgamma(total + 1)
        - math.lgamma(successes + 1)
        - math.lgamma(total - successes + 1)
        + successes * math.log(p)
        + (total - successes) * math.log1p(-p)
    )


def binomial_pmf(total: int, successes: int, p: float) -> float:
    """Probability of exactly `successes` hits in `total` trials at rate p.

    Evaluated via log-gamma so it stays finite for corpus-scale totals.
    Relative accuracy is much better than 1e-10 against exact rational
    arithmetic for totals up to the thousands.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if not 0 <= successes <= total:
        raise ValueError(f"successes must be in [0, {total}], got {successes}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    if p == 0.0:
        return 1.0 if successes == 0 else 0.0
    if p == 1.0:
        return 1.0 if successes == total else 0.0
    return math.exp(log_binomial_pmf(total, successes, p))


def _log_ratio_terms(params: HypothesisParams) -> tuple[float, float]:
    """Slope ln(p1(1-p0) / (p0(1-p1))) and offset ln((1-p1)/(1-p0)) of
    the log likelihood ratio, which is n * slope + total * offset."""
    p0, p1 = params.p0, params.p1
    slope = math.log(p1) + math.log1p(-p0) - math.log(p0) - math.log1p(-p1)
    return slope, math.log1p(-p1) - math.log1p(-p0)


def _rising_terms(params: HypothesisParams, what: str) -> tuple[float, float]:
    """`_log_ratio_terms`, or a ValueError naming `what` unless the float slope
    is positive: it can be just above zero at p0 == p1, and zero or below for
    p1 barely above p0."""
    slope, offset = _log_ratio_terms(params)
    if not (params.p1 > params.p0 and slope > 0.0):
        raise ValueError(f"{what} needs p1 > p0 and a positive log-ratio slope, got p0={params.p0}, p1={params.p1}")
    return slope, offset


def log_likelihood_ratio(n: float, total: int, params: HypothesisParams) -> float:
    """Log of P(n | abbreviation) / P(n | common word).

    The binomial coefficients cancel, leaving
        n * ln(p1(1-p0) / (p0(1-p1))) + total * ln((1-p1)/(1-p0)),
    which is defined for any real n and strictly increasing in n
    whenever p1 > p0.
    """
    slope, offset = _log_ratio_terms(params)
    return n * slope + total * offset


def likelihood_ratio(n: float, total: int, params: HypothesisParams) -> float:
    """Likelihood ratio L(n); overflow saturates to +inf."""
    log_l = log_likelihood_ratio(n, total, params)
    try:
        return math.exp(log_l)
    except OverflowError:
        return math.inf


def solve_threshold(total: int, params: HypothesisParams) -> float:
    """Count threshold eta with L(eta) = C, as a real number.

    Closed form:
        eta = (ln C + total * ln((1-p0)/(1-p1))) / ln(p1(1-p0)/(p0(1-p1)))
    Observing n > eta favours the abbreviation hypothesis.  eta is not
    clamped to [0, total]; extreme C can push it outside the support.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    slope, offset = _rising_terms(params, "threshold")
    return (math.log(params.c) - total * offset) / slope


# The remainder bounds of _range_mass are padded by a factor 4 (ln 4 in
# log space): a term whose value is at least half the smallest subnormal
# rounds to at most twice that value, and the other 2x covers the rounding
# of the bound's own logs.  A relative slack covers lgamma rounding in
# the terms' logs, which grows with the size of lgamma(total + 1).
_LOG_PAD = math.log(4.0)
_LGAMMA_SLACK = 2.0**-40
# Closer to 1 than this, the step ratio's r / (1 - r) is too inexact to bound with.
_LOG_RATIO_MAX = -(2.0**-20)


def _tail_bound(log_term: float, log_ratio: float, pad: float) -> float:
    """Bound on the sum of the terms past one of log `log_term`, when each
    next term is at most exp(log_ratio) times the one before it."""
    if log_ratio > _LOG_RATIO_MAX:
        return math.inf
    log_bound = log_term + log_ratio - math.log(-math.expm1(log_ratio)) + pad
    return math.exp(log_bound) if log_bound < 700.0 else math.inf


def _range_mass(total: int, lo: int, hi: int, p: float) -> float:
    """math.fsum of binomial_pmf(total, n, p) over lo <= n <= hi, bit for
    bit, from only the terms that can change it.

    Summing starts at the point of [lo, hi] nearest the mode
    floor((total + 1) p) and extends whichever side has the larger
    remainder bound.  Past the last kept term m, the ratio of consecutive
    terms only shrinks: r = (N - m)/(m + 1) * p/(1 - p) going up, and
    m/(N - m + 1) * (1 - p)/p going down.  So a side's remainder is at
    most pmf(m) * r/(1 - r), a geometric series from the next term; it is
    taken in log space and padded for rounding.  The sum stops only when
    adding both bounds leaves the correctly rounded fsum unchanged; since
    rounding is monotone, any remainder in [0, bound] gives that float,
    which is therefore the full sum's.
    """
    if not 0.0 < p < 1.0:
        # a point mass at 0 or at total, or a p that binomial_pmf rejects
        return binomial_pmf(total, hi if p == 1.0 else lo, p)
    log_p, log_q = math.log(p), math.log1p(-p)
    pad = _LOG_PAD + _LGAMMA_SLACK * (2 * math.lgamma(total + 1) + total * (abs(log_p) + abs(log_q)))

    def above(m: int, log_term: float) -> float:
        if m == hi:
            return 0.0
        return _tail_bound(log_term, math.log(total - m) - math.log(m + 1) + log_p - log_q, pad)

    def below(m: int, log_term: float) -> float:
        if m == lo:
            return 0.0
        return _tail_bound(log_term, math.log(m) - math.log(total - m + 1) + log_q - log_p, pad)

    # exp(log_binomial_pmf(...)) is binomial_pmf's value for 0 < p < 1,
    # and the bounds need its log
    up = down = min(max(math.floor((total + 1) * p), lo), hi)
    log_term = log_binomial_pmf(total, up, p)
    kept = [math.exp(log_term)]
    running = kept[0]  # plain sum, only to tell when an exact check is worth it
    rest_up, rest_down = above(up, log_term), below(down, log_term)
    recheck = math.inf  # after a failed check, wait for the bounds to halve
    while True:
        rest = rest_up + rest_down
        if rest <= recheck and running + rest == running:
            mass = math.fsum(kept)
            if mass == math.fsum([*kept, rest_up, rest_down]):
                return mass
            recheck = rest / 2
        if rest_up >= rest_down:
            up += 1
            log_term = log_binomial_pmf(total, up, p)
            rest_up = above(up, log_term)
        else:
            down -= 1
            log_term = log_binomial_pmf(total, down, p)
            rest_down = below(down, log_term)
        kept.append(math.exp(log_term))
        running += kept[-1]


def alpha_error(eta: float, total: int, p0: float) -> float:
    """Probability of flagging a common word: P(n >= eta | share p0).

    Summed over integer n in [0, total] with n >= eta, i.e. from
    ceil(eta); eta at or below zero covers the whole support.  The sum
    runs outward from the term nearest the mode and stops once a
    geometric bound on the terms left out cannot change the result
    (see _range_mass): it equals the full math.fsum over the range bit
    for bit, and at the default shares it takes a few dozen pmf terms
    whatever the total.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    lo = max(0, math.ceil(eta))
    if lo > total:
        return 0.0
    if lo == 0:
        return 1.0
    return min(1.0, _range_mass(total, lo, total, p0))


def beta_error(eta: float, total: int, p1: float) -> float:
    """Probability of missing an abbreviation: P(n < eta | share p1).

    Complement of alpha_error over the same split of the support, so
    alpha_error(eta, N, p) + beta_error(eta, N, p) == 1 for any p.
    Summed like alpha_error, with the same bounded stop, and equal bit
    for bit to the full math.fsum over [0, ceil(eta) - 1].
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    hi = min(total, math.ceil(eta) - 1)
    if hi < 0:
        return 0.0
    if hi >= total:
        return 1.0
    return min(1.0, _range_mass(total, 0, hi, p1))


@dataclass(frozen=True)
class MinUsageResult:
    """Smallest usage count meeting the error targets, with its witness."""

    total: int
    eta: int
    alpha: float
    beta: float


def min_usage_for_error(
    params: HypothesisParams,
    alpha_target: float,
    beta_target: float,
    total_cap: int = 10000,
) -> MinUsageResult:
    """Smallest N admitting an integer threshold eta in [0, N] with
    alpha_error(eta) <= alpha_target and beta_error(eta) <= beta_target.

    Scans N upward; per N it takes the smallest eta meeting the alpha
    target (alpha falls and beta rises with eta, so that eta is the only
    candidate worth checking).  The scan starts at Le Cam's bound: any
    test on N trials has alpha + beta >= 1/2 * BC^(2N), with BC = 1 - H^2
    the one-trial Bhattacharyya coefficient, so no N with 1/2 * BC^(2N)
    above the summed targets (given a 1e-6 margin for rounding) can meet
    both.  Deterministic; raises SearchExhaustedError beyond total_cap,
    at once when the bound already lies beyond it.
    """
    if not (0.0 < alpha_target < 1.0 and 0.0 < beta_target < 1.0):
        raise ValueError("error targets must lie strictly between 0 and 1")
    _rising_terms(params, "min usage search")
    p0, p1 = params.p0, params.p1
    # H^2 = 1/2 [(sqrt p1 - sqrt p0)^2 + (sqrt(1-p0) - sqrt(1-p1))^2], each
    # difference written as (p1 - p0) / (sum of roots) so that close shares
    # do not cancel
    hellinger2 = 0.5 * (p1 - p0) ** 2 * (
        (math.sqrt(p0) + math.sqrt(p1)) ** -2 + (math.sqrt(1.0 - p0) + math.sqrt(1.0 - p1)) ** -2
    )
    # N is hopeless while 2N ln BC > ln(2 (alpha* + beta*)), with the margin
    log_slack = math.log(2.0 * (alpha_target + beta_target) * (1.0 + 1e-6))
    log_bc = math.log1p(-hellinger2)
    if log_slack >= 0.0:
        start = 0
    elif 2.0 * total_cap * log_bc > log_slack:  # also when BC rounds to 1
        start = total_cap + 1
    else:
        start = math.ceil(log_slack / (2.0 * log_bc))
    for total in range(start, total_cap + 1):
        # alpha of eta is the tail P(n >= eta | p0), summed down from n = N;
        # it only grows, so the first sum above the target ends the scan
        alpha, eta = 0.0, total + 1
        for n in range(total, -1, -1):
            tail = alpha + binomial_pmf(total, n, params.p0)
            if tail > alpha_target:
                break
            alpha, eta = tail, n
        if eta > total:
            continue
        beta = beta_error(eta, total, params.p1)
        if beta <= beta_target:
            return MinUsageResult(total=total, eta=eta, alpha=alpha, beta=beta)
    raise SearchExhaustedError(
        f"no N <= {total_cap} reaches alpha <= {alpha_target} and beta <= {beta_target}"
    )


@dataclass
class ShareEstimate:
    """Per-year with-period shares pooled over seed lists, plus window means."""

    p1_by_year: dict[int, float] = field(default_factory=dict)
    p0_by_year: dict[int, float] = field(default_factory=dict)
    mean_p1: float | None = None
    mean_p0: float | None = None
    mean_window: tuple[int, int] = (1998, 2008)
    warnings: list[str] = field(default_factory=list)


def _pool_shares(profiles: Mapping[str, "WordProfile"], seeds: Sequence[str], window: tuple[int, int],
                 pooled: bool) -> dict[int, float]:
    """Each year's share over `seeds`, in year order, for the window years
    some seed has: each seed's usages are grouped by year in seed order."""
    lo, hi = window
    by_year: dict[int, list] = {}
    for word in seeds:
        for year, usage in profiles[word].series.items():
            if lo <= year <= hi:
                by_year.setdefault(year, []).append(usage)
    shares: dict[int, float] = {}
    for year in sorted(by_year):
        usages = by_year[year]
        if pooled:
            t_sum = sum(usage.total for usage in usages)
            if t_sum > 0:
                shares[year] = sum(usage.with_period for usage in usages) / t_sum
        else:
            ratios = [usage.with_period / usage.total for usage in usages if usage.total > 0]
            if ratios:
                shares[year] = sum(ratios) / len(ratios)
    return shares


def estimate_share_params(
    profiles: Mapping[str, "WordProfile"],
    seed_abbrevs: Sequence[str],
    seed_commons: Sequence[str],
    window: tuple[int, int] | None = None,
    mean_window: tuple[int, int] = (1998, 2008),
    pooled: bool = True,
) -> ShareEstimate:
    """Estimate p1 (from seed abbreviations) and p0 (from seed common
    words) per year, plus their means over `mean_window`.

    Pooled mode divides summed with-period counts by summed totals within
    each year; the macro alternative averages per-word ratios.  Seed
    words absent from the aggregate are reported in `warnings` and
    skipped; an empty effective list raises EstimationError.
    """
    overlap = set(seed_abbrevs) & set(seed_commons)
    if overlap:
        raise ValueError(f"seed lists must be disjoint, both contain: {sorted(overlap)}")

    est = ShareEstimate(mean_window=mean_window)

    def usable(seeds: Sequence[str], label: str) -> list[str]:
        kept = []
        for word in seeds:
            profile = profiles.get(word)
            if profile is None:
                est.warnings.append(f"{label} seed not in aggregate: {word}")
            elif profile.active_years < 1:
                est.warnings.append(f"{label} seed has no active years: {word}")
            else:
                kept.append(word)
        if not kept:
            raise EstimationError(f"no usable {label} seed words")
        return kept

    abbrevs = usable(seed_abbrevs, "abbreviation")
    commons = usable(seed_commons, "common")

    if window is None:
        window = profiles[abbrevs[0]].window
    est.p1_by_year = _pool_shares(profiles, abbrevs, window, pooled)
    est.p0_by_year = _pool_shares(profiles, commons, window, pooled)

    def window_mean(series: dict[int, float]) -> float | None:
        values = [v for y, v in series.items() if mean_window[0] <= y <= mean_window[1]]
        return sum(values) / len(values) if values else None

    est.mean_p1 = window_mean(est.p1_by_year)
    est.mean_p0 = window_mean(est.p0_by_year)
    return est
