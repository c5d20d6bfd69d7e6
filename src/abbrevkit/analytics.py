"""Machine-readable reports over a built dictionary and its aggregate.

The dictionary reports take the finalized `WordProfile` of every entry.

Five report kinds: cumulative counts of rare entries by volume spread,
yearly p0/p1 share series from seed lists, entry counts by word length,
summed frequency by word length with a log-linear fit, and yearly usage
dynamics with the share captured by the most frequent entries.  Reports
serialize to TSV (one '#' header line, then rows) and to JSON; both are
plot-ready and deterministic.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .ingest import WordProfile
from .likelihood import ShareEstimate, estimate_share_params

__all__ = [
    "Report",
    "rare_cumulative",
    "p_series",
    "length_histogram",
    "frequency_by_length",
    "dynamics",
    "REPORT_KINDS",
]

REPORT_KINDS = ("rare-cumulative", "p-series", "length-histogram", "freq-by-length", "dynamics")


@dataclass
class Report:
    kind: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def to_tsv(self) -> str:
        header = "# " + "\t".join(self.columns)
        body = [header]
        for row in self.rows:
            body.append("\t".join(_cell(v) for v in row))
        return "\n".join(body) + "\n"

    def to_json(self) -> str:
        doc = {
            "kind": self.kind,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "meta": self.meta,
        }
        return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rare_cumulative(entries: Sequence[WordProfile], max_volumes: int) -> Report:
    """Row (v, number of entries printed in at most v volumes) for
    v = 1..max_volumes; non-decreasing by construction."""
    if max_volumes < 1:
        raise ValueError(f"max_volumes must be >= 1, got {max_volumes}")
    volumes = sorted(entry.volumes_total for entry in entries)
    rows = []
    index = 0
    for v in range(1, max_volumes + 1):
        while index < len(volumes) and volumes[index] <= v:
            index += 1
        rows.append((v, index))
    return Report(
        kind="rare-cumulative",
        columns=("max_volumes", "entries"),
        rows=rows,
        meta={"total_entries": len(entries)},
    )


def p_series(
    profiles: Mapping[str, WordProfile],
    seed_abbrevs: Sequence[str],
    seed_commons: Sequence[str],
    window: tuple[int, int] | None = None,
    mean_window: tuple[int, int] = (1998, 2008),
    pooled: bool = True,
) -> Report:
    """Yearly pooled with-period shares of the seed abbreviations (p1)
    and seed common words (p0); only years where both are defined."""
    est: ShareEstimate = estimate_share_params(
        profiles, seed_abbrevs, seed_commons, window, mean_window, pooled
    )
    years = sorted(set(est.p0_by_year) & set(est.p1_by_year))
    rows = [(year, est.p0_by_year[year], est.p1_by_year[year]) for year in years]
    return Report(
        kind="p-series",
        columns=("year", "p0", "p1"),
        rows=rows,
        meta={
            "mean_p0": est.mean_p0,
            "mean_p1": est.mean_p1,
            "mean_window": list(est.mean_window),
            "warnings": list(est.warnings),
        },
    )


def length_histogram(entries: Sequence[WordProfile]) -> Report:
    """Entry counts by word length in code points (period excluded)."""
    counts: dict[int, int] = {}
    for entry in entries:
        counts[len(entry.word)] = counts.get(len(entry.word), 0) + 1
    rows = [(length, counts[length]) for length in sorted(counts)]
    return Report(
        kind="length-histogram",
        columns=("length", "entries"),
        rows=rows,
        meta={"total_entries": len(entries)},
    )


def _linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Least squares y = slope*x + intercept plus R^2 (1.0 for an exact
    fit, including the degenerate all-equal-y case)."""
    import numpy as np  # only here, so that the other commands start without it

    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float(np.dot(residuals, residuals))
    centered = y - y.mean()
    ss_tot = float(np.dot(centered, centered))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def frequency_by_length(entries: Sequence[WordProfile]) -> Report:
    """Summed with-period frequency per word length, with a least-squares
    fit of log10(frequency) against length.

    Rows also carry log10 of both axes so a log-log reading can be
    plotted from the same file.  Lengths whose frequency sums to zero
    are left out (no finite log value exists for them); with fewer than
    two remaining lengths the fit is undefined and the meta field stays
    None.
    """
    sums: dict[int, int] = {}
    for entry in entries:
        sums[len(entry.word)] = sums.get(len(entry.word), 0) + entry.n_total
    rows = []
    fit_x: list[float] = []
    fit_y: list[float] = []
    for length in sorted(sums):
        freq = sums[length]
        if freq > 0:
            log_freq = math.log10(freq)
            rows.append((length, freq, log_freq, math.log10(length)))
            fit_x.append(float(length))
            fit_y.append(log_freq)
    meta: dict = {"fit": None}
    if len(fit_x) >= 2:
        slope, intercept, r2 = _linear_fit(fit_x, fit_y)
        meta["fit"] = {"slope": slope, "intercept": intercept, "r_squared": r2}
    return Report(
        kind="freq-by-length",
        columns=("length", "frequency", "log10_frequency", "log10_length"),
        rows=rows,
        meta=meta,
    )


def dynamics(
    entries: Sequence[WordProfile],
    years: tuple[int, int] = (1940, 2008),
    top_k: int = 300,
    totals_by_year: Mapping[int, int] | None = None,
) -> Report:
    """Yearly with-period frequency over all entries and over the top_k
    most frequent ones, plus the top-k share of the total.

    Ranking is by summed with-period frequency inside `years` (ties
    break on the word).  If `totals_by_year` is given, both series are
    divided by that year's total count (years missing from the table
    keep raw counts).
    """
    if years[0] > years[1]:
        raise ValueError(f"empty year range {years}")
    span = range(years[0], years[1] + 1)

    def year_count(entry: WordProfile, year: int) -> int:
        usage = entry.series.get(year)
        return usage.with_period if usage is not None else 0

    overall = {entry.word: sum(year_count(entry, year) for year in span) for entry in entries}
    ranked = sorted(overall, key=lambda w: (-overall[w], w))
    top_words = set(ranked[: max(0, top_k)])

    rows = []
    for year in span:
        total = 0
        top = 0
        for entry in entries:
            count = year_count(entry, year)
            total += count
            if entry.word in top_words:
                top += count
        ratio = top / total if total > 0 else 1.0
        if totals_by_year and totals_by_year.get(year, 0) > 0:
            denom = totals_by_year[year]
            rows.append((year, total / denom, top / denom, ratio))
        else:
            rows.append((year, total, top, ratio))
    return Report(
        kind="dynamics",
        columns=("year", "total_with_period", "top_k_with_period", "top_k_share"),
        rows=rows,
        meta={
            "top_k": top_k,
            "years": list(years),
            "normalized": bool(totals_by_year),
            "entries": len(entries),
        },
    )
