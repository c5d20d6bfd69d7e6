"""Machine-readable reports over a built dictionary and its aggregate.

The dictionary reports take the finalized `WordProfile` of every entry.

Five report kinds: cumulative counts of rare entries by volume spread,
yearly p0/p1 share series from seed lists, entry counts by word length,
summed frequency by word length with a log-linear fit, and yearly usage
dynamics with the share captured by the most frequent entries.  The fit
is exact least squares, solved in `Fraction`s and rounded once per
figure, so this module needs no numpy.  Reports serialize to TSV (one
'#' header line, then rows) and to JSON; both are plot-ready and
deterministic.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .ingest import WordProfile
from .likelihood import ShareEstimate

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


def p_series(est: ShareEstimate) -> Report:
    """Rows (year, p0, p1) of a seed-list share estimate, for the years
    where both shares are defined, with its means in the meta."""
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
    """Least squares y = slope*x + intercept plus R^2 (1.0 when every y
    is equal), solved exactly in rationals and each rounded once."""
    x, y = [Fraction(v) for v in xs], [Fraction(v) for v in ys]
    x_mean, y_mean = sum(x) / len(x), sum(y) / len(y)
    sxx = sum((a - x_mean) ** 2 for a in x)
    sxy = sum((a - x_mean) * (b - y_mean) for a, b in zip(x, y))
    syy = sum((b - y_mean) ** 2 for b in y)
    slope = sxy / sxx
    r2 = 1 - (syy - slope * sxy) / syy if syy else 1
    return float(slope), float(y_mean - slope * x_mean), float(r2)


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
    lo, hi = years
    # each entry's (year, with-period count) pairs inside `years`, read once
    counts = [(entry.word, [(year, usage.with_period) for year, usage in entry.series.items() if lo <= year <= hi])
              for entry in entries]
    overall = {word: sum(n for _, n in pairs) for word, pairs in counts}
    ranked = sorted(overall, key=lambda w: (-overall[w], w))
    top_words = set(ranked[: max(0, top_k)])

    span = range(lo, hi + 1)
    totals, tops = dict.fromkeys(span, 0), dict.fromkeys(span, 0)
    for word, pairs in counts:
        for year, n in pairs:
            totals[year] += n
            if word in top_words:
                tops[year] += n

    rows = []
    for year in span:
        total, top = totals[year], tops[year]
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
