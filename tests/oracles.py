"""Independent reference implementations used only to check the library.

The statistical references compute in exact rational arithmetic
(fractions and integer combinatorics), deliberately avoiding the
log-space code paths under test; `min_usage_scan_reference` is the
float scan that `min_usage_for_error` replaced, kept as written.  Probabilities arrive as decimal
strings or floats with short decimal representations and are converted
through their decimal repr, so 0.068 means exactly 17/250.  The
segmentation references are the token walk and the character scan that
the period-driven segmenter replaced, and the ``--spans`` document is
checked against the json.dumps call that the CLI's streaming writer
replaced.  `is_candidate_word_reference` is the per-character range
test that the compiled letter class replaced.  `add_record_reference`
and `consume_lines_reference` are the record fold and the per-line loop
(`parse_line`, then the fold) that `Aggregator.consume_lines` replaced.
`from_state_reference` is the per-cell state checker that
`Aggregator.from_state` now runs only for a word that fails its bulk
checks, and `finalize_reference` the eager finalize that built every
`YearlyUsage` before `WordProfile.series` was built on read.
`pool_shares_reference` and `dynamics_reference` are the dense walks
that probed every year of a range in every series, before the share
estimate and the dynamics report read only the years a series has.
`token_columns_reference` is the chunk-level `token_columns` that
worked out each distinct regex chunk once, before the tokenizer worked
out each distinct whitespace-ended piece once.  `linear_fit_exact` solves the frequency-by-length fit's normal
equations by Cramer's rule, where the library centres its sums.
"""
from __future__ import annotations

import json
import math
import re
import unicodedata
from dataclasses import fields
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, compress, islice
from operator import add
from typing import Iterable, Mapping, NamedTuple, Sequence

from abbrevkit.analytics import Report

from abbrevkit.ingest import (
    WORD_RULE,
    Aggregator,
    IngestConfig,
    IngestCounters,
    NgramRecord,
    ParseError,
    WordProfile,
    YearlyUsage,
    is_word,
    parse_line,
)
from abbrevkit.dictionary import LoadedDictionary
from abbrevkit.segment import (
    EMPTY_DICTIONARY,
    KIND_ABBREV,
    KIND_NUMBER,
    KIND_OTHER,
    KIND_PUNCT,
    KIND_WORD,
    SentenceSpan,
    _period_verdicts,
)


def frac(p) -> Fraction:
    if isinstance(p, Fraction):
        return p
    return Fraction(str(p))


def pmf_exact(total: int, n: int, p) -> Fraction:
    q = frac(p)
    return Fraction(math.comb(total, n)) * q**n * (1 - q) ** (total - n)


def tail_ge_exact(eta: float, total: int, p) -> Fraction:
    """P(n >= eta) over integers 0..total."""
    lo = max(0, math.ceil(eta))
    return sum((pmf_exact(total, n, p) for n in range(lo, total + 1)), Fraction(0))


def head_lt_exact(eta: float, total: int, p) -> Fraction:
    """P(n < eta) over integers 0..total."""
    hi = min(total, math.ceil(eta) - 1)
    return sum((pmf_exact(total, n, p) for n in range(0, hi + 1)), Fraction(0))


def lr_exact(n: int, total: int, p0, p1) -> Fraction:
    return pmf_exact(total, n, p1) / pmf_exact(total, n, p0)


def min_usage_exact(p0, p1, alpha_target, beta_target, cap: int = 200):
    """Exhaustive search over (N, integer eta) in exact arithmetic."""
    a_t, b_t = frac(alpha_target), frac(beta_target)
    for total in range(0, cap + 1):
        for eta in range(0, total + 1):
            if tail_ge_exact(eta, total, p0) <= a_t and head_lt_exact(eta, total, p1) <= b_t:
                return total, eta
    return None


def min_usage_scan_reference(params, alpha_target: float, beta_target: float, total_cap: int = 10000):
    """`min_usage_for_error` as it was before its scan stopped early: per N
    the whole pmf list and suffix-sum array, then the first eta whose tail
    meets the alpha target.  Returns the same MinUsageResult, or None
    where the library raises SearchExhaustedError."""
    from abbrevkit.likelihood import MinUsageResult, beta_error, binomial_pmf

    for total in range(0, total_cap + 1):
        pmf0 = [binomial_pmf(total, n, params.p0) for n in range(total + 1)]
        # suffix sums: tail[eta] = P(n >= eta | p0)
        tail = 0.0
        eta_a = None
        tails = [0.0] * (total + 2)
        for n in range(total, -1, -1):
            tail += pmf0[n]
            tails[n] = tail
        for eta in range(0, total + 1):
            if tails[eta] <= alpha_target:
                eta_a = eta
                break
        if eta_a is None:
            continue
        beta = beta_error(eta_a, total, params.p1)
        if beta <= beta_target:
            return MinUsageResult(total=total, eta=eta_a, alpha=tails[eta_a], beta=beta)
    return None


def rel_err(value: float, reference: Fraction) -> float:
    if reference == 0:
        return abs(value)
    return abs((Fraction(value) - reference) / reference)


def fsum_range_reference(total: int, lo: int, hi: int, p: float) -> float:
    """The full correctly rounded sum of the library's own pmf terms over
    lo..hi, as alpha_error/beta_error computed it before their sums were
    bounded.  Not exact: it is the float the bounded sums must reproduce
    bit for bit."""
    from abbrevkit.likelihood import binomial_pmf

    return math.fsum(binomial_pmf(total, n, p) for n in range(lo, hi + 1))


def is_candidate_word_reference(word: str, letter_ranges) -> bool:
    """The candidate filter of `Aggregator.consume_lines` (`str.isalpha`,
    then the compiled letter class) as a loop over characters and ranges."""
    if not word:
        return False
    for ch in word:
        if not ch.isalpha():
            return False
        cp = ord(ch)
        if not any(lo <= cp <= hi for lo, hi in letter_ranges):
            return False
    return True


# -- ingest: the record fold and the per-line loop that
# `Aggregator.consume_lines` replaced, kept as written.

def add_record_reference(agg: Aggregator, record: NgramRecord) -> None:
    """Fold one parsed record into `agg`'s counts."""
    if not agg.config.year_min <= record.year <= agg.config.year_max:
        return
    tokens = record.tokens
    # a 1-gram gives total usage; only the 2-gram shape ``word .`` gives
    # with-period usage
    if len(tokens) > 2 or (len(tokens) == 2 and tokens[1] != "."):
        return
    word = tokens[0]
    # the candidate filter: letters only, each from an admitted range
    if not (word.isalpha() and agg._letters(word)):
        return
    if agg.config.case_fold:
        word = word.lower()
    cell = _cell_reference(agg, word, record.year)
    if len(tokens) == 1:
        cell[1] += record.match_count
    else:
        cell[0] += record.match_count
        cell[2] += record.volume_count


def _cell_reference(agg: Aggregator, word: str, year: int) -> list[int]:
    years = agg._counts.get(word)
    if years is None:
        years = agg._counts[word] = {}
    cell = years.get(year)
    if cell is None:
        cell = years[year] = [0, 0, 0]
    return cell


def consume_lines_reference(agg: Aggregator, lines: Iterable[str], on_error: str = "skip") -> None:
    """Each line through `parse_line`, then `add_record_reference`."""
    floor, ceiling = agg.config.year_floor, agg.config.year_ceiling
    for line_number, line in enumerate(lines, 1):
        if not line or line == "\n":
            continue
        try:
            record = parse_line(line, line_number, floor, ceiling)
        except ParseError:
            if on_error == "abort":
                raise
            agg.counters.lines_skipped += 1
            continue
        agg.counters.lines_parsed += 1
        add_record_reference(agg, record)


# -- aggregate state and finalize: the per-cell checker and the eager
# finalize the library replaced, kept as written.

def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def from_state_reference(state: dict) -> Aggregator:
    """Rebuild an aggregator from `to_state` output; any other shape
    raises ValueError."""
    cls = Aggregator
    if not isinstance(state, dict):
        raise ValueError(f"aggregate state must be a JSON object, got {type(state).__name__}")
    if state.get("format") != cls.STATE_FORMAT:
        raise ValueError(f"not an aggregate state file: format={state.get('format')!r}")
    if type(state.get("version")) is not int or state["version"] != cls.STATE_VERSION:  # true == 1.0 == 1
        raise ValueError(f"unsupported aggregate state version {state.get('version')!r}")
    state = {"fingerprints": {}, **state}
    for key in ("config", "counters", "fingerprints", "words"):
        if not isinstance(state.get(key), dict):
            raise ValueError(f"aggregate state: {key!r} must be an object")
    unknown = set(state["config"]) - {f.name for f in fields(IngestConfig)}
    if unknown:
        raise ValueError(f"aggregate state: unknown config keys {sorted(unknown)}")
    for key, value in state["config"].items():
        if key == "case_fold":
            expected, ok = "true or false", type(value) is bool
        elif key == "scripts":
            # JSON gives a list, `to_state` itself a tuple
            expected = "a list of strings"
            ok = type(value) in (list, tuple) and all(type(s) is str for s in value)
        else:
            expected, ok = "an int", type(value) is int
        if not ok:
            raise ValueError(f"aggregate state: config {key} must be {expected}, got {value!r}")
    if not all(_is_count(v) for v in state["counters"].values()):
        raise ValueError(f"aggregate state: counters must be non-negative ints, got {state['counters']}")
    try:
        agg = cls(IngestConfig(**state["config"]))
        agg.counters = IngestCounters(**state["counters"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"aggregate state: {exc}") from None
    bad = {path: value for path, value in state["fingerprints"].items() if type(value) is not str}
    if bad:
        raise ValueError(f"aggregate state: fingerprints must be strings, got {bad}")
    agg.fingerprints = dict(state["fingerprints"])
    lo, hi = agg.config.year_min, agg.config.year_max
    for word, years in state["words"].items():
        if not is_word(word):
            raise ValueError(f"aggregate state: word key {word!r} is not a word ({WORD_RULE})")
        if not isinstance(years, dict):
            raise ValueError(f"aggregate state: word {word!r} must map years to cells")
        cells = agg._counts[word] = {}
        for key, cell in years.items():
            # `to_state` writes str(year), and `consume_lines` keeps only years in the window
            year = None
            if type(key) is str and key.removeprefix("-").isdecimal():
                try:
                    year = int(key)
                except ValueError:  # more digits than `int` converts
                    pass
            if year is None or str(year) != key or not lo <= year <= hi:
                raise ValueError(f"aggregate state: {word!r} has year key {key!r}, not a year in {lo}..{hi}")
            if not (type(cell) is list and len(cell) == 3 and all(map(_is_count, cell))):
                raise ValueError(
                    f"aggregate state: {word!r} year {year} needs three non-negative ints, got {cell!r}"
                )
            cells[year] = list(cell)
    return agg


def _median_reference(shares: list[tuple[int, int]]) -> Fraction | None:
    if not shares:
        return None
    ordered = sorted(Fraction(*share) for share in shares)
    mid, odd = divmod(len(ordered), 2)
    return ordered[mid] if odd else (ordered[mid - 1] + ordered[mid]) / 2


def finalize_reference(agg: Aggregator, window: tuple[int, int] | None = None) -> dict[str, WordProfile]:
    """Normalize counts and compute per-word aggregates over `window`
    (default: the ingestion window), every `YearlyUsage` built at once."""
    if window is None:
        window = (agg.config.year_min, agg.config.year_max)
    lo, hi = window
    profiles: dict[str, WordProfile] = {}
    for word, years in agg._counts.items():
        series: dict[int, YearlyUsage] = {}
        clamped = 0
        filled = 0
        n_total = 0
        t_total = 0
        volumes = 0
        active = 0
        shares: list[tuple[int, int]] = []
        for year in sorted(years):
            with_period, total, vols = years[year]
            if total == 0 and with_period > 0:
                total = with_period
                filled += 1
            elif with_period > total:
                with_period = total
                clamped += 1
            series[year] = YearlyUsage(year, with_period, total, vols)
            if lo <= year <= hi:
                n_total += with_period
                t_total += total
                volumes += vols
                if total > 0:
                    active += 1
                    shares.append((with_period, total))
        profiles[word] = WordProfile(
            word=word,
            series=series,
            window=window,
            n_total=n_total,
            N_total=t_total,
            median_share=_median_reference(shares),
            active_years=active,
            volumes_total=volumes,
            clamped_years=clamped,
            filled_years=filled,
        )
    return profiles


def pool_shares_reference(
    profiles: Mapping[str, WordProfile],
    seeds: Sequence[str],
    years: Iterable[int],
    pooled: bool,
) -> dict[int, float]:
    shares: dict[int, float] = {}
    for year in years:
        if pooled:
            n_sum = 0
            t_sum = 0
            for word in seeds:
                usage = profiles[word].series.get(year)
                if usage is not None:
                    n_sum += usage.with_period
                    t_sum += usage.total
            if t_sum > 0:
                shares[year] = n_sum / t_sum
        else:
            ratios = []
            for word in seeds:
                usage = profiles[word].series.get(year)
                if usage is not None and usage.total > 0:
                    ratios.append(usage.with_period / usage.total)
            if ratios:
                shares[year] = sum(ratios) / len(ratios)
    return shares


def dynamics_reference(
    entries: Sequence[WordProfile],
    years: tuple[int, int] = (1940, 2008),
    top_k: int = 300,
    totals_by_year: Mapping[int, int] | None = None,
) -> Report:
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


def linear_fit_exact(xs: Sequence[float], ys: Sequence[float]) -> tuple[Fraction, Fraction, Fraction]:
    """Exact least-squares slope, intercept and R^2 of y against x: the
    normal equations [[Σx², Σx], [Σx, n]] · (slope, intercept) = (Σxy, Σy)
    solved by Cramer's rule, and R^2 = 1 - SSres/SStot from the residuals
    (1 when every y is equal)."""
    x, y = [Fraction(v) for v in xs], [Fraction(v) for v in ys]
    n, sx, sy = len(x), sum(x), sum(y)
    sxx = sum(a * a for a in x)
    sxy = sum(a * b for a, b in zip(x, y))
    det = sxx * n - sx * sx
    slope = (sxy * n - sx * sy) / det
    intercept = (sxx * sy - sx * sxy) / det
    ss_res = sum((b - slope * a - intercept) ** 2 for a, b in zip(x, y))
    ss_tot = sum((b - sy / n) ** 2 for b in y)
    return slope, intercept, 1 - ss_res / ss_tot if ss_tot else Fraction(1)


# -- segmentation: the token walk and the character scan the segmenter
# replaced, kept as written so the period rule is checked against them.

_TOKEN_RE = re.compile(r"\d+(?:[.,]\d+)+|\d+|[^\W\d_]+|\s+|.", re.UNICODE)


class Token(NamedTuple):
    """A reference token; equal to the same row of `token_columns`."""

    text: str
    start: int  # byte offset, inclusive
    end: int    # byte offset, exclusive
    kind: str


def _byte_offsets(text: str) -> list[int]:
    """UTF-8 byte offset of every char index of text, plus its end."""
    byte_at = [0] * (len(text) + 1)
    pos = 0
    for index, ch in enumerate(text):
        pos += len(ch.encode("utf-8"))
        byte_at[index + 1] = pos
    return byte_at


def tokenize_reference(text: str) -> list[Token]:
    """Split text into word/number/punctuation/other tokens with byte
    spans; whitespace becomes the gaps between spans."""
    byte_at = _byte_offsets(text)
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(text):
        chunk = match.group()
        if chunk.isspace():
            continue
        first = chunk[0]
        if first.isdigit():
            kind = KIND_NUMBER
        elif first.isalpha():
            kind = KIND_WORD
        elif unicodedata.category(first).startswith("P"):
            kind = KIND_PUNCT
        else:
            kind = KIND_OTHER
        tokens.append(Token(chunk, byte_at[match.start()], byte_at[match.end()], kind))
    return tokens


def _first_char_upper(token: Token) -> bool:
    return token.text[:1].isupper()


def dict_segment_reference(
    text: str,
    dictionary: LoadedDictionary | None = None,
    override: Iterable[str] = (),
) -> tuple[list[Token], list[SentenceSpan]]:
    """Tokenize and split into sentences using the dictionary.

    A period directly after a word whose stem is in the dictionary fuses
    with it into an abbreviation token.  Such a position ends a sentence
    only when the baseline pattern would fire there (whitespace plus an
    uppercase start follows) and the stem is not in the override list of
    title-like prefixes; at end of text the fused token both keeps its
    period and closes the final sentence.  Everywhere else the period
    stays a separate token and the baseline pattern decides.
    """
    dictionary = dictionary if dictionary is not None else EMPTY_DICTIONARY
    override_set = {w.lower() for w in override} if dictionary.case_fold else set(override)
    raw = tokenize_reference(text)

    tokens: list[Token] = []
    boundary_after: list[bool] = []
    i = 0
    while i < len(raw):
        token = raw[i]
        nxt = raw[i + 1] if i + 1 < len(raw) else None
        if (
            token.kind == KIND_WORD
            and nxt is not None
            and nxt.kind == KIND_PUNCT
            and nxt.text == "."
            and nxt.start == token.end
            and token.text in dictionary
        ):
            follower = raw[i + 2] if i + 2 < len(raw) else None
            fused = Token(token.text + ".", token.start, nxt.end, KIND_ABBREV)
            if follower is None:
                tokens.append(fused)
                boundary_after.append(True)
            else:
                fires = follower.start > nxt.end and _first_char_upper(follower)
                stem = token.text.lower() if dictionary.case_fold else token.text
                tokens.append(fused)
                boundary_after.append(fires and stem not in override_set)
            i += 2
            continue
        if token.kind == KIND_PUNCT and token.text == ".":
            follower = raw[i + 1] if i + 1 < len(raw) else None
            fires = (
                follower is not None
                and follower.start > token.end
                and _first_char_upper(follower)
            )
            tokens.append(token)
            boundary_after.append(fires)
            i += 1
            continue
        tokens.append(token)
        boundary_after.append(False)
        i += 1

    sentences: list[SentenceSpan] = []
    first = 0
    for index, token in enumerate(tokens):
        terminal = boundary_after[index] or index == len(tokens) - 1
        if terminal:
            sentences.append(
                SentenceSpan(
                    start=tokens[first].start,
                    end=token.end,
                    token_start=first,
                    token_end=index + 1,
                )
            )
            first = index + 1
    return tokens, sentences


def baseline_segment_reference(text: str) -> list[SentenceSpan]:
    """Period-space-capital heuristic, implemented as a direct character
    scan (independently of the tokenizer): a period followed by
    whitespace and then an uppercase letter ends a sentence; end of text
    ends the last one.  Leading and trailing whitespace of each sentence
    is excluded from its span, matching the token-based spans."""
    size = len(text)
    byte_at = _byte_offsets(text)

    cuts: list[int] = []  # char index just after a terminal period
    for index, ch in enumerate(text):
        if ch != ".":
            continue
        j = index + 1
        saw_space = False
        while j < size and text[j].isspace():
            saw_space = True
            j += 1
        if saw_space and j < size and text[j].isupper():
            cuts.append(index + 1)

    spans: list[SentenceSpan] = []
    cursor = 0
    for cut in cuts + [size]:
        lo = cursor
        while lo < cut and text[lo].isspace():
            lo += 1
        if lo < cut:
            hi = cut
            while hi > lo and text[hi - 1].isspace():
                hi -= 1
            spans.append(SentenceSpan(start=byte_at[lo], end=byte_at[hi]))
        cursor = cut
    return spans


# -- the --spans document as json.dumps wrote it before the CLI streamed it


def spans_json_reference(sentences: Iterable[SentenceSpan], tokens: Iterable[tuple[str, int, int, str]]) -> str:
    """`tokens` as (text, start, end, kind) rows: `Token`s, or the rows
    of `token_columns`."""
    doc = {
        "sentences": [
            {"start": s.start, "end": s.end, "token_start": s.token_start, "token_end": s.token_end}
            for s in sentences
        ],
        "tokens": [
            {"text": text, "start": start, "end": end, "kind": kind}
            for text, start, end, kind in tokens
        ],
    }
    return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


# -- the chunk-level token_columns, before it worked on whitespace-ended pieces

# one chunk per token: a word, a number (periods between digits stay
# inside) or any other single character, with the whitespace after it;
# whitespace is a chunk of its own only at the start of the text
_CHUNK_RE = re.compile(r"(?:[^\W\d_]+|\d+(?:[.,]\d+)+|\d+|\S)\s*|\s+", re.UNICODE)


def token_columns_reference(
    text: str,
    dictionary: LoadedDictionary = EMPTY_DICTIONARY,
    override: Iterable[str] = (),
) -> tuple[tuple[list[str], list[int], list[int], list[str]], list[SentenceSpan]]:
    """`token_columns` as it was: sizes and kinds per distinct chunk, a
    `list.index` walk over the dictionary stems and a `bisect` per
    sentence."""
    chunks = _CHUNK_RE.findall(text)
    token_of: dict[str, str] = {}
    sizes: dict[str, int] = {}  # UTF-8 size of every chunk and token
    kind_of: dict[str, str] = {}  # "" for leading whitespace, which is no token
    breaks = set()  # a period and the whitespace after it
    for chunk in dict.fromkeys(chunks):
        token = token_of[chunk] = chunk.rstrip()
        sizes[chunk] = len(chunk.encode("utf-8"))
        sizes[token] = len(token.encode("utf-8"))
        lead = chunk[0]
        if not token:
            kind = ""
        elif lead.isdigit():
            kind = KIND_NUMBER
        elif lead.isalpha():
            kind = KIND_WORD
            if token == chunk and chunk in dictionary:
                kind = KIND_ABBREV  # a word again below, unless a period follows it
                token_of[chunk + "."] = chunk + "."
                sizes[chunk + "."] = sizes[chunk] + 1
        elif unicodedata.category(lead).startswith("P"):
            kind = KIND_PUNCT
            if lead == "." and token != chunk:
                breaks.add(chunk)
        else:
            kind = KIND_OTHER
        kind_of[chunk] = kind
    bounds = list(accumulate(map(sizes.__getitem__, chunks), initial=0))  # chunk starts, then the text's end
    kinds = list(map(kind_of.__getitem__, chunks))
    # where the token after each candidate period starts, kept where the period ends a sentence
    cuts = list(compress(islice(bounds, 1, len(chunks)), map(breaks.__contains__, chunks)))
    cuts = list(compress(cuts, _period_verdicts(text, dictionary, override)[1]))
    stem = -1  # list.index finds the stems at C speed
    for _ in range(kinds.count(KIND_ABBREV)):
        stem = kinds.index(KIND_ABBREV, stem + 1)
        if stem + 1 < len(chunks) and chunks[stem + 1][0] == ".":
            # the stem's chunk becomes the abbreviation; the period's is dropped
            chunks[stem] += "."
            kinds[stem + 1] = ""
        else:
            kinds[stem] = KIND_WORD
    texts = list(compress(map(token_of.__getitem__, chunks), kinds))
    starts = list(compress(bounds, kinds))
    del chunks, bounds  # freed before the last columns are built, which lowers the peak
    ends = list(map(add, starts, map(sizes.__getitem__, texts)))
    kinds = list(filter(None, kinds))

    sentences = []
    first = 0
    for cut in cuts:
        last = bisect_left(starts, cut, first)
        sentences.append(SentenceSpan(starts[first], ends[last - 1], first, last))
        first = last
    if texts:
        sentences.append(SentenceSpan(starts[first], ends[-1], first, len(texts)))
    return (texts, starts, ends, kinds), sentences
