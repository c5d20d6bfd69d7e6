"""Streaming ingestion of Google-Books-Ngram-format files.

Input is UTF-8 text, one record per line, four tab-separated fields:
``ngram TAB year TAB match_count TAB volume_count``, tokens inside the
ngram field separated by single spaces.  1-gram records supply the total
yearly usage of a word form; 2-gram records of the shape ``word .``
supply its with-period usage.  Both are folded into per-word yearly
profiles.  Aggregation state merges pointwise, so shards can be parsed
in parallel and combined afterwards with identical results.
"""
from __future__ import annotations

import gzip
import hashlib
import io
import json
import os
import re
import sys
import unicodedata
import zlib
from collections.abc import Mapping
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import floordiv, gt, le, lshift
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Sequence, TextIO

__all__ = [
    "NgramRecord",
    "YearlyUsage",
    "WordProfile",
    "IngestConfig",
    "IngestCounters",
    "Aggregator",
    "ParseError",
    "ConfigMismatchError",
    "parse_line",
    "ingest_paths",
    "DEFAULT_WINDOW",
    "SCRIPT_RANGES",
    "FLAG_CLAMPED",
]

DEFAULT_WINDOW = (1990, 2008)

# Codepoint ranges of letters admitted per script name.
SCRIPT_RANGES: dict[str, tuple[tuple[int, int], ...]] = {
    "latin": ((0x41, 0x5A), (0x61, 0x7A), (0xC0, 0xD6), (0xD8, 0xF6), (0xF8, 0x17F)),
    "cyrillic": ((0x400, 0x4FF), (0x500, 0x52F)),
}

FLAG_CLAMPED = "clamped-counts"
WORD_RULE = "a letter, then letters or combining marks: no whitespace, digits or punctuation"


class ParseError(ValueError):
    """A corpus line that does not satisfy the record format."""

    def __init__(self, reason: str, line_number: int = 0):
        super().__init__(f"line {line_number}: {reason}" if line_number else reason)
        self.reason = reason
        self.line_number = line_number


class ConfigMismatchError(ValueError):
    """Two aggregation states built under different configurations."""


class NgramRecord(NamedTuple):
    """One validated corpus line."""

    tokens: tuple[str, ...]
    year: int
    match_count: int
    volume_count: int


class YearlyUsage(NamedTuple):
    year: int
    with_period: int
    total: int
    volumes_with_period: int


class _Series(Mapping):
    """A word's yearly usage as a read-only mapping year -> `YearlyUsage`,
    in year order.  `finalize` gives it columns of normalized counts,
    immutable tuples, and the whole dict is built on its first read."""

    __slots__ = ("_columns", "_by_year")

    def __init__(self, years: tuple[int, ...], with_period: tuple[int, ...], totals: tuple[int, ...],
                 volumes: tuple[int, ...]) -> None:
        self._columns = (years, with_period, totals, volumes)
        self._by_year: dict[int, YearlyUsage] | None = None

    def _usage(self) -> dict[int, YearlyUsage]:
        if self._by_year is None:
            self._by_year = {usage.year: usage for usage in sorted(map(YearlyUsage, *self._columns))}
        return self._by_year

    def __getitem__(self, year: int) -> YearlyUsage:
        return self._usage()[year]

    def __iter__(self) -> Iterator[int]:
        return iter(self._usage())

    def __len__(self) -> int:
        return len(self._columns[0])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


@dataclass
class WordProfile:
    """Per-word yearly usage plus aggregates over the analysis window.

    `series` maps every retained year to its usage, normalized so that
    with_period never exceeds total; `finalize` makes it a read-only
    mapping that builds all its `YearlyUsage`s on its first read.  The
    scalar aggregates cover `window` only.
    """

    word: str
    series: Mapping[int, YearlyUsage]
    window: tuple[int, int]
    n_total: int = 0
    N_total: int = 0
    median_share: Fraction | None = None
    active_years: int = 0
    volumes_total: int = 0
    clamped_years: int = 0
    filled_years: int = 0

    @property
    def flags(self) -> frozenset[str]:
        if self.clamped_years or self.filled_years:
            return frozenset({FLAG_CLAMPED})
        return frozenset()


@dataclass(frozen=True)
class IngestConfig:
    """Everything that shapes aggregation; `update` requires exact equality."""

    year_min: int = DEFAULT_WINDOW[0]
    year_max: int = DEFAULT_WINDOW[1]
    scripts: tuple[str, ...] = ("cyrillic", "latin")
    case_fold: bool = False
    year_floor: int = 1500
    year_ceiling: int = 2100

    def __post_init__(self) -> None:
        if self.year_min > self.year_max:
            raise ValueError(f"empty year window {self.year_min}..{self.year_max}")
        if self.year_floor > self.year_ceiling:
            raise ValueError(f"year_floor {self.year_floor} is above year_ceiling {self.year_ceiling}")
        if not self.year_floor <= self.year_min <= self.year_max <= self.year_ceiling:
            raise ValueError(
                f"year window {self.year_min}..{self.year_max} is not inside "
                f"year_floor..year_ceiling {self.year_floor}..{self.year_ceiling}"
            )
        unknown = [s for s in self.scripts if s not in SCRIPT_RANGES]
        if unknown:
            raise ValueError(f"unknown scripts: {unknown}; known: {sorted(SCRIPT_RANGES)}")
        object.__setattr__(self, "scripts", tuple(sorted(set(self.scripts))))

    def letter_ranges(self) -> tuple[tuple[int, int], ...]:
        ranges: list[tuple[int, int]] = []
        for script in self.scripts:
            ranges.extend(SCRIPT_RANGES[script])
        return tuple(ranges)


@dataclass
class IngestCounters:
    lines_parsed: int = 0
    lines_skipped: int = 0

    def update(self, other: "IngestCounters") -> None:
        self.lines_parsed += other.lines_parsed
        self.lines_skipped += other.lines_skipped


def parse_year(text: str) -> int | None:
    """The year `text` spells as ``str(year)`` would: ASCII digits, an
    optional ``-`` and no leading zero; None for any other text."""
    count = parse_count(text.removeprefix("-"))
    year = None if count is None else -count if text[0] == "-" else count
    return year if str(year) == text else None


def parse_count(text: str) -> int | None:
    """The count `text` spells in ASCII digits, leading zeros allowed;
    None for any other text."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # more digits than `int` converts
        return None


def parse_line(
    line: str,
    line_number: int = 0,
    year_floor: int = 1500,
    year_ceiling: int = 2100,
) -> NgramRecord:
    """Parse one corpus line into a validated NgramRecord.

    Raises ParseError (carrying the line number) on wrong field count,
    a year or count that `parse_year`/`parse_count` refuse, or invariant
    violations; skip-versus-abort is the caller's policy.
    """
    fields = line.rstrip("\n").rstrip("\r").split("\t")
    if len(fields) != 4:
        raise ParseError(f"expected 4 tab-separated fields, got {len(fields)}", line_number)
    ngram, year_s, match_s, volume_s = fields
    tokens = tuple(ngram.split(" "))
    if len(tokens) > 2:
        raise ParseError(f"ngram has {len(tokens)} tokens, expected 1 or 2", line_number)
    if "" in tokens:
        raise ParseError("empty token in ngram field", line_number)
    year, match_count, volume_count = parse_year(year_s), parse_count(match_s), parse_count(volume_s)
    if year is None or match_count is None or volume_count is None:
        raise ParseError(f"non-integer count fields: {year_s!r}/{match_s!r}/{volume_s!r}", line_number)
    if not year_floor <= year <= year_ceiling:
        raise ParseError(f"year {year} outside plausible range {year_floor}..{year_ceiling}", line_number)
    if volume_count < 1:
        raise ParseError(f"volume_count must be >= 1, got {volume_count}", line_number)
    if volume_count > match_count:
        raise ParseError(f"volume_count {volume_count} exceeds match_count {match_count}", line_number)
    return NgramRecord(tokens, year, match_count, volume_count)


def _letter_class(letter_ranges: Sequence[tuple[int, int]]) -> re.Pattern[str]:
    """``[ranges]+`` compiled, to be matched only against words that pass
    ``str.isalpha``; no ranges (or only inverted ones) match nothing."""
    spans = [(max(lo, 0), min(hi, sys.maxunicode)) for lo, hi in letter_ranges]
    body = "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in spans if lo <= hi)
    return re.compile(f"[{body}]+" if body else "(?!)")


def is_word(text: object) -> bool:
    """The word rule of aggregates and word lists: a str of a letter, then
    letters or combining marks.  Marks are let in because ``lower()`` of
    U+0130 ends in U+0307, so a ``case_fold`` ingest keeps such a word."""
    return isinstance(text, str) and (text.isalpha() or text[:1].isalpha() and all(
        ch.isalpha() or unicodedata.category(ch)[0] == "M" for ch in text))


class _DigestTap(io.RawIOBase):
    """A raw binary file that feeds every byte read from it to `digest`."""

    def __init__(self, raw: IO[bytes], digest) -> None:
        self._raw = raw
        self._digest = digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = self._raw.readinto(buffer)
        self._digest.update(memoryview(buffer)[:size])
        return size


@contextmanager
def read_input(path: str | Path | None, digest=None) -> Iterator[TextIO]:
    """The read-side twin of `atomic_output`, through which every input is
    read: a handle on `path` (stdin if None, gunzipped if it ends in
    ``.gz``) as strict UTF-8 with universal newlines.  Any failure in the
    block, reading or a ValueError on the content, becomes one ValueError
    ``cannot read <path>: <reason>``.  With a hashlib `digest`, the file's
    own bytes (still compressed for ``.gz``) are fed to it as they are
    read, and the rest of the file after the block, so that it ends as
    the digest of the whole file."""
    try:
        with (io.BytesIO(sys.stdin.buffer.read()) if path is None else open(path, "rb", buffering=0)) as raw:
            source = raw if digest is None else _DigestTap(raw, digest)
            binary = (gzip.GzipFile(fileobj=source, mode="rb") if path is not None and Path(path).suffix == ".gz"
                      else io.BufferedReader(source))
            with io.TextIOWrapper(binary, encoding="utf-8") as handle:
                yield handle
                if digest is not None:
                    for _ in iter(lambda: source.read(1 << 20), b""):
                        pass
    except (OSError, EOFError, zlib.error, ValueError) as exc:
        raise ValueError(f"cannot read {'<stdin>' if path is None else path}: {exc}") from None


@contextmanager
def atomic_output(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """A handle (UTF-8 text, or bytes if `binary`) on a new file beside
    `path` that replaces `path` once the block ends without an error;
    after an error it is deleted and `path` stays as it was.  A pipe or
    device (``/dev/stdout``) cannot be replaced, so it is written in
    place.  A `path` ending in ``.gz`` is gzipped, the rule by which
    `read_input` gunzips.  Every output file of abbrevkit is written here."""
    target = Path(path)
    in_place = target.exists() and not target.is_file()
    if not in_place:
        target = target.resolve()  # replace a symlink's target, not the link
        target.parent.mkdir(parents=True, exist_ok=True)
    file = target if in_place else target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    zipped = Path(path).suffix == ".gz"
    try:
        # no name and mtime 0 in a gzip header keep a rebuilt file byte-identical
        with open(file, "wb" if in_place else "xb") as raw, (
                gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0) if zipped else nullcontext(raw)) as packed, (
                nullcontext(packed) if binary else io.TextIOWrapper(packed, encoding="utf-8", newline="\n")) as handle:
            yield handle
        if not in_place:
            os.replace(file, target)
    except BaseException:
        if not in_place:
            file.unlink(missing_ok=True)
        raise


class Aggregator:
    """Mergeable accumulator of per-word yearly counts.

    Raw counts live in ``word -> year -> [with_period, total, volumes]``;
    normalization and derived statistics happen only in finalize, so
    merging shards first and finalizing once is equivalent to a single
    sequential pass.
    """

    def __init__(self, config: IngestConfig | None = None):
        self.config = config or IngestConfig()
        self.counters = IngestCounters()
        self.fingerprints: dict[str, str] = {}
        self._counts: dict[str, dict[int, list[int]]] = {}
        self._letters = _letter_class(self.config.letter_ranges()).fullmatch

    # -- building ---------------------------------------------------------

    def consume_lines(self, lines: Iterable[str], on_error: str = "skip") -> None:
        """Fold corpus lines into the counts: each line is accepted or
        rejected exactly as `parse_line` would, and an accepted record
        counts if its year is in the window and its ngram is a candidate
        word or ``word .``.  A rejected line is counted as skipped, or
        under ``abort`` raises `parse_line`'s ParseError."""
        if on_error not in ("skip", "abort"):
            raise ValueError(f"on_error must be 'skip' or 'abort', got {on_error!r}")
        abort = on_error == "abort"
        config = self.config
        floor, ceiling = config.year_floor, config.year_ceiling
        lo, hi = config.year_min, config.year_max
        fold = config.case_fold
        letters = self._letters
        counts = self._counts
        year_of: dict[str, int] = {}  # each year spelling accepted so far
        parsed = skipped = 0
        try:
            for line_number, line in enumerate(lines, 1):
                if not line or line == "\n":
                    continue
                # the fields and the accept test of `parse_line`, which alone
                # words the reason of a rejected line
                try:
                    ngram, year_s, match_s, volume_s = line.rstrip("\n").rstrip("\r").split("\t")
                    tokens = ngram.split(" ")
                    match_count = int(match_s)
                    volume_count = int(volume_s)
                except ValueError:
                    accepted = False
                else:
                    year = year_of.get(year_s)
                    if year is None and (year := parse_year(year_s)) is not None:
                        year = year_of.setdefault(year_s, year) if floor <= year <= ceiling else None
                    digits = match_s + volume_s
                    accepted = (year is not None and digits.isascii() and digits.isdigit() and len(tokens) <= 2
                                and "" not in tokens and 1 <= volume_count <= match_count)
                if not accepted:
                    if abort:
                        parse_line(line, line_number, floor, ceiling)
                    skipped += 1
                    continue
                parsed += 1
                if not lo <= year <= hi:
                    continue
                # a 1-gram gives total usage; only the 2-gram shape ``word .``
                # gives with-period usage
                word = tokens[0]
                bigram = len(tokens) == 2
                if bigram and tokens[1] != ".":
                    continue
                # the candidate filter: letters only, each from an admitted range
                if not (word.isalpha() and letters(word)):
                    continue
                if fold:
                    word = word.lower()
                years = counts.get(word)
                if years is None:
                    years = counts[word] = {}
                cell = years.get(year)
                if cell is None:
                    cell = years[year] = [0, 0, 0]
                if bigram:
                    cell[0] += match_count
                    cell[2] += volume_count
                else:
                    cell[1] += match_count
        finally:
            self.counters.lines_parsed += parsed
            self.counters.lines_skipped += skipped

    def consume_path(self, path: str | Path, on_error: str = "skip") -> None:
        """`consume_lines` over a file, whose sha256 (of the bytes on disk,
        taken in the same read) goes into `fingerprints`."""
        digest = hashlib.sha256()
        with read_input(path, digest) as handle:
            self.consume_lines(handle, on_error)
        self.fingerprints[str(path)] = digest.hexdigest()

    # -- merging ----------------------------------------------------------

    def update(self, other: "Aggregator") -> None:
        """Fold another shard into this one; configs must match exactly."""
        if self.config != other.config:
            raise ConfigMismatchError(
                f"cannot merge aggregates built with different configs: "
                f"{self.config} vs {other.config}"
            )
        for word, years in other._counts.items():
            mine = self._counts.get(word)
            if mine is None:
                self._counts[word] = {year: list(cell) for year, cell in years.items()}
                continue
            for year, cell in years.items():
                existing = mine.get(year)
                if existing is None:
                    mine[year] = list(cell)
                else:
                    existing[0] += cell[0]
                    existing[1] += cell[1]
                    existing[2] += cell[2]
        self.counters.update(other.counters)
        self.fingerprints.update(other.fingerprints)

    # -- finalizing -------------------------------------------------------

    def finalize(self, window: tuple[int, int] | None = None) -> dict[str, WordProfile]:
        """Normalize counts and compute per-word aggregates over `window`
        (default: the ingestion window).

        Normalization never drops data: with_period greater than total is
        clamped down (the external corpus thresholds 1-grams and 2-grams
        independently), and a with-period year lacking any unigram count
        gets total set to with_period.  Both fixups flag the word.  Each
        profile's `series` reads a snapshot of the normalized counts, so
        a later `update` or `consume_lines` does not change it.
        """
        if window is None:
            window = (self.config.year_min, self.config.year_max)
        lo, hi = window
        profiles: dict[str, WordProfile] = {}
        for word, cells in self._counts.items():
            years = tuple(cells)
            with_period, totals, volumes = zip(*cells.values()) if years else ((), (), ())
            clamped = filled = 0
            if not all(map(le, with_period, totals)):
                with_period, totals, clamped, filled = _normalized(with_period, totals)
            in_window = (with_period, totals, volumes)
            if years and not lo <= min(years) <= max(years) <= hi:
                kept = [lo <= year <= hi for year in years]
                in_window = tuple(tuple(compress(column, kept)) for column in in_window)
            n_in, total_in, volumes_in = in_window
            shares = list(compress(zip(n_in, total_in), map(gt, total_in, repeat(0))))
            profiles[word] = WordProfile(
                word=word,
                series=_Series(years, with_period, totals, volumes),
                window=window,
                n_total=sum(n_in),
                N_total=sum(total_in),
                median_share=_median(shares),
                active_years=len(shares),
                volumes_total=sum(volumes_in),
                clamped_years=clamped,
                filled_years=filled,
            )
        return profiles

    # -- persistence ------------------------------------------------------

    STATE_FORMAT = "abbrevkit-aggregate"
    STATE_VERSION = 1

    def to_state(self) -> dict:
        return {
            "format": self.STATE_FORMAT,
            "version": self.STATE_VERSION,
            "config": asdict(self.config),
            "counters": asdict(self.counters),
            "fingerprints": dict(self.fingerprints),
            "words": {
                word: {str(year): cell for year, cell in years.items()}
                for word, years in self._counts.items()
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "Aggregator":
        """Rebuild an aggregator from `to_state` output; any other shape
        raises ValueError."""
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
        year_of = _year_keys(state["words"].values(), lo, hi)
        for word, years in state["words"].items():
            if not is_word(word):
                raise ValueError(f"aggregate state: word key {word!r} is not a word ({WORD_RULE})")
            if not isinstance(years, dict):
                raise ValueError(f"aggregate state: word {word!r} must map years to cells")
            # a word's keys and cells are checked in bulk; only a word that
            # fails is walked cell by cell, to word its first fault
            cells = list(years.values())
            if not (year_of.keys() >= years.keys() and set(map(type, cells)) <= {list}
                    and set(map(len, cells)) <= {3} and set(map(type, chain.from_iterable(cells))) <= {int}
                    and min(chain.from_iterable(cells), default=0) >= 0):
                for key, cell in years.items():
                    year = year_of.get(key)
                    if year is None:
                        raise ValueError(f"aggregate state: {word!r} has year key {key!r}, not a year in {lo}..{hi}")
                    if not (type(cell) is list and len(cell) == 3 and all(map(_is_count, cell))):
                        raise ValueError(
                            f"aggregate state: {word!r} year {year} needs three non-negative ints, got {cell!r}"
                        )
            agg._counts[word] = dict(zip(map(year_of.__getitem__, years), map(list, cells)))
        return agg

    def save(self, path: str | Path) -> None:
        """Write the state to `path` through `atomic_output`, so a failed
        save leaves an existing file as it was."""
        payload = json.dumps(
            self.to_state(), ensure_ascii=False, sort_keys=True, separators=(",", ":")
        ) + "\n"
        # bytes, not text: a text layer's close flushes a gzip stream, which would change its bytes
        with atomic_output(path, binary=True) as out:
            out.write(payload.encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "Aggregator":
        """Read a `save`d state; any failure names `path`."""
        with read_input(path) as handle:
            return cls.from_state(json.load(handle))


def _year_keys(words: Iterable[object], lo: int, hi: int) -> dict[str, int]:
    """The keys of the year maps among `words` that `to_state` writes for a
    year in lo..hi, each with its year."""
    keys = set(chain.from_iterable(years for years in words if isinstance(years, dict)))
    return {key: year for key in keys
            if type(key) is str and (year := parse_year(key)) is not None and lo <= year <= hi}


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _normalized(with_period: tuple[int, ...], totals: tuple[int, ...]) -> tuple[tuple, tuple, int, int]:
    """The with-period and total columns after `finalize`'s fixups, and
    the number of clamped and of filled years."""
    pairs = []
    clamped = filled = 0
    for n, total in zip(with_period, totals):
        if total == 0 and n > 0:
            total = n
            filled += 1
        elif n > total:
            n = total
            clamped += 1
        pairs.append((n, total))
    with_period, totals = zip(*pairs)
    return with_period, totals, clamped, filled


def _median(shares: list[tuple[int, int]]) -> Fraction | None:
    """The median of the shares ``n / N`` (each N > 0), with a `Fraction`
    built only for the middle one or two.  The shares are ordered by the
    integer key ``(n << k) // N``, k twice the bit length of the largest
    N: two shares a/b < c/d differ by at least 1/(bd) > 2**-k, so their
    keys differ in the same order, and the middle keys name the middle
    shares."""
    if not shares:
        return None
    with_period, totals = zip(*shares)
    k = 2 * max(totals).bit_length()
    keys = list(map(floordiv, map(lshift, with_period, repeat(k)), totals))
    mid, odd = divmod(len(keys), 2)
    middle = [Fraction(*shares[keys.index(key)]) for key in sorted(keys)[mid - 1 + odd:mid + 1]]
    return middle[0] if odd else (middle[0] + middle[1]) / 2


def _ingest_chunk(payload: tuple[IngestConfig, list[str], str]) -> Aggregator:
    config, paths, on_error = payload
    agg = Aggregator(config)
    for path in paths:
        agg.consume_path(path, on_error)
    return agg


def ingest_paths(
    unigram_paths: Sequence[str | Path],
    bigram_paths: Sequence[str | Path],
    config: IngestConfig | None = None,
    jobs: int = 1,
    on_error: str = "skip",
) -> Aggregator:
    """Ingest all shards in `jobs` processes, this one included, and
    return the merged aggregation state.  Results are independent of the
    job count.
    """
    config = config or IngestConfig()
    paths = [str(p) for p in unigram_paths] + [str(p) for p in bigram_paths]
    if not paths:
        raise ValueError("no input files to ingest")
    count = max(1, min(jobs, len(paths)))
    if count == 1:
        return _ingest_chunk((config, paths, on_error))
    chunks = [paths[first::count] for first in range(count)]
    # the workers take every chunk but the first, which this process parses
    # meanwhile; their shards are then folded into its aggregate.  The pool
    # comes from this module's `multiprocessing` attribute (see `__getattr__`)
    with sys.modules[__name__].multiprocessing.Pool(count - 1) as pool:
        shards: Iterator[Aggregator] = pool.imap_unordered(
            _ingest_chunk, [(config, chunk, on_error) for chunk in chunks[1:]]
        )
        merged = _ingest_chunk((config, chunks[0], on_error))
        for shard in shards:
            merged.update(shard)
    return merged


def __getattr__(name: str):
    """`ingest.multiprocessing`, imported on first use: the import adds
    about 18 ms to every start, and only a parallel `ingest_paths` needs
    it."""
    if name != "multiprocessing":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import multiprocessing

    globals()[name] = multiprocessing
    return multiprocessing
