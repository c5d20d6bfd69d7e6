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
import logging
import multiprocessing
import os
import re
import sys
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import cmp_to_key
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Sequence, TextIO

logger = logging.getLogger(__name__)

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


@dataclass
class WordProfile:
    """Per-word yearly usage plus aggregates over the analysis window.

    `series` holds every retained year (normalized so with_period never
    exceeds total); the scalar aggregates cover `window` only.
    """

    word: str
    series: dict[int, YearlyUsage]
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
        object.__setattr__(self, "scripts", tuple(sorted(self.scripts)))

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


def parse_line(
    line: str,
    line_number: int = 0,
    year_floor: int = 1500,
    year_ceiling: int = 2100,
) -> NgramRecord:
    """Parse one corpus line into a validated NgramRecord.

    Raises ParseError (carrying the line number) on wrong field count,
    non-integer numerics, or invariant violations; skip-versus-abort is
    the caller's policy.
    """
    fields = line.rstrip("\n").rstrip("\r").split("\t")
    if len(fields) != 4:
        raise ParseError(f"expected 4 tab-separated fields, got {len(fields)}", line_number)
    ngram, year_s, match_s, volume_s = fields
    tokens = tuple(ngram.split(" "))
    if len(tokens) > 2:
        raise ParseError(f"ngram has {len(tokens)} tokens, expected 1 or 2", line_number)
    if any(not tok for tok in tokens):
        raise ParseError("empty token in ngram field", line_number)
    try:
        year = int(year_s)
        match_count = int(match_s)
        volume_count = int(volume_s)
    except ValueError:
        raise ParseError(f"non-integer count fields: {year_s!r}/{match_s!r}/{volume_s!r}", line_number) from None
    if not year_floor <= year <= year_ceiling:
        raise ParseError(f"year {year} outside plausible range {year_floor}..{year_ceiling}", line_number)
    if match_count < 0:
        raise ParseError(f"negative match_count {match_count}", line_number)
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


@contextmanager
def read_input(path: str | Path | None) -> Iterator[TextIO]:
    """The read-side twin of `atomic_output`, through which every input is
    read: a handle on `path` (stdin if None, gunzipped if it ends in
    ``.gz``) as strict UTF-8 with universal newlines.  Any failure in the
    block, reading or a ValueError on the content, becomes one ValueError
    ``cannot read <path>: <reason>``."""
    try:
        raw = (io.BytesIO(sys.stdin.buffer.read()) if path is None
               else gzip.open(path) if Path(path).suffix == ".gz" else open(path, "rb"))
        with io.TextIOWrapper(raw, encoding="utf-8") as handle:
            yield handle
    except (OSError, EOFError, zlib.error, ValueError) as exc:
        raise ValueError(f"cannot read {'<stdin>' if path is None else path}: {exc}") from None


def sha256_file(path: str | Path) -> str:
    """Hex sha256 of a file's bytes, read a megabyte at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def atomic_output(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """A handle (UTF-8 text, or bytes if `binary`) on a new file beside
    `path` that replaces `path` once the block ends without an error;
    after an error it is deleted and `path` stays as it was.  A pipe or
    device (``/dev/stdout``) cannot be replaced, so it is written in
    place.  `Aggregator.save` and the CLI's output files use it."""
    def opened(file: Path, mode: str) -> IO:
        return open(file, mode + "b") if binary else open(file, mode, encoding="utf-8", newline="\n")

    target = Path(path)
    if target.exists() and not target.is_file():
        with opened(target, "w") as handle:
            yield handle
        return
    target = target.resolve()  # replace a symlink's target, not the link
    target.parent.mkdir(parents=True, exist_ok=True)
    temporary = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    try:
        with opened(temporary, "x") as handle:
            yield handle
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
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

    def add_record(self, record: NgramRecord) -> None:
        if not self.config.year_min <= record.year <= self.config.year_max:
            return
        tokens = record.tokens
        # a 1-gram gives total usage; only the 2-gram shape ``word .`` gives
        # with-period usage
        if len(tokens) > 2 or (len(tokens) == 2 and tokens[1] != "."):
            return
        word = tokens[0]
        # the candidate filter: letters only, each from an admitted range
        if not (word.isalpha() and self._letters(word)):
            return
        if self.config.case_fold:
            word = word.lower()
        cell = self._cell(word, record.year)
        if len(tokens) == 1:
            cell[1] += record.match_count
        else:
            cell[0] += record.match_count
            cell[2] += record.volume_count

    def _cell(self, word: str, year: int) -> list[int]:
        years = self._counts.get(word)
        if years is None:
            years = self._counts[word] = {}
        cell = years.get(year)
        if cell is None:
            cell = years[year] = [0, 0, 0]
        return cell

    def consume_lines(self, lines: Iterable[str], on_error: str = "skip") -> None:
        if on_error not in ("skip", "abort"):
            raise ValueError(f"on_error must be 'skip' or 'abort', got {on_error!r}")
        floor, ceiling = self.config.year_floor, self.config.year_ceiling
        for line_number, line in enumerate(lines, 1):
            if not line or line == "\n":
                continue
            try:
                record = parse_line(line, line_number, floor, ceiling)
            except ParseError:
                if on_error == "abort":
                    raise
                self.counters.lines_skipped += 1
                continue
            self.counters.lines_parsed += 1
            self.add_record(record)

    def consume_path(self, path: str | Path, on_error: str = "skip") -> None:
        with read_input(path) as handle:
            self.consume_lines(handle, on_error)

    def fingerprint_path(self, path: str | Path) -> None:
        self.fingerprints[str(path)] = sha256_file(path)

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
        gets total set to with_period.  Both fixups flag the word.
        """
        if window is None:
            window = (self.config.year_min, self.config.year_max)
        lo, hi = window
        profiles: dict[str, WordProfile] = {}
        for word, years in self._counts.items():
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
                median_share=_median(shares),
                active_years=active,
                volumes_total=volumes,
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
        if state.get("version") != cls.STATE_VERSION:
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
            if not isinstance(years, dict):
                raise ValueError(f"aggregate state: word {word!r} must map years to cells")
            cells = agg._counts[word] = {}
            for key, cell in years.items():
                # `to_state` writes str(year), and `add_record` keeps only years in the window
                year = int(key) if key.removeprefix("-").isdecimal() else None
                if year is None or str(year) != key or not lo <= year <= hi:
                    raise ValueError(f"aggregate state: {word!r} has year key {key!r}, not a year in {lo}..{hi}")
                if not (type(cell) is list and len(cell) == 3 and all(map(_is_count, cell))):
                    raise ValueError(
                        f"aggregate state: {word!r} year {year} needs three non-negative ints, got {cell!r}"
                    )
                cells[year] = list(cell)
        return agg

    def save(self, path: str | Path) -> None:
        """Write the state to `path` (gzip if it ends in ``.gz``) through
        `atomic_output`, so a failed save leaves an existing file as it was."""
        payload = json.dumps(
            self.to_state(), ensure_ascii=False, sort_keys=True, separators=(",", ":")
        ) + "\n"
        with atomic_output(path, binary=True) as raw:
            if Path(path).suffix == ".gz":
                # fixed mtime and no embedded name keep rebuilt archives byte-identical
                with gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0) as handle:
                    handle.write(payload.encode("utf-8"))
            else:
                raw.write(payload.encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "Aggregator":
        """Read a `save`d state; any failure names `path`."""
        with read_input(path) as handle:
            return cls.from_state(json.load(handle))


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _median(shares: list[tuple[int, int]]) -> Fraction | None:
    """The median of the shares ``with_period / total`` (each total > 0).
    They are ordered by exact integer cross-products, and a `Fraction` is
    built only for the middle one or two."""
    if not shares:
        return None
    ordered = sorted(shares, key=_BY_SHARE)
    mid, odd = divmod(len(ordered), 2)
    if odd:
        return Fraction(*ordered[mid])
    return (Fraction(*ordered[mid - 1]) + Fraction(*ordered[mid])) / 2


_BY_SHARE = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


def _ingest_worker(payload: tuple[IngestConfig, list[str], str]) -> Aggregator:
    config, paths, on_error = payload
    agg = Aggregator(config)
    for path in paths:
        agg.fingerprint_path(path)
        agg.consume_path(path, on_error)
    return agg


def ingest_paths(
    unigram_paths: Sequence[str | Path],
    bigram_paths: Sequence[str | Path],
    config: IngestConfig | None = None,
    jobs: int = 1,
    on_error: str = "skip",
) -> Aggregator:
    """Ingest all shards, optionally in parallel, and return the merged
    aggregation state.  Results are independent of the job count.
    """
    config = config or IngestConfig()
    paths = [str(p) for p in unigram_paths] + [str(p) for p in bigram_paths]
    if not paths:
        raise ValueError("no input files to ingest")
    if jobs <= 1 or len(paths) == 1:
        return _ingest_worker((config, paths, on_error))
    chunks: list[list[str]] = [[] for _ in range(min(jobs, len(paths)))]
    for index, path in enumerate(paths):
        chunks[index % len(chunks)].append(path)
    with multiprocessing.Pool(len(chunks)) as pool:
        shards: Iterator[Aggregator] = pool.imap_unordered(
            _ingest_worker, [(config, chunk, on_error) for chunk in chunks]
        )
        merged = Aggregator(config)
        for shard in shards:
            merged.update(shard)
    return merged
