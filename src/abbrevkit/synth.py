"""Deterministic synthetic corpora with known ground truth.

Given per-word true with-period probabilities, the generator draws a
yearly total for each word (log-uniform over a configurable range) and
a binomial with-period count at that word's probability, then renders
the corpus-format 1-gram and 2-gram files.  It can also assemble
running text with planted abbreviations and exact gold sentence
boundaries.  Output depends only on the spec (including its RNG seed),
so generated fixtures double as oracles for end-to-end tests.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .ingest import atomic_output

__all__ = [
    "SynthSpec",
    "TextSample",
    "generate_ngrams",
    "generate_text",
    "make_vocabulary",
    "make_spec",
]

_SYLLABLES = (
    "ба", "ве", "ги", "до", "жу", "зе", "ка", "ло", "ми", "ну",
    "по", "ра", "су", "ти", "фо", "ха", "це", "ча", "ше", "эн",
)


@dataclass(frozen=True)
class SynthSpec:
    """Ground truth of a synthetic corpus.

    `abbrev_words` and `common_words` map each word to its true
    with-period probability.  `title_like` names abbreviations used
    before capitalized proper nouns in generated text (they go into the
    segmenter override list).  One seed drives every random choice.
    """

    abbrev_words: Mapping[str, float]
    common_words: Mapping[str, float]
    years: tuple[int, int] = (1990, 2008)
    totals_range: tuple[int, int] = (40, 5000)
    seed: int = 0
    volumes_divisor: int = 10
    title_like: tuple[str, ...] = ()
    period_comma_swap: float = 0.0

    def __post_init__(self) -> None:
        overlap = set(self.abbrev_words) & set(self.common_words)
        if overlap:
            raise ValueError(f"word lists must be disjoint, both contain: {sorted(overlap)}")
        for word, p in list(self.abbrev_words.items()) + list(self.common_words.items()):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability for {word!r} outside [0,1]: {p}")
        unknown = set(self.title_like) - set(self.abbrev_words)
        if unknown:
            raise ValueError(f"title_like words not in abbrev_words: {sorted(unknown)}")
        if self.years[0] > self.years[1]:
            raise ValueError(f"empty year range {self.years}")
        lo, hi = self.totals_range
        if not 1 <= lo <= hi:
            raise ValueError(f"bad totals range {self.totals_range}")
        if self.volumes_divisor < 1:
            raise ValueError("volumes_divisor must be >= 1")
        if not 0.0 <= self.period_comma_swap <= 1.0:
            raise ValueError("period_comma_swap must be in [0,1]")


def make_vocabulary(count: int, prefix: str = "", start: int = 0) -> list[str]:
    """Deterministic pronounceable Cyrillic word forms."""
    words = []
    base = len(_SYLLABLES)
    for i in range(start, start + count):
        n = i
        syllables = [prefix] if prefix else []
        while True:
            syllables.append(_SYLLABLES[n % base])
            n //= base
            if n == 0:
                break
        words.append("".join(syllables))
    return words


def make_spec(
    n_abbrevs: int,
    n_commons: int,
    p1: float = 0.955,
    p0: float = 0.068,
    seed: int = 0,
    years: tuple[int, int] = (1990, 2008),
    totals_range: tuple[int, int] = (40, 5000),
    title_fraction: float = 0.3,
) -> SynthSpec:
    """Convenience spec with synthetic vocabularies at uniform p0/p1."""
    abbrevs = make_vocabulary(n_abbrevs, prefix="ъ")
    commons = make_vocabulary(n_commons)
    n_title = int(n_abbrevs * title_fraction)
    return SynthSpec(
        abbrev_words={w: p1 for w in abbrevs},
        common_words={w: p0 for w in commons},
        years=years,
        totals_range=totals_range,
        seed=seed,
        title_like=tuple(abbrevs[:n_title]),
    )


def _volumes(count: int, divisor: int) -> int:
    return max(1, math.ceil(count / divisor))


def generate_ngrams(
    spec: SynthSpec,
    unigram_path: str | Path,
    bigram_path: str | Path,
) -> dict[str, int]:
    """Write the 1-gram and 2-gram files for the spec.

    Per word and year, the unigram line carries the drawn total N and
    the bigram line (emitted when nonzero) the binomial with-period
    count n.  Both files are written through `atomic_output`.  Returns
    line counts for reporting.
    """
    import numpy as np  # only here, so that the other commands start without it

    rng = np.random.default_rng(spec.seed)
    years = list(range(spec.years[0], spec.years[1] + 1))
    lo, hi = spec.totals_range
    log_lo, log_hi = math.log(lo), math.log(hi + 1)

    words = sorted(list(spec.abbrev_words) + list(spec.common_words))
    probs = {**spec.abbrev_words, **spec.common_words}

    uni_lines = 0
    bi_lines = 0
    with atomic_output(unigram_path) as uni, atomic_output(bigram_path) as bi:
        for word in words:
            p = probs[word]
            raw = np.exp(rng.uniform(log_lo, log_hi, size=len(years)))
            totals = np.clip(raw.astype(np.int64), lo, hi)
            withs = rng.binomial(totals, p)
            if spec.period_comma_swap > 0.0:
                swapped = rng.binomial(withs, spec.period_comma_swap)
            else:
                swapped = np.zeros(len(years), dtype=np.int64)
            for year, total, n, swap in zip(years, totals, withs, swapped):
                uni.write(f"{word}\t{year}\t{total}\t{_volumes(int(total), spec.volumes_divisor)}\n")
                uni_lines += 1
                kept = int(n) - int(swap)
                if kept > 0:
                    bi.write(f"{word} .\t{year}\t{kept}\t{_volumes(kept, spec.volumes_divisor)}\n")
                    bi_lines += 1
                if swap > 0:
                    bi.write(f"{word} ,\t{year}\t{int(swap)}\t{_volumes(int(swap), spec.volumes_divisor)}\n")
                    bi_lines += 1
    return {"unigram_lines": uni_lines, "bigram_lines": bi_lines}


@dataclass
class TextSample:
    """Generated running text with exact gold annotations."""

    text: str
    boundaries: list[int] = field(default_factory=list)  # sentence-end byte offsets
    abbreviations: list[str] = field(default_factory=list)
    title_like: list[str] = field(default_factory=list)

    def gold_json(self) -> str:
        doc = {
            "boundaries": self.boundaries,
            "abbreviations": self.abbreviations,
            "title_like": self.title_like,
        }
        return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def generate_text(spec: SynthSpec, sentence_count: int) -> TextSample:
    """Assemble sentences from the spec vocabulary with abbreviations
    planted in three contexts: mid-sentence before a lowercase word,
    mid-sentence as a title-like prefix before a capitalized proper
    noun (the case the naive pattern gets wrong), and at sentence end.
    Gold boundaries are exact by construction.
    """
    if sentence_count < 1:
        raise ValueError(f"sentence_count must be >= 1, got {sentence_count}")
    if not spec.common_words:
        raise ValueError("text generation needs at least one common word")
    rng = random.Random(f"text:{spec.seed}")
    commons = sorted(spec.common_words)
    abbrevs = sorted(spec.abbrev_words)
    title = sorted(spec.title_like)
    plain = [w for w in abbrevs if w not in spec.title_like] or abbrevs
    propers = [w.capitalize() for w in commons[: max(5, len(commons) // 4)]]

    used_abbrevs: set[str] = set()
    pieces: list[str] = []
    boundaries: list[int] = []
    byte_len = 0

    def emit(piece: str) -> None:
        nonlocal byte_len
        pieces.append(piece)
        byte_len += len(piece.encode("utf-8"))

    for index in range(sentence_count):
        if index:
            emit(" ")
        words = [rng.choice(commons).capitalize()]
        for _ in range(rng.randint(2, 6)):
            words.append(rng.choice(commons))
        roll = rng.random()
        if abbrevs and roll < 0.25:
            # abbreviation mid-sentence before a lowercase word
            a = rng.choice(plain)
            used_abbrevs.add(a)
            words.insert(1, a + ".")
            words.append(rng.choice(commons))
            words[-1:] = [words[-1] + "."]
        elif title and propers and roll < 0.45:
            # title-like prefix before a proper noun: gold non-boundary
            a = rng.choice(title)
            used_abbrevs.add(a)
            words.insert(1, a + ".")
            words.insert(2, rng.choice(propers))
            words[-1:] = [words[-1] + "."]
        elif plain and roll < 0.60:
            # sentence ends with an abbreviation: double-function period
            a = rng.choice(plain)
            used_abbrevs.add(a)
            words.append(a + ".")
        else:
            words[-1:] = [words[-1] + "."]
        emit(" ".join(words))
        boundaries.append(byte_len)

    return TextSample(
        text="".join(pieces),
        boundaries=boundaries,
        abbreviations=sorted(used_abbrevs),
        title_like=[w for w in title if w in used_abbrevs],
    )
