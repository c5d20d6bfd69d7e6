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
from itertools import accumulate
from pathlib import Path
from typing import Callable, Mapping

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
            if not isinstance(word, str):
                raise ValueError(f"word {word!r} is not a string")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability for {word!r} outside [0,1]: {p}")
        unknown = set(self.title_like) - set(self.abbrev_words)
        if unknown:
            raise ValueError(f"title_like words not in abbrev_words: {sorted(unknown)}")
        if not all(len(pair) == 2 and all(type(v) is int for v in pair) for pair in (self.years, self.totals_range)):
            raise ValueError(f"years and totals_range must be two ints each: {self.years!r}, {self.totals_range!r}")
        if self.years[0] > self.years[1]:
            raise ValueError(f"empty year range {self.years}")
        lo, hi = self.totals_range
        if not 1 <= lo <= hi:
            raise ValueError(f"bad totals range {self.totals_range}")
        if type(self.seed) is not int or type(self.volumes_divisor) is not int or self.volumes_divisor < 1:
            raise ValueError(f"seed and volumes_divisor must be ints, the divisor >= 1, got {self.seed!r}, "
                             f"{self.volumes_divisor!r}")
        if not 0.0 <= self.period_comma_swap <= 1.0:
            raise ValueError("period_comma_swap must be in [0,1]")


def make_vocabulary(count: int, prefix: str = "") -> list[str]:
    """Deterministic pronounceable Cyrillic word forms."""
    words = []
    base = len(_SYLLABLES)
    for i in range(count):
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
    seed: int = 0,
    totals_range: tuple[int, int] = (40, 5000),
) -> SynthSpec:
    """Convenience spec with synthetic vocabularies at the paper's shares,
    p1 = 0.955 and p0 = 0.068, and the first 30% of the abbreviations title-like."""
    abbrevs = make_vocabulary(n_abbrevs, prefix="ъ")
    commons = make_vocabulary(n_commons)
    return SynthSpec(
        abbrev_words={w: 0.955 for w in abbrevs},
        common_words={w: 0.068 for w in commons},
        totals_range=totals_range,
        seed=seed,
        title_like=tuple(abbrevs[: int(n_abbrevs * 0.3)]),
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
    count n.  Each file is written through `atomic_output`, in one write.  Returns
    line counts for reporting.
    """
    import numpy as np  # only here, so that the other commands start without it

    rng = np.random.default_rng(spec.seed)
    years = list(range(spec.years[0], spec.years[1] + 1))
    lo, hi = spec.totals_range
    log_lo, log_hi = math.log(lo), math.log(hi + 1)

    words = sorted(list(spec.abbrev_words) + list(spec.common_words))
    probs = {**spec.abbrev_words, **spec.common_words}

    divisor = spec.volumes_divisor
    uni_lines: list[str] = []
    bi_lines: list[str] = []
    for word in words:
        p = probs[word]
        raw = np.exp(rng.uniform(log_lo, log_hi, size=len(years)))
        totals = np.clip(raw.astype(np.int64), lo, hi)
        withs = rng.binomial(totals, p)
        if spec.period_comma_swap > 0.0:
            swapped = rng.binomial(withs, spec.period_comma_swap).tolist()
        else:
            swapped = [0] * len(years)
        for year, total, n, swap in zip(years, totals.tolist(), withs.tolist(), swapped):
            uni_lines.append(f"{word}\t{year}\t{total}\t{_volumes(total, divisor)}\n")
            kept = n - swap
            if kept > 0:
                bi_lines.append(f"{word} .\t{year}\t{kept}\t{_volumes(kept, divisor)}\n")
            if swap > 0:
                bi_lines.append(f"{word} ,\t{year}\t{swap}\t{_volumes(swap, divisor)}\n")
    with atomic_output(unigram_path) as uni, atomic_output(bigram_path) as bi:
        uni.write("".join(uni_lines))
        bi.write("".join(bi_lines))
    return {"unigram_lines": len(uni_lines), "bigram_lines": len(bi_lines)}


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


def _index_below(rng: random.Random) -> Callable[[int, int], int]:
    """A draw of an index below n, called with n and k = n.bit_length().
    It makes the same Mersenne Twister draws as ``rng.choice`` of a
    length-n sequence and ``rng.randrange(n)``: CPython's
    ``_randbelow_with_getrandbits`` takes k bits and redraws while the
    value is >= n."""
    getrandbits = rng.getrandbits

    def below(n: int, k: int) -> int:
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


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
    below, uniform = _index_below(rng), rng.random
    commons = sorted(spec.common_words)
    capitals = [w.capitalize() for w in commons]
    abbrevs = sorted(spec.abbrev_words)
    title = sorted(spec.title_like)
    plain = [w for w in abbrevs if w not in spec.title_like] or abbrevs
    propers = capitals[: max(5, len(commons) // 4)]
    n_common, k_common = len(commons), len(commons).bit_length()
    n_title, k_title = len(title), len(title).bit_length()
    n_plain, k_plain = len(plain), len(plain).bit_length()
    n_proper, k_proper = len(propers), len(propers).bit_length()

    used_abbrevs: set[str] = set()
    sentences: list[str] = []
    for _ in range(sentence_count):
        first = capitals[below(n_common, k_common)]
        words = []
        for _ in range(2 + below(5, 3)):  # rng.randint(2, 6) words
            words.append(commons[below(n_common, k_common)])
        rest = " ".join(words)
        roll = uniform()
        if abbrevs and roll < 0.25:
            # abbreviation mid-sentence before a lowercase word
            a = plain[below(n_plain, k_plain)]
            used_abbrevs.add(a)
            sentences.append(f"{first} {a}. {rest} {commons[below(n_common, k_common)]}.")
        elif title and roll < 0.45:
            # title-like prefix before a proper noun: gold non-boundary
            a = title[below(n_title, k_title)]
            used_abbrevs.add(a)
            sentences.append(f"{first} {a}. {propers[below(n_proper, k_proper)]} {rest}.")
        elif plain and roll < 0.60:
            # sentence ends with an abbreviation: double-function period
            a = plain[below(n_plain, k_plain)]
            used_abbrevs.add(a)
            sentences.append(f"{first} {rest} {a}.")
        else:
            sentences.append(f"{first} {rest}.")

    # each sentence ends one separating space before the next one starts
    sizes = (len(sentence.encode("utf-8")) + 1 for sentence in sentences)
    return TextSample(
        text=" ".join(sentences),
        boundaries=list(accumulate(sizes, initial=-1))[1:],
        abbreviations=sorted(used_abbrevs),
        title_like=[w for w in title if w in used_abbrevs],
    )
