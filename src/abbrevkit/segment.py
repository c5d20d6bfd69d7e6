"""Sentence segmentation driven by an abbreviation dictionary.

The hard call at every period is whether it ends a sentence or belongs
to an abbreviation.  One rule decides it, looking at periods only: a
period followed by whitespace ends a sentence when the next non-space
character is uppercase, unless the stem before the period (the letter
run ending there) is both in the dictionary and in the override list
of title-like prefixes.  So the dictionary changes a boundary only at
override-listed stems; with an empty dictionary the rule is the naive
period-space-capital pattern, the measurable baseline.

`_period_verdicts` applies the rule, in one scan of the candidate
periods; it is the only place a period is decided, and two functions
read its verdicts.  `sentence_texts` cuts the text at them into output
lines, on char offsets, without tokenizing.  `token_columns`, the one
tokenizer, makes one pass into columns (texts, byte starts, byte ends,
kinds), a regex match per token with the whitespace after it, fusing a
dictionary stem with its period into one abbreviation token, and gives
each sentence its byte span and token range from the same verdicts; the
CLI calls it only for ``--spans``, in both modes.

Dictionaries are read by `dictionary.load_dictionary`; this module
only segments.  All spans are byte offsets into the UTF-8 encoding of
the input; the text lines need none.
"""
from __future__ import annotations

import re
import unicodedata
from bisect import bisect_left
from itertools import accumulate, compress, islice
from operator import add
from typing import Iterable, NamedTuple

from .dictionary import LoadedDictionary

__all__ = [
    "SentenceSpan",
    "KIND_WORD",
    "KIND_ABBREV",
    "KIND_PUNCT",
    "KIND_NUMBER",
    "KIND_OTHER",
    "token_columns",
    "sentence_texts",
]

KIND_WORD = "word"
KIND_ABBREV = "abbreviation-with-period"
KIND_PUNCT = "punctuation"
KIND_NUMBER = "number"
KIND_OTHER = "other"


class SentenceSpan(NamedTuple):
    start: int
    end: int
    token_start: int | None = None
    token_end: int | None = None  # exclusive; None when no tokenization ran


EMPTY_DICTIONARY = LoadedDictionary(())

# one chunk per token: a word, a number (periods between digits stay
# inside) or any other single character, with the whitespace after it;
# whitespace is a chunk of its own only at the start of the text
_TOKEN_RE = re.compile(r"(?:[^\W\d_]+|\d+(?:[.,]\d+)+|\d+|\S)\s*|\s+", re.UNICODE)

# a candidate period: whitespace and then a non-space character (group 1)
# follow it
_PERIOD_RE = re.compile(r"\.(?=\s+(\S))", re.UNICODE)
# a letter run, the word class of _TOKEN_RE; matched on the reversed
# text it reads the stem that ends at a period
_RUN_RE = re.compile(r"[^\W\d_]*", re.UNICODE)


def _period_verdicts(
    text: str, dictionary: LoadedDictionary, override: Iterable[str]
) -> tuple[list[int], list[bool]]:
    """The char end of every candidate period in `text`, in order, and
    whether the boundary rule ends a sentence there."""
    # the stems a capital cannot end a sentence after, under the dictionary's case rule; a run
    # is lowercased only once reversed back: reversed, a final sigma or an İ lowercases wrong
    fold = dictionary.case_fold
    protected = frozenset(w.lower() if fold else w for w in override if w[:1].isalpha() and w in dictionary)
    backwards = text[::-1] if protected else ""
    ends: list[int] = []
    verdicts: list[bool] = []
    for match in _PERIOD_RE.finditer(text):
        end = match.end()
        ends.append(end)
        verdict = match.group(1).isupper()
        if verdict and backwards:
            stem = _RUN_RE.match(backwards, len(text) - end + 1).group()[::-1]
            verdict = (stem.lower() if fold else stem) not in protected
        verdicts.append(verdict)
    return ends, verdicts


def token_columns(
    text: str,
    dictionary: LoadedDictionary = EMPTY_DICTIONARY,
    override: Iterable[str] = (),
) -> tuple[tuple[list[str], list[int], list[int], list[str]], list[SentenceSpan]]:
    """The tokens of `text` as four columns -- texts, byte starts, byte
    ends (exclusive) and kinds -- and its sentences, each with its byte
    span and the range of tokens it covers; no tokens, no sentences.

    Word, number, punctuation and other tokens; whitespace becomes the
    gaps between spans.  A period directly after a word whose stem is in
    `dictionary` fuses with it into one abbreviation token.  The
    `_TOKEN_RE` chunks tile the text, each a token and the whitespace
    after it, so a token starts where the chunk before it ends, a
    running sum of their UTF-8 sizes; token, sizes and kind are worked
    out once per distinct chunk, as chunks repeat.  A sentence ends at
    each period `_period_verdicts` says ends one: the k-th candidate
    period is the k-th period chunk with whitespace in it and a chunk
    after it.  A sentence's span runs from its first token's start to its
    last token's end, so whitespace around a sentence is outside it; with
    the empty dictionary the sentences are the baseline's.
    """
    chunks = _TOKEN_RE.findall(text)
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


def sentence_texts(text: str, dictionary: LoadedDictionary = EMPTY_DICTIONARY, override: Iterable[str] = ()) -> list[str]:
    """The sentences of `token_columns` as text, each with its inner
    whitespace runs flattened to one space, cut on the char offsets of
    the same verdicts: no token, byte offset or span is made."""
    cuts = [0, *compress(*_period_verdicts(text, dictionary, override)), len(text)]
    pieces = map(text.__getitem__, map(slice, cuts, islice(cuts, 1, None)))
    return list(filter(None, map(" ".join, map(str.split, pieces))))
