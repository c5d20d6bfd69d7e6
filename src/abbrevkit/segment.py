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
tokenizer, works out each distinct whitespace-ended piece of the text
once (its tokens, kinds and UTF-8 sizes, a dictionary stem fused with
its period into one abbreviation token) and expands those records into
columns (texts, byte starts, byte ends, kinds); it gives each sentence
its byte span and token range from the same verdicts.  The CLI calls it
only for ``--spans``, in both modes.

Dictionaries are read by `dictionary.load_dictionary`; this module
only segments.  All spans are byte offsets into the UTF-8 encoding of
the input; the text lines need none.
"""
from __future__ import annotations

import re
import unicodedata
from itertools import accumulate, chain, compress, islice
from operator import itemgetter
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

# a run of non-space characters and the whitespace after it
_PIECE_RE = re.compile(r"\S+\s*", re.UNICODE)
# one token of a piece: a word, a number (periods between digits stay
# inside) or any other single character
_TOKEN_RE = re.compile(r"[^\W\d_]+|\d+(?:[.,]\d+)+|\d+|\S", re.UNICODE)

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
    `dictionary` fuses with it into one abbreviation token.  The text is
    cut into whitespace-ended pieces, which repeat, and each distinct
    piece is worked out once: its tokens (`_TOKEN_RE`) and kinds, its
    UTF-8 steps (each token's size, then the gap after it), a stem fused
    with its period (both always sit in one piece), and whether it ends
    in a period.  The columns are expansions of those records:
    starts and ends alternate in one running sum of the steps, from the
    size of the leading whitespace.  A sentence ends at each period
    `_period_verdicts` says ends one: the k-th candidate period ends the
    k-th piece that ends in a period, and the running token count there
    is where the next sentence's tokens begin.  A sentence's span runs from
    its first token's start to its last token's end, so whitespace around
    a sentence is outside it; with the empty dictionary the sentences are
    the baseline's.
    """
    verdicts = _period_verdicts(text, dictionary, override)[1]  # first: its reversed text is freed before the columns
    pieces = _PIECE_RE.findall(text)
    records = {}  # per distinct piece: its tokens, their kinds, its steps, whether it ends in a period
    for piece in dict.fromkeys(pieces):
        body = piece.rstrip()
        tokens, token_kinds = [], []
        for token in _TOKEN_RE.findall(body):
            if token == "." and token_kinds and token_kinds[-1] == KIND_WORD and tokens[-1] in dictionary:
                tokens[-1] += "."
                token_kinds[-1] = KIND_ABBREV
                continue
            lead = token[0]
            tokens.append(token)
            token_kinds.append(
                KIND_NUMBER if lead.isdigit() else KIND_WORD if lead.isalpha()
                else KIND_PUNCT if unicodedata.category(lead).startswith("P") else KIND_OTHER
            )
        steps = [0] * (2 * len(tokens))
        steps[::2] = map(len, map(str.encode, tokens))
        steps[-1] = len(piece.encode()) - len(body.encode())
        records[piece] = (tuple(tokens), tuple(token_kinds), tuple(steps), body[-1] == ".")
    rows = list(map(records.__getitem__, pieces))
    del pieces, records  # a string per piece, freed before the columns are built, which lowers the peak
    texts = list(chain.from_iterable(map(itemgetter(0), rows)))
    kinds = list(chain.from_iterable(map(itemgetter(1), rows)))
    lead = len(text[:len(text) - len(text.lstrip())].encode())
    bounds = list(accumulate(chain.from_iterable(map(itemgetter(2), rows)), initial=lead))
    starts, ends = bounds[0:-1:2], bounds[1::2]
    del bounds
    # the token count through each piece that ends in a period, kept where the period ends a
    # sentence: every piece but the last ends in whitespace, so the k-th such piece holds the k-th
    # candidate period, and the verdicts run out before a last piece that ends in a period
    cuts = compress(accumulate(map(len, map(itemgetter(0), rows))), map(itemgetter(3), rows))

    sentences = []
    first = 0
    for last in compress(cuts, verdicts):
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
