"""Sentence segmentation driven by an abbreviation dictionary.

The hard call at every period is whether it ends a sentence or belongs
to an abbreviation.  One rule decides it, looking at periods only: a
period followed by whitespace ends a sentence when the next non-space
character is uppercase, unless the stem before the period (the letter
run ending there) is both in the dictionary and in the override list
of title-like prefixes.  So the dictionary changes a boundary only at
override-listed stems; with an empty dictionary the rule is the naive
period-space-capital pattern, the measurable baseline.

`sentence_spans` applies the rule without tokenizing.  `token_columns`
tokenizes in one pass into columns (texts, byte starts, byte ends,
kinds), fusing a dictionary stem with its period into one abbreviation
token, and gives each sentence its token range; the CLI calls it only
for ``--spans``.  `tokenize` and `dict_segment` are views of that pass
as `Token` and `SentenceSpan` named tuples.

All spans are byte offsets into the UTF-8 encoding of the input.
"""
from __future__ import annotations

import json
import re
import unicodedata
from bisect import bisect_right
from itertools import accumulate, chain, compress
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .ingest import read_input

__all__ = [
    "Token",
    "SentenceSpan",
    "LoadedDictionary",
    "DictionaryLoadError",
    "KIND_WORD",
    "KIND_ABBREV",
    "KIND_PUNCT",
    "KIND_NUMBER",
    "KIND_OTHER",
    "token_columns",
    "sentence_spans",
    "baseline_segment",
    "load_dictionary",
    "sentence_texts",
]

KIND_WORD = "word"
KIND_ABBREV = "abbreviation-with-period"
KIND_PUNCT = "punctuation"
KIND_NUMBER = "number"
KIND_OTHER = "other"


class DictionaryLoadError(ValueError):
    """An unreadable or malformed dictionary; the message names the file."""

    def __init__(self, message: str, line_number: int = 0):
        super().__init__(message)
        self.line_number = line_number


class Token(NamedTuple):
    text: str
    start: int  # byte offset, inclusive
    end: int    # byte offset, exclusive
    kind: str


class SentenceSpan(NamedTuple):
    start: int
    end: int
    token_start: int | None = None
    token_end: int | None = None  # exclusive; None when no tokenization ran


class LoadedDictionary:
    """Read-only stem membership with O(len(stem)) lookup."""

    def __init__(self, words: Iterable[str], case_fold: bool = False):
        self.case_fold = case_fold
        self._stems = frozenset(w.lower() for w in words) if case_fold else frozenset(words)

    def __contains__(self, stem: str) -> bool:
        return (stem.lower() if self.case_fold else stem) in self._stems

    def __len__(self) -> int:
        return len(self._stems)


EMPTY_DICTIONARY = LoadedDictionary(())

# word, whitespace run, number (periods between digits stay inside),
# then any single leftover character; no character starts more than one
# of the first four, and words, the most common, are tried first
_TOKEN_RE = re.compile(r"[^\W\d_]+|\s+|\d+(?:[.,]\d+)+|\d+|.", re.UNICODE)

# a candidate period: whitespace and then a non-space character (group 1)
# follow it
_PERIOD_RE = re.compile(r"\.(?=\s+(\S))", re.UNICODE)
# a letter run, the word class of _TOKEN_RE; matched on the reversed
# text it reads the stem that ends at a period
_RUN_RE = re.compile(r"[^\W\d_]*", re.UNICODE)


def token_columns(
    text: str,
    dictionary: LoadedDictionary | None = None,
    override: Iterable[str] = (),
) -> tuple[tuple[list[str], list[int], list[int], list[str]], list[SentenceSpan]]:
    """The tokens of `text` as four columns -- texts, byte starts, byte
    ends (exclusive) and kinds -- and the sentences of `sentence_spans`,
    each with the range of tokens it covers.

    Word, number, punctuation and other tokens; whitespace becomes the
    gaps between spans.  A period directly after a word whose stem is in
    `dictionary` fuses with it into one abbreviation token.  The
    `_TOKEN_RE` matches tile the text, so the byte ends are a running
    sum of their UTF-8 sizes; size and kind are worked out once per
    distinct match, as matches repeat.
    """
    dictionary = dictionary if dictionary is not None else EMPTY_DICTIONARY
    chunks = _TOKEN_RE.findall(text)
    sizes: dict[str, int] = {}
    kind_of: dict[str, str] = {}  # "" for whitespace, which is no token
    abbreviations: dict[str, str] = {}  # dictionary stem -> stem + "."
    for chunk in dict.fromkeys(chunks):
        sizes[chunk] = len(chunk.encode("utf-8"))
        lead = chunk[0]
        if chunk.isspace():
            kind = ""
        elif lead.isdigit():
            kind = KIND_NUMBER
        elif lead.isalpha():
            kind = KIND_WORD
            if chunk in dictionary:
                abbreviations[chunk] = chunk + "."
        elif unicodedata.category(lead).startswith("P"):
            kind = KIND_PUNCT
        else:
            kind = KIND_OTHER
        kind_of[chunk] = kind
    ends = list(accumulate(map(sizes.__getitem__, chunks)))
    kinds = list(map(kind_of.__getitem__, chunks))
    if abbreviations:
        dot = -1  # list.index finds the periods at C speed
        for _ in range(chunks.count(".")):
            dot = chunks.index(".", dot + 1)
            if dot and chunks[dot - 1] in abbreviations:
                # the stem's chunk becomes the abbreviation; the period's is dropped
                chunks[dot - 1] = abbreviations[chunks[dot - 1]]
                kinds[dot - 1] = KIND_ABBREV
                ends[dot - 1] = ends[dot]
                kinds[dot] = ""
    texts = list(compress(chunks, kinds))
    starts = list(compress(chain((0,), ends), kinds))
    ends = list(compress(ends, kinds))
    kinds = list(filter(None, kinds))

    sentences = []
    first = 0
    for span in sentence_spans(text, dictionary, override):
        last = bisect_right(ends, span.end, first)
        sentences.append(SentenceSpan(span.start, span.end, first, last))
        first = last
    return (texts, starts, ends, kinds), sentences


def tokenize(text: str, dictionary: LoadedDictionary | None = None) -> list[Token]:
    """The tokens of `token_columns`, as `Token`s."""
    return list(map(Token, *token_columns(text, dictionary)[0]))


def sentence_spans(
    text: str,
    dictionary: LoadedDictionary | None = None,
    override: Iterable[str] = (),
) -> list[SentenceSpan]:
    """Sentence byte spans by the one boundary rule, without tokens.

    A period followed by whitespace ends a sentence when the next
    non-space character is uppercase, unless its stem (the letter run
    ending at the period, starting with a letter) is both in the
    dictionary and in the override list.  End of text ends the last
    sentence; whitespace around a sentence is outside its span.
    """
    dictionary = dictionary if dictionary is not None else EMPTY_DICTIONARY
    override_set = {w.lower() for w in override} if dictionary.case_fold else set(override)
    backwards = text[::-1] if override_set else ""
    cuts = []  # char index just after each terminal period
    for match in _PERIOD_RE.finditer(text):
        if not match.group(1).isupper():
            continue
        if override_set:
            stem = _RUN_RE.match(backwards, len(text) - match.start()).group()[::-1]
            if (
                stem[:1].isalpha()
                and stem in dictionary
                and (stem.lower() if dictionary.case_fold else stem) in override_set
            ):
                continue
        cuts.append(match.end())
    cuts.append(len(text))

    spans: list[SentenceSpan] = []
    cursor = pos = 0  # char index and byte offset of the piece's start
    for cut in cuts:
        piece = text[cursor:cut]
        size = len(piece.encode("utf-8"))
        body = piece.lstrip()
        if body:
            start = pos + size - len(body.encode("utf-8"))
            spans.append(SentenceSpan(start, start + len(body.rstrip().encode("utf-8"))))
        pos += size
        cursor = cut
    return spans


def dict_segment(
    text: str,
    dictionary: LoadedDictionary | None = None,
    override: Iterable[str] = (),
) -> tuple[list[Token], list[SentenceSpan]]:
    """The tokens and sentences of `token_columns`, the tokens as
    `Token`s."""
    columns, sentences = token_columns(text, dictionary, override)
    return list(map(Token, *columns)), sentences


def baseline_segment(text: str) -> list[SentenceSpan]:
    """The naive period-space-capital pattern: the one boundary rule
    with an empty dictionary, so every period followed by whitespace and
    an uppercase character ends a sentence."""
    return sentence_spans(text, EMPTY_DICTIONARY)


def load_dictionary(path: str | Path, case_fold: bool | None = None) -> LoadedDictionary:
    """Load stems from any dictionary output format: the JSON document,
    the TSV table (first column), or a plain word list; format is
    detected from content.  Unreadable and malformed files raise
    DictionaryLoadError naming `path` and the offending line."""
    try:
        with read_input(path) as handle:
            content = handle.read()
    except ValueError as exc:
        raise DictionaryLoadError(str(exc)) from None

    def error(reason: str, line_number: int = 0) -> DictionaryLoadError:
        where = f"{path} line {line_number}" if line_number else path
        return DictionaryLoadError(f"dictionary {where}: {reason}", line_number)

    if content.lstrip().startswith("{"):
        try:
            doc = json.loads(content)
        except json.JSONDecodeError as exc:
            raise error(f"invalid JSON dictionary: {exc}", exc.lineno) from None
        if doc.get("format") != "abbrevkit-dictionary":
            raise error(f"not a dictionary document: format={doc.get('format')!r}")
        entries, meta = doc.get("entries", []), doc.get("build_meta", {})
        if not isinstance(entries, list) or not isinstance(meta, dict):
            raise error("'entries' must be a list and 'build_meta' an object")
        words = [entry.get("word") if isinstance(entry, dict) else None for entry in entries]
        for index, word in enumerate(words):
            if not isinstance(word, str) or not word or any(ch.isspace() for ch in word):
                raise error(f"entry {index} needs a non-empty string 'word' without whitespace, got {word!r}")
        fold = meta.get("case_fold", False)
        if type(fold) is not bool:
            raise error(f"build_meta case_fold must be true or false, got {fold!r}")
        return LoadedDictionary(words, case_fold=fold if case_fold is None else case_fold)
    words = []
    for line_number, line in enumerate(content.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        if "\t" in line:
            fields = line.split("\t")
            if len(fields) != 8:
                raise error(f"expected 8 TSV columns, got {len(fields)}", line_number)
            word = fields[0]
        else:
            word = line.strip()
        if not word:
            raise error("empty word", line_number)
        if any(ch.isspace() for ch in word):
            raise error(f"word contains whitespace: {word!r}", line_number)
        words.append(word)
    return LoadedDictionary(words, case_fold=bool(case_fold))


def sentence_texts(text: str, sentences: Sequence[SentenceSpan]) -> list[str]:
    """Slice sentence spans out of the text, flattening inner newlines."""
    source = text.encode("utf-8")
    out = []
    for span in sentences:
        piece = source[span.start:span.end].decode("utf-8")
        out.append(" ".join(piece.split()))
    return out
