"""Sentence segmentation driven by an abbreviation dictionary.

The hard call at every period is whether it ends a sentence or belongs
to an abbreviation.  The naive period-space-capital pattern answers
"sentence end" whenever a period is followed by whitespace and an
uppercase letter; it is kept here, implemented independently, as the
measurable baseline.  The dictionary-aware segmenter attaches the
period to a preceding word whose stem is a dictionary hit and then
rules the position a boundary only where the baseline pattern fires and
the stem is not a known title-like prefix (an optional override list).
With an empty dictionary both produce identical boundaries.

All spans are byte offsets into the UTF-8 encoding of the input.
"""
from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

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
    "tokenize",
    "baseline_segment",
    "dict_segment",
    "load_dictionary",
    "sentence_texts",
    "boundary_offsets",
    "boundary_f1",
]

KIND_WORD = "word"
KIND_ABBREV = "abbreviation-with-period"
KIND_PUNCT = "punctuation"
KIND_NUMBER = "number"
KIND_OTHER = "other"


class DictionaryLoadError(ValueError):
    def __init__(self, reason: str, line_number: int = 0):
        super().__init__(f"line {line_number}: {reason}" if line_number else reason)
        self.reason = reason
        self.line_number = line_number


@dataclass(frozen=True)
class Token:
    text: str
    start: int  # byte offset, inclusive
    end: int    # byte offset, exclusive
    kind: str


@dataclass(frozen=True)
class SentenceSpan:
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

# number (periods between digits stay inside), word, whitespace run,
# then any single leftover character
_TOKEN_RE = re.compile(r"\d+(?:[.,]\d+)+|\d+|[^\W\d_]+|\s+|.", re.UNICODE)


def _byte_offsets(text: str) -> list[int]:
    """UTF-8 byte offset of every char index of text, plus its end."""
    byte_at = [0] * (len(text) + 1)
    pos = 0
    for index, ch in enumerate(text):
        pos += len(ch.encode("utf-8"))
        byte_at[index + 1] = pos
    return byte_at


def tokenize(text: str) -> list[Token]:
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


def dict_segment(
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
    raw = tokenize(text)

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


def baseline_segment(text: str) -> list[SentenceSpan]:
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


def load_dictionary(path: str | Path, case_fold: bool | None = None) -> LoadedDictionary:
    """Load stems from any dictionary output format: the JSON document,
    the TSV table (first column), or a plain word list; format is
    detected from content.  Malformed files raise DictionaryLoadError
    with the offending line number."""
    path = Path(path)
    try:
        content = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DictionaryLoadError(f"cannot read {path}: {exc}") from exc
    stripped = content.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(content)
        except json.JSONDecodeError as exc:
            raise DictionaryLoadError(f"invalid JSON dictionary: {exc}", exc.lineno) from exc
        if doc.get("format") != "abbrevkit-dictionary":
            raise DictionaryLoadError(f"not a dictionary document: format={doc.get('format')!r}")
        entries, meta = doc.get("entries", []), doc.get("build_meta", {})
        if not isinstance(entries, list) or not isinstance(meta, dict):
            raise DictionaryLoadError("dictionary 'entries' must be a list and 'build_meta' an object")
        words = [entry.get("word") if isinstance(entry, dict) else None for entry in entries]
        for index, word in enumerate(words):
            if not isinstance(word, str) or not word:
                raise DictionaryLoadError(f"entry {index} needs a non-empty string 'word', got {word!r}")
        fold = meta.get("case_fold", False) if case_fold is None else case_fold
        return LoadedDictionary(words, case_fold=fold)
    words = []
    for line_number, line in enumerate(content.splitlines(), 1):
        line = line.rstrip("\r")
        if not line or line.startswith("#"):
            continue
        if "\t" in line:
            fields = line.split("\t")
            if len(fields) != 8:
                raise DictionaryLoadError(
                    f"expected 8 TSV columns, got {len(fields)}", line_number
                )
            word = fields[0]
        else:
            word = line.strip()
        if not word:
            raise DictionaryLoadError("empty word", line_number)
        if any(ch.isspace() for ch in word):
            raise DictionaryLoadError(f"word contains whitespace: {word!r}", line_number)
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


def boundary_offsets(sentences: Sequence[SentenceSpan]) -> list[int]:
    return [span.end for span in sentences]


def boundary_f1(predicted: Iterable[int], gold: Iterable[int]) -> tuple[float, float, float]:
    """Precision, recall and F1 of predicted boundary offsets."""
    pred = set(predicted)
    ref = set(gold)
    if not pred and not ref:
        return 1.0, 1.0, 1.0
    hits = len(pred & ref)
    precision = hits / len(pred) if pred else 0.0
    recall = hits / len(ref) if ref else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return precision, recall, f1
