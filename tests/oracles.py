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
test that the compiled letter class replaced.
"""
from __future__ import annotations

import json
import math
import re
import unicodedata
from fractions import Fraction
from typing import Iterable

from abbrevkit.segment import (
    EMPTY_DICTIONARY,
    KIND_ABBREV,
    KIND_NUMBER,
    KIND_OTHER,
    KIND_PUNCT,
    KIND_WORD,
    LoadedDictionary,
    SentenceSpan,
    Token,
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
    """The candidate filter of `Aggregator.add_record` (`str.isalpha`, then
    the compiled letter class) as a loop over characters and ranges."""
    if not word:
        return False
    for ch in word:
        if not ch.isalpha():
            return False
        cp = ord(ch)
        if not any(lo <= cp <= hi for lo, hi in letter_ranges):
            return False
    return True


# -- segmentation: the token walk and the character scan the segmenter
# replaced, kept as written so the period rule is checked against them.

_TOKEN_RE = re.compile(r"\d+(?:[.,]\d+)+|\d+|[^\W\d_]+|\s+|.", re.UNICODE)


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


def spans_json_reference(sentences: Iterable[SentenceSpan], tokens: Iterable[Token]) -> str:
    doc = {
        "sentences": [
            {"start": s.start, "end": s.end, "token_start": s.token_start, "token_end": s.token_end}
            for s in sentences
        ],
        "tokens": [
            {"text": t.text, "start": t.start, "end": t.end, "kind": t.kind}
            for t in tokens
        ],
    }
    return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
