"""Shared fixture builders, text strategies and boundary scoring for the
test suite."""
from __future__ import annotations

from typing import Iterable, Sequence

from hypothesis import strategies as st

from abbrevkit.ingest import Aggregator, IngestConfig, NgramRecord, WordProfile
from abbrevkit.segment import SentenceSpan

import oracles

# wide alphabet for the oracle comparisons: both cases of Cyrillic and
# Latin, a titlecase letter (not uppercase), digits that are not decimal
# (superscript two, one half), underscore, a combining accent, no-break
# space, line separator, tabs and newlines, and numbers with . and ,
WIDE_ATOMS = list("абвгАБВГabcABC\u01c5\u00b2\u00bd_\u0301\u00a0\u2028 \t\n.,!") + [
    "гл", "Гл", "ГЛ", "ab", "Ab", "\u00b2гл", "\u00bdab", "_гл", "3гл", "x\u00b2y", "е\u0301ж",
    "3", "3.14", "1,5", "..", ". ", ".\n", ". Да", ". да", ". \u01c5", ".\u00a0Z", ".\u2028Ж",
]


def texts_of(atoms: list[str]) -> st.SearchStrategy[str]:
    """Texts of up to 40 atoms, half of them ending in a period."""
    return st.builds(
        lambda parts, final: "".join(parts) + ("." if final else ""),
        st.lists(st.sampled_from(atoms), max_size=40),
        st.booleans(),
    )


wide_texts = texts_of(WIDE_ATOMS)


def aggregate(records: Iterable[NgramRecord], config: IngestConfig | None = None) -> dict[str, WordProfile]:
    """One-shot aggregation of already-parsed records into profiles."""
    agg = Aggregator(config)
    for record in records:
        oracles.add_record_reference(agg, record)
    return agg.finalize()


def build_profiles(
    counts: dict[str, dict[int, tuple]],
    config: IngestConfig | None = None,
    window: tuple[int, int] | None = None,
) -> dict[str, WordProfile]:
    """Aggregate synthetic counts through the reference record fold,
    which the equivalence tests tie to `Aggregator.consume_lines`.

    counts maps word -> year -> (with_period, total) or
    (with_period, total, volumes_with_period).
    """
    agg = Aggregator(config or IngestConfig())
    fold = oracles.add_record_reference
    for word, years in counts.items():
        for year, cell in years.items():
            with_period, total = cell[0], cell[1]
            volumes = cell[2] if len(cell) > 2 else max(1, with_period)
            if total > 0:
                fold(agg, NgramRecord((word,), year, total, max(1, min(total, total // 10 + 1))))
            if with_period > 0:
                fold(agg, NgramRecord((word, "."), year, with_period, max(1, min(with_period, volumes))))
    return agg.finalize(window)


def profile_of(
    word: str,
    years: dict[int, tuple],
    config: IngestConfig | None = None,
    window: tuple[int, int] | None = None,
) -> WordProfile:
    return build_profiles({word: years}, config, window)[word]


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
