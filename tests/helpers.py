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
# space, line separator, unit separator, ideographic space, tabs and
# newlines, and numbers with . and ,
WIDE_ATOMS = list("абвгАБВГabcABC\u01c5\u00b2\u00bd_\u0301\u00a0\u2028\x1f\u3000 \t\n.,!") + [
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

# spellings of a number that `int` reads and the one number rule
# (`ingest.parse_year`, `ingest.parse_count`) refuses: an underscore,
# Arabic-Indic digits, a space, a sign; a leading zero refuses only a year
BAD_COUNT_SPELLINGS = ["1_995", "\u0661\u0669\u0669\u0665", " 5", "+1", "1_0"]
BAD_YEAR_SPELLINGS = [*BAD_COUNT_SPELLINGS, "01995"]

# the faults `aggregate_states` puts into a valid state
BAD_COUNTS = [True, False, 1.5, 3.0, -1, "3", None, [1]]
BAD_YEAR_KEYS = ["01995", "+1995", "1995.0", " 1995", "1995 ", "-1995", "-0", "1_995", "\u0661\u0669\u0669\u0665",
                 "x", "", "1989", "2009"]
BAD_CELLS = [[1, 2], [1, 2, 3, 4], [[1, 2, 3]], [[1], 2, 3], [], (1, 2, 3), {"1": 2}, "123", 5, None]
BAD_YEAR_MAPS = [[], [[1995, 1, 2, 3]], 5, "1995", None]
BAD_WORDS = ["#x", "", "a b", "г1", "x\u00b2y", "гл."]


@st.composite
def aggregate_states(draw, max_count: int = 10**6) -> dict:
    """`Aggregator().to_state()` holding a few words, its valid window
    1990..2008 maybe widened to start or end 10**9 years away, with up to
    two faults: a count that is a bool, float, string or negative; a year
    key that is not the ``str`` of a window year; a cell of the wrong
    shape; a word mapped to something other than an object; a word key
    that is not a word; or a counter or config value of the wrong type."""
    cells = st.lists(st.integers(0, max_count), min_size=3, max_size=3)
    year_maps = st.dictionaries(st.integers(1990, 2008).map(str), cells, max_size=4)
    state = Aggregator().to_state()
    if draw(st.booleans()):
        state["config"].update(year_floor=-10**9, year_min=-10**9)
    if draw(st.booleans()):
        state["config"].update(year_max=10**9, year_ceiling=10**9)
    words = state["words"] = draw(st.dictionaries(
        st.sampled_from(["др", "гл", "слово", "ab", "i\u0307stanbul"]), year_maps, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        word = draw(st.sampled_from(sorted(words)))
        years = words[word]
        kind = draw(st.sampled_from(["count", "year-key", "cell", "year-map", "word", "counter", "config"]))
        if kind in ("count", "year-key", "cell"):
            if not (isinstance(years, dict) and years):
                continue
            key = draw(st.sampled_from(sorted(years)))
            if kind == "count" and isinstance(years[key], list) and len(years[key]) == 3:
                years[key][draw(st.integers(0, 2))] = draw(st.sampled_from(BAD_COUNTS))
            elif kind == "year-key":
                years[draw(st.sampled_from(BAD_YEAR_KEYS))] = years.pop(key)
            elif kind == "cell":
                years[key] = draw(st.sampled_from(BAD_CELLS))
        elif kind == "year-map":
            words[word] = draw(st.sampled_from(BAD_YEAR_MAPS))
        elif kind == "word":
            words[draw(st.sampled_from(BAD_WORDS))] = words.pop(word)
        elif kind == "counter":
            state["counters"][draw(st.sampled_from(sorted(state["counters"])))] = draw(st.sampled_from(BAD_COUNTS))
        else:
            key = draw(st.sampled_from(["year_min", "year_max", "year_floor", "year_ceiling", "case_fold"]))
            state["config"][key] = draw(st.sampled_from(BAD_COUNTS))
    return state


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
