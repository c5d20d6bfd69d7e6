"""Noise generator for the ``corpus-noisy-jobs2`` workload.

It mixes a clean synthetic corpus with lines that ingest must discard,
shuffles the result and cuts it into shard files.  Every noise line
belongs to exactly one class, so the expected ingest counters and the
share of each class are known exactly:

- ``non_period_bigram``: ``word ,`` style bigrams (parsed, not a period);
- ``tagged_token``: part-of-speech tagged tokens such as ``word_NOUN``
  (parsed, fails the letter-class filter);
- ``numeric_token``: numerals and letter-digit mixes (parsed, fails the
  letter-class filter);
- ``out_of_window_year``: well-formed lines of real words dated outside
  the 1990:2008 analysis window (parsed, ignored);
- ``malformed``: lines that violate the record format (skipped).

Only the clean lines change the aggregate.
"""
from __future__ import annotations

import random
from pathlib import Path

NOISE_CLASSES = (
    "non_period_bigram",
    "tagged_token",
    "numeric_token",
    "out_of_window_year",
    "malformed",
)

# One malformed line per this many noise lines: a small, known number.
MALFORMED_EVERY = 200

_PUNCT = (",", ";", ":", "!", "?")
_TAGS = ("_NOUN", "_VERB", "_ADJ", "_ADV")
_OUT_OF_WINDOW = tuple(range(1800, 1990)) + tuple(range(2009, 2020))


def _counts(rng: random.Random) -> tuple[int, int]:
    match = rng.randint(1, 500)
    return match, max(1, match // 10)


def _non_period_bigram(rng: random.Random, words: list[str]) -> str:
    match, volumes = _counts(rng)
    return f"{rng.choice(words)} {rng.choice(_PUNCT)}\t{rng.randint(1990, 2008)}\t{match}\t{volumes}\n"


def _tagged_token(rng: random.Random, words: list[str]) -> str:
    match, volumes = _counts(rng)
    token = rng.choice(words) + rng.choice(_TAGS)
    ngram = token if rng.random() < 0.5 else token + " ."
    return f"{ngram}\t{rng.randint(1990, 2008)}\t{match}\t{volumes}\n"


def _numeric_token(rng: random.Random, words: list[str]) -> str:
    match, volumes = _counts(rng)
    roll = rng.random()
    if roll < 0.4:
        ngram = str(rng.randint(0, 99999))
    elif roll < 0.7:
        ngram = f"{rng.randint(0, 999)} ."
    else:
        ngram = f"{rng.choice(words)}{rng.randint(0, 99)}"
    return f"{ngram}\t{rng.randint(1990, 2008)}\t{match}\t{volumes}\n"


def _out_of_window_year(rng: random.Random, words: list[str]) -> str:
    match, volumes = _counts(rng)
    word = rng.choice(words)
    ngram = word if rng.random() < 0.5 else word + " ."
    return f"{ngram}\t{rng.choice(_OUT_OF_WINDOW)}\t{match}\t{volumes}\n"


def _malformed(rng: random.Random, words: list[str], index: int) -> str:
    word = rng.choice(words)
    kind = index % 5
    if kind == 0:
        return f"{word}\t1995\t12\n"                 # three fields
    if kind == 1:
        return f"{word}\t1995\tmany\t1\n"            # non-integer count
    if kind == 2:
        return f"{word}\t1995\t3\t9\n"               # volumes exceed matches
    if kind == 3:
        return f"{word} {word} .\t1995\t3\t1\n"      # three tokens
    return f"{word}\t2500\t3\t1\n"                   # year beyond the ceiling


_GENERATORS = {
    "non_period_bigram": _non_period_bigram,
    "tagged_token": _tagged_token,
    "numeric_token": _numeric_token,
    "out_of_window_year": _out_of_window_year,
}


def write_noisy_shards(
    clean_paths: list[Path],
    out_dir: Path,
    shards: int,
    noise_share: float,
    seed: int,
) -> dict:
    """Mix noise into the clean corpus files and write `shards` shard files.

    `noise_share` is the share of all output lines that are noise.
    Returns the shard names (relative to `out_dir`) and the exact count
    and share of every line class.
    """
    rng = random.Random(f"noise:{seed}")
    clean: list[str] = []
    for path in clean_paths:
        with open(path, encoding="utf-8") as handle:
            clean.extend(handle)
    words = sorted({line.split("\t", 1)[0].split(" ", 1)[0] for line in clean})

    noise_total = round(len(clean) * noise_share / (1.0 - noise_share))
    counts = dict.fromkeys(NOISE_CLASSES, 0)
    counts["malformed"] = max(1, noise_total // MALFORMED_EVERY)
    regular = noise_total - counts["malformed"]
    for index, name in enumerate(_GENERATORS):
        counts[name] = regular // len(_GENERATORS) + (1 if index < regular % len(_GENERATORS) else 0)

    lines = list(clean)
    for name, make in _GENERATORS.items():
        lines.extend(make(rng, words) for _ in range(counts[name]))
    lines.extend(_malformed(rng, words, index) for index in range(counts["malformed"]))
    rng.shuffle(lines)

    names = []
    step = -(-len(lines) // shards)
    for index in range(shards):
        name = f"shard-{index}.tsv"
        with open(out_dir / name, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(lines[index * step:(index + 1) * step])
        names.append(name)

    total = len(lines)
    return {
        "shards": names,
        "lines": total,
        "clean_lines": len(clean),
        "class_counts": counts,
        "class_shares": {name: count / total for name, count in counts.items()},
    }
