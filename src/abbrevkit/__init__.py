"""Abbreviation mining from ngram corpora, plus dictionary-driven
sentence segmentation."""

__version__ = "0.1.0"

from .dictionary import (
    AbbrevDictionary,
    AbbrevEntry,
    BuildOptions,
    DecisionRecord,
    build_dictionary,
    decide_lrt,
    decide_median,
)
from .ingest import Aggregator, IngestConfig, NgramRecord, WordProfile, parse_line
from .likelihood import (
    HypothesisParams,
    alpha_error,
    beta_error,
    binomial_pmf,
    likelihood_ratio,
    min_usage_for_error,
    solve_threshold,
)
from .segment import baseline_segment, dict_segment, load_dictionary, sentence_spans
from .synth import SynthSpec, generate_ngrams, generate_text

__all__ = [
    "__version__",
    "AbbrevDictionary",
    "AbbrevEntry",
    "Aggregator",
    "BuildOptions",
    "DecisionRecord",
    "HypothesisParams",
    "IngestConfig",
    "NgramRecord",
    "SynthSpec",
    "WordProfile",
    "alpha_error",
    "baseline_segment",
    "beta_error",
    "binomial_pmf",
    "build_dictionary",
    "decide_lrt",
    "decide_median",
    "dict_segment",
    "generate_ngrams",
    "generate_text",
    "likelihood_ratio",
    "load_dictionary",
    "min_usage_for_error",
    "parse_line",
    "sentence_spans",
    "solve_threshold",
]
