"""Abbreviation mining from ngram corpora, plus dictionary-driven
sentence segmentation.

The public names below are imported from their modules on first access
(PEP 562), so importing the package loads none of its modules, and a
CLI command compiles and loads only the modules it runs.
"""

__version__ = "0.1.0"

# each public name and the module that defines it
_HOMES = {
    name: module
    for module, names in {
        "dictionary": ("AbbrevDictionary", "AbbrevEntry", "BuildOptions", "DecisionRecord", "build_dictionary",
                       "decide_lrt", "load_dictionary"),
        "ingest": ("Aggregator", "IngestConfig", "NgramRecord", "WordProfile", "parse_line"),
        "likelihood": ("HypothesisParams", "alpha_error", "beta_error", "binomial_pmf", "likelihood_ratio",
                       "min_usage_for_error", "solve_threshold"),
        "synth": ("SynthSpec", "generate_ngrams", "generate_text"),
    }.items()
    for name in names
}

__all__ = ["__version__", *sorted(_HOMES)]


def __getattr__(name: str):
    """A public name, from its module; any other name is no attribute, so
    ``from abbrevkit import synth`` still imports the submodule."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_HOMES[name]}", __package__), name)
    globals()[name] = value
    return value
