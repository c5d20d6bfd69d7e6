"""Spans around abbrevkit's public calls, recorded from outside the program.

`Tracer.install` replaces each traced function with a wrapper in every
abbrevkit module that holds a reference to it (and on the class, for
methods), so calls made inside the library are traced too.  A span is
``[name, start_ns, end_ns, parent_index]``; spans stay in memory and
are written out once, by `write`.  `clear` drops them, so a run keeps
only its last traced cycle (a cycle can hold 10^5 spans or more).  A
function a later version no longer has is listed in `missing` and
reports zero time.

`run_in_process` executes a workload's commands in this process through
`abbrevkit.cli.main`.  While it runs, `abbrevkit.ingest` sees a serial
stand-in for `multiprocessing`, so a ``--jobs 2`` ingest splits and
merges its work with the library's own code but runs the worker chunks
one after another here, where their parse spans are recorded (a pool's
child processes would lose them).
"""
from __future__ import annotations

import importlib
import os
import sys
import time
import types
from pathlib import Path

# span name -> (module, attribute path); the span name's prefix is its layer
TARGETS = {
    "ingest.parse_line": ("ingest", "parse_line"),
    "ingest.is_candidate_word": ("ingest", "is_candidate_word"),
    "ingest.consume_path": ("ingest", "Aggregator.consume_path"),
    "ingest.fingerprint_path": ("ingest", "Aggregator.fingerprint_path"),
    "ingest.update": ("ingest", "Aggregator.update"),
    "ingest.finalize": ("ingest", "Aggregator.finalize"),
    "ingest.load": ("ingest", "Aggregator.load"),
    "ingest.save": ("ingest", "Aggregator.save"),
    "likelihood.solve_threshold": ("likelihood", "solve_threshold"),
    "likelihood.alpha_error": ("likelihood", "alpha_error"),
    "likelihood.beta_error": ("likelihood", "beta_error"),
    "dictionary.build_dictionary": ("dictionary", "build_dictionary"),
    "dictionary.decide_median": ("dictionary", "decide_median"),
    "dictionary.decide_lrt": ("dictionary", "decide_lrt"),
    "dictionary.dictionary_to_tsv": ("dictionary", "dictionary_to_tsv"),
    "dictionary.dictionary_to_json": ("dictionary", "dictionary_to_json"),
    "dictionary.dictionary_to_wordlist": ("dictionary", "dictionary_to_wordlist"),
    "analytics.rare_cumulative": ("analytics", "rare_cumulative"),
    "analytics.p_series": ("analytics", "p_series"),
    "analytics.length_histogram": ("analytics", "length_histogram"),
    "analytics.frequency_by_length": ("analytics", "frequency_by_length"),
    "analytics.dynamics": ("analytics", "dynamics"),
    "segment.load_dictionary": ("segment", "load_dictionary"),
    "segment.tokenize": ("segment", "tokenize"),
    "segment.dict_segment": ("segment", "dict_segment"),
    "segment.sentence_texts": ("segment", "sentence_texts"),
    "segment.baseline_segment": ("segment", "baseline_segment"),
}

LAYERS = ("ingest", "likelihood", "dictionary", "analytics", "segment")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around every call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    def install(self) -> None:
        self.missing = []
        for name, (module_name, attr) in TARGETS.items():
            module = importlib.import_module(f"abbrevkit.{module_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(fn_name) if owner is not None else None
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    replacement = classmethod(self.wrap(name, raw.__func__))
                else:
                    replacement = self.wrap(name, raw)
                self._patch(owner, fn_name, replacement)
                continue
            original = getattr(module, fn_name, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "abbrevkit" or mod_name.startswith("abbrevkit."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def clear(self) -> None:
        self.spans.clear()

    def remove(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name: each span's duration minus
        its direct children's (calls are serial, so children never overlap)."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), nested in zip(self.spans, child):
            totals[name] = totals.get(name, 0.0) + (end - start - nested) / 1e9
        return totals

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{index}\t{name}\t{start}\t{end}\t{parent}\n")


class _SerialPool:
    """`multiprocessing.Pool` as `ingest_paths` uses it, run in this process."""

    def __init__(self, processes: int | None = None) -> None:
        pass

    def __enter__(self) -> "_SerialPool":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def imap_unordered(self, fn, iterable):
        return map(fn, iterable)


_SERIAL_MULTIPROCESSING = types.SimpleNamespace(Pool=_SerialPool)


def _run_command(command) -> None:
    from abbrevkit import cli

    if cli.main(command.argv) != 0:
        raise RuntimeError(f"in-process {command.name} failed")


def run_in_process(commands, work: Path, tracer: Tracer | None = None) -> dict[str, float]:
    """Run the commands in this process from `work`; returns the wall
    seconds of each.  With a tracer, each command is a root span
    ``cli.<name>`` and the library calls below it are traced."""
    from abbrevkit import ingest

    walls: dict[str, float] = {}
    here = os.getcwd()
    os.chdir(work)
    pool_module, ingest.multiprocessing = ingest.multiprocessing, _SERIAL_MULTIPROCESSING
    try:
        for command in commands:
            run = tracer.wrap(f"cli.{command.name}", _run_command) if tracer else _run_command
            started = time.perf_counter()
            run(command)
            walls[command.name] = time.perf_counter() - started
    finally:
        ingest.multiprocessing = pool_module
        os.chdir(here)
    return walls
