"""abbrevkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus-noisy-jobs2 --seed 1 --seconds 52 --trace 0

Run from the root of a source checkout; the CLI runs from ``src/``
there.  Set-up generates the workload's inputs from the seed, warms the
CLI up and reads the inputs once; it is repeated SETUP_REPEATS times
and ``setup_s`` is the median.  Then whole cycles of the workload's
commands run as long as another cycle fits in ``--seconds``.

``--trace 0`` times the real CLI, one subprocess at a time, and reports
the end-to-end metrics.  ``--trace 1`` also runs each command in this
process, once untraced and once with spans around the public library
calls (tracing.py), and reports the per-layer metrics; the last cycle's
spans go to ``spans.tsv``.  Every output is
checked against the workload's ground truth and its sha256 must not
change between cycles or between runs on the same input bytes.  The
last line of stdout is the JSON result, with the units given in
``BENCHMARK.json``; a record of the run (environment, input sizes and
sha256, noise shares, CLI start-up time, digests, samples) goes to
``.perfbench_work/<workload>/run.json``.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 120
RUN_BUDGET_S = 150  # stop starting cycles after this, to exit within 180 s

def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_cli(argv: list[str], work: Path, env: dict) -> tuple[int, float, float]:
    """Run one CLI command; returns (exit code, wall seconds, peak RSS MB)."""
    with open(work / "stderr.log", "ab") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "abbrevkit.cli", *argv],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=log,
            start_new_session=True,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def setup(name: str, seed: int, scale: str, work: Path, env: dict):
    """Generate inputs, warm the CLI up (imports, bytecode) and prime the
    page cache; returns the workload, the seconds it took and the wall
    seconds of the warm-up call (`abbrevkit --help`: interpreter start
    and imports, the fixed cost of every CLI call)."""
    import workloads

    started = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.generate(name, seed, scale, work)
    code, startup, _ = run_cli(["--help"], work, env)
    if code != 0:
        raise RuntimeError(f"CLI warm-up exited with {code}; see {work / 'stderr.log'}")
    for path in work.iterdir():
        if path.is_file():
            path.read_bytes()
    return workload, time.perf_counter() - started, startup


class Outcome:
    """Attempted/failed operation counts and the first failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


class Digests:
    """Output sha256s: fixed by the first cycle, compared on every later
    cycle and against earlier runs on the same inputs in this checkout.
    Only a run without a failed operation becomes that reference."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.previous = json.loads(path.read_text()) if path.exists() else None
        self.first: dict[str, str] = {}

    def compare(self, found: dict[str, str]) -> str | None:
        for name, digest in found.items():
            expected = self.first.setdefault(name, digest)
            if self.previous is not None and name in self.previous:
                expected = self.previous[name]
            if digest != expected:
                return f"output {name} changed between runs: sha256 {digest[:12]} != {expected[:12]}"
        return None

    def save(self) -> None:
        if self.previous is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(self.first, sort_keys=True, indent=1))


def run_cli_cycle(workload, work: Path, env: dict, outcome: Outcome, digests: Digests, checked: bool):
    """One pass over the workload's commands; returns per-command wall
    seconds and the cycle's peak RSS."""
    import workloads

    walls: dict[str, float] = {}
    peak = 0.0
    for command in workload.commands:
        code, wall, rss = run_cli(command.argv, work, env)
        walls[command.name] = wall
        peak = max(peak, rss)
        if code != 0:
            outcome.record(f"{command.name} exited with {code}; see {work / 'stderr.log'}")
            continue
        reason = digests.compare(workloads.digests(command, work))
        if reason is None and not checked:
            reason = workloads.check(workload, command, work)
        outcome.record(reason)
    return walls, peak


def end_to_end(workload, cycles: list[tuple[dict, float]], setup_times: list[float]) -> dict:
    """Rates are work done over the whole measured period (total work /
    total wall time) and times are means per call.  The machines this
    runs on change speed for seconds at a time; a median of the few
    cycles in a run jumps between those speeds, the totals do not."""
    count = len(cycles)
    total = {name: sum(walls[name] for walls, _ in cycles) for name in cycles[0][0]}
    lines = workload.sizes["lines"] * count
    text_mb = workload.sizes["text_mb"] * count
    return {
        "setup_s": statistics.median(setup_times),
        "ingest_lines_per_s": lines / total["ingest"],
        "build_s": total["build"] / count,
        "corpus_to_dictionary_s": (total["ingest"] + total["build"]) / count,
        "stats_s": total["stats"] / count,
        "segment_mb_per_s": text_mb / total["segment"],
        "baseline_segment_mb_per_s": text_mb / total["baseline_segment"],
        "segment_spans_mb_per_s": text_mb / total["segment_spans"],
        "peak_rss_mb": max(peak for _, peak in cycles),
    }


def per_layer(workload, work: Path, traced: list[dict], cli_walls: list[dict],
              plain_walls: list[dict], traced_walls: list[dict], span_counts: list[Counter]) -> dict:
    import tracing

    metrics: dict[str, float] = {}
    span_names = list(tracing.TARGETS)
    for name in span_names:
        if name.startswith("dictionary.dictionary_to_"):
            continue
        metrics[f"{name}_s"] = statistics.mean([times.get(name, 0.0) for times in traced])
    metrics["dictionary.serialize_s"] = statistics.mean([
        sum(times.get(name, 0.0) for name in span_names if name.startswith("dictionary.dictionary_to_"))
        for times in traced
    ])
    for layer in (*tracing.LAYERS, "cli"):
        metrics[f"{layer}.self_s"] = statistics.mean([
            sum((value for name, value in times.items() if name.split(".", 1)[0] == layer), 0.0)
            for times in traced
        ])
    for command in workload.commands:
        metrics[f"cli.{command.name}_overhead_s"] = statistics.mean([
            cli[command.name] - plain[command.name] for cli, plain in zip(cli_walls, plain_walls)
        ])
    metrics["trace.overhead_s"] = statistics.mean([
        sum(tr.values()) - sum(plain.values()) for tr, plain in zip(traced_walls, plain_walls)
    ])
    metrics["trace.spans"] = statistics.mean([counts.total() for counts in span_counts])

    truth = workload.truth
    state_path = work / "agg.json"
    state = json.loads(state_path.read_text(encoding="utf-8"))
    metrics["ingest.state_bytes"] = state_path.stat().st_size
    metrics["ingest.cells"] = sum(len(years) for years in state["words"].values())
    metrics["ingest.words"] = len(state["words"])
    metrics["ingest.lines_read"] = truth["lines_read"]
    metrics["ingest.lines_parsed"] = state["counters"]["lines_parsed"]
    metrics["ingest.lines_skipped"] = state["counters"]["lines_skipped"]
    metrics["ingest.lines_kept_share"] = truth["lines_kept"] / truth["lines_read"]

    decided = statistics.mean([counts["likelihood.solve_threshold"] for counts in span_counts])
    metrics["likelihood.decided_words"] = decided
    metrics["likelihood.mean_total"] = workload.sizes["mean_total"] if decided else 0.0

    counts = json.loads((work / "dict.json").read_text(encoding="utf-8"))["build_meta"]["counts"]
    for key in ("words_seen", "undecided_low_evidence", "candidates", "entries"):
        metrics[f"dictionary.{key}"] = counts[key]

    spans_doc = json.loads((work / "seg_spans.json").read_text(encoding="utf-8"))
    metrics["segment.tokens"] = len(spans_doc["tokens"])
    metrics["segment.sentences"] = len(spans_doc["sentences"])
    metrics["segment.dict_hits"] = sum(
        1 for token in spans_doc["tokens"] if token["kind"] == "abbreviation-with-period"
    )
    return metrics


def _room_for_another(started: float, seconds: float, done: int, program_started: float) -> bool:
    """Start another cycle only if, at the mean cycle time so far, it ends
    within the measured period (and well within the run budget)."""
    now = time.perf_counter()
    expected_end = now + (now - started) / done
    return expected_end - started <= seconds and expected_end - program_started <= RUN_BUDGET_S


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="input sizes; toy is for the benchmark's own tests")
    args = parser.parse_args(argv)
    program_started = time.perf_counter()

    src = ROOT / "src"
    if not (src / "abbrevkit" / "cli.py").is_file():
        return _fail(f"no abbrevkit sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import abbrevkit
    import workloads

    if Path(abbrevkit.__file__).resolve().parent != (src / "abbrevkit").resolve():
        return _fail(f"imported abbrevkit from {abbrevkit.__file__}, not from {src}")
    if args.workload not in workloads.NAMES:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    logging.getLogger("abbrevkit").setLevel(logging.WARNING)

    env = {**os.environ, "PYTHONPATH": str(src)}
    work = WORK_ROOT / args.workload
    setup_times = []
    startup_times = []
    for _ in range(SETUP_REPEATS):
        workload, seconds, startup = setup(args.workload, args.seed, args.scale, work, env)
        setup_times.append(seconds)
        startup_times.append(startup)

    outcome = Outcome()
    digests = Digests(WORK_ROOT / "digests" / f"{args.workload}-{workload.inputs_sha256}.json")
    cycles: list[tuple[dict, float]] = []
    traced_times: list[dict] = []
    plain_walls: list[dict] = []
    traced_walls: list[dict] = []
    span_counts: list[Counter] = []
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    started = time.perf_counter()
    while not cycles or _room_for_another(started, args.seconds, len(cycles), program_started):
        cycles.append(run_cli_cycle(workload, work, env, outcome, digests, checked=len(cycles) > 0))
        if tracer is None:
            continue
        tracer.clear()
        try:
            plain_walls.append(tracing.run_in_process(workload.commands, work))
            tracer.install()
            try:
                traced_walls.append(tracing.run_in_process(workload.commands, work, tracer))
            finally:
                tracer.remove()
        except Exception as exc:  # a failing library call is a failed operation, not a crash
            outcome.record(f"in-process run failed: {exc!r}")
            break
        traced_times.append(tracer.self_times())
        span_counts.append(Counter(span[0] for span in tracer.spans))
        for command in workload.commands:
            outcome.record(digests.compare(workloads.digests(command, work)))
    if outcome.failed == 0:
        digests.save()
    if tracer is not None and not traced_times:
        return _fail("; ".join(outcome.reasons))

    if tracer is None:
        metrics = end_to_end(workload, cycles, setup_times)
    else:
        metrics = per_layer(workload, work, traced_times, [walls for walls, _ in cycles],
                            plain_walls, traced_walls, span_counts)
        tracer.write(work / "spans.tsv")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if tracer else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}

    record = {
        "workload": args.workload,
        "scale": args.scale,
        "trace": args.trace,
        "environment": _environment(args.seed),
        "input_sizes": workload.sizes,
        "noise_class_shares": workload.truth.get("noise_class_shares", {}),
        "setup_s_samples": setup_times,
        "inputs_sha256": workload.inputs_sha256,
        "cli_startup_s": statistics.median(startup_times),
        "cli_startup_share": {
            name: statistics.median(startup_times) / statistics.mean([walls[name] for walls, _ in cycles])
            for name in cycles[0][0]
        },
        "cycle_walls": [walls for walls, _ in cycles],
        "digests": digests.first,
        "failures": outcome.reasons,
        "missing_spans": tracer.missing if tracer else [],
        "metrics": metrics,
    }
    if tracer is not None:
        layers = {layer: metrics[f"{layer}.self_s"] for layer in tracing.LAYERS}
        record["dominant_layer"] = max(layers, key=layers.get)
    (work / "run.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print("record " + json.dumps({k: v for k, v in record.items() if k not in ("metrics", "digests")},
                                 sort_keys=True))
    for name in sorted(metrics):
        print(f"{args.workload}\t{name}\t{metrics[name]:.6g}\t{units.get(name, '')}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
