"""The benchmark's own tests, at toy scale (seconds per workload).

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import noise  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((HERE / "metric_map.json").read_text())["per_layer"]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_lists_the_workloads_and_layer_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(LAYER_MAP)
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for name, entry in LAYER_MAP.items():
        assert set(entry["moves"]) <= end_to_end, name
        assert set(entry["workloads"]) <= set(workloads.NAMES), name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_toy_run_emits_every_metric_and_passes_every_check(workload, trace):
    result = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--scale", "toy")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 6, doc
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(doc["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = doc["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, metric["name"]


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = _run("--workload", "corpus-noisy-jobs2", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert result.returncode != 0
    assert result.stdout == ""


def _ingest_counters(paths: list[Path]):
    from abbrevkit import ingest

    agg = ingest.ingest_paths(paths, [], ingest.IngestConfig())
    return agg.counters, len(agg.to_state()["words"])


def test_noise_is_discarded_exactly_as_counted(tmp_path):
    from abbrevkit import synth

    spec = synth.make_spec(4, 20, seed=5)
    clean = [tmp_path / "1g.tsv", tmp_path / "2g.tsv"]
    synth.generate_ngrams(spec, *clean)
    _, clean_words = _ingest_counters(clean)
    mix = noise.write_noisy_shards(clean, tmp_path, 3, 0.5, seed=5)
    counters, words = _ingest_counters([tmp_path / name for name in mix["shards"]])
    assert counters.lines_skipped == mix["class_counts"]["malformed"] > 0
    assert counters.lines_parsed == mix["lines"] - mix["class_counts"]["malformed"]
    assert words == clean_words
    assert abs(sum(mix["class_shares"].values()) - 0.5) < 0.01


def test_checks_reject_wrong_outputs(tmp_path):
    work = tmp_path / "work"
    workload = workloads.generate("lrt-segment", 4, "toy", work)
    env_src = str(ROOT / "src")
    for command in workload.commands:
        subprocess.run([sys.executable, "-m", "abbrevkit.cli", *command.argv], cwd=work, check=True,
                       env={"PYTHONPATH": env_src, "PATH": ""}, capture_output=True, timeout=60)
        assert workloads.check(workload, command, work) is None, command.name
    by_name = {command.name: command for command in workload.commands}

    words = (work / "dict.txt").read_text(encoding="utf-8").splitlines()
    (work / "dict.txt").write_text("\n".join(words[1:]) + "\n", encoding="utf-8")
    assert workloads.check(workload, by_name["build"], work)

    spans = json.loads((work / "seg_spans.json").read_text(encoding="utf-8"))
    spans["sentences"][0]["end"] += 1
    (work / "seg_spans.json").write_text(json.dumps(spans), encoding="utf-8")
    assert workloads.check(workload, by_name["segment_spans"], work)

    lines = (work / "seg.txt").read_text(encoding="utf-8").splitlines()
    (work / "seg.txt").write_text(" ".join(lines[:2]) + "\n" + "\n".join(lines[2:]) + "\n", encoding="utf-8")
    assert workloads.check(workload, by_name["segment"], work)


def test_reference_digests_are_keyed_by_input_bytes(tmp_path):
    first = workloads.generate("lrt-segment", 4, "toy", tmp_path / "a")
    again = workloads.generate("lrt-segment", 4, "toy", tmp_path / "b")
    other = workloads.generate("lrt-segment", 5, "toy", tmp_path / "c")
    assert first.inputs_sha256 == again.inputs_sha256 != other.inputs_sha256


def test_a_failed_run_sets_no_reference_digests(tmp_path, monkeypatch, capsys):
    import run

    monkeypatch.setattr(run, "WORK_ROOT", tmp_path)
    monkeypatch.setattr(workloads, "check", lambda *args: "forced failure")
    assert run.main(["--workload", "lrt-segment", "--seed", "3", "--seconds", "1", "--scale", "toy"]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not doc["correct"] and doc["failed"] > 0
    assert not (tmp_path / "digests").exists()
