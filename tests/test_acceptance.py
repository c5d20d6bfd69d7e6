"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the measured runtimes/throughput.
"""
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from abbrevkit.cli import main as cli_main
from abbrevkit.dictionary import BuildOptions, build_dictionary
from abbrevkit.ingest import Aggregator, IngestConfig, WordProfile, YearlyUsage, ingest_paths
from abbrevkit.likelihood import (
    HypothesisParams,
    alpha_error,
    beta_error,
    binomial_pmf,
    likelihood_ratio,
    log_likelihood_ratio,
    min_usage_for_error,
    solve_threshold,
)
from abbrevkit.dictionary import LoadedDictionary
from abbrevkit.segment import token_columns
from abbrevkit.synth import SynthSpec, generate_ngrams, generate_text, make_spec, make_vocabulary
from abbrevkit import analytics
from helpers import boundary_f1, boundary_offsets, build_profiles
import oracles

REF = HypothesisParams(0.068, 0.955, 1.0)


def _report(number: int, passed: bool, description: str, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number:2d} {status}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)


def test_criterion_01_binomial_normalization():
    started = time.perf_counter()
    worst = 0.0
    for total in (0, 1, 2, 10, 40, 200, 1000):
        for p in (0.001, 0.068, 0.5, 0.955, 0.999):
            mass = math.fsum(binomial_pmf(total, n, p) for n in range(total + 1))
            worst = max(worst, abs(mass - 1.0))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(1, ok, "binomial pmf sums to 1 over the support",
            f"worst |sum-1|={worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_likelihood_ratio_consistency():
    started = time.perf_counter()
    rng = random.Random(2)
    worst = 0.0
    for _ in range(500):
        total = rng.randint(1, 200)
        n = rng.randint(0, total)
        ratio = binomial_pmf(total, n, REF.p1) / binomial_pmf(total, n, REF.p0)
        value = likelihood_ratio(n, total, REF)
        worst = max(worst, abs(value - ratio) / ratio)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(2, ok, "likelihood ratio equals the pmf ratio on a 500-point grid",
            f"worst rel err={worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_03_threshold_correctness():
    started = time.perf_counter()
    rng = random.Random(3)
    worst = 0.0
    ties = 0
    for _ in range(100):
        total = rng.randint(1, 400)
        p0 = rng.uniform(0.01, 0.5)
        p1 = rng.uniform(p0 + 0.05, 0.99)
        c = math.exp(rng.uniform(-30, 30))
        params = HypothesisParams(p0, p1, c)
        eta = solve_threshold(total, params)
        worst = max(worst, abs(likelihood_ratio(eta, total, params) - c) / c)
        log_c = math.log(c)
        for n in range(total + 1):
            log_l = log_likelihood_ratio(n, total, params)
            if abs(log_l - log_c) <= 1e-9 * max(1.0, abs(log_c)):
                ties += 1
                continue
            assert (n > eta) == (log_l > log_c), (n, eta, total, p0, p1, c)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(3, ok, "L(solve_threshold)=C and n>eta matches L(n)>C on 100 random draws",
            f"worst rel err={worst:.3e}, ties skipped={ties}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


# exhaustive-search oracle result for p0=0.068, p1=0.955, alpha*=beta*=0.001,
# computed in exact rational arithmetic (see oracles.min_usage_exact)
PINNED_MIN_USAGE = (7, 4)


def test_criterion_04_reference_operating_point():
    started = time.perf_counter()
    result = min_usage_for_error(REF, 0.001, 0.001)
    n_star, eta_star = result.total, result.eta

    # pinned expectation from the exhaustive-search oracle
    assert oracles.min_usage_exact("0.068", "0.955", "0.001", "0.001") == PINNED_MIN_USAGE
    assert (n_star, eta_star) == PINNED_MIN_USAGE

    # cross-check against exact big-rational tail sums at 1e-10
    exact_alpha = oracles.tail_ge_exact(eta_star, n_star, "0.068")
    exact_beta = oracles.head_lt_exact(eta_star, n_star, "0.955")
    assert oracles.rel_err(result.alpha, exact_alpha) < 1e-10
    assert oracles.rel_err(result.beta, exact_beta) < 1e-10

    # N=40 satisfies the targets (with room), it is just not the minimum
    eta40 = next(
        eta for eta in range(41)
        if alpha_error(eta, 40, REF.p0) <= 0.001 and beta_error(eta, 40, REF.p1) <= 0.001
    )
    assert alpha_error(eta40, 40, REF.p0) <= 0.001
    assert beta_error(eta40, 40, REF.p1) <= 0.001

    elapsed = time.perf_counter() - started
    in_stated_range = 30 <= n_star <= 50
    _report(
        4,
        in_stated_range and elapsed < 5.0,
        "operating point for alpha,beta <= 0.001 at p0=0.068/p1=0.955",
        f"exhaustive minimum N*={n_star} (eta={eta_star}, alpha={result.alpha:.3e}, "
        f"beta={result.beta:.3e}), exact-rational cross-check ok; N=40 satisfies the "
        f"targets (first eta={eta40}) but is not minimal; stated range [30,50] "
        f"{'met' if in_stated_range else 'NOT met'}; {elapsed:.2f}s",
    )
    assert elapsed < 5.0
    # stated expectation: N* in [30, 50].  The exhaustive search over integer
    # thresholds (validated above against exact rational arithmetic) finds the
    # minimum at N*=7, so this assertion documents an unattainable expectation
    # rather than an implementation defect.
    assert 30 <= n_star <= 50, (
        f"exhaustive minimum is N*={n_star}, outside the stated range [30, 50]; "
        f"N=40 does satisfy alpha,beta <= 0.001 (any eta in a wide band works) "
        f"but it is not the smallest such N"
    )


def _bare_profile(n: int, total: int) -> WordProfile:
    return WordProfile(
        word="w", series={}, window=(1990, 2008),
        n_total=n, N_total=total, median_share=None,
        active_years=0, volumes_total=0,
    )


def test_criterion_05_monte_carlo_error_calibration():
    from abbrevkit.dictionary import decide_lrt

    started = time.perf_counter()
    trials = 10**5
    total = 40
    slope = math.log(REF.p1 * (1 - REF.p0) / (REF.p0 * (1 - REF.p1)))
    offset = math.log((1 - REF.p1) / (1 - REF.p0))

    def params_for_eta(target_eta: float) -> HypothesisParams:
        return HypothesisParams(REF.p0, REF.p1, math.exp(target_eta * slope + total * offset))

    operating_points = [
        ("C=1", REF),
        ("eta~9.5", params_for_eta(9.5)),
        ("eta~35.5", params_for_eta(35.5)),
    ]
    rng = np.random.default_rng(55)
    details = []
    for label, params in operating_points:
        eta = solve_threshold(total, params)
        expected_alpha = alpha_error(eta, total, params.p0)
        expected_beta = beta_error(eta, total, params.p1)

        # decide_lrt is a pure function of the pooled counts, so one call per
        # attainable n gives every draw's verdict; a direct per-draw spot
        # check below guards that equivalence
        verdict = np.array([
            decide_lrt(_bare_profile(n, total), params).is_abbreviation
            for n in range(total + 1)
        ])

        draws_h0 = rng.binomial(total, params.p0, size=trials)
        rate_h0 = float(np.mean(verdict[draws_h0]))
        se_alpha = math.sqrt(max(expected_alpha * (1 - expected_alpha), 1e-12) / trials)
        assert abs(rate_h0 - expected_alpha) <= 3 * se_alpha, (label, rate_h0, expected_alpha)

        draws_h1 = rng.binomial(total, params.p1, size=trials)
        rate_h1 = float(np.mean(~verdict[draws_h1]))
        se_beta = math.sqrt(max(expected_beta * (1 - expected_beta), 1e-12) / trials)
        assert abs(rate_h1 - expected_beta) <= 3 * se_beta, (label, rate_h1, expected_beta)

        for n in rng.choice(draws_h0, size=200):
            assert decide_lrt(_bare_profile(int(n), total), params).is_abbreviation == verdict[n]
        for n in rng.choice(draws_h1, size=200):
            assert decide_lrt(_bare_profile(int(n), total), params).is_abbreviation == verdict[n]

        details.append(f"{label}: alpha {rate_h0:.2e}~{expected_alpha:.2e}, beta {rate_h1:.2e}~{expected_beta:.2e}")
    elapsed = time.perf_counter() - started
    ok = elapsed < 30.0
    _report(5, ok, "decide_lrt misclassification rates match alpha/beta within 3 SE",
            "; ".join(details) + f"; {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_06_end_to_end_recovery(tmp_path):
    started = time.perf_counter()
    spec = make_spec(50, 500, seed=606)
    uni, bi = tmp_path / "1g.tsv", tmp_path / "2g.tsv"
    generate_ngrams(spec, uni, bi)
    agg = ingest_paths([uni], [bi], IngestConfig())
    profiles = agg.finalize()
    assert all(p.N_total >= 40 for p in profiles.values())
    truth = set(spec.abbrev_words)

    details = []
    for method in ("median", "lrt"):
        built = build_dictionary(profiles, BuildOptions(method=method))
        got = set(built.words())
        tp = len(got & truth)
        precision = tp / len(got) if got else 0.0
        recall = tp / len(truth)
        assert precision >= 0.99, (method, precision)
        assert recall >= 0.99, (method, recall)
        details.append(f"{method}: P={precision:.3f} R={recall:.3f}")
    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0
    _report(6, ok, "50 planted abbreviations among 500 commons recovered at P,R >= 0.99",
            "; ".join(details) + f"; {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_07_ingestion_equivalence(tmp_path):
    spec = make_spec(1000, 27000, seed=707)
    uni, bi = tmp_path / "1g.tsv", tmp_path / "2g.tsv"
    counts = generate_ngrams(spec, uni, bi)
    total_lines = counts["unigram_lines"] + counts["bigram_lines"]
    assert total_lines >= 10**6, total_lines

    # four shards: each source file split in half
    shards = []
    for source, stem in ((uni, "u"), (bi, "b")):
        lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
        half = len(lines) // 2
        for index, chunk in enumerate((lines[:half], lines[half:])):
            shard = tmp_path / f"shard_{stem}{index}.tsv"
            shard.write_text("".join(chunk), encoding="utf-8")
            shards.append(shard)

    config = IngestConfig()
    started = time.perf_counter()
    sequential = ingest_paths(shards, [], config, jobs=1)
    seq_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    parallel = ingest_paths(shards, [], config, jobs=4)
    par_elapsed = time.perf_counter() - started

    seq_path, par_path = tmp_path / "seq.json", tmp_path / "par.json"
    sequential.save(seq_path)
    parallel.save(par_path)
    identical = seq_path.read_bytes() == par_path.read_bytes()

    # merge oracle: sharded result equals single-pass over the unsplit files
    whole = ingest_paths([uni], [bi], config, jobs=1)
    words_equal = whole.to_state()["words"] == sequential.to_state()["words"]

    throughput = total_lines / seq_elapsed
    _report(7, identical and words_equal,
            "4-way sharded parallel ingest is byte-identical to sequential",
            f"{total_lines} lines; sequential {seq_elapsed:.1f}s "
            f"({throughput:,.0f} lines/s; budget 100,000 lines/s documented, not enforced); "
            f"parallel {par_elapsed:.1f}s")
    assert identical
    assert words_equal


def _entry(word, volumes, n_total, active_years=10, years=None):
    series = {y: YearlyUsage(y, n, total, 0) for y, (n, total) in sorted((years or {}).items())}
    return WordProfile(word=word, series=series, window=(1990, 2008),
                       n_total=n_total, N_total=n_total, median_share=Fraction(1),
                       active_years=active_years, volumes_total=volumes)


def test_criterion_08_analytics_oracles():
    rng = random.Random(808)
    entries = []
    counts = {}
    for index in range(1000):
        word = "ъ" + "".join(chr(ord("а") + int(d)) for d in str(index))
        volumes = rng.randint(1, 40)
        years = {y: (rng.randint(0, 60), 100) for y in range(1990, 2009) if rng.random() < 0.7}
        if not years:
            years = {1995: (3, 10)}
        counts[word] = years
        entries.append(_entry(word, volumes, sum(n for n, _ in years.values()), years=years))
    profiles = build_profiles(counts)

    report = analytics.rare_cumulative(entries, 45)
    for v, count in report.rows:
        assert count == sum(1 for e in entries if e.volumes_total <= v)

    hist = analytics.length_histogram(entries)
    from collections import Counter
    lengths = Counter(len(e.word) for e in entries)
    assert hist.rows == sorted(lengths.items())

    top_k = 13
    dyn = analytics.dynamics(entries, years=(1990, 2008), top_k=top_k)

    def with_period(word, year):
        usage = profiles[word].series.get(year)
        return usage.with_period if usage else 0

    ranking = sorted((e.word for e in entries),
                     key=lambda w: (-sum(with_period(w, y) for y in range(1990, 2009)), w))
    chosen = set(ranking[:top_k])
    for year, total, top, ratio in dyn.rows:
        assert total == sum(with_period(e.word, year) for e in entries)
        assert top == sum(with_period(w, year) for w in chosen)
        assert ratio == (top / total if total else 1.0)

    planted = [_entry("б" * length, 5, 10 ** (9 - length)) for length in range(1, 8)]
    fit = analytics.frequency_by_length(planted).meta["fit"]
    slope_err = abs(fit["slope"] - (-1.0))
    assert slope_err < 1e-9
    assert fit["r_squared"] == 1.0

    _report(8, True, "rare/length/dynamics match brute force exactly; planted log-linear fit recovered",
            f"slope err={slope_err:.1e}, R^2={fit['r_squared']}")


def test_criterion_09_segmenter():
    spec = make_spec(12, 60, seed=909)
    sample = generate_text(spec, 1000)
    loaded = LoadedDictionary(spec.abbrev_words)
    _, sents = token_columns(sample.text, loaded, override=spec.title_like)
    _, base = token_columns(sample.text)
    _, _, f1_dict = boundary_f1(boundary_offsets(sents), sample.boundaries)
    _, _, f1_base = boundary_f1(boundary_offsets(base), sample.boundaries)
    assert f1_dict > f1_base, (f1_dict, f1_base)

    def assert_lossless(text, dictionary):
        source = text.encode("utf-8")
        (texts, starts, ends, _), spans = token_columns(text, dictionary)
        cursor = 0
        for token_text, start, end in zip(texts, starts, ends):
            gap = source[cursor:start]
            assert gap == b"" or gap.decode("utf-8").isspace()
            assert source[start:end].decode("utf-8") == token_text
            cursor = end
        assert cursor == len(source) or source[cursor:].decode("utf-8").isspace()
        return spans

    empty = LoadedDictionary(())
    checked = 0
    for seed in range(100):
        text = generate_text(
            SynthSpec(abbrev_words=spec.abbrev_words, common_words=spec.common_words,
                      seed=seed, title_like=spec.title_like),
            sentence_count=1 + seed % 40,
        ).text
        spans = assert_lossless(text, empty)
        base_spans = oracles.baseline_segment_reference(text)
        assert [(s.start, s.end) for s in spans] == [(s.start, s.end) for s in base_spans]
        checked += 1
    assert_lossless(sample.text, loaded)

    # membership lookup timing on a dictionary-scale stem set (documented)
    stems = make_vocabulary(9000, prefix="ъ")
    big = LoadedDictionary(stems)
    probe = stems[::2] + ["нет" + s for s in stems[::2]]
    started = time.perf_counter()
    hits = 0
    for _ in range(10**6 // len(probe) + 1):
        for stem in probe:
            hits += stem in big
    lookup_elapsed = time.perf_counter() - started
    _report(9, True, "dictionary segmenter beats the baseline; empty dict equals baseline; spans lossless",
            f"F1 dict={f1_dict:.4f} > baseline={f1_base:.4f}; {checked} random texts identical; "
            f"1e6 lookups in {lookup_elapsed:.2f}s")


def test_criterion_10_determinism(tmp_path):
    spec_doc = {
        "abbrev_words": ["др", "гл", "тов", "гор", "ул"],
        "common_words": ["слово", "дом", "год", "мир", "лес", "река", "поле", "союз"],
        "seed": 10,
        "title_like": ["гор"],
        "sentences": 60,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc, ensure_ascii=False), encoding="utf-8")

    synth_outputs = ("1grams.tsv", "2grams.tsv", "text.txt", "gold.json")
    for run in ("s1", "s2"):
        assert cli_main(["synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / run)]) == 0
    synth_ok = all(
        (tmp_path / "s1" / name).read_bytes() == (tmp_path / "s2" / name).read_bytes()
        for name in synth_outputs
    )

    agg = tmp_path / "agg.json"
    assert cli_main([
        "ingest",
        "--unigrams", str(tmp_path / "s1" / "1grams.tsv"),
        "--bigrams", str(tmp_path / "s1" / "2grams.tsv"),
        "--output", str(agg),
    ]) == 0

    build_outputs = []
    for run in ("b1", "b2"):
        out_dir = tmp_path / run
        out_dir.mkdir()
        assert cli_main([
            "build", "--aggregate", str(agg),
            "--out-tsv", str(out_dir / "dict.tsv"),
            "--out-json", str(out_dir / "dict.json"),
            "--out-words", str(out_dir / "dict.txt"),
        ]) == 0
        build_outputs.append({name: (out_dir / name).read_bytes() for name in ("dict.tsv", "dict.json", "dict.txt")})
    build_ok = build_outputs[0] == build_outputs[1]

    (tmp_path / "commons.txt").write_text("слово\nдом\n", encoding="utf-8")
    stats_outputs = []
    for run in ("r1", "r2"):
        assert cli_main([
            "stats", "--aggregate", str(agg), "--dictionary", str(tmp_path / "b1" / "dict.tsv"),
            "--seed-abbrevs", str(tmp_path / "s1" / "abbreviations.txt"),
            "--seed-commons", str(tmp_path / "commons.txt"),
            "--out-dir", str(tmp_path / run),
        ]) == 0
        stats_outputs.append({
            path.name: path.read_bytes() for path in sorted((tmp_path / run).iterdir())
        })
    stats_ok = stats_outputs[0] == stats_outputs[1]

    ok = synth_ok and build_ok and stats_ok
    _report(10, ok, "synth, build and stats reruns are byte-identical",
            f"synth={synth_ok}, build={build_ok}, stats={stats_ok}")
    assert synth_ok and build_ok and stats_ok
