import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abbrevkit import likelihood
from abbrevkit.dictionary import decide_lrt
from abbrevkit.likelihood import (
    EstimationError,
    HypothesisParams,
    SearchExhaustedError,
    alpha_error,
    beta_error,
    binomial_pmf,
    estimate_share_params,
    likelihood_ratio,
    log_likelihood_ratio,
    min_usage_for_error,
    solve_threshold,
)
from helpers import build_profiles, profile_of
import oracles

REF_PARAMS = HypothesisParams(0.068, 0.955, 1.0)

# frozen expected values, computed with the exact rational oracle
PMF_40_10_P0 = 0.0002166648487624695
ALPHA_9_40_P0 = 0.0012266965269533783
BETA_9_40_P1 = 4.302898104165484e-36
LR_30_40 = 1.831469879168468e+21
ETA_40_C1 = 21.36955868342821
MIN_USAGE_REF = (7, 4)
MIN_USAGE_ALPHA = 0.0006330040042953113
MIN_USAGE_BETA = 0.0001285953027046875


class TestBinomialPmf:
    def test_zero_probability_all_failures(self):
        assert binomial_pmf(5, 0, 0.0) == 1.0
        assert binomial_pmf(5, 3, 0.0) == 0.0

    def test_single_fair_trial(self):
        assert binomial_pmf(1, 1, 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_certain_probability(self):
        assert binomial_pmf(4, 4, 1.0) == 1.0
        assert binomial_pmf(4, 2, 1.0) == 0.0

    def test_frozen_reference_value(self):
        assert binomial_pmf(40, 10, 0.068) == pytest.approx(PMF_40_10_P0, rel=1e-10)

    def test_out_of_range_successes(self):
        with pytest.raises(ValueError):
            binomial_pmf(5, 6, 0.5)
        with pytest.raises(ValueError):
            binomial_pmf(5, -1, 0.5)
        with pytest.raises(ValueError):
            binomial_pmf(5, 2, 1.5)

    @pytest.mark.parametrize("total", [1, 7, 40, 250, 1000])
    @pytest.mark.parametrize("p", ["0.001", "0.068", "0.5", "0.955"])
    def test_matches_exact_rational(self, total, p):
        for n in range(0, total + 1, max(1, total // 7)):
            exact = oracles.pmf_exact(total, n, p)
            value = binomial_pmf(total, n, float(p))
            if exact < Fraction(1, 10**290):
                # below double-precision range: graceful underflow expected
                assert value <= 1e-290
            else:
                assert oracles.rel_err(value, exact) < 1e-10

    @pytest.mark.parametrize("total", [0, 1, 2, 10, 40, 200, 1000, 2000])
    @pytest.mark.parametrize("p", [0.001, 0.068, 0.5, 0.955, 0.999])
    def test_normalization(self, total, p):
        mass = math.fsum(binomial_pmf(total, n, p) for n in range(total + 1))
        assert mass == pytest.approx(1.0, abs=1e-9)


class TestLikelihoodRatio:
    def test_zero_count_collapses_first_factor(self):
        for total in (0, 3, 25):
            expected = ((1 - 0.955) / (1 - 0.068)) ** total
            assert likelihood_ratio(0, total, REF_PARAMS) == pytest.approx(expected, rel=1e-12)

    def test_identical_hypotheses_flat(self):
        params = HypothesisParams(0.3, 0.3, 1.0)
        for total in (0, 5, 40):
            for n in range(0, total + 1, 5 or 1):
                assert likelihood_ratio(n, total, params) == pytest.approx(1.0, rel=1e-12)

    def test_equals_pmf_ratio_frozen(self):
        assert likelihood_ratio(30, 40, REF_PARAMS) == pytest.approx(LR_30_40, rel=1e-9)
        ratio = binomial_pmf(40, 30, 0.955) / binomial_pmf(40, 30, 0.068)
        assert likelihood_ratio(30, 40, REF_PARAMS) == pytest.approx(ratio, rel=1e-9)

    def test_equals_pmf_ratio_grid(self):
        for total in (1, 5, 17, 60, 150):
            for n in range(0, total + 1, max(1, total // 9)):
                ratio = binomial_pmf(total, n, 0.955) / binomial_pmf(total, n, 0.068)
                assert likelihood_ratio(n, total, REF_PARAMS) == pytest.approx(ratio, rel=1e-9)

    def test_strictly_increasing_in_n(self):
        values = [log_likelihood_ratio(n, 60, REF_PARAMS) for n in range(61)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_overflow_saturates(self):
        assert likelihood_ratio(10**6, 10**6, REF_PARAMS) == math.inf


class TestSolveThreshold:
    def test_symmetric_hypotheses_midpoint(self):
        params = HypothesisParams(0.2, 0.8, 1.0)
        for total in (0, 1, 10, 41):
            assert solve_threshold(total, params) == pytest.approx(total / 2, abs=1e-12)

    def test_zero_trials_unit_threshold(self):
        assert solve_threshold(0, HypothesisParams(0.068, 0.955, 1.0)) == 0.0

    def test_root_property_reference_point(self):
        eta = solve_threshold(40, REF_PARAMS)
        assert eta == pytest.approx(ETA_40_C1, rel=1e-12)
        assert likelihood_ratio(eta, 40, REF_PARAMS) == pytest.approx(1.0, rel=1e-9)

    def test_root_property_random_draws(self):
        rng = random.Random(12345)
        for _ in range(100):
            total = rng.randint(1, 400)
            p0 = rng.uniform(0.01, 0.5)
            p1 = rng.uniform(p0 + 0.05, 0.99)
            c = math.exp(rng.uniform(-30, 30))
            params = HypothesisParams(p0, p1, c)
            eta = solve_threshold(total, params)
            assert likelihood_ratio(eta, total, params) == pytest.approx(c, rel=1e-9)

    def test_decision_rule_equivalence(self):
        rng = random.Random(99)
        for _ in range(40):
            total = rng.randint(1, 120)
            p0 = rng.uniform(0.02, 0.4)
            p1 = rng.uniform(p0 + 0.1, 0.98)
            c = math.exp(rng.uniform(-10, 10))
            params = HypothesisParams(p0, p1, c)
            eta = solve_threshold(total, params)
            log_c = math.log(c)
            for n in range(total + 1):
                log_l = log_likelihood_ratio(n, total, params)
                if abs(log_l - log_c) <= 1e-9 * max(1.0, abs(log_c)):
                    continue  # tie at numerical equality
                assert (n > eta) == (log_l > log_c)

    def test_requires_separated_hypotheses(self):
        with pytest.raises(ValueError):
            solve_threshold(10, HypothesisParams(0.3, 0.3, 1.0))

    @pytest.mark.parametrize("p0, p1", [(0.4389616300445631, 0.4389616300445632), (0.1, 0.10000000000000002)])
    def test_rejects_a_slope_rounded_to_zero_or_below(self, p0, p1):
        # p1 > p0, yet the float slope is 0 (eta divides by it) or negative
        # (eta turns negative and every decided word is admitted); the
        # error-target scan would run for minutes, so it must refuse at once
        params = HypothesisParams(p0, p1, 1.0)
        assert likelihood._log_ratio_terms(params)[0] <= 0.0
        with pytest.raises(ValueError, match=f"p0={p0}, p1={p1}"):
            solve_threshold(10, params)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"min usage search .* p0={p0}, p1={p1}"):
            min_usage_for_error(params, 1e-3, 1e-3)
        assert time.perf_counter() - start < 1.0


class TestErrorProbabilities:
    def test_alpha_whole_support(self):
        assert alpha_error(0, 40, 0.068) == 1.0
        assert alpha_error(-3.5, 40, 0.068) == 1.0

    def test_alpha_empty_sum(self):
        assert alpha_error(41, 40, 0.068) == 0.0
        assert alpha_error(40.5, 40, 0.068) == 0.0

    def test_beta_empty_sum(self):
        assert beta_error(0, 40, 0.955) == 0.0
        assert beta_error(-1, 40, 0.955) == 0.0

    def test_beta_whole_support(self):
        assert beta_error(41, 40, 0.955) == 1.0
        assert beta_error(40.5, 40, 0.955) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_tail_values(self):
        assert alpha_error(9, 40, 0.068) == pytest.approx(ALPHA_9_40_P0, rel=1e-10)
        assert beta_error(9, 40, 0.955) == pytest.approx(BETA_9_40_P1, rel=1e-10)

    def test_matches_exact_tails(self):
        for eta in (0.5, 3, 9, 21.37, 33):
            assert oracles.rel_err(alpha_error(eta, 40, 0.068), oracles.tail_ge_exact(eta, 40, "0.068")) < 1e-10
            assert oracles.rel_err(beta_error(eta, 40, 0.955), oracles.head_lt_exact(eta, 40, "0.955")) < 1e-10

    @pytest.mark.parametrize("p", [0.068, 0.5, 0.955])
    @pytest.mark.parametrize("eta", [-1, 0, 0.5, 7, 20.2, 40, 55])
    def test_complementary_partition(self, p, eta):
        total = 40
        assert alpha_error(eta, total, p) + beta_error(eta, total, p) == pytest.approx(1.0, abs=1e-12)

    def test_alpha_monotone_beta_monotone(self):
        alphas = [alpha_error(eta, 40, 0.068) for eta in range(0, 42)]
        betas = [beta_error(eta, 40, 0.955) for eta in range(0, 42)]
        assert all(a >= b for a, b in zip(alphas, alphas[1:]))
        assert all(a <= b for a, b in zip(betas, betas[1:]))

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(2024)
        draws = rng.binomial(40, 0.068, size=10**6)
        empirical = float(np.mean(draws >= 9))
        expected = alpha_error(9, 40, 0.068)
        se = math.sqrt(expected * (1 - expected) / 10**6)
        assert abs(empirical - expected) <= 3 * se



def _full_alpha(eta, total, p):
    """alpha_error as the full sum over its range, edge cases included."""
    lo = max(0, math.ceil(eta))
    if lo > total:
        return 0.0
    return 1.0 if lo == 0 else min(1.0, oracles.fsum_range_reference(total, lo, total, p))


def _full_beta(eta, total, p):
    """beta_error as the full sum over its range, edge cases included."""
    hi = min(total, math.ceil(eta) - 1)
    if hi < 0:
        return 0.0
    return 1.0 if hi >= total else min(1.0, oracles.fsum_range_reference(total, 0, hi, p))


class TestBoundedErrorSums:
    """alpha_error/beta_error stop summing early; the float must not change."""

    # p near 0, 0.5 and near 1, as (p0, p1) pairs so solve_threshold applies
    PAIRS = [(1e-6, 0.5), (0.068, 0.955), (0.5, 1 - 1e-6)]

    def test_bit_identical_to_full_fsum(self):
        rng = random.Random(2026)
        totals = [1, 2, 3, 7, 40, 41, 250, 1000, 20000] + [rng.randint(1, 3000) for _ in range(6)]
        for total in totals:
            for p0, p1 in self.PAIRS:
                etas = [-1, 0, total, total + 0.5, (total + 1) * p0 // 1, (total + 1) * p1 // 1]
                etas += [solve_threshold(total, HypothesisParams(p0, p1, c))
                         for c in (math.exp(-60), 1.0, math.exp(60))]
                for eta in etas:
                    for p in (p0, p1):
                        case = (total, p, eta)
                        assert alpha_error(eta, total, p) == _full_alpha(eta, total, p), case
                        assert beta_error(eta, total, p) == _full_beta(eta, total, p), case

    @pytest.mark.parametrize("c", [math.exp(-60), 1.0, math.exp(60)])
    def test_corpus_scale_decision_is_cheap(self, monkeypatch, c):
        # cost gate as a count of log-pmf evaluations (every pmf term and
        # every remainder bound needs one), not as a wall-clock time
        calls = []
        log_pmf = likelihood.log_binomial_pmf

        def counted(*args):
            calls.append(args)
            return log_pmf(*args)

        monkeypatch.setattr(likelihood, "log_binomial_pmf", counted)
        total = 10**9
        profile = profile_of("слово", {2000: (total // 2, total)})
        decision = decide_lrt(profile, HypothesisParams(0.068, 0.955, c))
        assert profile.N_total == total
        assert decision.alpha == 0.0 and decision.beta == 0.0
        assert 0 < len(calls) <= 300

    @pytest.mark.parametrize("eta", [136, 180])  # p0 mode floor(2001 * 0.068), and 4 sd above it
    def test_alpha_exact_near_mode(self, eta):
        exact = oracles.tail_ge_exact(eta, 2000, "0.068")
        assert oracles.rel_err(alpha_error(eta, 2000, 0.068), exact) < 1e-10

    @pytest.mark.parametrize("eta", [1910, 1873])  # p1 mode floor(2001 * 0.955), and 4 sd below it
    def test_beta_exact_near_mode(self, eta):
        exact = oracles.head_lt_exact(eta, 2000, "0.955")
        assert oracles.rel_err(beta_error(eta, 2000, 0.955), exact) < 1e-10


class TestMinUsage:
    def test_loose_targets_single_trial(self):
        result = min_usage_for_error(HypothesisParams(0.1, 0.9, 1.0), 0.5, 0.5)
        assert (result.total, result.eta) == (1, 1)
        assert result.alpha == pytest.approx(0.1, rel=1e-10)
        assert result.beta == pytest.approx(0.1, rel=1e-10)

    def test_reference_operating_point_frozen(self):
        result = min_usage_for_error(REF_PARAMS, 0.001, 0.001)
        assert (result.total, result.eta) == MIN_USAGE_REF
        assert result.alpha == pytest.approx(MIN_USAGE_ALPHA, rel=1e-10)
        assert result.beta == pytest.approx(MIN_USAGE_BETA, rel=1e-10)

    def test_matches_exact_search(self):
        assert oracles.min_usage_exact("0.068", "0.955", "0.001", "0.001") == MIN_USAGE_REF
        assert oracles.min_usage_exact("0.1", "0.9", "0.5", "0.5") == (1, 1)

    @pytest.mark.parametrize("p0, p1", [(0.068, 0.955), (0.1, 0.9), (0.01, 0.5), (0.3, 0.7), (0.45, 0.55)])
    @pytest.mark.parametrize("alpha_target, beta_target", [
        (0.5, 0.5), (0.1, 0.01), (1e-3, 1e-3), (1e-2, 1e-6), (1e-6, 1e-2), (0.05, 0.2),
    ])
    def test_matches_full_scan(self, p0, p1, alpha_target, beta_target):
        params = HypothesisParams(p0, p1, 1.0)
        expected = oracles.min_usage_scan_reference(params, alpha_target, beta_target, total_cap=300)
        if expected is None:
            with pytest.raises(SearchExhaustedError):
                min_usage_for_error(params, alpha_target, beta_target, total_cap=300)
        else:
            assert min_usage_for_error(params, alpha_target, beta_target, total_cap=300) == expected

    def test_inseparable_hypotheses_exhaust(self):
        params = HypothesisParams(0.5, 0.500001, 1.0)
        with pytest.raises(SearchExhaustedError):
            min_usage_for_error(params, 0.001, 0.001, total_cap=200)

    def test_target_domain(self):
        with pytest.raises(ValueError):
            min_usage_for_error(REF_PARAMS, 0.0, 0.5)
        with pytest.raises(ValueError):
            min_usage_for_error(REF_PARAMS, 0.5, 1.0)


class TestShareEstimation:
    def test_degenerate_pool_all_with_period(self):
        profiles = build_profiles({"др": {y: (100, 100) for y in range(1990, 2009)},
                                   "слово": {y: (5, 100) for y in range(1990, 2009)}})
        est = estimate_share_params(profiles, ["др"], ["слово"])
        assert set(est.p1_by_year) == set(range(1990, 2009))
        assert all(v == 1.0 for v in est.p1_by_year.values())
        assert est.mean_p1 == 1.0
        assert est.mean_p0 == pytest.approx(0.05)

    def test_pooling_weights_by_usage(self):
        profiles = build_profiles({
            "а": {2000: (10, 10)},
            "б": {2000: (0, 90)},
            "с": {2000: (1, 100)},
        }, window=(2000, 2000))
        est = estimate_share_params(profiles, ["а", "б"], ["с"], window=(2000, 2000))
        assert est.p1_by_year[2000] == pytest.approx(0.1)  # (10+0)/(10+90)
        macro = estimate_share_params(profiles, ["а", "б"], ["с"], window=(2000, 2000), pooled=False)
        assert macro.p1_by_year[2000] == pytest.approx(0.5)

    def test_missing_seed_warns_and_skips(self):
        profiles = build_profiles({"др": {2000: (9, 10)}, "с": {2000: (1, 10)}}, window=(2000, 2000))
        est = estimate_share_params(profiles, ["др", "нет"], ["с"], window=(2000, 2000))
        assert any("нет" in w for w in est.warnings)
        assert est.p1_by_year[2000] == pytest.approx(0.9)

    def test_empty_effective_list_errors(self):
        profiles = build_profiles({"с": {2000: (1, 10)}}, window=(2000, 2000))
        with pytest.raises(EstimationError):
            estimate_share_params(profiles, ["нет"], ["с"], window=(2000, 2000))

    def test_overlapping_seed_lists_rejected(self):
        profiles = build_profiles({"с": {2000: (1, 10)}}, window=(2000, 2000))
        with pytest.raises(ValueError):
            estimate_share_params(profiles, ["с"], ["с"], window=(2000, 2000))


class TestHypothesisParams:
    def test_domain_validation(self):
        with pytest.raises(ValueError):
            HypothesisParams(0.0, 0.5)
        with pytest.raises(ValueError):
            HypothesisParams(0.5, 1.0)
        with pytest.raises(ValueError):
            HypothesisParams(0.9, 0.1)
        with pytest.raises(ValueError):
            HypothesisParams(0.1, 0.9, 0.0)
        for c in (math.inf, math.nan):
            with pytest.raises(ValueError, match="C must be positive and finite"):
                HypothesisParams(0.1, 0.9, c)
        assert HypothesisParams(0.1, 0.9, 1e308).c == 1e308


class TestMinUsageLeCamStart:
    """The error-target scan starts at Le Cam's bound on alpha + beta, so a
    hopeless operating point is refused at once, and the bound never skips
    an N the full scan would return."""

    @pytest.mark.parametrize("p1", [0.31, 0.3001, 0.3 + 1e-9])
    def test_close_shares_raise_at_once(self, p1):
        start = time.perf_counter()
        with pytest.raises(SearchExhaustedError):
            min_usage_for_error(HypothesisParams(0.3, p1, 1.0), 1e-3, 1e-3)
        assert time.perf_counter() - start < 1.0

    @given(
        st.floats(0.001, 0.999),
        st.floats(0.001, 0.999),
        st.floats(-8.0, -0.31).map(lambda e: 10.0**e),
        st.floats(-8.0, -0.31).map(lambda e: 10.0**e),
        st.integers(0, 300),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_unbounded_scan(self, p0, p1, alpha_target, beta_target, total_cap):
        assume(p1 - p0 > 1e-6)
        params = HypothesisParams(p0, p1, 1.0)
        expected = oracles.min_usage_scan_reference(params, alpha_target, beta_target, total_cap=total_cap)
        if expected is None:
            with pytest.raises(SearchExhaustedError):
                min_usage_for_error(params, alpha_target, beta_target, total_cap=total_cap)
        else:
            assert min_usage_for_error(params, alpha_target, beta_target, total_cap=total_cap) == expected
