"""Independent reference implementations used only to check the library.

Everything here computes in exact rational arithmetic (fractions and
integer combinatorics), deliberately avoiding the log-space code paths
under test.  Probabilities arrive as decimal strings or floats with
short decimal representations and are converted through their decimal
repr, so 0.068 means exactly 17/250.
"""
from __future__ import annotations

import math
from fractions import Fraction


def frac(p) -> Fraction:
    if isinstance(p, Fraction):
        return p
    return Fraction(str(p))


def pmf_exact(total: int, n: int, p) -> Fraction:
    q = frac(p)
    return Fraction(math.comb(total, n)) * q**n * (1 - q) ** (total - n)


def tail_ge_exact(eta: float, total: int, p) -> Fraction:
    """P(n >= eta) over integers 0..total."""
    lo = max(0, math.ceil(eta))
    return sum((pmf_exact(total, n, p) for n in range(lo, total + 1)), Fraction(0))


def head_lt_exact(eta: float, total: int, p) -> Fraction:
    """P(n < eta) over integers 0..total."""
    hi = min(total, math.ceil(eta) - 1)
    return sum((pmf_exact(total, n, p) for n in range(0, hi + 1)), Fraction(0))


def lr_exact(n: int, total: int, p0, p1) -> Fraction:
    return pmf_exact(total, n, p1) / pmf_exact(total, n, p0)


def min_usage_exact(p0, p1, alpha_target, beta_target, cap: int = 200):
    """Exhaustive search over (N, integer eta) in exact arithmetic."""
    a_t, b_t = frac(alpha_target), frac(beta_target)
    for total in range(0, cap + 1):
        for eta in range(0, total + 1):
            if tail_ge_exact(eta, total, p0) <= a_t and head_lt_exact(eta, total, p1) <= b_t:
                return total, eta
    return None


def rel_err(value: float, reference: Fraction) -> float:
    if reference == 0:
        return abs(value)
    return abs((Fraction(value) - reference) / reference)


def fsum_range_reference(total: int, lo: int, hi: int, p: float) -> float:
    """The full correctly rounded sum of the library's own pmf terms over
    lo..hi, as alpha_error/beta_error computed it before their sums were
    bounded.  Not exact: it is the float the bounded sums must reproduce
    bit for bit."""
    from abbrevkit.likelihood import binomial_pmf

    return math.fsum(binomial_pmf(total, n, p) for n in range(lo, hi + 1))
