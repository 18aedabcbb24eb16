"""The exact oracle against an independent high-precision reference.

The reference evaluates the defining sum over d with mpmath at 500
digits: exact integer binomials, 1 - (1-F)^(M-1) for ties as error and
1 - [(t+s)^M - s^M]/(M t) for the random tie-break.  At 60 digits that
closed form loses every digit to cancellation at these n, so the
precision stays high.  The tolerance is 1e-13 relative in ln P_e, and
1e-13 relative in P_e itself where P_e > 1/e: there ln P_e is near 0 and
a log-domain sum over d carries it only to about 1e-15 absolute.  A
Hypothesis property then checks the per-distance kernel against the
bounds that tie-breaking implies.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsclab.logmath import binomial_table
from bsclab.oracle import TiePolicy, _ln_error_given_distances, exact_error_probability

DIGITS = 500
LN2 = math.log(2.0)


def reference_log_pe(n: int, M: int, p: float, tie: str) -> float:
    with mpmath.workdps(DIGITS):
        M = mpmath.mpf(M)
        K = M - 1
        pm = mpmath.mpf(p)  # the binary double the oracle receives, taken exactly
        total = mpmath.mpf(2) ** n
        c, cum, pe = 1, 0, mpmath.mpf(0)
        for d in range(n + 1):
            if d:
                c = c * (n - d + 1) // d
            cum += c
            F = cum / total
            if tie == "error":
                err = 1 - (1 - F) ** K
            else:
                t, s = c / total, 1 - F
                err = 1 - ((t + s) ** M - s**M) / (M * t)
            pe += c * pm**d * (1 - pm) ** (n - d) * err
        return float(mpmath.log(pe))


@pytest.mark.parametrize("tie", ["error", "random"])
@pytest.mark.parametrize("p", [0.01, 0.3])
@pytest.mark.parametrize("M", [3, 10**3, 10**6])
@pytest.mark.parametrize("n", [20, 64, 200])
def test_matches_mpmath(n, M, p, tie):
    got = exact_error_probability(n, math.log(M), p, TiePolicy(tie)).log_Pe.value
    want = reference_log_pe(n, M, p, tie)
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


# Integer M of any size, and M > 401 (K above the series' term cap) up to
# ln M = 800.  A non-integer M <= 401 is left out: its random tie-break
# error still goes through the cancelling complement path, see
# test_non_integer_small_K_random_tie_break below.
_LOG_M = st.one_of(
    st.integers(min_value=2, max_value=10**15).map(math.log),
    st.floats(min_value=math.log(402.0), max_value=800.0),
)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=60), _LOG_M)
def test_kernel_tie_bounds(n, log_M):
    """Per d: random <= ties as error <= random + ln 2, and ties as error is
    non-decreasing in d.  The ln 2 bound holds because a tie with j other
    minimizers is lost with probability j/(j+1) >= 1/2."""
    tab = binomial_table(n)
    err = _ln_error_given_distances(tab, log_M, TiePolicy.TIES_AS_ERROR, 0, n + 1)
    rnd = _ln_error_given_distances(tab, log_M, TiePolicy.RANDOM_TIE_BREAK, 0, n + 1)
    slack = 1e-12 * np.abs(err)
    assert np.all(rnd <= err + slack)
    assert np.all(err <= rnd + LN2 + slack)
    assert np.all(np.diff(err) >= -slack[1:])


@pytest.mark.xfail(strict=True, reason="non-integer K <= 400 takes the cancelling complement path")
def test_non_integer_small_K_random_tie_break():
    # mpmath at ceil(n log10 2) + 150 digits with M = e^3 unrounded
    got = exact_error_probability(200, 3.0, 0.01, TiePolicy.RANDOM_TIE_BREAK).log_Pe.value
    assert got == pytest.approx(-102.54671601868442, rel=1e-12)
