"""Exact-oracle tests: pinned enumeration values, exhaustive rational
cross-checks, structural monotonicity, and regression-fit recovery."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import brute_force_error_probability
from bsclab.logmath import NEG_INF
from bsclab.oracle import (
    ExponentFit,
    OracleResult,
    TiePolicy,
    error_prob_given_distance,
    exact_error_probability,
    exponent_fit,
    fit_log_decay,
    log_codebook_size,
)

LN2 = math.log(2.0)


class TestPinnedValues:
    def test_n1_m2_p01_ties(self):
        res = exact_error_probability(1, math.log(2), 0.1, TiePolicy.TIES_AS_ERROR)
        assert res.log_Pe.linear == pytest.approx(0.55, abs=1e-12)

    def test_n1_m2_p01_random(self):
        res = exact_error_probability(1, math.log(2), 0.1, TiePolicy.RANDOM_TIE_BREAK)
        assert res.log_Pe.linear == pytest.approx(0.3, abs=1e-12)

    def test_n2_m2_p0_ties(self):
        res = exact_error_probability(2, math.log(2), 0.0, TiePolicy.TIES_AS_ERROR)
        assert res.log_Pe.linear == pytest.approx(0.25, abs=1e-12)

    def test_three_way_tie_at_zero_distance(self):
        v = error_prob_given_distance(1, math.log(3), 0, TiePolicy.RANDOM_TIE_BREAK)
        assert v.linear == pytest.approx(5.0 / 12.0, abs=1e-12)

    def test_single_codeword_never_errs(self):
        res = exact_error_probability(4, 0.0, 0.3, TiePolicy.TIES_AS_ERROR)
        assert res.log_Pe.value == NEG_INF

    def test_max_distance_always_errs_under_ties(self):
        v = error_prob_given_distance(5, math.log(2), 5, TiePolicy.TIES_AS_ERROR)
        assert v.value == pytest.approx(0.0, abs=1e-15)


class TestBruteForceAgreement:
    """Subset here for speed; the acceptance gate runs the full matrix."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("M", [2, 3, 4])
    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 10), Fraction(1, 2)])
    @pytest.mark.parametrize("tie", ["error", "random"])
    def test_matches_enumeration(self, n, M, p, tie):
        policy = TiePolicy.TIES_AS_ERROR if tie == "error" else TiePolicy.RANDOM_TIE_BREAK
        want = brute_force_error_probability(n, M, p, tie)
        got = exact_error_probability(n, math.log(M), float(p), policy).log_Pe.linear
        if want == 0:
            assert got == 0
        else:
            assert abs(got - float(want)) / float(want) <= 1e-10


class TestStructure:
    def test_monotone_in_codebook_size(self):
        vals = [
            exact_error_probability(12, math.log(M), 0.1, TiePolicy.TIES_AS_ERROR).log_Pe.value
            for M in (2, 4, 8, 16, 64)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_crossover(self):
        vals = [
            exact_error_probability(12, math.log(4), p, TiePolicy.TIES_AS_ERROR).log_Pe.value
            for p in (0.01, 0.05, 0.1, 0.25, 0.5)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @settings(max_examples=30)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=2, max_value=64),
    )
    def test_random_tie_never_exceeds_ties_as_error(self, n, d, M):
        if d > n:
            d = n
        err = error_prob_given_distance(n, math.log(M), d, TiePolicy.TIES_AS_ERROR)
        rnd = error_prob_given_distance(n, math.log(M), d, TiePolicy.RANDOM_TIE_BREAK)
        assert rnd.value <= err.value + 1e-12

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=2, max_value=32))
    def test_error_increases_with_distance(self, n, M):
        vals = [
            error_prob_given_distance(n, math.log(M), d, TiePolicy.TIES_AS_ERROR).value
            for d in range(n + 1)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_huge_codebook_log_only(self):
        # ln M = 500: M overflows any float, the kernel must still work
        v = error_prob_given_distance(64, 500.0, 3, TiePolicy.TIES_AS_ERROR)
        assert v.value == pytest.approx(0.0, abs=1e-12)  # error certain

    def test_per_distance_sums_to_total(self):
        res = exact_error_probability(32, math.log(16), 0.1, TiePolicy.TIES_AS_ERROR)
        ln_terms = np.array([v for _, v in res.per_distance])
        m = ln_terms.max()
        total = m + math.log(np.exp(ln_terms - m).sum())
        # the window keeps everything within e^-40 of the peak
        assert total == pytest.approx(res.log_Pe.value, abs=1e-12)

    def test_below_radius_mass_bounded_by_total(self):
        res = exact_error_probability(64, math.log(32), 0.1, TiePolicy.TIES_AS_ERROR)
        assert res.below_radius_mass is not None
        assert res.below_radius_mass.value <= res.log_Pe.value + 1e-15

    def test_below_radius_mass_none_when_undefined(self):
        res = exact_error_probability(8, math.log(4), 0.5, TiePolicy.TIES_AS_ERROR)
        assert res.below_radius_mass is None

    @pytest.mark.parametrize("log_M", [0.1, 0.3, math.log(1.4)])
    def test_below_radius_mass_none_when_M_rounds_below_two(self, log_M):
        res = exact_error_probability(50, log_M, 0.1, TiePolicy.TIES_AS_ERROR)
        assert res.below_radius_mass is None
        assert res.log_Pe.value < 0.0

    def test_result_fields(self):
        res = exact_error_probability(8, math.log(4), 0.1, TiePolicy.RANDOM_TIE_BREAK)
        assert isinstance(res, OracleResult)
        assert res.n == 8 and res.p == 0.1
        assert res.tie is TiePolicy.RANDOM_TIE_BREAK

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            exact_error_probability(0, 1.0, 0.1, TiePolicy.TIES_AS_ERROR)
        with pytest.raises(ValueError):
            exact_error_probability(4, -1.0, 0.1, TiePolicy.TIES_AS_ERROR)
        with pytest.raises(ValueError):
            error_prob_given_distance(4, 1.0, 5, TiePolicy.TIES_AS_ERROR)


class TestRandomTieBreakRegressions:
    """Cells where the random tie-break once went wrong, pinned to mpmath at
    ceil(n log10 2) + 150 digits (M = round(e^(Rn)) when Rn <= 40, else
    e^(ln M) unrounded)."""

    def test_series_for_integer_M_near_1e9(self):
        # M = round(e^20.48): once sent to the cancelling complement path
        lm = log_codebook_size(0.02, 1024)
        got = exact_error_probability(1024, lm, 0.1, TiePolicy.RANDOM_TIE_BREAK).log_Pe.value
        assert got == pytest.approx(-211.91523909793702, rel=1e-12)

    def test_series_where_ln_s_underflows(self):
        # ln M > 708: ln s = ln(1 - F_d) underflows to 0 while K F_d is O(1)
        got = exact_error_probability(1280, 768.0, 0.01, TiePolicy.RANDOM_TIE_BREAK).log_Pe.value
        assert got == pytest.approx(-6.553560257505727, rel=1e-12)

    @pytest.mark.parametrize("n", [4096, 16384])
    def test_within_ln2_below_ties_as_error(self, n):
        lm = log_codebook_size(0.3, n)
        err = exact_error_probability(n, lm, 0.1, TiePolicy.TIES_AS_ERROR).log_Pe.value
        rnd = exact_error_probability(n, lm, 0.1, TiePolicy.RANDOM_TIE_BREAK).log_Pe.value
        assert err - LN2 <= rnd <= err

    @pytest.mark.parametrize(
        "n, p, want", [(500, 0.01, -249.4512022474756), (2048, 0.3, -80.81838719169063)]
    )
    def test_non_integer_M_above_term_cap(self, n, p, want):
        # M = e^10, not an integer, with K far above the series' term cap
        got = exact_error_probability(n, 10.0, p, TiePolicy.RANDOM_TIE_BREAK).log_Pe.value
        assert got == pytest.approx(want, rel=1e-12)


class TestCodebookSize:
    def test_rounds_and_floors_at_two(self):
        assert log_codebook_size(0.0, 100) == math.log(2)
        assert log_codebook_size(0.3, 10) == math.log(round(math.exp(3.0)))

    def test_large_rate_times_n_stays_in_logs(self):
        assert log_codebook_size(0.5, 1000) == 500.0


class TestFit:
    def test_recovers_synthetic_model_exactly(self):
        ns = [512, 1024, 2048, 4096, 8192]
        E, c, a = 0.137, 0.52, -1.3
        ln_pe = [-(E * n + c * math.log(n) + a) for n in ns]
        fit = fit_log_decay(ns, ln_pe)
        assert fit.slope == pytest.approx(E, abs=1e-9)
        assert fit.log_correction == pytest.approx(c, abs=1e-6)
        assert fit.intercept == pytest.approx(a, abs=1e-5)

    def test_per_step_slopes(self):
        ns = [10, 20, 40]
        ln_pe = [-1.0, -3.0, -7.0]
        fit = fit_log_decay(ns, ln_pe)
        assert fit.per_step_slopes == (0.2, 0.2)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            fit_log_decay([10, 20], [-1.0, -2.0])
        with pytest.raises(ValueError):
            fit_log_decay([10, 10, 20], [-1.0, -2.0, -3.0])

    def test_exponent_fit_smoke(self):
        fit = exponent_fit(0.1, 0.3, [64, 128, 256], TiePolicy.TIES_AS_ERROR)
        assert isinstance(fit, ExponentFit)
        assert fit.slope > 0
        assert len(fit.per_step_slopes) == 2
