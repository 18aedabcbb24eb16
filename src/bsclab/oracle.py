"""Exact ensemble-average decoding error probability for random coding.

For the iid equiprobable ensemble the M-1 competitor distances to the
received word are iid Bin(n, 1/2), independent of the transmitted word's
own distance, so P_e = sum_d P{d_m = d} P{error | d} is exact with no
sampling and no asymptotics.  M is carried as ln M throughout: at rate R
the codebook size e^(Rn) overflows every native representation long
before block lengths of interest.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .logmath import LN2, NEG_INF, BinomialTable, LogReal, _lse_array, binomial_table, log1mexp
from .statsum import finite_n_radius

__all__ = [
    "TiePolicy",
    "OracleResult",
    "ExponentFit",
    "error_prob_given_distance",
    "exact_error_probability",
    "exponent_fit",
    "fit_log_decay",
    "log_codebook_size",
]

_PER_DISTANCE_WINDOW = 40.0  # keep d-contributions within e^-40 of the peak
_SERIES_CUTOFF = math.log(30.0)  # tie-break small-error series regime
_SERIES_MAX_TERMS = 400
_BLOCK = 8192  # distances per kernel call: bounds the temporaries


class TiePolicy(enum.Enum):
    TIES_AS_ERROR = "error"
    RANDOM_TIE_BREAK = "random"


def log_codebook_size(R: float, n: int) -> float:
    """ln M for M = round(e^(Rn)), never below 2."""
    x = R * n
    if x > 40.0:
        return x
    return math.log(max(2, round(math.exp(x))))


def _ln_competitors(log_M: float) -> float:
    """ln(M - 1) from ln M, stable for astronomically large M."""
    if log_M < 0:
        raise ValueError("need M >= 1 (log_M >= 0)")
    if log_M == 0.0:
        return NEG_INF
    return log_M + math.log1p(-math.exp(-log_M))


def _ln_neg_ln_one_minus(ln_x: np.ndarray) -> np.ndarray:
    """ln(-ln(1 - X)) given ln X, for X in [0, 1], elementwise."""
    with np.errstate(divide="ignore"):
        # -ln(1-X) ~ X below e^-37; ln X = 0 gives +inf
        return np.where(ln_x < -37.0, ln_x, np.log(-log1mexp(ln_x)))


def _ln_one_minus_exp_neg(ln_T: np.ndarray) -> np.ndarray:
    """ln(1 - e^(-T)) given ln T, for T >= 0, elementwise."""
    # 1 - e^-T ~ T below e^-37 and rounds to 1 above e^37
    mid = log1mexp(-np.exp(np.clip(ln_T, -37.0, 37.0)))
    return np.where(ln_T <= -37.0, ln_T, np.where(ln_T >= 37.0, 0.0, mid))


def _ln_neg_pow(ln_N: float, w: np.ndarray) -> np.ndarray:
    """ln(Y^N) = -N (-ln Y) given ln N and w = ln(-ln Y), elementwise."""
    x = ln_N + w
    return np.where(x > 709.0, NEG_INF, -np.exp(np.minimum(x, 709.0)))


def _series_terms(log_M: float, ln_K: float) -> tuple[int, Optional[int]]:
    """(J, K) for the random tie-break series over j = 1..J.

    K is the integer number of competitors, or None when M is not an
    integer (judged in log space, to a few ulp) or K exceeds the term cap.
    For an integer K the series is finite and J = min(K, cap).  For
    K > cap every summed term has j < K and is positive, and the binomial
    series converges because t < s wherever the series is used.  J = 0
    means the series does not apply (a non-integer K <= cap).
    """
    if log_M < 40.0:
        M = round(math.exp(log_M))
        if abs(math.log(M) - log_M) <= 4.0 * math.ulp(log_M):
            K = M - 1
            return (K, K) if K <= _SERIES_MAX_TERMS else (_SERIES_MAX_TERMS, None)
    if ln_K > math.log(_SERIES_MAX_TERMS):
        return _SERIES_MAX_TERMS, None
    return 0, None


def _ln_error_series(
    term0: np.ndarray, ln_t: np.ndarray, w: np.ndarray, ln_K: float, J: int, K: Optional[int]
) -> np.ndarray:
    """ln P{error} under random tie-break, summed over the tying competitors.

    error = [1 - (1-u)^K] + sum_{j>=1} C(K,j) t^j s^(K-j) j/(j+1), where
    term0 = ln[1 - (1-u)^K] and w = ln(-ln s), one entry per distance.  The
    sum over j runs in numpy across the distances; each distance leaves it
    once a term falls 745 nats below its largest term.
    """
    best = term0.copy()  # running maximum term per distance
    acc = np.where(best == NEG_INF, 0.0, 1.0)  # sum of e^(term - best)
    out_best, out_acc = best.copy(), acc.copy()
    live = np.arange(term0.size)
    inv_K = math.exp(-ln_K)
    ln_falling = 0.0  # ln K(K-1)...(K-j+1)
    for j in range(1, J + 1):
        ln_falling += ln_K + math.log1p(-(j - 1) * inv_K)
        if j == K or j * inv_K >= 1.0:
            tail = 0.0  # no competitor left above d: s^0 = 1
        else:
            tail = _ln_neg_pow(ln_K + math.log1p(-j * inv_K), w)
        term = ln_falling - math.lgamma(j + 1) + j * ln_t + tail + math.log(j / (j + 1.0))
        up = term > best
        # -inf terms (s = 0 at d = n) are skipped, not a stop signal
        with np.errstate(invalid="ignore"):
            gain = np.exp(np.where(up, best - term, term - best))
        gain[term == NEG_INF] = 0.0
        acc = np.where(up, acc * gain + 1.0, acc + gain)
        stop = ~up & (term != NEG_INF) & (term < best - 745.0)
        best = np.where(up, term, best)
        if stop.any():
            out_best[live[stop]] = best[stop]
            out_acc[live[stop]] = acc[stop]
            keep = ~stop
            live, best, acc = live[keep], best[keep], acc[keep]
            ln_t, w = ln_t[keep], w[keep]
            if not live.size:
                break
    out_best[live] = best
    out_acc[live] = acc
    with np.errstate(divide="ignore"):
        return np.minimum(0.0, out_best + np.log(out_acc))


def _ln_error_given_distances(
    tab: BinomialTable, log_M: float, tie: TiePolicy, start: int, stop: int
) -> np.ndarray:
    """ln P{error | d_m = d} for d = start..stop-1: the one per-distance kernel.

    Ties as error: 1 - (1-F_d)^K with K = M-1.  Random tie-break: the
    correct-decoding probability is [(t+s)^M - s^M]/(M t) with
    t = P{Bin(n,1/2) = d} and s = P{Bin(n,1/2) > d}.  Complementing that
    cancels catastrophically when the error is tiny, so the small regime
    is summed directly over the number of beating/tying competitors.
    """
    n = tab.n
    ln_K = _ln_competitors(log_M)
    if ln_K == NEG_INF:
        return np.full(stop - start, NEG_INF)  # M = 1: no competitors
    lnF = tab.log_cdf_half_range(max(start - 1, 0), stop)
    if start == 0:
        lnF = np.concatenate(([NEG_INF], lnF))
    # entry i is at d = start + i - 1: [:-1] gives u = P{X < d}, [1:] gives F_d;
    # ln(-ln(1 - F)) stays exact where 1 - F rounds to 1
    w_all = _ln_neg_ln_one_minus(lnF)
    lnF, w_dm1, w = lnF[1:], w_all[:-1], w_all[1:]  # w = ln(-ln s)
    if tie is TiePolicy.TIES_AS_ERROR:
        return _ln_one_minus_exp_neg(ln_K + w)  # 1 - (1-F_d)^K
    ln_t = tab.log_choose[start:stop] - n * LN2
    # complement path, for every d; the series below replaces it where the
    # error is small enough for the complement to cancel
    A = np.where(w_dm1 == NEG_INF, 0.0, _ln_neg_pow(log_M, w_dm1))  # ln (t+s)^M
    ln_s = log1mexp(lnF)
    ratio = ln_t - ln_s  # D = ln((t+s)/s) = log1p(t/s); +inf where s = 0
    with np.errstate(invalid="ignore", divide="ignore"):
        ln_D = np.where(
            ratio < -37.0,
            ratio,
            np.where(ratio <= 30.0, np.log(np.log1p(np.exp(np.minimum(ratio, 30.0)))), np.log(ratio)),
        )
    ln_C = A + _ln_one_minus_exp_neg(log_M + ln_D) - log_M - ln_t
    ln_err = log1mexp(np.minimum(ln_C, 0.0))
    J, K = _series_terms(log_M, ln_K)
    series = ln_K + lnF <= _SERIES_CUTOFF
    if J and series.any():
        term0 = _ln_one_minus_exp_neg(ln_K + w_dm1[series])  # 1 - (1-u)^K
        ln_err[series] = _ln_error_series(term0, ln_t[series], w[series], ln_K, J, K)
    return ln_err


def error_prob_given_distance(n: int, log_M: float, d: int, tie: TiePolicy) -> LogReal:
    """ln P{error | d_m = d} for M-1 iid Bin(n, 1/2) competitor distances."""
    if not 0 <= d <= n:
        raise ValueError(f"d={d} outside 0..{n}")
    if log_M < 0:
        raise ValueError("need M >= 1 (log_M >= 0)")
    return LogReal(float(_ln_error_given_distances(binomial_table(n), log_M, tie, d, d + 1)[0]))


@dataclass(frozen=True)
class OracleResult:
    n: int
    log_M: float
    p: float
    tie: TiePolicy
    log_Pe: LogReal
    per_distance: tuple  # ((d, ln contribution), ...) near the peak
    below_radius_mass: Optional[LogReal]  # None when the radius is undefined


def exact_error_probability(n: int, log_M: float, p: float, tie: TiePolicy) -> OracleResult:
    """Exact message- and ensemble-averaged minimum-distance error probability."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"p={p} outside [0, 1/2]")
    if log_M < 0:
        raise ValueError("need M >= 1 (log_M >= 0)")
    tab = binomial_table(n)
    lc = tab.log_choose
    terms = np.empty(n + 1)  # ln P{d_m = d} + ln P{error | d}
    for start in range(0, n + 1, _BLOCK):
        stop = min(start + _BLOCK, n + 1)
        ds = np.arange(start, stop)
        if p == 0.0:
            ln_pmf = np.where(ds == 0, 0.0, NEG_INF)
        elif p == 0.5:
            ln_pmf = lc[start:stop] - n * LN2
        else:
            ln_pmf = lc[start:stop] + ds * math.log(p) + (n - ds) * math.log(1.0 - p)
        terms[start:stop] = ln_pmf + _ln_error_given_distances(tab, log_M, tie, start, stop)
    log_pe = _lse_array(terms)
    if log_pe == NEG_INF:
        per_distance: tuple = ()
    else:
        keep = np.flatnonzero(terms >= terms.max() - _PER_DISTANCE_WINDOW)
        per_distance = tuple((int(d), float(terms[d])) for d in keep)
    below = None
    if 0.0 < p < 0.5 and log_M > 0.0:
        z = p / (1.0 - p)
        if log_M < 40.0:
            M = round(math.exp(log_M))
            r = finite_n_radius(n, z, M).r if M >= 2 else None  # no radius below M = 2
        else:
            ln_K = _ln_competitors(log_M)
            r = 0.5 - math.sqrt(math.log(n + 1) / n) + ln_K / (n * math.log(z))
        if r is not None:
            below = LogReal(_lse_array(terms[: max(0, math.ceil(r * n))]))  # d < r n
    return OracleResult(
        n=n,
        log_M=log_M,
        p=p,
        tie=tie,
        log_Pe=LogReal(min(0.0, log_pe)),
        per_distance=per_distance,
        below_radius_mass=below,
    )


class ExponentFit(NamedTuple):
    slope: float
    log_correction: float
    per_step_slopes: tuple
    intercept: float
    ln_pe: tuple


def fit_log_decay(n_grid: Sequence[int], ln_pe: Sequence[float]) -> ExponentFit:
    """Least-squares fit of -ln P_e(n) = E n + c ln n + a over the grid."""
    ns = np.asarray(n_grid, dtype=np.float64)
    if ns.size < 3 or np.any(np.diff(ns) <= 0):
        raise ValueError("n_grid must be strictly increasing with length >= 3")
    ys = -np.asarray(ln_pe, dtype=np.float64)
    A = np.column_stack([ns, np.log(ns), np.ones_like(ns)])
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    steps = tuple(float(s) for s in np.diff(ys) / np.diff(ns))
    return ExponentFit(
        slope=float(coef[0]),
        log_correction=float(coef[1]),
        per_step_slopes=steps,
        intercept=float(coef[2]),
        ln_pe=tuple(float(v) for v in ln_pe),
    )


def exponent_fit(p: float, R: float, n_grid: Sequence[int], tie: TiePolicy) -> ExponentFit:
    """Fit the decay rate of the exact oracle with M = round(e^(Rn))."""
    ln_pe = [
        exact_error_probability(n, log_codebook_size(R, n), p, tie).log_Pe.value
        for n in n_grid
    ]
    return fit_log_decay(n_grid, ln_pe)
