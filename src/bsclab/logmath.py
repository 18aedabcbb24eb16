"""Extended-log-domain arithmetic used by every other module.

Probabilities are carried as natural logarithms throughout; zero is
represented by negative infinity.  NaN is rejected at construction so
that downstream arithmetic never has to defend against it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

NEG_INF = float("-inf")
LN2 = math.log(2.0)

__all__ = [
    "LogReal",
    "BinomialTable",
    "log_sum_exp",
    "log1mexp",
    "log_binomial_cdf",
    "log_binomial_pmf",
    "bisect_monotone",
    "binomial_table",
]


@dataclass(frozen=True, order=True)
class LogReal:
    """Natural logarithm of a nonnegative real; -inf encodes zero."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if math.isnan(v):
            raise ValueError("LogReal cannot hold NaN")
        if v == math.inf:
            raise ValueError("LogReal cannot hold +inf (non-finite linear value)")
        object.__setattr__(self, "value", v)

    @classmethod
    def zero(cls) -> "LogReal":
        return cls(NEG_INF)

    @classmethod
    def one(cls) -> "LogReal":
        return cls(0.0)

    @classmethod
    def from_linear(cls, x: float) -> "LogReal":
        if x < 0:
            raise ValueError("LogReal represents nonnegative reals only")
        return cls(math.log(x)) if x > 0 else cls.zero()

    @property
    def linear(self) -> float:
        return math.exp(self.value)

    def __float__(self) -> float:
        return self.value


def _as_float(x) -> float:
    return x.value if isinstance(x, LogReal) else float(x)


def log1mexp(v):
    """ln(1 - e^v) for v <= 0, with the usual branch switch at -ln 2.

    Works elementwise on an array; a scalar argument gives a float.
    """
    x = np.asarray(_as_float(v) if isinstance(v, LogReal) else v, dtype=np.float64)
    if np.any(x > 0):
        raise ValueError("log1mexp requires v <= 0")
    with np.errstate(divide="ignore"):
        out = np.where(x > -LN2, np.log(-np.expm1(x)), np.log1p(-np.exp(x)))
    return float(out) if out.ndim == 0 else out


def log_sum_exp(values: Iterable) -> LogReal:
    """ln(sum of exp(v)) over the sequence; empty input yields log-zero."""
    vs = np.asarray([_as_float(v) for v in values], dtype=np.float64)
    if vs.size == 0:
        return LogReal.zero()
    m = vs.max()
    if m == NEG_INF:
        return LogReal.zero()
    return LogReal(m + math.log(np.exp(vs - m).sum()))


def _lse_array(vs: np.ndarray) -> float:
    """Float-only log-sum-exp for internal hot paths."""
    if vs.size == 0:
        return NEG_INF
    m = float(np.max(vs))
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(float(np.exp(vs - m).sum()))


class BinomialTable:
    """ln C(n, k) for k = 0..n, built by cumulative sums of ln terms.

    The lower half is accumulated in extended precision and mirrored onto
    the upper half, so the symmetry ln C(n,k) = ln C(n,n-k) holds exactly
    as computed and the row-sum identity stays at the 1e-10 level up to
    n = 2**20.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("BinomialTable needs n >= 1")
        self.n = int(n)
        half = n // 2
        k = np.arange(1, half + 1, dtype=np.longdouble)
        inc = np.log(np.longdouble(n) + 1 - k) - np.log(k)
        lc = np.zeros(n + 1, dtype=np.float64)
        lc[1 : half + 1] = np.cumsum(inc).astype(np.float64)
        lc[half + 1 :] = lc[: n - half][::-1]
        self.log_choose = lc
        # ln sum_{i<=d} C(n,i), accumulated from the small tail upward
        self._log_partial = np.logaddexp.accumulate(lc)

    def entry(self, k: int) -> LogReal:
        if not 0 <= k <= self.n:
            raise ValueError(f"k={k} outside 0..{self.n}")
        return LogReal(float(self.log_choose[k]))

    def log_cdf_half(self, d: int) -> float:
        """ln P{Bin(n, 1/2) <= d} as a plain float."""
        if not 0 <= d <= self.n:
            raise ValueError(f"d={d} outside 0..{self.n}")
        return float(self.log_cdf_half_range(d, d + 1)[0])

    def log_cdf_half_range(self, start: int, stop: int) -> np.ndarray:
        """ln P{Bin(n, 1/2) <= d} for d = start..stop-1, as a new array.

        Below the median it is the partial sum itself; above it, the
        complement of the smaller tail, P{X > d} = P{X <= n-d-1}.
        """
        n = self.n
        if not 0 <= start <= stop <= n + 1:
            raise ValueError(f"range {start}..{stop - 1} outside 0..{n}")
        ln_total = n * LN2
        mid = min(max((n + 1) // 2, start), stop)
        top = min(stop, n)  # d = n has no complement tail: F = 1
        out = np.zeros(stop - start)
        out[: mid - start] = self._log_partial[start:mid] - ln_total
        if top > mid:
            tail = self._log_partial[n - top : n - mid][::-1]
            out[mid - start : top - start] = log1mexp(tail - ln_total)
        return out


@functools.lru_cache(maxsize=32)
def binomial_table(n: int) -> BinomialTable:
    """Shared per-n table; tables are immutable once built."""
    return BinomialTable(n)


def log_binomial_cdf(table: BinomialTable, d: int) -> LogReal:
    """ln P{Bin(n, 1/2) <= d}."""
    return LogReal(table.log_cdf_half(d))


def log_binomial_pmf(n: int, k: int, log_p, log_q) -> LogReal:
    """ln[C(n,k) p^k q^(n-k)] with p, q supplied in log form."""
    lp, lq = _as_float(log_p), _as_float(log_q)
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    if abs(math.exp(lp) + math.exp(lq) - 1.0) > 1e-12:
        raise ValueError("log_p and log_q must describe a normalized pair")
    lc = float(binomial_table(n).log_choose[k])
    term_p = 0.0 if k == 0 else k * lp
    term_q = 0.0 if k == n else (n - k) * lq
    return LogReal(lc + term_p + term_q)


def bisect_monotone(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    target: float,
    tol: float = 1e-12,
) -> float:
    """Invert a monotone scalar function by bisection.

    Runs until the bracket width drops below tol or collapses to adjacent
    floats, whichever comes first; deterministic for fixed inputs.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    flo, fhi = f(lo), f(hi)
    if math.isnan(flo) or math.isnan(fhi):
        raise ValueError("non-finite endpoint evaluation")
    increasing = fhi >= flo
    lo_v, hi_v = (flo, fhi) if increasing else (fhi, flo)
    eps = 1e-12 * max(1.0, abs(lo_v), abs(hi_v))
    if not (lo_v - eps <= target <= hi_v + eps):
        raise ValueError(f"target {target} outside bracket [{lo_v}, {hi_v}]")
    a, b = lo, hi
    while b - a > tol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = f(mid)
        if math.isnan(fm):
            raise ValueError("non-finite evaluation during bisection")
        if (fm < target) == increasing:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
