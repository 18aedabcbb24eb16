"""High-precision reference values for the benchmark's correctness checks.

Everything here is computed in mpmath from the defining formulas, without
importing bsclab, so that agreement with the package is evidence rather
than tautology.

For the iid equiprobable ensemble on BSC(p) with M codewords of length n,

    P_e = sum_d C(n,d) p^d q^(n-d) err(d),

where, with F_d = P{Bin(n,1/2) <= d}, t = P{Bin(n,1/2) = d},
s = 1 - F_d and K = M - 1 competitors,

    ties as error:        err(d) = 1 - (1 - F_d)^K
    random tie-break:     err(d) = 1 - [(t+s)^M - s^M] / (M t).

Both forms cancel catastrophically when err(d) is tiny, so the working
precision grows with n: n log10(2) + 150 decimal digits.  (At a fixed 60
digits the random tie-break reference gives ln P_e = -10.2 at p = 0.1,
R = 0.02, n = 256, where the true value is -55.2.)
"""

from __future__ import annotations

import json
import math
import os
import sys

from mpmath import mp, mpf

__all__ = [
    "digits_for",
    "codebook_size",
    "log_error_probability",
    "stored_log_error_probability",
    "ClosedForms",
]

VALUES_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_values.json")

# (n, R, p, tie) cells whose ln P_e the workloads check; `python3
# perfbench/reference.py` recomputes them all into VALUES_FILE (about 3 s)
CELLS = (
    # oracle-sweep, and the readme-session oracle rows at R = 0.3
    *((n, R, 0.1, tie) for R in (0.02, 0.3) for n in (512, 1024) for tie in ("error", "random")),
    # mc-cells A, B, C; cell A with ties as error is the readme-session simulate row
    *((n, R, p, tie) for n, R, p in ((16, 0.3, 0.1), (24, 0.3, 0.1), (80, 0.06, 0.25))
      for tie in ("error", "random")),
)


def digits_for(n: int) -> int:
    """Working precision (decimal digits) for a block length n."""
    return int(math.ceil(n * math.log10(2.0))) + 150


def codebook_size(R: float, n: int):
    """M = round(e^(Rn)) (at least 2) when Rn <= 40, else e^(Rn) unrounded."""
    x = mpf(R) * n
    if x <= 40:
        return mpf(max(2, int(mp.nint(mp.exp(x)))))
    return mp.exp(x)


def _log_error_probability(n: int, M, p: float, tie: str):
    if tie not in ("error", "random"):
        raise ValueError(f"unknown tie policy {tie!r}")
    pm = mpf(p)  # the binary double the program receives, taken exactly
    qm = 1 - pm
    K = M - 1
    total = mpf(2) ** n
    c = 1  # C(n, d) as an exact integer
    cum = 0  # sum_{i<=d} C(n, i), exact
    pe = mpf(0)
    for d in range(n + 1):
        if d:
            c = c * (n - d + 1) // d
        cum += c
        F = cum / total
        weight = c * pm**d * qm ** (n - d)
        if weight == 0:
            continue
        if tie == "error":
            err = 1 - (1 - F) ** K
        else:
            t = c / total
            s = 1 - F
            err = 1 - ((t + s) ** M - s**M) / (M * t)
        pe += weight * err
    return pe


def log_error_probability(n: int, R: float, p: float, tie: str, M=None) -> float:
    """ln P_e at rate R (or for an explicit codebook size M) as a float."""
    with mp.workdps(digits_for(n)):
        size = codebook_size(R, n) if M is None else mpf(M)
        pe = _log_error_probability(n, size, p, tie)
        return float(mp.log(pe)) if pe > 0 else float("-inf")


def _key(n: int, R: float, p: float, tie: str) -> str:
    return f"n={n} R={R!r} p={p!r} tie={tie}"


_stored: dict = {}


def stored_log_error_probability(n: int, R: float, p: float, tie: str) -> float:
    """ln P_e of one of CELLS, as last written to VALUES_FILE."""
    if not _stored:
        with open(VALUES_FILE, encoding="utf-8") as fh:
            _stored.update(json.load(fh)["ln_Pe"])
    return _stored[_key(n, R, p, tie)]


def write_values(path: str = VALUES_FILE) -> None:
    values = {_key(*cell): log_error_probability(*cell) for cell in CELLS}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"precision_digits": "ceil(n log10 2) + 150", "ln_Pe": values}, fh, indent=1)
        fh.write("\n")


def _entropy(x):
    if x == 0 or x == 1:
        return mpf(0)
    return -(x * mp.log(x) + (1 - x) * mp.log(1 - x))


class ClosedForms:
    """Closed-form rates and exponents of BSC(p), in nats, at 50 digits.

    delta_R is found by bisection on h(delta) = ln 2 - R over [p, 1/2].
    """

    DPS = 50

    def __init__(self, p: float):
        if not 0.0 < p < 0.5:
            raise ValueError("closed forms need 0 < p < 1/2")
        with mp.workdps(self.DPS):
            self.p = mpf(p)
            self.q = 1 - self.p
            sp, sq = mp.sqrt(self.p), mp.sqrt(self.q)
            self.z = self.p / self.q
            self.ln_z = mp.log(self.z)
            self.capacity = mp.log(2) - _entropy(self.p)
            self.e0 = mp.log(2) - 2 * mp.log(sq + sp)
            self.b0 = sp / (sp + sq)
            self.r_cr = mp.log(2) - _entropy(self.b0)
            self.r_crit = (sq - sp) / (2 * (sq + sp)) * mp.log(self.q / self.p)

    def delta(self, R: float):
        with mp.workdps(self.DPS):
            target = mp.log(2) - mpf(R)
            lo, hi = self.p, mpf(0.5)
            for _ in range(200):
                mid = (lo + hi) / 2
                if _entropy(mid) < target:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2

    def r0(self, R: float):
        with mp.workdps(self.DPS):
            return mpf(0.5) + mpf(R) / self.ln_z

    def sphere_packing(self, R: float):
        with mp.workdps(self.DPS):
            d = self.delta(R)
            return d * mp.log(d / self.p) + (1 - d) * mp.log((1 - d) / self.q)

    def straight_line(self, R: float):
        with mp.workdps(self.DPS):
            return self.e0 - mpf(R)

    def random_coding(self, R: float):
        """E0 - R up to the critical rate, sphere packing above it."""
        return self.straight_line(R) if R <= self.r_cr else self.sphere_packing(R)

    def branch1(self, R: float):
        """2R - ln 2 + 2 h(r0) + ln sqrt(pq), or -inf where h(r0) is undefined."""
        with mp.workdps(self.DPS):
            r0 = self.r0(R)
            if not 0 <= r0 <= 1:
                return mpf("-inf")
            return 2 * mpf(R) - mp.log(2) + 2 * _entropy(r0) + mp.log(mp.sqrt(self.p * self.q))

    def _f2(self, R, b):
        bracket = max(mpf(0), mp.log(2) - mpf(R) - _entropy(b))
        tail = b * self.ln_z if b else mpf(0)
        return mp.log(self.q) + _entropy(b) + tail - bracket

    def restricted_variational(self, R: float):
        """-max of f2 over b in [clamp(r0), 1].

        f2 is concave on each piece cut at delta_R and 1 - delta_R: with the
        bracket active its stationary point is b0, without it p.  Each
        piece's maximum is its stationary point clamped into the piece.
        """
        with mp.workdps(self.DPS):
            lo = min(max(self.r0(R), mpf(0)), mpf(1))
            d = self.delta(R)
            pieces = [(mpf(0), d, self.b0), (d, 1 - d, self.p), (1 - d, mpf(1), self.b0)]
            best = mpf("-inf")
            for a, b, stationary in pieces:
                a = max(a, lo)
                if a > b:
                    continue
                best = max(best, self._f2(R, min(max(stationary, a), b)))
            return -best

    def statsum_size(self, R: float, n: int) -> int:
        """M = round(e^(Rn)), at least 1, as the concentration study draws it."""
        with mp.workdps(self.DPS):
            return max(1, int(mp.nint(mp.exp(mpf(R) * n))))

    def statsum_threshold(self, n: int):
        with mp.workdps(self.DPS):
            return mp.sqrt(n * mp.log(n + 1)) * abs(self.ln_z)

    def statsum_jensen_bound(self, M: int, n: int):
        """ln E[S] = ln M + n ln((1+z)/2): by Jensen, E[ln S] cannot exceed it."""
        with mp.workdps(self.DPS):
            return mp.log(M) + n * mp.log((1 + self.z) / 2)


if __name__ == "__main__":
    write_values(sys.argv[1] if len(sys.argv) > 1 else VALUES_FILE)
