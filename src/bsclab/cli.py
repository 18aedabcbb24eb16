"""Command-line surface: sweeps, Monte Carlo cells, concentration studies,
and the `verify` battery that cross-checks every layer against the others.

Subcommands
    exponents   sweep rates and emit every closed-form quantity
    oracle      exact error probability over an n-grid
    simulate    Monte Carlo cells (full-ensemble or distance-sampled)
    statsum     concentration study of the statistical sum
    verify      full cross-check battery, JSON findings report

Exit codes: 0 success, 1 internal-consistency failure, 2 usage error.
Outputs are byte-identical for identical (inputs, seed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import statistics
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .exponents import (
    ChannelBSC,
    b0,
    binary_entropy,
    capacity,
    classical_exponent,
    critical_rate,
    delta_from_rate,
    f2,
    gallager_e0,
    new_critical_rate,
    printed_exponent,
    rate_r0,
    restricted_variational_exponent,
    sphere_packing,
)
from .logmath import LN2
from .oracle import TiePolicy, exact_error_probability, fit_log_decay, log_codebook_size
from .simulator import estimate_error_probability
from .statsum import sample_statsum, theorem2_check, typical_log_statsum

__all__ = ["main", "run_verify", "VerifyReport"]

_MATCH_RTOL = 0.05  # "agrees within 5%" convention for slope adjudication


def _fmt(x) -> str:
    """Deterministic scalar rendering for CSV cells."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _parse_n_grid(text: str) -> list[int]:
    """Either a comma list '512,1024' or 'a..b:geometric' (doubling)."""
    if ".." in text:
        span, _, kind = text.partition(":")
        if kind not in ("", "geometric"):
            raise ValueError(f"unknown n-grid progression {kind!r}")
        a_s, _, b_s = span.partition("..")
        a, b = int(a_s), int(b_s)
        if a < 1 or b < a:
            raise ValueError(f"bad n-grid span {text!r}")
        out = []
        n = a
        while n <= b:
            out.append(n)
            n *= 2
        return out
    return [int(t) for t in text.split(",") if t.strip()]


def _parse_rates(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _load_config(path: str) -> dict:
    """Plain key=value lines; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.rstrip()!r}")
            k, _, v = line.partition("=")
            out[k.strip().replace("-", "_")] = v.strip()
    return out


_DEFAULTS = {
    "p": 0.1,
    "rate": None,
    "rates": None,
    "n": None,
    "n_grid": None,
    "trials": 20000,
    "samples": 1000,
    "tie_policy": "error",
    "mode": "distance",
    "seed": 0,
    "out": None,
    "format": "csv",
}

_CASTS = {
    "p": float,
    "rate": float,
    "rates": str,
    "n": int,
    "n_grid": str,
    "trials": int,
    "samples": int,
    "tie_policy": str,
    "mode": str,
    "seed": int,
    "out": str,
    "format": str,
}


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Layer config file values under explicit flags, then hard defaults."""
    cfg = _load_config(args.config) if args.config else {}
    for key, default in _DEFAULTS.items():
        if getattr(args, key, None) is None:
            if key in cfg:
                setattr(args, key, _CASTS[key](cfg[key]))
            else:
                setattr(args, key, default)
    return args


def _tie_of(args) -> TiePolicy:
    return TiePolicy.TIES_AS_ERROR if args.tie_policy == "error" else TiePolicy.RANDOM_TIE_BREAK


def _rates_of(args, ch: ChannelBSC) -> list[float]:
    if args.rates is not None:
        return _parse_rates(args.rates)
    if args.rate is not None:
        return [args.rate]
    C = capacity(ch)
    return [round(0.01 + i * (0.98 * C - 0.01) / 29, 10) for i in range(30)]


def _n_grid_of(args, default: str) -> list[int]:
    if args.n_grid is not None:
        return _parse_n_grid(args.n_grid)
    if args.n is not None:
        return [args.n]
    return _parse_n_grid(default)


def _emit(rows: list[dict], columns: list[str], fmt: str, out: Optional[str]) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        for r in rows:
            w.writerow([_fmt(r[c]) for c in columns])
        text = buf.getvalue()
    else:
        text = json.dumps(rows, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- exponents


_EXPONENT_COLUMNS = [
    "p", "R", "delta_R", "r0", "b0", "R_cr", "R_crit", "C",
    "branch1", "branch2", "branch3", "restricted_variational", "classical",
    "selected",
]


def _exponent_rows(p: float, rates: Sequence[float]) -> list[dict]:
    ch = ChannelBSC(p)
    rows = []
    for R in rates:
        rep = printed_exponent(ch, R)
        _, restr = restricted_variational_exponent(ch, R)
        rows.append({
            "p": p,
            "R": R,
            "delta_R": delta_from_rate(ch, R),
            "r0": rate_r0(ch, R),
            "b0": b0(ch),
            "R_cr": rep.R_cr,
            "R_crit": rep.R_crit,
            "C": rep.C,
            "branch1": rep.branch1,
            "branch2": rep.branch2,
            "branch3": rep.branch3,
            "restricted_variational": restr,
            "classical": classical_exponent(ch, R),
            "selected": rep.selected,
        })
    return rows


def _cmd_exponents(args) -> int:
    ch = ChannelBSC(args.p)
    rows = _exponent_rows(args.p, _rates_of(args, ch))
    _emit(rows, _EXPONENT_COLUMNS, args.format, args.out)
    return 0


# ------------------------------------------------------------------- oracle


_ORACLE_COLUMNS = ["p", "R", "n", "log_M", "tie_policy", "ln_Pe", "per_step_slope"]


def _oracle_rows(p: float, rates: Sequence[float], grid: Sequence[int], tie: TiePolicy) -> list[dict]:
    rows = []
    for R in rates:
        prev = None
        for n in grid:
            lm = log_codebook_size(R, n)
            res = exact_error_probability(n, lm, p, tie)
            ln_pe = res.log_Pe.value
            if prev is None:
                step = ""
            else:
                step = -(ln_pe - prev[1]) / (n - prev[0])
            rows.append({
                "p": p,
                "R": R,
                "n": n,
                "log_M": lm,
                "tie_policy": tie.value,
                "ln_Pe": ln_pe,
                "per_step_slope": step,
            })
            prev = (n, ln_pe)
    return rows


def _cmd_oracle(args) -> int:
    ch = ChannelBSC(args.p)
    rates = _rates_of(args, ch)
    if args.rates is None and args.rate is None:
        rates = [0.3]
    grid = _n_grid_of(args, "16..1024:geometric")
    rows = _oracle_rows(args.p, rates, grid, _tie_of(args))
    _emit(rows, _ORACLE_COLUMNS, args.format, args.out)
    return 0


# ----------------------------------------------------------------- simulate


_SIMULATE_COLUMNS = [
    "p", "R", "n", "mode", "tie_policy", "trials", "errors",
    "estimate", "ci_half_width", "seed",
]


def _cmd_simulate(args) -> int:
    ch = ChannelBSC(args.p)
    rates = _rates_of(args, ch)
    if args.rates is None and args.rate is None:
        rates = [0.3]
    grid = _n_grid_of(args, "8..32:geometric")
    mode = "full-ensemble" if args.mode == "full" else "distance-sampled"
    tie = _tie_of(args)
    rows = []
    for R in rates:
        for n in grid:
            s = estimate_error_probability(args.p, R, n, args.trials, mode, tie, args.seed)
            rows.append({
                "p": args.p,
                "R": R,
                "n": n,
                "mode": mode,
                "tie_policy": tie.value,
                "trials": s.trials,
                "errors": s.errors,
                "estimate": s.estimate,
                "ci_half_width": s.ci_half_width,
                "seed": args.seed,
            })
    _emit(rows, _SIMULATE_COLUMNS, args.format, args.out)
    return 0


# ------------------------------------------------------------------ statsum


_STATSUM_COLUMNS = [
    "z", "R", "n", "M", "samples", "mean_lnS", "median_lnS", "threshold",
    "violation_frequency", "ln_bound", "predicted_per_symbol",
]


def _statsum_rows(p: float, rates: Sequence[float], grid: Sequence[int], samples: int, seed: int) -> list[dict]:
    ch = ChannelBSC(p)
    if ch.p in (0.0, 0.5):
        raise ValueError("statsum study needs p strictly inside (0, 1/2)")
    z = ch.z
    rows = []
    for R in rates:
        per_symbol, _ = typical_log_statsum(z, R)
        for n in grid:
            chk = theorem2_check(z, R, n, samples, seed)
            draws = sample_statsum(z, chk.M, n, samples, seed)
            lns = [s.ln_S for s in draws]
            rows.append({
                "z": z,
                "R": R,
                "n": n,
                "M": chk.M,
                "samples": samples,
                "mean_lnS": statistics.fmean(lns),
                "median_lnS": statistics.median(lns),
                "threshold": chk.threshold,
                "violation_frequency": chk.violation_frequency,
                "ln_bound": chk.ln_bound,
                "predicted_per_symbol": per_symbol,
            })
    return rows


def _cmd_statsum(args) -> int:
    ch = ChannelBSC(args.p)
    rates = _rates_of(args, ch)
    if args.rates is None and args.rate is None:
        rates = [0.1]
    grid = _n_grid_of(args, "40..160:geometric")
    rows = _statsum_rows(args.p, rates, grid, args.samples, args.seed)
    _emit(rows, _STATSUM_COLUMNS, args.format, args.out)
    return 0


# ------------------------------------------------------------------- verify


@dataclass
class VerifyReport:
    inputs: dict
    identity_checks: list
    threshold_order: dict
    branch_table: list
    oracle_slopes: list
    statsum_findings: dict
    open_flags: list
    versions: dict
    seed: int

    def to_dict(self) -> dict:
        return {
            "inputs": self.inputs,
            "identity_checks": self.identity_checks,
            "threshold_order": self.threshold_order,
            "branch_table": self.branch_table,
            "oracle_slopes": self.oracle_slopes,
            "statsum_findings": self.statsum_findings,
            "open_flags": self.open_flags,
            "versions": self.versions,
            "seed": self.seed,
        }

    @property
    def internal_ok(self) -> bool:
        return all(c["passed"] for c in self.identity_checks)


def _check(name: str, measured: float, expected: float, tol: float) -> dict:
    return {
        "name": name,
        "passed": bool(abs(measured - expected) <= tol),
        "measured": measured,
        "expected": expected,
        "tolerance": tol,
    }


def _entropy_b0_closed_form(ch: ChannelBSC) -> float:
    sp, sq = math.sqrt(ch.p), math.sqrt(ch.q)
    return math.log(sq + sp) - (sp * math.log(ch.p) + sq * math.log(ch.q)) / (2.0 * (sq + sp))


def _rel_match(a: float, b: float) -> bool:
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    scale = max(abs(a), abs(b))
    return scale > 0 and abs(a - b) <= _MATCH_RTOL * scale


def run_verify(
    p: float,
    rates: Sequence[float],
    n_grid: Sequence[int],
    trials: int,
    seed: int,
    samples: int = 1000,
) -> VerifyReport:
    """Cross-check battery.  Internal-consistency failures flip the passed
    bit of an identity check; disagreements with the printed formulas are
    recorded as open flags only."""
    ch = ChannelBSC(p)
    rates = list(rates)
    n_grid = list(n_grid)
    open_flags: list = []

    R_crit = new_critical_rate(ch)
    R_cr = critical_rate(ch)
    checks = [
        _check("r0_at_Rcrit_equals_b0", rate_r0(ch, R_crit), b0(ch), 1e-12),
        _check("entropy_b0_closed_form", binary_entropy(b0(ch)), _entropy_b0_closed_form(ch), 1e-12),
        _check("tangency_branch2_at_Rcr", gallager_e0(ch) - R_cr, sphere_packing(ch, R_cr), 1e-12),
    ]

    # printed two-branch value at b = r0 vs the direct f2 evaluation there
    R_probe = rates[0]
    r0 = rate_r0(ch, R_probe)
    if 0.0 < r0 < 1.0 and LN2 - R_probe - binary_entropy(r0) >= 0.0:
        literal = 2.0 * R_probe - LN2 + 2.0 * binary_entropy(r0) + math.log(math.sqrt(p * ch.q))
        checks.append(_check("f2_at_r0_matches_branch1", f2(ch, R_probe, r0), literal, 1e-12))

    # Monte Carlo vs exact oracle on one desk-scale internal cell
    R_mc = rates[len(rates) // 2]
    n_mc = 16
    mc = estimate_error_probability(p, R_mc, n_mc, trials, "distance-sampled", TiePolicy.TIES_AS_ERROR, seed)
    exact = math.exp(
        exact_error_probability(n_mc, log_codebook_size(R_mc, n_mc), p, TiePolicy.TIES_AS_ERROR).log_Pe.value
    )
    checks.append(_check("oracle_vs_monte_carlo", mc.estimate, exact, 4.0 * mc.ci_half_width))

    ordering_as_printed = bool(R_crit < R_cr)
    threshold_order = {"R_crit": R_crit, "R_cr": R_cr, "ordering_as_printed": ordering_as_printed}
    if not ordering_as_printed:
        open_flags.append({
            "flag": "threshold-order",
            "detail": "printed ordering R_crit < R_cr fails numerically; "
                      "no rate region selects the middle branch",
            "R_crit": R_crit,
            "R_cr": R_cr,
        })

    branch_table = []
    for R in rates:
        rep = printed_exponent(ch, R)
        b_star, restr = restricted_variational_exponent(ch, R)
        branch_table.append({
            "R": R,
            "branch1": rep.branch1,
            "branch2": rep.branch2,
            "branch3": rep.branch3,
            "selected": rep.selected,
            "restricted_variational": restr,
            "restricted_b_star": b_star,
            "classical": classical_exponent(ch, R),
        })
        if rate_r0(ch, R) > delta_from_rate(ch, R):
            open_flags.append({
                "flag": "r0-above-delta",
                "detail": "claimed bound r0 <= delta_R fails; the printed low-rate "
                          "branch evaluates f2 outside the bracket-active region",
                "R": R,
                "r0": rate_r0(ch, R),
                "delta_R": delta_from_rate(ch, R),
            })

    oracle_slopes = []
    for R in rates:
        fit_rows = [
            exact_error_probability(n, log_codebook_size(R, n), p, TiePolicy.TIES_AS_ERROR).log_Pe.value
            for n in n_grid
        ]
        fit = fit_log_decay(n_grid, fit_rows)
        rep = printed_exponent(ch, R)
        cls = classical_exponent(ch, R)
        matches = {
            "branch1": _rel_match(fit.slope, rep.branch1),
            "neg_branch1": _rel_match(fit.slope, -rep.branch1),
            "branch2": _rel_match(fit.slope, rep.branch2),
            "branch3": _rel_match(fit.slope, rep.branch3),
            "classical": _rel_match(fit.slope, cls),
        }
        oracle_slopes.append({
            "p": p,
            "R": R,
            "slope": fit.slope,
            "log_correction": fit.log_correction,
            "per_step": list(fit.per_step_slopes),
            "branch1": rep.branch1,
            "neg_branch1": -rep.branch1,
            "classical": cls,
            "matches": matches,
        })
        if not any(matches.values()):
            open_flags.append({
                "flag": "slope-matches-no-branch",
                "detail": "fitted oracle slope agrees with none of the candidate "
                          "formulas within 5%",
                "R": R,
                "slope": fit.slope,
            })

    st = theorem2_check(ch.z, 0.1, 40, samples, seed)
    per_symbol, b_star = typical_log_statsum(ch.z, 0.1)
    statsum_findings = {
        "z": ch.z,
        "R": 0.1,
        "n": st.n,
        "M": st.M,
        "samples": st.samples,
        "violation_frequency": st.violation_frequency,
        "threshold": st.threshold,
        "ln_bound": st.ln_bound,
        "predicted_per_symbol": per_symbol,
        "predicted_b_star": b_star,
    }
    if st.violation_frequency > math.exp(max(st.ln_bound, -745.0)):
        open_flags.append({
            "flag": "statsum-concentration",
            "detail": "measured deviation frequency exceeds the stated "
                      "(n+1)^(-M) bound",
            "violation_frequency": st.violation_frequency,
            "ln_bound": st.ln_bound,
        })

    return VerifyReport(
        inputs={"p": p, "rates": rates, "n_grid": n_grid, "trials": trials, "samples": samples},
        identity_checks=checks,
        threshold_order=threshold_order,
        branch_table=branch_table,
        oracle_slopes=oracle_slopes,
        statsum_findings=statsum_findings,
        open_flags=open_flags,
        versions={
            "bsclab": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
        seed=seed,
    )


def _cmd_verify(args) -> int:
    ch = ChannelBSC(args.p)
    rates = _rates_of(args, ch)
    if args.rates is None and args.rate is None:
        C = capacity(ch)
        rates = [R for R in (0.05, 0.2, 0.3) if R < C]
        if not rates:
            raise ValueError(f"every default rate 0.05, 0.2, 0.3 is at or above capacity {C!r}; "
                             "give --rate or --rates")
    grid = _n_grid_of(args, "512..8192:geometric")
    report = run_verify(args.p, rates, grid, args.trials, args.seed, samples=args.samples)
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.internal_ok else 1


# --------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="bsclab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    handlers = {
        "exponents": _cmd_exponents,
        "oracle": _cmd_oracle,
        "simulate": _cmd_simulate,
        "statsum": _cmd_statsum,
        "verify": _cmd_verify,
    }
    for name, fn in handlers.items():
        sp = sub.add_parser(name)
        sp.add_argument("--p", type=float, default=None)
        sp.add_argument("--rate", type=float, default=None)
        sp.add_argument("--rates", type=str, default=None)
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--n-grid", dest="n_grid", type=str, default=None)
        sp.add_argument("--trials", type=int, default=None)
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--tie-policy", dest="tie_policy", choices=["error", "random"], default=None)
        sp.add_argument("--mode", choices=["full", "distance"], default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--format", choices=["csv", "json"], default=None)
        sp.add_argument("--config", type=str, default=None)
        sp.set_defaults(handler=fn)
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _resolve(args)
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"bsclab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
