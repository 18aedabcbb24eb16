"""The three benchmark workloads.

Each workload runs in rounds.  `run_round` performs one round of timed
operations, one at a time, and returns them with whatever the checks need;
`check` then judges every operation against the mpmath reference
(`reference.py`) or a property the method must have.  Checks run outside
the timed region, and never compare against stored program output.

    oracle-sweep    exact oracle over n = 512..131072, both rates and tie policies
    mc-cells        Monte Carlo in both modes and tie policies on three cells
    readme-session  the README's five CLI commands, each in a fresh interpreter
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

import reference

HERE = os.path.dirname(os.path.abspath(__file__))

SIGMAS = 5.0  # Monte Carlo estimates must fall within this many reference sigmas
SLOPE_RTOL = 0.05  # fitted decay rate vs its closed-form branch
REF_RTOL = 1e-12  # oracle ln P_e vs the mpmath reference
CLOSED_FORM_TOL = 1e-9  # CLI exponent columns vs the mpmath closed forms


@dataclass
class Op:
    """One timed operation and the verdict of its checks."""

    label: str
    seconds: float
    ok: bool = True
    detail: str = ""
    known_fault: bool = False

    def fail(self, detail: str) -> None:
        if self.ok:
            self.ok, self.detail = False, detail


@dataclass
class Round:
    ops: list
    data: dict = field(default_factory=dict)  # what the checks need
    counts: dict = field(default_factory=dict)  # per-layer counts seen from outside
    spans: list = field(default_factory=list)  # span records, traced rounds only


@lru_cache(maxsize=None)
def closed_forms(p: float) -> reference.ClosedForms:
    return reference.ClosedForms(p)


def critical_rate(p: float) -> float:
    return float(closed_forms(p).r_cr)


def _timed(tracer, op_id: int, fn, *args):
    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _slope(ns, ln_pe) -> float:
    """Least-squares E in -ln P_e(n) = E n + c ln n + a."""
    ns = np.asarray(ns, dtype=np.float64)
    A = np.column_stack([ns, np.log(ns), np.ones_like(ns)])
    coef, *_ = np.linalg.lstsq(A, -np.asarray(ln_pe, dtype=np.float64), rcond=None)
    return float(coef[0])


def _check_slope(op: Op, slope: float, cf: reference.ClosedForms, R: float) -> None:
    own = float(cf.random_coding(R))
    other = float(cf.sphere_packing(R) if R <= cf.r_cr else cf.straight_line(R))
    if _rel(slope, own) > SLOPE_RTOL:
        op.fail(f"slope {slope!r} not within {SLOPE_RTOL:.0%} of its branch {own!r}")
    elif abs(slope - own) >= abs(slope - other):
        op.fail(f"slope {slope!r} nearer the other branch {other!r} than its own {own!r}")


# ------------------------------------------------------------- oracle-sweep


class OracleSweep:
    """`exact_error_probability` at p = 0.1, R in {0.02, 0.3}, both tie
    policies, n = 512..131072 doubling, then one `fit_log_decay` per (R, tie).

    The seed shuffles the order of the 36 calls and of the 4 fits; the inputs
    themselves are fixed.  Every round starts with an empty table cache, and
    each table is built by `binomial_table(n)` just before the first call at
    that n.
    """

    P = 0.1
    RATES = (0.02, 0.3)
    TIES = ("error", "random")
    GRID = tuple(512 * 2**i for i in range(9))
    REF_MAX_N = 1024  # the mpmath reference is affordable up to here
    # Known faults of the random tie-break kernel, failing on every run.
    # n = 1024, R = 0.02: the series path is skipped because expm1(ln M)
    # misses an integer by more than 1e-9 (M ~ 1e7..1e15), and the
    # complement path cancels.  n = 16384 and 32768, R = 0.3: ln s
    # underflows to 0 in the series path once F_d < 1e-308 while K F_d is
    # O(1), so s^(K-j) reads as 1 and ln P_e exceeds ties-as-error.
    KNOWN_FAULTS = {("random", 0.02, 1024), ("random", 0.3, 16384), ("random", 0.3, 32768)}

    def prepare(self, seed: int) -> None:
        from bsclab import logmath, oracle

        self.logmath, self.oracle = logmath, oracle
        self.rng = random.Random(seed)
        self.cf = closed_forms(self.P)
        self.ref = {
            (tie, R, n): reference.stored_log_error_probability(n, R, self.P, tie)
            for tie in self.TIES for R in self.RATES for n in self.GRID if n <= self.REF_MAX_N
        }

    def _clear_tables(self) -> None:
        """Empty the per-n table cache, so every round does the same work.

        Handles both the dict cache of today and a functools cache, seen
        through the tracer's wrapper if one is installed.
        """
        fn = self.logmath.binomial_table
        while not hasattr(fn, "cache_clear") and hasattr(fn, "__wrapped__"):
            fn = fn.__wrapped__
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
        elif hasattr(self.logmath, "_TABLE_CACHE"):
            self.logmath._TABLE_CACHE.clear()

    def run_round(self, index: int, tracer) -> Round:
        lm, orc = self.logmath, self.oracle
        self._clear_tables()
        calls = [(tie, R, n) for tie in self.TIES for R in self.RATES for n in self.GRID]
        self.rng.shuffle(calls)
        fits = [(tie, R) for tie in self.TIES for R in self.RATES]
        self.rng.shuffle(fits)
        ops, tables, results, slopes = [], {}, {}, {}

        def call(n, R, tie):
            return orc.exact_error_probability(
                n, orc.log_codebook_size(R, n), self.P, orc.TiePolicy(tie)
            ).log_Pe.value

        for tie, R, n in calls:
            if n not in tables:
                tab, dt = _timed(tracer, len(ops), lm.binomial_table, n)
                tables[n] = (len(ops), tab)
                ops.append(Op(f"binomial_table n={n}", dt))
            ln_pe, dt = _timed(tracer, len(ops), call, n, R, tie)
            results[(tie, R, n)] = (len(ops), ln_pe)
            ops.append(Op(f"oracle p={self.P} R={R} n={n} tie={tie}", dt,
                          known_fault=(tie, R, n) in self.KNOWN_FAULTS))
        for tie, R in fits:
            ln_pe = [results[(tie, R, n)][1] for n in self.GRID]
            fit, dt = _timed(tracer, len(ops), orc.fit_log_decay, list(self.GRID), ln_pe)
            slopes[(tie, R)] = (len(ops), fit.slope)
            ops.append(Op(f"fit_log_decay R={R} tie={tie}", dt))
        return Round(ops, {"tables": tables, "results": results, "slopes": slopes})

    def check(self, rnd: Round) -> None:
        ops = rnd.ops
        for n, (i, tab) in rnd.data["tables"].items():
            lc = np.asarray(tab.log_choose)
            if lc.shape != (n + 1,) or not np.array_equal(lc, lc[::-1]):
                ops[i].fail("table is not n+1 symmetric entries")
            for k in (n // 3, n // 2):
                exact = math.log(math.comb(n, k))
                if _rel(float(lc[k]), exact) > REF_RTOL:
                    ops[i].fail(f"ln C({n},{k}) = {lc[k]!r}, exact {exact!r}")
        results = rnd.data["results"]
        for (tie, R, n), (i, ln_pe) in results.items():
            ref = self.ref.get((tie, R, n))
            if not ln_pe <= 0.0:
                ops[i].fail(f"ln P_e = {ln_pe!r} > 0")
            elif ref is not None and _rel(ln_pe, ref) > REF_RTOL:
                ops[i].fail(f"ln P_e = {ln_pe!r}, mpmath reference {ref!r}")
            if tie == "random":
                err = results[("error", R, n)][1]
                slack = 1e-12 * abs(err)
                if not err - math.log(2.0) - slack <= ln_pe <= err + slack:
                    ops[i].fail(f"ln P_e = {ln_pe!r} outside [{err - math.log(2.0)!r}, {err!r}] "
                                "set by ties-as-error")
        for (tie, R), (i, slope) in rnd.data["slopes"].items():
            ln_pe = [results[(tie, R, n)][1] for n in self.GRID]
            own = _slope(self.GRID, ln_pe)
            if _rel(slope, own) > 1e-9:
                ops[i].fail(f"slope {slope!r} is not the least-squares slope {own!r}")
            _check_slope(ops[i], slope, self.cf, R)

    def close(self) -> None:
        pass


# ----------------------------------------------------------------- mc-cells


class McCells:
    """`estimate_error_probability` in both modes and tie policies on three cells.

    A: p = 0.1,  R = 0.3,  n = 16, M = 122,  1e5 trials (ROADMAP baseline cell)
    B: p = 0.1,  R = 0.3,  n = 24, M = 1339, 2e4 trials (multinomial sampler branch)
    C: p = 0.25, R = 0.06, n = 80, M = 122,  5e4 trials (two 64-bit limbs)

    Round r of a run with seed s uses simulator seed s * 1_000_000 + r.  After
    each round one estimate, a different one each round, is rerun with its
    seed and must give the same error count.
    """

    CELLS = (("A", 0.1, 0.3, 16, 100_000), ("B", 0.1, 0.3, 24, 20_000), ("C", 0.25, 0.06, 80, 50_000))
    MODES = ("full-ensemble", "distance-sampled")
    TIES = ("error", "random")

    def prepare(self, seed: int) -> None:
        from bsclab import oracle, simulator

        self.sim, self.TiePolicy = simulator, oracle.TiePolicy
        self.seed = seed
        self.ref = {
            (cell, tie): math.exp(reference.stored_log_error_probability(n, R, p, tie))
            for cell, p, R, n, _ in self.CELLS for tie in self.TIES
        }
        self.jobs = [(c, mode, tie) for c in self.CELLS for mode in self.MODES for tie in self.TIES]

    def _estimate(self, job, seed):
        (_, p, R, n, trials), mode, tie = job
        return self.sim.estimate_error_probability(p, R, n, trials, mode, self.TiePolicy(tie), seed)

    def run_round(self, index: int, tracer) -> Round:
        seed = self.seed * 1_000_000 + index
        ops, est = [], []
        for job in self.jobs:
            (cell, *_), mode, tie = job
            s, dt = _timed(tracer, len(ops), self._estimate, job, seed)
            ops.append(Op(f"cell {cell} {mode} tie={tie}", dt))
            est.append(s)
        return Round(ops, {"estimates": est, "seed": seed, "index": index})

    def check(self, rnd: Round) -> None:
        for op, job, s in zip(rnd.ops, self.jobs, rnd.data["estimates"]):
            (cell, p, R, n, trials), mode, tie = job
            P = self.ref[(cell, tie)]
            sigma = math.sqrt(P * (1.0 - P) / trials)
            if s.trials != trials or s.estimate != s.errors / trials:
                op.fail(f"summary inconsistent: {s.errors}/{s.trials} vs {s.estimate!r}")
            elif abs(s.estimate - P) > SIGMAS * sigma:
                op.fail(f"estimate {s.estimate!r} is {abs(s.estimate - P) / sigma:.1f} sigma "
                        f"from the reference {P!r}")
        k = rnd.data["index"] % len(self.jobs)
        again = self._estimate(self.jobs[k], rnd.data["seed"])
        if again.errors != rnd.data["estimates"][k].errors:
            rnd.ops[k].fail(f"rerun with seed {rnd.data['seed']} gave {again.errors} errors, "
                            f"first run {rnd.data['estimates'][k].errors}")

    def close(self) -> None:
        pass


# ----------------------------------------------------------- readme-session


class ReadmeSession:
    """The five commands of the README's CLI section, verbatim except that
    `simulate` takes the benchmark's seed, each in its own interpreter with a
    cold table cache.  Every round repeats them with the same seed, so their
    outputs must be byte-identical to the first round's."""

    P = 0.1
    ORACLE_GRID = (512, 1024, 2048, 4096, 8192)
    ORACLE_RATE = 0.3
    STATSUM = {"R": 0.1, "n": 40, "samples": 10000}

    def __init__(self, root: str, workdir: str):
        self.root, self.workdir = root, workdir

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.commands = [
            ["exponents", "--p", "0.1", "--rates", "0.05,0.2,0.3"],
            ["oracle", "--p", "0.1", "--rate", "0.3", "--n-grid", "512..8192:geometric"],
            ["simulate", "--p", "0.1", "--rate", "0.3", "--n", "16", "--trials", "100000",
             "--seed", str(seed)],
            ["statsum", "--p", "0.1", "--rate", "0.1", "--n", "40", "--samples", "10000"],
            ["verify", "--p", "0.1", "--out", "report.json"],
        ]
        self.cf = closed_forms(self.P)
        self.oracle_ref = {
            n: reference.stored_log_error_probability(n, self.ORACLE_RATE, self.P, "error")
            for n in self.ORACLE_GRID if n <= OracleSweep.REF_MAX_N
        }
        self.sim_ref = math.exp(reference.stored_log_error_probability(16, 0.3, self.P, "error"))
        self.first = None  # outputs of the first round
        os.makedirs(self.workdir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))

    def run_round(self, index: int, tracer) -> Round:
        ops, outputs, spans = [], [], []
        report = os.path.join(self.workdir, "report.json")
        for op_id, args in enumerate(self.commands):
            if os.path.exists(report):
                os.remove(report)
            env = self.env
            if tracer is None:
                argv = [sys.executable, "-m", "bsclab.cli", *args]
            else:
                span_file = os.path.join(self.workdir, "spans.json")
                argv = [sys.executable, os.path.join(HERE, "tracecli.py"), *args]
                env = dict(env, PERFBENCH_SPANS=span_file, PERFBENCH_OP=str(op_id))
            t0 = time.perf_counter()
            proc = subprocess.run(argv, cwd=self.workdir, env=env, capture_output=True, timeout=150)
            dt = time.perf_counter() - t0
            out = {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
            if args[0] == "verify" and os.path.exists(report):
                with open(report, "rb") as fh:
                    out["report"] = fh.read()
            if tracer is not None and proc.returncode == 0:
                with open(span_file, encoding="utf-8") as fh:
                    recs = json.load(fh)
                base = len(spans)
                for r in recs:
                    r["parent"] = r["parent"] + base if r["parent"] >= 0 else -1
                spans.extend(recs)
            ops.append(Op(" ".join(["bsclab", *args]), dt))
            outputs.append(out)
        nbytes = sum(len(o["stdout"]) + len(o.get("report", b"")) for o in outputs)
        return Round(ops, {"outputs": outputs}, {"cli.bytes_out": nbytes}, spans)

    def check(self, rnd: Round) -> None:
        outputs = rnd.data["outputs"]
        if self.first is None:
            self.first = outputs
        for op, args, out, first in zip(rnd.ops, self.commands, outputs, self.first):
            if out["rc"] != 0:
                op.fail(f"exit {out['rc']}: {out['stderr'].decode(errors='replace').strip()}")
                continue
            for key in ("stdout", "report"):
                if out.get(key) != first.get(key):
                    op.fail(f"{key} differs from the first round's")
            try:
                getattr(self, f"_check_{args[0]}")(op, out)
            except (KeyError, ValueError, IndexError, json.JSONDecodeError) as exc:
                op.fail(f"output not as documented: {exc!r}")

    @staticmethod
    def _rows(out) -> list[dict]:
        return list(csv.DictReader(io.StringIO(out["stdout"].decode())))

    def _check_exponents(self, op: Op, out) -> None:
        cf = self.cf
        rows = self._rows(out)
        if [float(r["R"]) for r in rows] != [0.05, 0.2, 0.3]:
            op.fail("rows are not the rates 0.05, 0.2, 0.3")
        selected = "inconsistent-thresholds" if cf.r_crit > cf.r_cr else None
        for r in rows:
            R = float(r["R"])
            want = {
                "delta_R": cf.delta(R), "r0": cf.r0(R), "b0": cf.b0, "R_cr": cf.r_cr,
                "R_crit": cf.r_crit, "C": cf.capacity, "branch1": cf.branch1(R),
                "branch2": cf.straight_line(R), "branch3": cf.sphere_packing(R),
                "restricted_variational": cf.restricted_variational(R),
                "classical": cf.random_coding(R),
            }
            for col, value in want.items():
                if abs(float(r[col]) - float(value)) > CLOSED_FORM_TOL:
                    op.fail(f"R={R} {col} = {r[col]}, closed form {float(value)!r}")
            if selected is None:
                selected = ("branch1" if R <= cf.r_crit else "branch2" if R <= cf.r_cr
                            else "branch3")
            if r["selected"] != selected:
                op.fail(f"R={R} selected {r['selected']}, expected {selected}")

    def _check_oracle(self, op: Op, out) -> None:
        rows = self._rows(out)
        ns = [int(r["n"]) for r in rows]
        ln_pe = [float(r["ln_Pe"]) for r in rows]
        if ns != list(self.ORACLE_GRID):
            op.fail(f"rows at n = {ns}")
            return
        if any(b >= a for a, b in zip(ln_pe, ln_pe[1:])):
            op.fail(f"ln P_e does not decrease in n: {ln_pe}")
        for n, v in zip(ns, ln_pe):
            ref = self.oracle_ref.get(n)
            if ref is not None and _rel(v, ref) > REF_RTOL:
                op.fail(f"n={n} ln P_e = {v!r}, mpmath reference {ref!r}")
        _check_slope(op, _slope(ns, ln_pe), self.cf, self.ORACLE_RATE)

    def _check_simulate(self, op: Op, out) -> None:
        (row,) = self._rows(out)
        trials, errors, est = int(row["trials"]), int(row["errors"]), float(row["estimate"])
        if trials != 100000 or int(row["seed"]) != self.seed or est != errors / trials:
            op.fail(f"row inconsistent with its command: {row}")
        sigma = math.sqrt(self.sim_ref * (1.0 - self.sim_ref) / trials)
        if abs(est - self.sim_ref) > SIGMAS * sigma:
            op.fail(f"estimate {est!r} is {abs(est - self.sim_ref) / sigma:.1f} sigma "
                    f"from the reference {self.sim_ref!r}")

    def _check_statsum(self, op: Op, out) -> None:
        (row,) = self._rows(out)
        cf, st = self.cf, self.STATSUM
        M = cf.statsum_size(st["R"], st["n"])
        if int(row["M"]) != M or int(row["samples"]) != st["samples"]:
            op.fail(f"M = {row['M']}, samples = {row['samples']}; expected {M}, {st['samples']}")
        threshold = float(cf.statsum_threshold(st["n"]))
        ln_bound = -M * math.log(st["n"] + 1)
        if _rel(float(row["threshold"]), threshold) > REF_RTOL:
            op.fail(f"threshold {row['threshold']}, closed form {threshold!r}")
        if _rel(float(row["ln_bound"]), ln_bound) > REF_RTOL:
            op.fail(f"ln_bound {row['ln_bound']}, closed form {ln_bound!r}")
        jensen = float(cf.statsum_jensen_bound(M, st["n"]))
        if not float(row["mean_lnS"]) <= jensen:
            op.fail(f"mean_lnS {row['mean_lnS']} above ln E[S] = {jensen!r}")
        if not 0.0 <= float(row["violation_frequency"]) <= 1.0:
            op.fail(f"violation_frequency {row['violation_frequency']} is not a frequency")

    def _check_verify(self, op: Op, out) -> None:
        report = json.loads(out["report"])
        failed = [c["name"] for c in report["identity_checks"] if not c["passed"]]
        if failed or not report["identity_checks"]:
            op.fail(f"identity checks failed: {failed}")
        if out["stdout"]:
            op.fail("verify --out wrote to stdout")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {"oracle-sweep": OracleSweep, "mc-cells": McCells, "readme-session": ReadmeSession}
