"""Tests of the benchmark's own reference and span arithmetic.

    python3 -m pytest -q perfbench

The reference is checked against exact rational enumeration of every
codebook and noise pattern at tiny n, which shares no formula with it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

import reference
from tracer import Tracer, derive, span_records


def _enumerated_error_probability(n: int, M: int, p: Fraction, tie: str) -> Fraction:
    """Average over all noise patterns and all competitor words, exactly.

    The transmitted word is all-zero (the ensemble is invariant under XOR),
    so the received word is the noise pattern e and competitor w lies at
    distance popcount(w ^ e).  A tie for the minimum is an error, or under
    random tie-breaking loses with probability k/(k+1) for k tied competitors.
    """
    words = range(2**n)
    q = 1 - p
    total = Fraction(0)
    for e in words:
        d = bin(e).count("1")
        weight = p**d * q ** (n - d)
        lost = Fraction(0)
        for comp in itertools.product(words, repeat=M - 1):
            dist = [bin(w ^ e).count("1") for w in comp]
            if min(dist) < d:
                lost += 1
            elif min(dist) == d:
                k = dist.count(d)
                lost += 1 if tie == "error" else Fraction(k, k + 1)
        total += weight * lost / (2**n) ** (M - 1)
    return total


@pytest.mark.parametrize("tie", ["error", "random"])
@pytest.mark.parametrize("n,M", [(1, 2), (2, 3), (3, 2), (3, 4), (4, 3)])
@pytest.mark.parametrize("p", [0.1, 0.25])
def test_reference_matches_enumeration(n, M, p, tie):
    exact = _enumerated_error_probability(n, M, Fraction(p), tie)
    got = reference.log_error_probability(n, 0.0, p, tie, M=M)
    assert got == pytest.approx(math.log(exact), rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("tie", ["error", "random"])
def test_reference_precision_is_enough(tie):
    """100 more digits than the rule gives change nothing at double precision."""
    n, R = 256, 0.02
    base = reference.log_error_probability(n, R, 0.1, tie)
    with mp.workdps(reference.digits_for(n) + 100):
        M = reference.codebook_size(R, n)
        more = float(mp.log(reference._log_error_probability(n, M, 0.1, tie)))
    assert base == pytest.approx(more, rel=1e-15)


def test_stored_values_are_current(tmp_path):
    """reference_values.json is what `python3 perfbench/reference.py` writes."""
    fresh = tmp_path / "values.json"
    reference.write_values(str(fresh))
    assert fresh.read_text() == open(reference.VALUES_FILE).read()


def test_codebook_size_switches_at_e40():
    assert reference.codebook_size(0.3, 16) == 122
    assert reference.codebook_size(0.02, 1024) == 784063053
    with mp.workdps(30):
        assert mp.log(reference.codebook_size(0.3, 1024)) == pytest.approx(307.2, rel=1e-25)


def test_closed_forms_identities():
    cf = reference.ClosedForms(0.1)
    with mp.workdps(cf.DPS):
        # the straight line is tangent to sphere packing at the critical rate
        assert cf.straight_line(float(cf.r_cr)) == pytest.approx(cf.sphere_packing(float(cf.r_cr)), abs=1e-15)
        for R in (0.05, 0.2, 0.3):
            d = cf.delta(R)
            h = -(d * mp.log(d) + (1 - d) * mp.log(1 - d))
            assert mp.log(2) - h == pytest.approx(mpf(R), abs=1e-40)
        assert cf.r0(float(cf.r_crit)) == pytest.approx(cf.b0, abs=1e-15)


@pytest.mark.parametrize("R", [0.05, 0.2, 0.3])
def test_restricted_variational_against_grid(R):
    """The piecewise argmax agrees with a dense scan of f2 over [r0, 1]."""
    cf = reference.ClosedForms(0.1)
    with mp.workdps(30):
        lo = min(max(cf.r0(R), mpf(0)), mpf(1))
        grid = [lo + (1 - lo) * i / 20000 for i in range(20001)]
        scan = -max(cf._f2(R, b) for b in grid)
        exact = cf.restricted_variational(R)
    assert -1e-20 < float(scan - exact) < 1e-7


def test_derive_self_time_and_counts():
    spans = [
        {"name": "cli.main", "start": 0.0, "end": 10.0, "parent": -1, "op": 0,
         "attrs": {"command": "oracle"}},
        {"name": "oracle.exact_error_probability", "start": 1.0, "end": 5.0, "parent": 0,
         "op": 0, "attrs": {"n": 99, "log_M": 30.0, "p": 0.1, "tie": "error"}},
        {"name": "logmath.binomial_table", "start": 1.0, "end": 2.0, "parent": 1, "op": 0,
         "attrs": {"built_n": 99}},
    ]
    m = derive(spans, lambda p: 0.13)
    assert m["cli.oracle_s"] == 10.0 and m["cli.self_s"] == 6.0
    assert m["oracle.error.high_rate_s"] == 4.0 and m["oracle.self_s"] == 3.0
    assert m["oracle.error.distances_per_s"] == 100 / 4.0
    assert m["logmath.table_entries"] == 100 and m["logmath.self_s"] == 1.0
    assert m["trace.spans"] == 3


def test_tracer_sees_calls_between_layers_and_uninstalls():
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"))
    from bsclab import cli, oracle

    original = oracle.exact_error_probability
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.exact_error_probability is not original  # the name cli imported
        tracer.op = 7
        oracle.exponent_fit(0.1, 0.3, [16, 32, 64], oracle.TiePolicy.TIES_AS_ERROR)
    finally:
        tracer.uninstall()
    assert oracle.exact_error_probability is original and cli.exact_error_probability is original
    records = span_records(tracer.take())
    names = [r["name"] for r in records]
    assert names[0] == "oracle.exponent_fit" and names.count("oracle.exact_error_probability") == 3
    calls = [r for r in records if r["name"] == "oracle.exact_error_probability"]
    assert all(r["parent"] == 0 and r["op"] == 7 for r in calls)
    assert [r["attrs"]["n"] for r in calls] == [16, 32, 64]
