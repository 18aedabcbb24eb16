"""Spans at the layer boundaries of bsclab, recorded from outside the package.

`Tracer.install` replaces every public function of the six layers with a
wrapper that records a span (name, start, end, parent span, operation id).
The replacement is made in every loaded bsclab module that holds a
reference to the function, so calls from one layer into another, such as
`bsclab.cli` calling `exact_error_probability`, are seen too.  Spans stay in
memory until the run ends; `derive` turns them into the per-layer metrics.

Scalar kernels that other layers call once per element (`log1mexp`,
`binary_entropy`, ...) are not wrapped: a span per element would cost more
than the work it measures.  Their time counts as self time of the caller.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
import weakref

LAYERS = ("logmath", "exponents", "oracle", "simulator", "statsum", "cli")

# called per element inside other layers' loops; see the module docstring
SCALAR_KERNELS = frozenset({
    "log1mexp", "log_sum_exp", "log_binomial_cdf", "log_binomial_pmf",
    "binary_entropy", "f1", "f2",
})

# spans of these functions keep their call arguments; `derive` needs the
# attributes made from them (bound arguments by parameter name)
ATTRS = {
    "oracle.exact_error_probability":
        lambda a: {"n": a["n"], "log_M": a["log_M"], "p": a["p"], "tie": a["tie"].value},
    "simulator.estimate_error_probability":
        lambda a: {k: a[k] for k in ("p", "R", "n", "trials", "mode")},
    "statsum.sample_statsum": lambda a: {"M": a["M"], "samples": a["samples"]},
    "cli.main": lambda a: {"command": list(a.get("argv") or [""])[0]},
}


class Tracer:
    def __init__(self):
        # [name, start, end, parent, op, args, kwargs, n of a table built]
        self.spans: list[list] = []
        self.op = None  # operation id stamped on every span
        self._stack: list[int] = []
        self._patched: list = []
        self._tables = weakref.WeakSet()  # binomial tables already seen

    def _wrap(self, name: str, fn):
        keep = name in ATTRS
        is_table = name == "logmath.binomial_table"
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else -1, self.op,
                   args if keep else None, kwargs if keep else None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if is_table and out not in self._tables:
                    self._tables.add(out)
                    rec[7] = out.n
                return out
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        # keyed by id: module globals include unhashable values.  Any callable
        # that is not a class counts, so a function behind functools.cache
        # is traced too.
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"bsclab.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if callable(fn) and not inspect.isclass(fn) and attr not in SCALAR_KERNELS:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "bsclab" and not modname.startswith("bsclab."):
                continue
            for attr, value in list(vars(mod).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def take(self) -> list:
        """Hand over the recorded spans and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def _bound(name: str, args, kwargs) -> dict:
    module, _, func = name.partition(".")
    fn = getattr(importlib.import_module(f"bsclab.{module}"), func)
    return inspect.signature(inspect.unwrap(fn)).bind(*args, **kwargs).arguments


def span_records(spans: list) -> list[dict]:
    """JSON-ready spans; call arguments become a small attribute dict."""
    out = []
    for name, start, end, parent, op, args, kwargs, built_n in spans:
        rec = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
        if args is not None:
            rec["attrs"] = ATTRS[name](_bound(name, args, kwargs))
        elif built_n is not None:
            rec["attrs"] = {"built_n": built_n}
        out.append(rec)
    return out


PER_LAYER = [
    ("logmath.table_s", "s"),
    ("logmath.table_entries", "count"),
    ("logmath.self_s", "s"),
    ("exponents.s", "s"),
    ("exponents.calls", "count"),
    ("exponents.self_s", "s"),
    ("oracle.error.low_rate_s", "s"),
    ("oracle.error.high_rate_s", "s"),
    ("oracle.random.low_rate_s", "s"),
    ("oracle.random.high_rate_s", "s"),
    ("oracle.error.distances_per_s", "1/s"),
    ("oracle.random.distances_per_s", "1/s"),
    ("oracle.distances", "count"),
    ("oracle.fit_s", "s"),
    ("oracle.self_s", "s"),
    ("simulator.full_s", "s"),
    ("simulator.sampled_s", "s"),
    ("simulator.full.trials_per_s", "1/s"),
    ("simulator.sampled.trials_per_s", "1/s"),
    ("simulator.trials", "count"),
    ("simulator.full.code_bytes", "bytes"),
    ("simulator.full.popcounts", "count"),
    ("simulator.self_s", "s"),
    ("statsum.theorem2_s", "s"),
    ("statsum.sample_s", "s"),
    ("statsum.samples_per_s", "1/s"),
    ("statsum.weights", "count"),
    ("statsum.self_s", "s"),
    ("cli.exponents_s", "s"),
    ("cli.oracle_s", "s"),
    ("cli.simulate_s", "s"),
    ("cli.statsum_s", "s"),
    ("cli.verify_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


def derive(records: list[dict], critical_rate) -> dict:
    """Per-layer metrics of one round of spans (from `span_records`).

    critical_rate(p) gives R_cr, which splits oracle calls into the low-rate
    (straight-line) and high-rate (sphere-packing) regimes.  Times are
    inclusive span durations unless the name ends in self_s; a layer's self
    time is its spans' durations minus the parts their direct children cover.
    """
    m = {name: 0.0 for name, _ in PER_LAYER}
    child_time = [0.0] * len(records)
    for r in records:
        if r["parent"] >= 0:
            child_time[r["parent"]] += r["end"] - r["start"]
    for i, r in enumerate(records):
        dur = r["end"] - r["start"]
        layer, _, func = r["name"].partition(".")
        parent = records[r["parent"]]["name"] if r["parent"] >= 0 else ""
        m[f"{layer}.self_s"] += dur - child_time[i]
        attrs = r.get("attrs", {})
        if layer == "exponents":
            m["exponents.calls"] += 1
            if not parent.startswith("exponents."):
                m["exponents.s"] += dur
        elif func == "binomial_table":
            m["logmath.table_s"] += dur
            if "built_n" in attrs:
                m["logmath.table_entries"] += attrs["built_n"] + 1
        elif func == "exact_error_probability":
            rate = attrs["log_M"] / attrs["n"]
            regime = "low_rate" if rate <= critical_rate(attrs["p"]) else "high_rate"
            m[f"oracle.{attrs['tie']}.{regime}_s"] += dur
            m[f"oracle.{attrs['tie']}.distances_per_s"] += attrs["n"] + 1  # rate below
            m["oracle.distances"] += attrs["n"] + 1
        elif func in ("fit_log_decay", "exponent_fit") and not parent.startswith("oracle."):
            m["oracle.fit_s"] += dur
        elif func == "estimate_error_probability":
            mode = "full" if attrs["mode"] == "full-ensemble" else "sampled"
            m[f"simulator.{mode}_s"] += dur
            m[f"simulator.{mode}.trials_per_s"] += attrs["trials"]
            m["simulator.trials"] += attrs["trials"]
            if mode == "full":
                M = max(2, round(math.exp(attrs["R"] * attrs["n"])))
                limbs = (attrs["n"] + 63) // 64
                m["simulator.full.popcounts"] += attrs["trials"] * M * limbs
                m["simulator.full.code_bytes"] += attrs["trials"] * M * limbs * 8
        elif func == "theorem2_check":
            m["statsum.theorem2_s"] += dur
        elif func == "sample_statsum":
            m["statsum.sample_s"] += dur
            m["statsum.samples_per_s"] += attrs["samples"]
            m["statsum.weights"] += attrs["samples"] * attrs["M"]
        elif func == "main":
            m[f"cli.{attrs['command']}_s"] += dur
    # the accumulators above hold work counts; turn them into rates
    for rate_key, time_keys in (
        ("oracle.error.distances_per_s", ("oracle.error.low_rate_s", "oracle.error.high_rate_s")),
        ("oracle.random.distances_per_s", ("oracle.random.low_rate_s", "oracle.random.high_rate_s")),
        ("simulator.full.trials_per_s", ("simulator.full_s",)),
        ("simulator.sampled.trials_per_s", ("simulator.sampled_s",)),
        ("statsum.samples_per_s", ("statsum.sample_s",)),
    ):
        busy = sum(m[k] for k in time_keys)
        m[rate_key] = m[rate_key] / busy if busy > 0 else 0.0
    m["trace.spans"] = len(records)
    return m
