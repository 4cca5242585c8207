"""In-memory spans around binsum's public functions, and the per-layer metrics.

`Tracer` wraps each function in `TRACED` in every binsum module namespace
that binds it (certifier imports names from exact and asymptotics, validators
imports saddle_data, cli imports evaluate), so calls between modules are
recorded too.  A span is (id, parent id, name, start, end, note); the note
carries what a layer metric needs from the call, such as the bit length of
an exact value or the certificate kind.  Nothing is written until the run
ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import time
from collections import defaultdict
from fractions import Fraction

import checks

MODULES = ("binsum", "exact", "numerics", "asymptotics", "certifier", "validators", "polynomials", "cli")
DEFAULT_PREC = 128  # binsum.numerics.DEFAULT_PRECISION


def _ratio_key(args, kwargs):
    prec = args[1] if len(args) > 1 else kwargs.get("prec", DEFAULT_PREC)
    return (Fraction(args[0]), prec)


TRACED = {
    "exact.evaluate": lambda args, kwargs, res: abs(res.value).bit_length(),
    "exact.eval_direct": None,
    "exact.eval_reduced": None,
    "exact.evaluation_cost": None,
    "numerics.certified_compare": None,
    "asymptotics.saddle_data": lambda args, kwargs, res: _ratio_key(args, kwargs),
    "asymptotics.gamma_angles": lambda args, kwargs, res: _ratio_key(args, kwargs),
    "asymptotics.oscillation_cosine": None,
    "asymptotics.supercritical_error_bound": None,
    "asymptotics.oscillatory_error_bound": None,
    "asymptotics.near_diagonal_error_bound": None,
    "asymptotics.cos_lower_bound": None,
    "certifier.certify": lambda args, kwargs, res: res.kind.value,
    "certifier.scan_range": None,
    "certifier.difference_windows": None,
    "validators.validate_inequality": lambda args, kwargs, res: res.points,
    "polynomials.c_poly": None,
    "polynomials.tilde_poly": None,
    "polynomials.integer_roots": None,
    "cli.main": None,
}

SELF_TIMES = (
    "certifier.scan_range",
    "exact.evaluate",
    "exact.eval_reduced",
    "exact.eval_direct",
    "certifier.difference_windows",
    "asymptotics.saddle_data",
    "asymptotics.gamma_angles",
    "asymptotics.oscillation_cosine",
    "asymptotics.supercritical_error_bound",
    "asymptotics.oscillatory_error_bound",
    "asymptotics.near_diagonal_error_bound",
    "asymptotics.cos_lower_bound",
    "numerics.certified_compare",
    "validators.validate_inequality",
    "polynomials.c_poly",
    "polynomials.tilde_poly",
    "polynomials.integer_roots",
)
CALL_COUNTS = (
    "exact.evaluate",
    "exact.evaluation_cost",
    "certifier.certify",
    "certifier.difference_windows",
    "asymptotics.saddle_data",
    "asymptotics.gamma_angles",
    "numerics.certified_compare",
)


class Tracer:
    """Installs span-recording wrappers into the binsum modules while active.

    Each `with` block is one traced batch: on exit the wrappers come out, the
    batch's per-layer metrics are appended to `batches`, and the spans of the
    first batch are kept for `write`.
    """

    def __init__(self, modules: dict) -> None:
        self.modules = modules  # short name -> module object
        self.spans: list[tuple] = []
        self.batches: list[dict] = []
        self.first_spans: list[tuple] | None = None
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, note, spans: list, stack: list, ids):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((span_id, parent, name, start, end, note(args, kwargs, res) if note else None))
            return res

        return wrapper

    def __enter__(self) -> "Tracer":
        self.spans = []
        stack, ids = [0], itertools.count(1)
        for name, note in TRACED.items():
            module_name, attr = name.split(".")
            original = getattr(self.modules[module_name], attr)
            wrapper = self._wrap(name, original, note, self.spans, stack, ids)
            for module in self.modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()
        self.batches.append(layer_metrics(self.spans))
        if self.first_spans is None:
            self.first_spans = self.spans

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, _ in self.first_spans or ():
                fh.write(json.dumps([span_id, parent, name, round(start, 7), round(end, 7)]) + "\n")


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(spans: list[tuple]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced batch: name -> (value, unit)."""
    child_time = defaultdict(float)
    child_names = defaultdict(set)
    for _, parent, name, start, end, _ in spans:
        child_time[parent] += end - start
        child_names[parent].add(name)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    distinct = defaultdict(set)
    kinds = defaultdict(int)
    certify_us = []
    result_bits = points = refused = 0
    for span_id, _, name, start, end, note in spans:
        self_s[name] += end - start - child_time[span_id]
        calls[name] += 1
        if name == "exact.evaluate":
            result_bits += note
        elif name == "certifier.certify":
            kinds[note] += 1
            certify_us.append((end - start) * 1e6)
            children = child_names[span_id]
            refused += "exact.evaluation_cost" in children and "exact.evaluate" not in children
        elif name == "validators.validate_inequality":
            points += note
        elif note is not None:
            distinct[name].add(note)
    certify_us.sort()
    out: dict[str, tuple[float, str]] = {"cli.emit.self_s": (self_s["cli.main"], "s")}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = (calls[name], "count")
    out["exact.evaluate.result_bits"] = (result_bits, "bit")
    out["certifier.certify.p50_us"] = (_percentile(certify_us, 50), "us")
    out["certifier.certify.p99_us"] = (_percentile(certify_us, 99), "us")
    for kind in checks.KINDS:
        out[f"certifier.kind.{kind}.count"] = (kinds[kind], "count")
    out["certifier.exact_refused.count"] = (refused, "count")
    for name in ("asymptotics.saddle_data", "asymptotics.gamma_angles"):
        out[f"{name}.distinct_args"] = (len(distinct[name]), "count")
    out["validators.points"] = (points, "count")
    return out


def scaled(metrics: dict, scale: float) -> dict:
    """The metrics of one batch with every time (unit s or us) multiplied by `scale`."""
    return {n: (v * scale if unit in ("s", "us") else v, unit) for n, (v, unit) in metrics.items()}


def median_metrics(per_batch: list[dict]) -> dict[str, tuple[float, str]]:
    """Median of each metric over the traced batches."""
    return {
        name: (statistics.median(m[name][0] for m in per_batch), unit)
        for name, (_, unit) in per_batch[0].items()
    }
