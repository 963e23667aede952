"""Span tracer for the benchmark's traced passes.

``Tracer.install`` wraps the package's functions at each module boundary,
at the name its caller looks up (several callers import a function into
their own namespace, so the defining module is not enough), and
``Tracer.restore`` puts every original back.  Each call records a span with
name, start, end, parent and thread id, plus exact work counts; spans stay
in memory until the run writes them out.  Layers are the package modules:
the span name's first component.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np

LAYERS = ("fading", "constellation", "mutual_info", "bound", "asymptotics", "montecarlo", "cli")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _fft_counts(args: dict) -> dict:
    # Transform length and the bytes of its real and half-complex arrays,
    # computed from their sizes (not measured traffic).
    x = np.asarray(args["a"])
    n = args["n"]
    if n is None:
        n = x.shape[-1] if x.dtype.kind != "c" else 2 * (x.shape[-1] - 1)
    return {"fft_points": n, "bytes_computed": 8 * n + 16 * (n // 2 + 1)}


def _mi_name(args: dict) -> str:
    return "mutual_info.mi_separable" if args["c"].grid_levels is not None else "mutual_info.mi_generic"


def _mi_counts(args: dict, default_order: int) -> dict:
    c, rule = args["c"], args["rule"]
    order = default_order if rule is None else rule.order
    evals = int(np.size(args["rhos"]))
    if c.grid_levels is not None:
        per_eval = c.grid_levels.size**2 * order  # exponentials per real dimension
    else:
        per_eval = c.size**2 * order**2
    return {"evals": evals, "node_evals": evals * per_eval}


def _mc_counts(args: dict, result) -> dict:
    return {"samples": result.n_samples, "events": round(result.p_hat * result.n_samples)}


def patch_table(nk) -> list:
    """(module, attribute, span name, counter) for every traced lookup.

    ``nk`` maps module short names to the imported package modules.  The
    span name may be a function of the bound call arguments; the counter
    maps (arguments, result) to a dict of exact counts.
    """
    b, a, f, mc, cli, mi = (nk[k] for k in ("bound", "asymptotics", "fading", "montecarlo", "cli", "mutual_info"))

    def reg_gamma(args, result):
        return {"points": int(np.size(args["x"]))}

    def mi_counts(args, result):
        return _mi_counts(args, mi.DEFAULT_ORDER)

    return [
        (b, "reg_gamma_p", "fading.reg_gamma", reg_gamma),
        (b, "reg_gamma_pq", "fading.reg_gamma", reg_gamma),
        (f, "gain_block", "fading.gain_block", lambda args, r: {"rows": args["count"]}),
        (mc, "mi_discrete_array", _mi_name, mi_counts),
        (cli, "mi_discrete_array", _mi_name, mi_counts),
        (b, "build_pmf_A", "bound.build_pmf", None),
        (b, "convolve_power", "bound.convolve", None),
        (a, "convolve_power", "bound.convolve", None),
        (b, "cdf_Y_at", "bound.cdf_Y_at", None),
        (a, "cdf_Y_at", "bound.cdf_Y_at", None),
        (b, "outage_lower_bound", "bound.outage_lower_bound", lambda args, r: {"terms": len(r.per_term)}),
        (a, "coding_gain", "asymptotics.coding_gain", None),
        (mc, "mc_outage", "montecarlo.mc_outage", _mc_counts),
        (mc, "mc_lower_bound", "montecarlo.mc_lower_bound", _mc_counts),
        (cli, "from_name", "constellation.from_name", None),
        (cli, "hermite_rule", "mutual_info.hermite_rule", None),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.root: int | None = None  # parent of spans opened in worker threads
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else self.root
        span = Span(next(self._ids), name, parent, threading.get_ident(), time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, fn, name, counter):
        sig = inspect.signature(fn)
        needs_args = callable(name) or counter is not None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            span = self.open(name(bound.arguments) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span.counts.update(counter(bound.arguments, result))
            return result

        return wrapper

    def _wrap_fft(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for k, v in _fft_counts(bound.arguments).items():
                    stack[-1].counts[k] = stack[-1].counts.get(k, 0) + v
            return fn(*args, **kwargs)

        return wrapper

    def install(self, nk) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod, attr, name, counter in patch_table(nk):
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name, counter))
        # FFT lengths are counted where the transform runs, inside whichever
        # span calls it.
        for attr in ("rfft", "irfft"):
            orig = getattr(np.fft, attr)
            self._saved.append((np.fft, attr, orig))
            setattr(np.fft, attr, self._wrap_fft(orig))

    def restore(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans: list) -> dict:
    """Span id -> duration minus the time its children cover (any thread)."""
    kids = defaultdict(list)
    for s in spans:
        kids[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(kids[s.id], s.start, s.end) for s in spans}


def summarize(spans: list) -> dict:
    """Per span name: number of spans, summed self time and summed counts."""
    own = self_times(spans)
    out: dict = defaultdict(lambda: {"spans": 0, "self_s": 0.0, "busy_s": 0.0, "counts": defaultdict(int)})
    for s in spans:
        row = out[s.name]
        row["spans"] += 1
        row["self_s"] += own[s.id]
        row["busy_s"] += s.end - s.start
        for k, v in s.counts.items():
            row["counts"][k] += v
    return out
