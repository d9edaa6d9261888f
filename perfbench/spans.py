"""Per-layer spans and counts, recorded from outside the package.

For a traced invocation the benchmark rebinds the names through which one
``divvy`` module calls into another (``cli`` calling the parsers, a family
module calling ``rank_by_distance``, ...) to thin wrappers, and puts every
original back afterwards.  Nothing in ``src/`` is edited.  A span records
its duration and the part of it spent in spans opened beneath it, so each
layer's self time is its total minus its children.  Hot leaf functions get
a call count only, since reading the clock around them would cost more
than they do.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

SPAN = "span"
COUNT = "count"

# (module under divvy, name bound in that module, layer key, kind).
# A binding is the module's global through which it reaches the function,
# so rebinding it catches exactly the calls made from that module.
BINDINGS: List[Tuple[str, str, str, str]] = [
    ("cli", "parse_dataset", "io", SPAN),
    ("cli", "parse_queries", "io", SPAN),
    ("cli", "parse_value_function", "io", SPAN),
    ("cli", "parse_outcome_values", "io", SPAN),
    ("cli", "parse_coalition_file", "io", SPAN),
    ("cli", "with_coalitions", "io", SPAN),
    ("cli", "knn_shapley_report", "knn_shapley.report", SPAN),
    ("cli", "knn_owen_report", "knn_owen.report", SPAN),
    ("cli", "shapley_frequency_report", "freq_shapley.report", SPAN),
    ("cli", "owen_frequency_report", "freq_owen.report", SPAN),
    ("cli", "write_report", "report.emit", SPAN),
    ("cli", "report_to_json", "report.emit", SPAN),
    ("cli", "export_csv", "report.emit", SPAN),
    ("knn_shapley", "rank_by_distance", "model.rank", SPAN),
    ("knn_owen", "rank_by_distance", "model.rank", SPAN),
    ("freq_shapley", "tally_bin", "model.tally", SPAN),
    ("knn_owen", "knn_owen_distribution", "knn_owen.dp", SPAN),
    ("freq_shapley", "shapley_frequency_single", "freq_shapley.single", SPAN),
    ("freq_owen", "owen_precede_distribution", "freq_owen.precede", SPAN),
    ("freq_owen", "critical_set", "freq_owen.critical", SPAN),
    ("knn_shapley", "assemble_report", "report.assemble", SPAN),
    ("knn_owen", "assemble_report", "report.assemble", SPAN),
    ("freq_shapley", "assemble_report", "report.assemble", SPAN),
    ("freq_owen", "assemble_report", "report.assemble", SPAN),
    ("knn_shapley", "precede_probability", "combinatorics.precede", COUNT),
    ("knn_owen", "precede_probability", "combinatorics.precede", COUNT),
    ("freq_shapley", "precede_probability", "combinatorics.precede", COUNT),
    ("freq_owen", "precede_probability", "combinatorics.precede", COUNT),
]

# Per-layer metrics of a traced run, in print order, with units.
PER_LAYER: List[Tuple[str, str]] = [
    ("io.parse_s", "s"),
    ("io.rows_per_s", "1/s"),
    ("model.rank_s", "s"),
    ("model.rank_calls", "count"),
    ("model.tally_s", "s"),
    ("model.tally_calls", "count"),
    ("combinatorics.precede_calls", "count"),
    ("combinatorics.log_binom_hit_ratio", "ratio"),
    ("combinatorics.log_binom_entries", "count"),
    ("knn_shapley.report_s", "s"),
    ("knn_shapley.self_s", "s"),
    ("knn_owen.report_s", "s"),
    ("knn_owen.self_s", "s"),
    ("knn_owen.dp_s", "s"),
    ("knn_owen.dp_calls", "count"),
    ("freq_shapley.report_s", "s"),
    ("freq_shapley.self_s", "s"),
    ("freq_shapley.single_s", "s"),
    ("freq_shapley.single_calls", "count"),
    ("freq_owen.report_s", "s"),
    ("freq_owen.self_s", "s"),
    ("freq_owen.precede_s", "s"),
    ("freq_owen.precede_calls", "count"),
    ("freq_owen.critical_s", "s"),
    ("report.assemble_s", "s"),
    ("report.emit_s", "s"),
    ("report.bytes_out", "bytes"),
    ("cli.other_s", "s"),
    ("runtime.gc_s", "s"),
    ("runtime.gc_collections", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
]


class Tracer:
    """Span totals, child time and call counts for one invocation."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.child: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.top_level = 0.0  # time inside spans that have no parent span
        self.gc_s = 0.0
        self.gc_collections = 0
        self.missing: List[str] = []  # traced sites absent from the program
        self._open: List[float] = []  # child time of each open span
        self._gc_start = 0.0

    def span(self, key: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.child[key] += self._open.pop()
                self.total[key] += dt
                self.calls[key] += 1
                if self._open:
                    self._open[-1] += dt
                else:
                    self.top_level += dt

        return wrapper

    def count(self, key: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_time(self, key: str) -> float:
        return self.total[key] - self.child[key]

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1


def _module(name: str):
    return importlib.import_module(f"divvy.{name}")


def originals() -> Dict[Tuple[str, str], Callable]:
    """The functions currently bound at every traced site."""
    return {(mod, attr): getattr(_module(mod), attr, None) for mod, attr, _, _ in BINDINGS}


@contextmanager
def installed(tracer: Tracer):
    """Rebind every traced site to a wrapper for the duration of the block."""
    saved = []
    gc.callbacks.append(tracer.on_gc)
    try:
        for mod, attr, key, kind in BINDINGS:
            module = _module(mod)
            fn = getattr(module, attr, None)
            if fn is None:  # the program no longer calls through this name
                tracer.missing.append(f"{mod}.{attr}")
                continue
            saved.append((module, attr, fn))
            wrap = tracer.span if kind == SPAN else tracer.count
            setattr(module, attr, wrap(key, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
        gc.callbacks.remove(tracer.on_gc)


def layer_metrics(
    tracer: Tracer,
    wall_s: float,
    rows: int,
    bytes_out: int,
    log_binom_before: Tuple[int, int, int],
    log_binom_after: Tuple[int, int, int],
) -> Dict[str, float]:
    """Per-layer numbers of one traced invocation (all but trace.overhead,
    which needs the untraced invocations as well).  The ``log_binom``
    arguments are its cache's (hits, misses, entries) around the call."""
    t = tracer.total
    hits = log_binom_after[0] - log_binom_before[0]
    misses = log_binom_after[1] - log_binom_before[1]
    parse_s = t["io"]
    return {
        "io.parse_s": parse_s,
        "io.rows_per_s": rows / parse_s if parse_s else 0.0,
        "model.rank_s": t["model.rank"],
        "model.rank_calls": tracer.calls["model.rank"],
        "model.tally_s": t["model.tally"],
        "model.tally_calls": tracer.calls["model.tally"],
        "combinatorics.precede_calls": tracer.calls["combinatorics.precede"],
        "combinatorics.log_binom_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "combinatorics.log_binom_entries": log_binom_after[2],
        "knn_shapley.report_s": t["knn_shapley.report"],
        "knn_shapley.self_s": tracer.self_time("knn_shapley.report"),
        "knn_owen.report_s": t["knn_owen.report"],
        "knn_owen.self_s": tracer.self_time("knn_owen.report"),
        "knn_owen.dp_s": t["knn_owen.dp"],
        "knn_owen.dp_calls": tracer.calls["knn_owen.dp"],
        "freq_shapley.report_s": t["freq_shapley.report"],
        "freq_shapley.self_s": tracer.self_time("freq_shapley.report"),
        "freq_shapley.single_s": t["freq_shapley.single"],
        "freq_shapley.single_calls": tracer.calls["freq_shapley.single"],
        "freq_owen.report_s": t["freq_owen.report"],
        "freq_owen.self_s": tracer.self_time("freq_owen.report"),
        "freq_owen.precede_s": t["freq_owen.precede"],
        "freq_owen.precede_calls": tracer.calls["freq_owen.precede"],
        "freq_owen.critical_s": t["freq_owen.critical"],
        "report.assemble_s": t["report.assemble"],
        "report.emit_s": t["report.emit"],
        "report.bytes_out": bytes_out,
        "cli.other_s": wall_s - tracer.top_level,
        "runtime.gc_s": tracer.gc_s,
        "runtime.gc_collections": tracer.gc_collections,
        "trace.coverage": tracer.top_level / wall_s,
    }

