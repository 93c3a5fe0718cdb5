"""Spans and counters around modelgate's public functions, from outside.

Each wrapper replaces a name where the calling module looks it up (for
example ``modelgate.sim.build_bound_table``, not ``modelgate.bounds``), so
nothing under ``src/`` changes.  Spans are kept in memory and written once;
self times are derived from them afterwards.  The wrappers read arguments
and program state only: they draw no random numbers and change no output.
"""

from __future__ import annotations

import csv
import functools
import math
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

# span name -> per-layer time metric (without the ``_s`` suffix)
LAYER_OF = {
    "cli.run": "cli.emit",
    "cli.ingest": "cli.ingest",
    "cli.load_config": "cli.config",
    "sim.run_replicate": "sim.eval",
    "sim.developer_propose": "sim.refit",
    "sim.fit_logistic": "sim.refit",
    "sim.apply_shift": "sim.shift",
    "sim.generate_batch": "sim.data",
    "sim.split_batch": "sim.data",
    "bounds.build_bound_table": "bounds.table",
    "strategy.optimistic_step": "strategy.status",
    "strategy.advance": "strategy.advance",
    "meta.strategy_statuses": "meta.statuses",
    "meta.meta_advance": "meta.advance",
    "meta.combine": "meta.combine",
    "meta.max_learning_rate": "meta.solver",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))
COUNTS = (
    "sim.eval_rows", "sim.refit_row_iters", "sim.shifts", "bounds.tables",
    "bounds.rescored_rows", "strategy.state_entries", "meta.bound_evals",
    "core.loss_values", "core.predict_rows", "cli.ingest_rows", "cli.bytes_written",
)
# layers whose self time is broken down by decision step
GROWTH_LAYERS = ("bounds.table", "strategy.status", "strategy.advance", "meta.advance", "sim.refit")


class Tracer:
    """Records (name, start, end, parent, replicate, step) spans and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.replicate = -1
        self.step = 0
        self._next_replicate = 0
        self._eval_rows = lambda t: 0
        self._undo = []

    # -- recording --------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, perf_counter_ns(), 0, parent, self.replicate, self.step]
        self.spans.append(span)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()
            self.stack.pop()

    def _inside(self, name) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0] == name

    def _patch(self, owner, attr, replacement):
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(replacement(original)))

    def span_at(self, owner, attr, name, before=None):
        def make(original):
            def traced(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                return self.call(name, original, *args, **kwargs)
            return traced
        self._patch(owner, attr, make)

    def count_at(self, owner, attr, count):
        def make(original):
            def counted(*args, **kwargs):
                out = original(*args, **kwargs)
                count(args, out)
                return out
            return counted
        self._patch(owner, attr, make)

    # -- hooks that read arguments ------------------------------------------

    def _on_replicate(self, args, kwargs):
        scenario = args[0]
        batches = kwargs.get("batches")
        self.replicate = self._next_replicate
        self._next_replicate += 1
        self.step = 0
        if batches is None:
            self._eval_rows = lambda t: scenario.eval_size
        else:
            sizes = [b.size for b in batches]
            self._eval_rows = lambda t: sizes[t]

    def _on_propose(self, args, kwargs):
        self.step = args[3]

    def _on_table(self, args, kwargs):
        t, registry = args[0], args[1]
        self.step = t
        self.counts["bounds.tables"] += 1
        # every live candidate is scored on the step's evaluation sample
        self.counts["sim.eval_rows"] += self._eval_rows(t) * (len(registry) - 1)

    def _on_fit(self, args, kwargs):
        self.counts["sim.refit_row_iters"] += len(args[0]) * args[2].iterations

    def _on_advance(self, args, kwargs):
        self.counts["strategy.state_entries"] += len(args[1])

    def _on_bound(self, args, out):
        self.counts["meta.bound_evals"] += 1

    def _on_predict(self, args, out):
        rows = len(out)
        self.counts["core.predict_rows"] += rows
        if self._inside("bounds.build_bound_table"):
            self.counts["bounds.rescored_rows"] += rows

    def _on_loss(self, args, out):
        self.counts["core.loss_values"] += out.size

    def _on_ingest(self, args, out):
        self.counts["cli.ingest_rows"] += sum(out.sizes)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the names at the call sites that the run path uses."""
        import modelgate.cli as cli
        import modelgate.meta as meta
        import modelgate.sim as sim
        from modelgate.core import CandidateModel, LossFunction

        self.span_at(cli, "run_replicate", "sim.run_replicate", self._on_replicate)
        self.span_at(cli, "ingest", "cli.ingest")
        self.count_at(cli, "ingest", self._on_ingest)
        self.span_at(sim, "developer_propose", "sim.developer_propose", self._on_propose)
        self.span_at(sim, "fit_logistic", "sim.fit_logistic", self._on_fit)
        self.span_at(sim, "apply_shift", "sim.apply_shift")
        self.span_at(sim, "generate_batch", "sim.generate_batch")
        self.span_at(sim, "split_batch", "sim.split_batch")
        self.span_at(sim, "build_bound_table", "bounds.build_bound_table", self._on_table)
        self.span_at(sim, "optimistic_step", "strategy.optimistic_step")
        self.span_at(meta, "optimistic_step", "strategy.optimistic_step")
        self.span_at(sim, "strategy_advance", "strategy.advance", self._on_advance)
        self.span_at(meta, "strategy_advance", "strategy.advance", self._on_advance)
        self.span_at(sim, "strategy_statuses", "meta.strategy_statuses")
        self.span_at(sim, "meta_advance", "meta.meta_advance")
        self.span_at(sim, "combine", "meta.combine")
        self.span_at(sim, "max_learning_rate", "meta.max_learning_rate")
        self.count_at(meta, "risk_bound", self._on_bound)
        self.count_at(CandidateModel, "predict", self._on_predict)
        self.count_at(LossFunction, "of_array", self._on_loss)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Analysis


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_seconds(spans, own) -> dict:
    """Self seconds per layer; ``own`` holds the spans' self times in ns."""
    out = dict.fromkeys(LAYERS, 0.0)
    for span, ns in zip(spans, own):
        out[LAYER_OF[span[0]]] += ns * 1e-9
    return out


def module_seconds(layers: dict) -> dict:
    out = defaultdict(float)
    for layer, seconds in layers.items():
        out[layer.split(".")[0]] += seconds
    return dict(out)


def growth(spans, own) -> dict:
    """Mean self seconds per replicate at each step t, for GROWTH_LAYERS."""
    replicates = {span[4] for span in spans if span[0] == "sim.run_replicate"}
    per_step = {layer: defaultdict(float) for layer in GROWTH_LAYERS}
    for span, ns in zip(spans, own):
        layer = LAYER_OF[span[0]]
        if layer in per_step and span[5] >= 1:
            per_step[layer][span[5]] += ns * 1e-9
    n = max(len(replicates), 1)
    return {layer: {t: s / n for t, s in sorted(steps.items())} for layer, steps in per_step.items()}


def growth_exponent(series: dict) -> float:
    """Least-squares slope of log(self time) on log(t) over the second half
    of the horizon: about 1 for O(t) per-step work, 2 for O(t^2)."""
    pts = [(math.log(t), math.log(s)) for t, s in series.items() if s > 0]
    pts = pts[len(pts) // 2:]
    if len(pts) < 3:
        return float("nan")
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx > 0 else float("nan")


def write_spans(spans, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "name", "start_ns", "end_ns", "parent", "replicate", "step"])
        for k, span in enumerate(spans):
            writer.writerow([k, *span])
