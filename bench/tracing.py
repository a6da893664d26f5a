"""Span tracing from outside the package.

A traced function is replaced, in every ``cacconv`` module that holds a
reference to it, by a wrapper that records one span: name, start, end,
parent span and op id.  Layer instances get their ``forward`` and
``backward`` wrapped the same way.  Spans stay in memory until the run
writes them out; nothing inside the package changes.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, function) pairs recorded as spans.  kernel_matrix and
# check_finite are traced so that the self time of a gated forward is
# left with its own loops, Sobel and blend.
SPAN_TARGETS = (
    ("data", "load_cifar10"),
    ("data", "synth_dataset"),
    ("tensor", "im2col_batch"),
    ("tensor", "col2im_batch"),
    ("tensor", "channel_mean"),
    ("tensor", "kernel_matrix"),
    ("tensor", "check_finite"),
    ("cac", "cac_forward_hard"),
    ("cac", "cac_forward_soft"),
    ("cac", "cac_backward"),
    ("cac", "score_map"),
    ("cac", "aggregate_kernel"),
    ("cac", "sobel_gradient_backward"),
    ("train", "forward_backward"),
    ("train", "sgd_step"),
    ("train", "evaluate"),
)
# Called per sample; counted, not timed, so their cost stays in the
# caller's self time.
COUNT_TARGETS = (("cost", "madds_cac"),)

# Span names whose metric is split by the gated layer that issued them.
PER_LAYER_SPANS = ("cac.cac_forward_hard", "cac.cac_forward_soft", "cac.cac_backward")


def gated_counts(partitions, params):
    """Realized hard-routing work of one gated call, summed over its batch."""
    sharp = sum(p.sharp_count for p in partitions)
    windows = sum(p.total_windows for p in partitions)
    per_window = params.c_in * params.c_out
    return {
        "sharp": sharp,
        "windows": windows,
        "madds_kxk": sharp * per_window * params.k * params.k,
        "madds_1x1": (windows - sharp) * per_window,
    }


class Tracer:
    """Records spans and counts while installed; ``op`` tags each record."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent, op]
        self.counts = defaultdict(float)   # (op, key) -> value
        self.op = None
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(idx, args, result)
            return result

        return traced

    def _count_wrapper(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.op, key)] += 1
            return fn(*args, **kwargs)

        return counted

    def _gated_layer(self, idx):
        """Name of the layer whose forward/backward span encloses span idx."""
        parent = self.spans[idx][3]
        while parent >= 0:
            name = self.spans[parent][0]
            if name.startswith("layers."):
                return name.split(".")[1]
            parent = self.spans[parent][3]
        return "unattributed"

    def _on_gated_forward(self, idx, args, result):
        layer = self._gated_layer(idx)
        for key, value in gated_counts(result[1], args[1]).items():
            self.counts[(self.op, f"cac.{layer}.{key}")] += value

    def _on_im2col(self, idx, args, result):
        self.counts[(self.op, "tensor.im2col_batch.bytes")] += args[0].nbytes + result.nbytes

    # -- install / uninstall ----------------------------------------------

    def _rebind(self, original, replacement):
        """Point every cacconv module attribute that is ``original`` at
        ``replacement``, so calls through any import path are traced."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cacconv" or mod_name.startswith("cacconv.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def install(self, net=None):
        hooks = {
            "cac.cac_forward_hard": self._on_gated_forward,
            "cac.cac_forward_soft": self._on_gated_forward,
            "tensor.im2col_batch": self._on_im2col,
        }
        # A target the package no longer has stops the run: skipping it
        # would read as a layer that takes no time.
        missing = [f"cacconv.{mod}.{fname}" for mod, fname in SPAN_TARGETS + COUNT_TARGETS
                   if not hasattr(sys.modules[f"cacconv.{mod}"], fname)]
        if missing:
            raise LookupError(f"traced functions missing from the package: {missing}")
        for mod, fname in SPAN_TARGETS:
            original = getattr(sys.modules[f"cacconv.{mod}"], fname)
            name = f"{mod}.{fname}"
            self._rebind(original, self._span_wrapper(name, original, hooks.get(name)))
        for mod, fname in COUNT_TARGETS:
            original = getattr(sys.modules[f"cacconv.{mod}"], fname)
            self._rebind(original, self._count_wrapper(f"{mod}.{fname}.calls", original))
        if net is not None:
            self.attach(net)

    def attach(self, net):
        """Wrap each layer instance's forward and backward."""
        for layer in net.layers:
            for method, suffix in (("forward", "fwd"), ("backward", "bwd")):
                bound = getattr(layer, method)
                wrapped = self._span_wrapper(f"layers.{layer.name}.{suffix}", bound)
                setattr(layer, method, wrapped)
                self._patches.append((layer, method, None))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)     # instance override; class method shows again
            else:
                setattr(owner, attr, original)
        self._patches = []

    # -- aggregation ------------------------------------------------------

    def span_totals(self, ops):
        """Per-op mean of total and self time (ms) for each span key over
        the given op ids.  Gated-layer spans are keyed per layer."""
        ops = set(ops)
        child = defaultdict(int)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total, self_time = defaultdict(float), defaultdict(float)
        for idx, (name, t0, t1, parent, op) in enumerate(self.spans):
            if op not in ops:
                continue
            key = name
            if name in PER_LAYER_SPANS:
                key = f"{name}.{self._gated_layer(idx)}"
            total[key] += (t1 - t0) / 1e6
            self_time[key] += (t1 - t0 - child[idx]) / 1e6
        n = max(len(ops), 1)
        return ({k: v / n for k, v in total.items()},
                {k: v / n for k, v in self_time.items()})

    def count_totals(self, ops):
        """Per-op mean of each count over the given op ids."""
        ops = set(ops)
        out = defaultdict(float)
        for (op, key), value in self.counts.items():
            if op in ops:
                out[key] += value
        n = max(len(ops), 1)
        return {k: v / n for k, v in out.items()}

    def to_json(self):
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
        }
