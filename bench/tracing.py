"""Spans around the calls into each module's public functions.

The program is not edited: a ``Tracer`` rebinds public names in the
``approxrate`` modules to timing wrappers and restores them on ``close``.
Spans are kept in memory as [name, start, end, parent, work] (parent is
the index of the enclosing span, or -1; work is the edge-points of an
``evaluate_batch`` call or the records of a ``decode`` call, else 0) and
written out once at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

# (module, attribute) pairs rebound when tracing; the copies of
# evaluate_batch imported into quantizer and ratelab are rebound as well.
TRACED = [
    ("wedgelet", "encode_to_target"),
    ("wedgelet", "encode"),
    ("wedgelet", "fit_rdp"),
    ("wedgelet", "project"),
    ("wedgelet", "decode"),
    ("wedgelet.WedgeCode", "to_bytes"),
    ("wedgelet.WedgeCode", "from_bytes"),
    ("cartoon", "rasterize"),
    ("nnet", "evaluate_batch"),
    ("quantizer", "evaluate_batch"),
    ("ratelab", "evaluate_batch"),
    ("nnet", "network_to_json"),
    ("nnet", "network_from_json"),
    ("constructors", "build_bspline_net"),
    ("quantizer", "find_min_m"),
    ("quantizer", "quantize_weights"),
    ("ratelab", "l2_error_quad"),
    ("ratelab", "covering_distortion_greedy"),
]


def _work(name, args) -> int:
    if name == "nnet.evaluate_batch":
        net, xs = args[0], args[1]
        weights = sum(len(s.edge_weights) + len(s.node_weights)
                      for s in net.steps)
        return weights * int(xs.shape[1])
    if name == "wedgelet.decode":
        return len(args[0].records)
    return 0


def _span_name(owner: str, attr: str) -> str:
    module = owner.split(".")[0]
    if attr == "evaluate_batch":
        module = "nnet"
    return f"{module}.{attr}"


class Tracer:
    """Records spans and counts while ``active``; a pass-through otherwise."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = Counter()
        self.active = False
        self._stack = []
        self._restore = []

    def install(self):
        for owner_path, attr in TRACED:
            owner = self.package
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            name = _span_name(owner_path, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))

    def close(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent, 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                span[4] = _work(name, args)
                tracer.counts[name + ".calls"] += 1
                if span[4]:
                    tracer.counts[name + ".work"] += span[4]

        return wrapper

    def mark(self) -> int:
        """Index of the next span, to cut the span list into ops."""
        return len(self.spans)

    def dump(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "counts": dict(sorted(self.counts.items())),
                       "spans": self.spans}, fh)


class SpanView:
    """Per-op sums over the spans recorded between two marks."""

    def __init__(self, spans, lo, hi):
        self.spans = spans
        self.lo, self.hi = lo, hi

    def _mine(self):
        return range(self.lo, self.hi)

    def seconds(self, name) -> float:
        return sum(self.spans[i][2] - self.spans[i][1]
                   for i in self._mine() if self.spans[i][0] == name)

    def calls(self, name) -> int:
        return sum(1 for i in self._mine() if self.spans[i][0] == name)

    def work(self, name) -> int:
        return sum(self.spans[i][4] for i in self._mine()
                   if self.spans[i][0] == name)

    def calls_under(self, name, parent_name) -> int:
        return sum(1 for i in self._mine()
                   if self.spans[i][0] == name and self.spans[i][3] >= 0
                   and self.spans[self.spans[i][3]][0] == parent_name)

    def self_seconds(self, name) -> float:
        """Time in ``name`` spans not covered by their direct child spans."""
        own = {i for i in self._mine() if self.spans[i][0] == name}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in own)
        children = sum(self.spans[i][2] - self.spans[i][1]
                       for i in self._mine() if self.spans[i][3] in own)
        return total - children
