"""Per-layer tracing of the orbifold package, installed from outside it.

Each layer is a module under src/orbifold.  ``Tracer.installed`` wraps the
public functions named in ``SPANS`` wherever they are bound: on the class for
methods, and on every orbifold module attribute that holds a module-level
function, so calls made inside the package are caught too.  Every wrapped
call is a span; a name's self time is its spans' time minus the time covered
by their child spans, so the self times of all names add up to the time
spent inside ``cli.main``.

Hot names (``reduce_word``, ``BarGroupChain.make``) run millions of times,
so spans are folded into per-name totals as they close.  Full spans, with
parent ids, are kept only for ops and the layer entries at most two levels
below them (``cli.main`` and what it calls directly).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# metric name -> "module:attribute" targets that are timed under that name.
SPANS = {
    "group_algebra.mul": ["group_algebra:GroupAlgebraElement.__mul__"],
    "group_algebra.add": [
        "group_algebra:GroupAlgebraElement.__add__",
        "group_algebra:GroupAlgebraElement.__sub__",
        "group_algebra:GroupAlgebraElement.__neg__",
    ],
    "group_algebra.scale": [
        "group_algebra:GroupAlgebraElement.scale",
        "group_algebra:GroupAlgebraElement.shift",
    ],
    "group_algebra.gminus1_factor": ["group_algebra:GroupAlgebraElement.gminus1_factor"],
    "group_algebra.to_text": ["group_algebra:GroupAlgebraElement.to_text"],
    "group_algebra.from_text": ["group_algebra:GroupAlgebraElement.from_text"],
    "group_algebra.invert": ["group_algebra:GroupAlgebraElement.invert"],
    "action.act": ["action:act"],
    "action.sym_mul": ["action:sym_mul"],
    "params.from_json": ["params:DeformationParams.from_json"],
    "params.lam_ga": ["params:DeformationParams.lam_ga"],
    "params.lam_v": ["params:DeformationParams.lam_v"],
    "pbw.check_all": ["pbw:check_all"],
    "pbw.check_condition1": ["pbw:check_condition1"],
    "pbw.check_condition2": ["pbw:check_condition2"],
    "pbw.check_condition3": ["pbw:check_condition3"],
    "pbw.check_condition6": ["pbw:check_condition6"],
    "solver.enumerate_solutions": ["solver:enumerate_solutions"],
    "solver.kernel_basis": ["solver:kernel_basis"],
    "solver.span": ["solver:span"],
    "solver.a_from_c": ["solver:a_from_c"],
    "solver.c_from_ab": ["solver:c_from_ab"],
    "solver.records_to_json": ["solver:records_to_json"],
    "solver.records_to_csv": ["solver:records_to_csv"],
    "rewriting.rules_from_params": ["rewriting:rules_from_params"],
    "rewriting.reduce_word": ["rewriting:RuleSet.reduce_word"],
    "rewriting.check_associativity": ["rewriting:check_associativity"],
    "rewriting.check_dimension": ["rewriting:check_dimension"],
    "chains.verify_chain_maps": ["chains:verify_chain_maps"],
    "chains.bar_differential": ["chains:bar_differential"],
    "chains.periodic_differential": ["chains:periodic_differential"],
    "chains.pi_group": ["chains:pi_group"],
    "chains.iota_chain": ["chains:iota_chain"],
    "chains.BarGroupChain.make": ["chains:BarGroupChain.make"],
    "chains.PeriodicChain.make": ["chains:PeriodicChain.make"],
    "cli.main": ["cli:main"],
}

# Work counts, with their units and the direction a faster program moves them.
COUNTS = {
    "solver.records": ("count", "higher"),  # records returned by enumerate_solutions
    "solver.solutions": ("count", "higher"),  # (c, a) pairs in those records
    "rewriting.irreducible_words": ("count", "lower"),  # words listed by irreducible_words
    "rewriting.reduce_word.distinct_ratio": ("ratio", "lower"),  # distinct words / calls
    "chains.bar_tensors": ("count", "lower"),  # yields of bar_basis
    "cli.stdout_bytes": ("bytes", "lower"),  # bytes the ops printed
}

KEEP_SPAN_DEPTH = 3  # op (1), cli.main (2), its direct callees (3)


def per_layer_metrics() -> list[dict]:
    """The per_layer entries of BENCHMARK.json, in report order."""
    out = []
    for name in SPANS:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in COUNTS.items():
        out.append({"name": name, "unit": unit, "better": better})
    out.append({"name": "trace_overhead", "unit": "ratio", "better": "lower"})
    return out


def _resolve(target: str):
    """(owner, attribute, raw value) for a "module:Class.attr" or "module:func" target."""
    module_name, _, path = target.partition(":")
    owner = sys.modules[f"orbifold.{module_name}"]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    """Per-name call counts and self times, plus the spans of ops and layer entries."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []  # (span id, parent id, op id, name, start, end)
        self._stack: list[list] = []  # [span id or None, child time]
        self._next_id = 0
        self._op_id = None
        self._distinct: dict = {}  # rule set -> (strategy, word) pairs it reduced
        self._distinct_total = 0  # the same, summed over finished ops
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _open(self):
        stack = self._stack
        span_id = None
        if len(stack) < KEEP_SPAN_DEPTH:
            self._next_id += 1
            span_id = self._next_id
        frame = [span_id, 0.0]
        stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        elapsed = end - start
        self.calls[name] += 1
        self.self_s[name] += elapsed - frame[1]
        if stack:
            stack[-1][1] += elapsed
        if frame[0] is not None:
            parent = stack[-1][0] if stack else None
            self.spans.append((frame[0], parent, self._op_id, name, start, end))

    @contextmanager
    def op(self, label: str):
        """The span of one CLI command; every span inside it carries its id."""
        frame = self._open()
        self._op_id = frame[0]
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((frame[0], None, frame[0], f"op.{label}", start, end))
            self._op_id = None
            # Rule sets live for one op; drop them, keeping their counts.
            self._distinct_total += sum(len(s) for s in self._distinct.values())
            self._distinct.clear()

    def wrap(self, name: str, fn, observe=None):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            frame = open_()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, frame, start, perf_counter())
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- counters -----------------------------------------------------------

    def _count_records(self, args, kwargs, records):
        self.counts["solver.records"] += len(records)
        self.counts["solver.solutions"] += sum(len(r.solutions) for r in records)

    def _count_distinct(self, args, kwargs, result):
        rules, word = args[0], args[1]
        rightmost = args[2] if len(args) > 2 else kwargs.get("rightmost", False)
        seen = self._distinct.get(rules)
        if seen is None:
            seen = self._distinct[rules] = set()
        seen.add((rightmost, word))

    def _counting_generator(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return counted

    def _counting_list(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += len(result)
            return result

        return counted

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, raw, new) -> None:
        """Bind new in place of raw on owner, and on every orbifold module holding raw."""
        if isinstance(owner, type):
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "orbifold" and not mod_name.startswith("orbifold."):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._patches.append((module, key, raw))
                    setattr(module, key, new)

    @contextmanager
    def installed(self):
        """Wrap every traced function while the block runs, then restore them."""
        observers = {
            "solver.enumerate_solutions": self._count_records,
            "rewriting.reduce_word": self._count_distinct,
        }
        try:
            for name, targets in SPANS.items():
                for target in targets:
                    owner, attr, raw = _resolve(target)
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(name, raw.__func__, observers.get(name)))
                    else:
                        new = self.wrap(name, raw, observers.get(name))
                    self._patch(owner, attr, raw, new)
            for name, target, counter in (
                ("chains.bar_tensors", "chains:bar_basis", self._counting_generator),
                ("rewriting.irreducible_words", "rewriting:irreducible_words", self._counting_list),
            ):
                owner, attr, raw = _resolve(target)
                self._patch(owner, attr, raw, counter(name, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(self._patches):
                setattr(owner, attr, raw)
            self._patches.clear()

    def metrics(self, passes: int) -> dict[str, float]:
        """Every per-layer value except trace_overhead, as a mean per traced pass."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name] / passes
            out[f"{name}.self_s"] = self.self_s[name] / passes
        for name in COUNTS:
            out[name] = self.counts[name] / passes
        calls = self.calls["rewriting.reduce_word"]
        out["rewriting.reduce_word.distinct_ratio"] = self._distinct_total / calls if calls else 0.0
        return out
