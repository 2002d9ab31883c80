"""Layer tracing from outside the library: spans, self times and counters.

One layer per ``qmet`` module.  ``Tracer.install`` replaces the public
functions of ``spaces``, ``balls``, ``posets``, ``lipschitz``, ``qideal`` and
``cli`` with wrappers, in every ``qmet`` module namespace that holds them, so
calls from one module into another are caught as well as calls from the
benchmark.  A wrapper records a span only where control crosses into its
layer from another one; calls inside a layer add to that layer's self time.
Per-element accessors (``Space.dist``, ``leq_dplus``, ``ExtReal`` and
``Fraction`` operators, ...) get counters only: a span per call would cost
more than the call, and their time stays with the caller.

Span times are process CPU time, as are the benchmark's other times.
Spans stay in memory until ``write_spans``.  Counters and self times only
accumulate while a task is open (``with tracer.task(i):``), so result checks
run outside them.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import process_time

LAYERS = ("spaces", "balls", "posets", "lipschitz", "qideal", "cli")

# Public functions left unwrapped: per-element helpers whose time belongs to
# the caller.  leq_dplus, prec and dplus are counted instead.
UNWRAPPED = {
    "spaces": {"real_line_dist", "sorgenfrey_dist", "point_label", "parse_point_value"},
    "balls": {"leq_dplus", "prec", "dplus"},
    "lipschitz": {"extended_value_dist"},
    "posets": set(),
    "qideal": set(),
    "cli": set(),
}

# Methods that do a layer's work when called from another layer.
METHOD_SPANS = {
    "spaces": [
        ("FiniteTableSpace", "__init__"),
        ("RealGridSpace", "__init__"),
        ("SorgenfreyGridSpace", "__init__"),
        ("PosetSpace", "__init__"),
        ("SkewedIntervalSpace", "__init__"),
        ("TailedSorgenfreySpace", "__init__"),
        ("FiniteTableSpace", "to_json"),
        ("RealGridSpace", "to_json"),
        ("SorgenfreyGridSpace", "to_json"),
        ("PosetSpace", "to_json"),
        ("SkewedIntervalSpace", "to_json"),
        ("TailedSorgenfreySpace", "to_json"),
    ],
    "balls": [
        ("WayBelowWitness", "replay"),
        ("WayBelowWitness", "from_json"),
        ("StandardnessWitness", "replay"),
        ("StandardnessWitness", "from_json"),
        ("GeometricBallFamily", "__init__"),
        ("GeometricBallFamily", "validate_against_truncation"),
    ],
    "posets": [
        ("FinitePoset", "__init__"),
        ("FinitePoset", "from_relation"),
        ("FinitePoset", "from_json"),
        ("FinitePoset", "to_json"),
        ("FinitePoset", "up_closed_subsets"),
        ("AbstractBasis", "__init__"),
        ("AbstractBasis", "from_json"),
    ],
    "lipschitz": [
        ("OpenSet", "__init__"),
        ("LscFunction", "__init__"),
        ("LscFunction", "from_json"),
    ],
    "qideal": [("ModelPoset", "__init__"), ("ModelPoset", "to_json")],
    "cli": [],
}

EXTREAL_OPS = ("__init__", "__add__", "__radd__", "__mul__", "__rmul__", "__eq__", "_cmp")
FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__abs__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)

COUNTS = (
    "extreal.extreal_ops",
    "extreal.fraction_ops",
    "spaces.constructions",
    "spaces.dist_calls",
    "balls.leq_calls",
    "balls.formal_balls",
    "balls.wb_calls",
    "balls.wb_holds",
    "balls.wb_refuted",
    "balls.wb_unknown",
    "posets.poset_constructions",
    "posets.ideals_built",
    "posets.choquet_states",
    "qideal.model_elements",
    "cli.commands",
    "cli.output_bytes",
)


class _Frame:
    __slots__ = ("layer", "span_id", "child_s")

    def __init__(self, layer, span_id):
        self.layer = layer
        self.span_id = span_id
        self.child_s = 0.0


class Tracer:
    """Wrappers, counters and spans for one process; install once."""

    def __init__(self):
        self.active = False
        self.counts = Counter({k: 0 for k in COUNTS})
        self.self_s = defaultdict(float)
        self.spans = []  # (span id, parent id, task id, layer, name, t0, t1)
        self._stack = []
        self._next_id = 0
        self._task_id = None
        self._undo = []

    # -- bookkeeping -----------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _push(self, layer):
        frame = _Frame(layer, self._new_id())
        self._stack.append(frame)
        return frame, process_time()

    def _pop(self, name, frame, t0):
        t1 = process_time()
        self._stack.pop()
        dur = t1 - t0
        self.self_s[frame.layer] += dur - frame.child_s
        parent_id = None
        if self._stack:
            self._stack[-1].child_s += dur
            parent_id = self._stack[-1].span_id
        self.spans.append((frame.span_id, parent_id, self._task_id, frame.layer, name, t0, t1))

    @contextmanager
    def task(self, task_id):
        """Open the root span of one task; counting happens only inside."""
        self._task_id = task_id
        frame, t0 = self._push("bench")
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self._pop("task", frame, t0)
            self._stack.clear()

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, layer, name, fn, on_call=None, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call()
            if tracer._stack[-1].layer == layer:
                result = fn(*args, **kwargs)
            else:
                frame, t0 = tracer._push(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._pop(name, frame, t0)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, key, fn):
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _bump(self, key):
        def bump():
            self.counts[key] += 1
        return bump

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def _patch_function(self, modules, fn, wrapper):
        """Replace fn in every module namespace that holds it by name."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def install(self):
        import qmet
        from qmet import balls, cli, extreal, lipschitz, posets, qideal, spaces

        modules = [qmet, extreal, spaces, balls, posets, lipschitz, qideal, cli]
        by_layer = {
            "spaces": spaces, "balls": balls, "posets": posets,
            "lipschitz": lipschitz, "qideal": qideal, "cli": cli,
        }
        on_call = {("posets", "legal_beta_moves"): self._bump("posets.choquet_states")}
        on_result = {
            ("balls", "way_below"): self._count_verdict,
            ("posets", "ideal_completion"): self._count_ideals,
            ("posets", "rounded_ideal_completion"): self._count_ideals,
            ("qideal", "build_model"): self._count_model,
        }
        for layer, mod in by_layer.items():
            for name, fn in sorted(vars(mod).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or name in UNWRAPPED[layer]
                ):
                    continue
                if (layer, name) == ("cli", "main"):
                    wrapper = self._cli_main_wrapper(fn)
                else:
                    wrapper = self._span_wrapper(
                        layer, name, fn,
                        on_call.get((layer, name)), on_result.get((layer, name)),
                    )
                self._patch_function(modules, fn, wrapper)
            for cls_name, attr in METHOD_SPANS[layer]:
                cls = getattr(mod, cls_name)
                on_call_m = None
                if (cls_name, attr) == ("FinitePoset", "__init__"):
                    on_call_m = self._bump("posets.poset_constructions")
                self._patch_method(
                    cls, attr,
                    lambda f, n=f"{cls_name}.{attr}", l=layer, c=on_call_m:
                        self._span_wrapper(l, n, f, c),
                )
        for fn_name in ("leq_dplus", "prec", "dplus"):
            fn = vars(balls)[fn_name]
            self._patch_function(modules, fn, self._count_wrapper("balls.leq_calls", fn))
        self._patch_method(
            balls.FormalBall, "__post_init__",
            lambda f: self._count_wrapper("balls.formal_balls", f),
        )
        self._patch_method(
            spaces.Space, "__init__",
            lambda f: self._count_wrapper("spaces.constructions", f),
        )
        for attr in ("dist", "dist_by_index"):
            self._patch_method(
                spaces.Space, attr, lambda f: self._count_wrapper("spaces.dist_calls", f)
            )
        for attr in EXTREAL_OPS:
            self._patch_method(
                extreal.ExtReal, attr, lambda f: self._count_wrapper("extreal.extreal_ops", f)
            )
        for attr in FRACTION_OPS:
            self._patch_method(
                Fraction, attr, lambda f: self._count_wrapper("extreal.fraction_ops", f)
            )

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _count_verdict(self, verdict):
        self.counts["balls.wb_calls"] += 1
        self.counts[f"balls.wb_{verdict.status}"] += 1

    def _count_ideals(self, completion):
        self.counts["posets.ideals_built"] += len(completion.ideals)

    def _count_model(self, model):
        self.counts["qideal.model_elements"] += len(model.elements)

    def _cli_main_wrapper(self, fn):
        """Span around ``cli.main`` that also counts the characters it
        printed into a captured (``StringIO``) stdout."""
        inner = self._span_wrapper("cli", "main", fn, self._bump("cli.commands"))
        tracer = self

        def wrapper(*args, **kwargs):
            out = sys.stdout
            start = out.tell() if tracer.active and hasattr(out, "getvalue") else None
            try:
                return inner(*args, **kwargs)
            finally:
                if start is not None:
                    tracer.counts["cli.output_bytes"] += len(
                        out.getvalue()[start:].encode("utf-8")
                    )

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ---------------------------------------------------------

    def layer_metrics(self, tasks: int) -> dict:
        """Self time per task (ms) for each layer, plus the raw counters."""
        out = {}
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_ms"] = 1000.0 * self.self_s.get(layer, 0.0) / max(tasks, 1)
        out.update(self.counts)
        calls = self.counts["balls.wb_calls"]
        decided = self.counts["balls.wb_holds"] + self.counts["balls.wb_refuted"]
        out["balls.wb_decided_frac"] = decided / calls if calls else 0.0
        return out

    def write_spans(self, path):
        """One JSON object per line: id, parent, task, layer, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, task, layer, name, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "task": task, "layer": layer,
                    "name": name, "start_s": t0, "end_s": t1,
                }) + "\n")
