"""Outside-in tracing of confn's public functions, layer by layer.

``Tracer.install`` replaces each traced function with a wrapper in every
``confn`` module that bound it, and on the classes that define traced
methods, so that calls through lazy imports and ``from x import y``
bindings are all recorded.  ``escapes`` then looks for any reference to
an original that the replacement missed.

A span is ``[name, parent, start, end, busy]``, where name is the traced
function, parent the index of the enclosing span (-1 for none) and the
times are ``time.perf_counter`` readings.  For a plain call, busy
is end - start.  A generator is one span whose busy time counts only the
time spent inside its resumptions, so a caller that interleaves its own
work with the iteration keeps that work as its own.  A span's self time
is its busy time minus the busy time of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from statistics import median

# (module, attribute, layer); attribute "Cone.x" names a method of Cone
TARGETS = (
    ("confn.dsl", "parse", "dsl.parse"),
    ("confn.runner", "evaluate", "runner.evaluate"),
    ("confn.runner", "emit_json", "runner.emit_json"),
    ("confn.runner", "emit_markdown", "runner.emit_markdown"),
    ("confn.descriptors", "projective_space", "constructions"),
    ("confn.descriptors", "complete_intersection", "constructions"),
    ("confn.descriptors", "curve", "constructions"),
    ("confn.descriptors", "hirzebruch1", "constructions"),
    ("confn.descriptors", "del_pezzo7", "constructions"),
    ("confn.descriptors", "abelian", "constructions"),
    ("confn.descriptors", "custom", "constructions"),
    ("confn.constructions", "product", "constructions"),
    ("confn.constructions", "blowup_point", "constructions"),
    ("confn.constructions", "hypersurface_section", "constructions"),
    ("confn.constructions", "cyclic_cover", "constructions"),
    ("confn.pipelines", "pipeline_n2k1", "constructions"),
    ("confn.pipelines", "pipeline_n3k1", "constructions"),
    ("confn.pipelines", "pipeline_simple_surface", "constructions"),
    ("confn.pipelines", "pipeline_simple_variety", "constructions"),
    ("confn.engine", "resolve", "engine.resolve"),
    ("confn.engine", "verify_certificate", "engine.verify"),
    ("confn.kunneth", "h0_sign", "kunneth.h0_sign"),
    ("confn.cones", "Cone.__init__", "cones.build"),
    ("confn.cones", "Cone.interior_points", "cones.search"),
    ("confn.cones", "Cone.first_interior_point", "cones.search"),
    ("confn.cones", "Cone.min_interior_value", "cones.search"),
    ("confn.cones", "Cone.adjoint_freeness_threshold", "cones.search"),
    ("confn.cones", "brute_force_refute", "cones.oracle"),
)

# counted per yielded point rather than timed: it is called per search
COUNTED = ("confn.cones", "lattice_points_by_shell")

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))
# span name ("engine.resolve", "cones.Cone.min_interior_value", ...) -> layer
LAYER_OF = {f"{module[6:]}.{attr}": layer for module, attr, layer in TARGETS}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.points = 0
        self._undo: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}

    # -- wrappers -----------------------------------------------------

    def _call(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                span[4] = span[3] - span[2]
                stack.pop()

        return traced

    def _generator(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        # the body first runs at the first resumption, which opens the span
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, clock(), 0.0, 0.0]
            index = len(spans)
            spans.append(span)
            try:
                while True:
                    stack.append(index)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span[3] = clock()
                        span[4] += span[3] - start
                        stack.pop()
                    yield item
            finally:
                inner.close()

        return traced

    def _counted(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                tracer.points += n

        return counted

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a confn module or class binds it."""
        for module_name, attr, _layer in TARGETS:
            owner, original = _lookup(module_name, attr)
            make = self._generator if inspect.isgeneratorfunction(original) else self._call
            wrapper = make(f"{module_name[6:]}.{attr}", original)
            self._replace(owner, attr.split(".")[-1], original, wrapper)
        module_name, attr = COUNTED
        owner, original = _lookup(module_name, attr)
        self._replace(owner, attr, original, self._counted(original))

    def _replace(self, owner, name, original, wrapper) -> None:
        self._originals[id(original)] = f"{owner.__name__}.{name}"
        holders = [owner]
        if inspect.ismodule(owner):
            holders += [
                module for module in _confn_modules()
                if module is not owner and module.__dict__.get(name) is original
            ]
        for holder in holders:
            self._undo.append((holder, name, original))
            setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()

    def escapes(self) -> list[str]:
        """References to an unwrapped original left in confn's namespaces.

        Looks through module globals, the values of module-level
        containers and class attributes; any hit is a call path that
        would bypass the trace.
        """
        found = []
        for module in _confn_modules():
            for key, value in vars(module).items():
                where = f"{module.__name__}.{key}"
                for item in _members(value):
                    if id(item) in self._originals:
                        found.append(f"{where} holds {self._originals[id(item)]}")
        return found

    # -- results ------------------------------------------------------

    def take(self) -> tuple[list[list], int]:
        """Hand over the spans and point count recorded since the last take."""
        spans, points = self.spans[:], self.points
        self.spans.clear()
        self.points = 0
        return spans, points


def _lookup(module_name: str, attr: str):
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, method = attr.split(".")
        owner = getattr(module, cls_name)
        return owner, owner.__dict__[method]
    return module, getattr(module, attr)


def _confn_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "confn" or name.startswith("confn."))
    ]


def _members(value):
    yield value
    if isinstance(value, dict):
        yield from value.values()
    elif isinstance(value, (tuple, list, set, frozenset)):
        yield from value
    elif inspect.isclass(value) and value.__module__.startswith("confn"):
        yield from vars(value).values()


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per layer: busy time minus the direct children's busy time."""
    child_busy = [0.0] * len(spans)
    for name, parent, _start, _end, busy in spans:
        if parent >= 0:
            child_busy[parent] += busy
    out = dict.fromkeys(LAYERS, 0.0)
    for i, (name, _parent, _start, _end, busy) in enumerate(spans):
        out[LAYER_OF[name]] += busy - child_busy[i]
    return out


def accounting_problem(spans: list[list], pass_s: float) -> str | None:
    """Why the layer self times do not fit within the pass, if they do not."""
    own = self_times(spans)
    worst = min(own.values())
    total = sum(own.values())
    if worst < -1e-6 or total > pass_s + 1e-6:
        return (
            f"layer self times do not fit the pass: sum {total:.6f} s, "
            f"smallest {worst:.6f} s, pass {pass_s:.6f} s"
        )
    return None


def pass_layers(spans: list[list], points: int, rows: int) -> dict:
    """Per-layer metrics of one traced pass that computed ``rows`` rows."""
    own = self_times(spans)
    calls = dict.fromkeys(LAYERS, 0)
    inclusive = dict.fromkeys(LAYERS, 0.0)
    for name, _parent, _start, _end, busy in spans:
        calls[LAYER_OF[name]] += 1
        inclusive[LAYER_OF[name]] += busy
    return {
        "cones.points_enumerated": points,
        "cones.search_self_s": own["cones.search"],
        "cones.cone_build_s": own["cones.build"],
        "cones.oracle_calls": calls["cones.oracle"],
        "cones.oracle_s": inclusive["cones.oracle"],
        "engine.resolve_calls": calls["engine.resolve"],
        "engine.resolve_self_s": own["engine.resolve"],
        "engine.verify_calls": calls["engine.verify"],
        "engine.verify_self_s": own["engine.verify"],
        "engine.resolve_calls_per_row": calls["engine.resolve"] / max(rows, 1),
        "dsl.parse_s": own["dsl.parse"],
        "runner.evaluate_self_s": own["runner.evaluate"],
        "runner.emit_json_s": own["runner.emit_json"],
        "runner.emit_markdown_s": own["runner.emit_markdown"],
        "constructions.calls": calls["constructions"],
        "constructions.self_s": own["constructions"],
        "kunneth.h0_sign_s": own["kunneth.h0_sign"],
    }


def median_metrics(samples: list[dict]) -> dict:
    return {key: median(s[key] for s in samples) for key in samples[0]}


UNITS = {
    "cones.points_enumerated": "count",
    "cones.search_self_s": "s",
    "cones.cone_build_s": "s",
    "cones.oracle_calls": "count",
    "cones.oracle_s": "s",
    "engine.resolve_calls": "count",
    "engine.resolve_self_s": "s",
    "engine.verify_calls": "count",
    "engine.verify_self_s": "s",
    "engine.resolve_calls_per_row": "ratio",
    "dsl.parse_s": "s",
    "runner.evaluate_self_s": "s",
    "runner.emit_json_s": "s",
    "runner.emit_markdown_s": "s",
    "runner.report_bytes": "bytes",
    "constructions.calls": "count",
    "constructions.self_s": "s",
    "kunneth.h0_sign_s": "s",
    "cli.import_s": "s",
    "trace.overhead_share": "ratio",
}
