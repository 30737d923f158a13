"""Layer tracing for one CLI process, from outside the program.

`install(tracer)` wraps the public functions of each weylmds module.  A
wrapper replaces the function under every name that refers to it: the
defining module, each module that imported it (`coeffs.enumerate_patterns`,
`chars.h_table`, ...) and, for methods, every alias on the class.  On exit
every original is put back.

A layer's self time is the time spent inside its calls minus the time of
the wrapped calls they made.  `enumerate_patterns` is timed per `next()`,
so the consumer's work between yields is not charged to `patterns`.
Calls of the coarse layers in SPANNED are also kept as spans
(name, start, end, parent span, job id); the hot layers only add to the
per-layer totals.
"""

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# layer -> (module, attribute) of every function it covers
TIMED = {
    "patterns.enumerate": [("patterns", "enumerate_patterns")],
    "patterns.is_strict": [("patterns", "is_strict")],
    "coeffs.h_table": [("coeffs", "h_table")],
    "coeffs.pattern_G": [("coeffs", "pattern_G")],
    "coeffs.entry_weight": [("coeffs", "gamma_a"), ("coeffs", "gamma_b")],
    "gauss.ring": [("gauss", "GaussValue.__add__"),
                   ("gauss", "GaussValue.__mul__")],
    "gauss.context": [("gauss", "ArithContext.__post_init__")],
    "gauss.brute": [("gauss", "gauss_brute")],
    "gauss.numeric_eval": [("gauss", "numeric_eval")],
    "stable.h_stable": [("stable", "h_stable")],
    "stable.verify": [("stable", "verify_stable_match")],
    "laurent.ring": [("laurent", "LaurentPoly.__add__"),
                     ("laurent", "LaurentPoly.__mul__")],
    "laurent.exact_div": [("laurent", "LaurentPoly.exact_div")],
    "chars.character_gt": [("chars", "character_gt")],
    "chars.h_tilde_table": [("chars", "h_tilde_table")],
    "chars.verify": [("chars", "verify_deformation_identity"),
                     ("chars", "verify_euler_bridge"),
                     ("chars", "verify_euler_factor_identity"),
                     ("chars", "verify_h_tilde")],
    "chars.euler": [("chars", "euler_product_n1")],
    "tableaux.from_pattern": [("tableaux", "tableau_from_pattern")],
    "tableaux.stats": [("tableaux", "tableau_stats"),
                       ("tableaux", "verify_tableau_stats")],
}

# layers whose calls are only counted: their time stays with the caller
COUNTED = {
    "gauss.canonical": [("gauss", "GaussValue._canonical")],
    "gauss.eval": [("gauss", "gauss_eval")],
}

SPANNED = {"cli", "coeffs.h_table", "gauss.context", "gauss.numeric_eval",
           "stable.h_stable", "stable.verify", "laurent.exact_div",
           "chars.character_gt", "chars.h_tilde_table", "chars.verify",
           "chars.euler"}


class Tracer:
    """Per-layer calls, self time and counters of one process."""

    def __init__(self, job=0, clock=time.perf_counter):
        self.job = job
        self.clock = clock
        self.stack = []    # [layer, start, wrapped children's time, span]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []          # [layer, start, end, parent span, job]

    def enter(self, layer):
        start = self.clock()
        span = None
        if layer in SPANNED:
            span = len(self.spans)
            self.spans.append([layer, start, None, self.current_span(),
                               self.job])
        self.stack.append([layer, start, 0.0, span])

    def exit(self):
        layer, start, children, span = self.stack.pop()
        end = self.clock()
        self.calls[layer] += 1
        self.self_s[layer] += (end - start) - children
        if self.stack:
            self.stack[-1][2] += end - start
        if span is not None:
            self.spans[span][2] = end

    def current_span(self):
        for frame in reversed(self.stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def inside(self, layer):
        return any(frame[0] == layer for frame in self.stack)

    @contextmanager
    def span(self, layer):
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    def report(self):
        return {"job": self.job, "calls": dict(self.calls),
                "self_s": dict(self.self_s), "counts": dict(self.counts),
                "spans": self.spans}


def _observe(tracer, layer, args, result):
    """Counters measured where the work happens."""
    if layer == "coeffs.pattern_G":
        tracer.counts["coeffs.pattern_G.nonzero"] += not result.is_zero()
    elif layer == "coeffs.h_table":
        tracer.counts["coeffs.distinct_k"] += len(result.entries)
        if tracer.inside("chars.euler"):
            tracer.counts["chars.euler.h_table_calls"] += 1
    elif layer == "gauss.brute":
        v_exp, ctx = args[2], args[3]
        tracer.counts["gauss.brute.terms"] += ctx.p ** v_exp


def _timed(tracer, layer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        _observe(tracer, layer, args, result)
        return result
    return wrapper


def _timed_generator(tracer, layer, fn):
    def timed_next(it):
        while True:
            tracer.enter(layer)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.exit()
            tracer.counts[layer + ".yielded"] += 1
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[layer + ".calls"] += 1
        return timed_next(fn(*args, **kwargs))
    return wrapper


def _counted(tracer, layer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[layer + ".calls"] += 1
        return fn(*args, **kwargs)
    return wrapper


def _targets(tracer):
    for table, kind in ((TIMED, _timed), (COUNTED, _counted)):
        for layer, specs in table.items():
            make = _timed_generator if layer == "patterns.enumerate" else kind
            for spec in specs:
                yield spec, functools.partial(make, tracer, layer)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "weylmds" or name.startswith("weylmds.")]


@contextmanager
def install(tracer):
    """Wrap every traced function under every name that refers to it."""
    mods = {name: importlib.import_module(f"weylmds.{name}")
            for name in ("patterns", "coeffs", "gauss", "stable", "laurent",
                         "chars", "tableaux", "cli")}
    patches = []   # (owner, attribute, original)
    try:
        for (mod, attr), make in _targets(tracer):
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod], cls_name)
                original = vars(cls)[meth]
                func = getattr(original, "__func__", original)
                wrapped = make(func)
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(wrapped)
                for name, value in list(vars(cls).items()):
                    if value is original:
                        patches.append((cls, name, value))
                        setattr(cls, name, wrapped)
            else:
                original = getattr(mods[mod], attr)
                wrapped = make(original)
                for module in _package_modules():
                    for name, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, name, value))
                            setattr(module, name, wrapped)
        yield tracer
    finally:
        for owner, name, value in reversed(patches):
            setattr(owner, name, value)


def layer_metrics(reports):
    """Per-layer metrics summed over the traced jobs of one pass."""
    calls, self_s, counts = Counter(), defaultdict(float), Counter()
    for rep in reports:
        calls.update(rep["calls"])
        counts.update(rep["counts"])
        for layer, s in rep["self_s"].items():
            self_s[layer] += s
    out = {}
    for layer in TIMED:
        if layer != "patterns.enumerate":
            out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out["gauss.context.setup_s"] = out.pop("gauss.context.self_s")
    out["cli.self_s"] = self_s["cli"]
    for name in ("patterns.enumerate.calls", "patterns.enumerate.yielded",
                 "coeffs.distinct_k", "gauss.brute.terms",
                 "chars.euler.h_table_calls"):
        out[name] = counts[name]
    for layer in COUNTED:
        out[f"{layer}.calls"] = counts[f"{layer}.calls"]
    g_calls = calls["coeffs.pattern_G"]
    out["coeffs.pattern_G.nonzero_ratio"] = (
        counts["coeffs.pattern_G.nonzero"] / g_calls if g_calls else 0.0)
    return out
