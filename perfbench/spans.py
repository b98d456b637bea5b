"""Timing wrappers installed on ``qsteer`` from outside, for the traced run only.

A :class:`Tracer` wraps the layer functions of the package in spans.  A span
records its duration; its *self time* is that duration minus the time covered
by the spans it caused.  Spans are aggregated in memory by name, and by
(parent, name) edge for the span tree, and are read out once the run ends.

The package's source is never touched.  Because the modules bind names with
``from .x import y``, each wrapper replaces *every* binding of the original
object in every loaded ``qsteer`` module (``steering.joint_distribution`` and
``qobj.joint_distribution`` are separate bindings of one function).  Classes
are traced by wrapping their ``__init__``, which covers every binding at once.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  Several attributes may share one span name.
FUNCTION_SPANS = (
    ("qobj", "joint_distribution", "qobj.joint_distribution"),
    ("qobj", "depolarize", "qobj.depolarize"),
    ("steering", "overlap_bound", "steering.overlap_bound"),
    ("steering", "evaluate", "steering.evaluate"),
    ("steering", "steering_lhs", "steering.steering_lhs"),
    ("steering", "sample_lhs_model", "steering.sample_lhs_model"),
    ("steering", "lhs_statistics", "steering.lhs_statistics"),
    ("entropy", "conditional_renyi", "entropy.conditional_renyi"),
    ("entropy", "_conditional_min_entropy", "entropy.closed_form"),
    ("entropy", "_conditional_max_entropy", "entropy.closed_form"),
    ("entropy", "_conditional_shannon", "entropy.closed_form"),
    ("entropy", "_conditional_renyi_generic", "entropy.generic"),
    ("scenarios", "mub_pipeline_threshold", "scenarios.mub_pipeline_threshold"),
    ("scenarios", "lhs_falsification_suite", "scenarios.lhs_falsification_suite"),
    ("scenarios", "qubit_random_povm_check", "scenarios.qubit_random_povm_check"),
)
CLASS_SPANS = (
    ("qobj", "Povm", "qobj.Povm"),
    ("qobj", "DensityMatrix", "qobj.DensityMatrix"),
    ("entropy", "JointDistribution", "entropy.JointDistribution"),
)
# Counted but not timed: a span here would move validation time out of Povm.
COUNTED_CALLS = (("qobj", "is_psd", "qobj.is_psd"),)

SOLVER = "jointmeas.bisect_threshold"
# Solver entry points whose predicate argument is counted.  The scenarios'
# bracketing helper probes both ends before it bisects; those probes are
# predicate calls of the same solve.  An entry the package lacks is skipped.
SOLVER_ENTRIES = (("jointmeas", "bisect_threshold"), ("scenarios", "_detect_threshold"))
LAYER_MODULES = ("entropy", "qobj", "steering", "jointmeas", "scenarios")


def _bindings(original):
    """Every (module, attribute) of the loaded ``qsteer`` modules bound to ``original``."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "qsteer" or mod_name.startswith("qsteer.")):
            continue
        for attr, value in vars(mod).items():
            if value is original:
                found.append((mod, attr))
    return found


def _content_key(povm):
    return b"".join(e.tobytes() for e in povm.effects)


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.edges = Counter()  # (parent span, span) -> calls
        self.pred_calls = 0
        self.solves = 0
        self._bob_pairs = {}  # (id(x), id(z)) -> (x, z); holding them keeps ids unique
        self._names = []  # open spans, outermost first
        self._child_s = []  # time covered by the children of each open span
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name, edge):
        self.edges[(self._names[-1] if self._names else None, edge)] += 1
        self._names.append(name)
        self._child_s.append(0.0)
        return perf_counter()

    def _exit(self, name, t0, count):
        duration = perf_counter() - t0
        self._names.pop()
        self.self_s[name] += duration - self._child_s.pop()
        if count:
            self.calls[name] += 1
        if self._child_s:
            self._child_s[-1] += duration

    def span(self, name, fn):
        def traced(*args, **kwargs):
            t0 = self._enter(name, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, t0, count=True)

        return traced

    def _counted_predicate(self, pred):
        """Count calls of a solver predicate.  Its own time is charged to the
        outermost open span, the scenario that defined it, not to the solver."""

        def counted(v):
            self.pred_calls += 1
            owner = self._names[0] if self._names else "scenarios.predicate"
            t0 = self._enter(owner, "predicate")
            try:
                return pred(v)
            finally:
                self._exit(owner, t0, count=False)

        counted.counted_by_tracer = True
        return counted

    def _solver(self, fn, spanned):
        def solver(pred, *args, **kwargs):
            if not getattr(pred, "counted_by_tracer", False):
                self.solves += 1
                pred = self._counted_predicate(pred)
            if not spanned:
                return fn(pred, *args, **kwargs)
            t0 = self._enter(SOLVER, SOLVER)
            try:
                return fn(pred, *args, **kwargs)
            finally:
                self._exit(SOLVER, t0, count=True)

        return solver

    def _counter(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _keyed(self, fn):
        def keyed(x, z):
            self._bob_pairs.setdefault((id(x), id(z)), (x, z))
            return fn(x, z)

        return keyed

    # -- installation ------------------------------------------------------

    def _replace(self, original, replacement):
        for mod, attr in _bindings(original):
            setattr(mod, attr, replacement)
            self._undo.append((mod, attr, original))

    def install(self):
        """Wrap every layer binding; :meth:`uninstall` restores them."""
        import qsteer

        mods = {m: getattr(qsteer, m) for m in LAYER_MODULES}
        for mod, attr, name in FUNCTION_SPANS:
            fn = getattr(mods[mod], attr)
            traced = self.span(name, fn)
            if name == "steering.overlap_bound":
                traced = self._keyed(traced)
            self._replace(fn, traced)
        for mod, attr, name in CLASS_SPANS:
            cls = getattr(mods[mod], attr)
            self._undo.append((cls, "__init__", cls.__init__))
            cls.__init__ = self.span(name, cls.__init__)
        for mod, attr, name in COUNTED_CALLS:
            fn = getattr(mods[mod], attr)
            self._replace(fn, self._counter(name, fn))
        for mod, attr in SOLVER_ENTRIES:
            fn = getattr(mods[mod], attr, None)
            if fn is not None:
                self._replace(fn, self._solver(fn, spanned=attr == "bisect_threshold"))

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- read-out ----------------------------------------------------------

    def metrics(self):
        """Per-layer values keyed ``<module>.<function>.<stat>``."""
        out = {}
        names = {name for _, _, name in FUNCTION_SPANS + CLASS_SPANS} | {SOLVER}
        for name in sorted(names | set(self.calls)):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = float(self.self_s[name])
        n_bound = self.calls["steering.overlap_bound"]
        distinct = {(_content_key(x), _content_key(z)) for x, z in self._bob_pairs.values()}
        out["steering.overlap_bound.distinct_frac"] = len(distinct) / n_bound if n_bound else 0.0
        out[f"{SOLVER}.pred_calls"] = self.pred_calls
        per_solve = self.pred_calls / self.solves if self.solves else 0.0
        out[f"{SOLVER}.pred_calls_per_solve"] = per_solve
        return out

    def span_tree(self):
        """Aggregated (parent, span, calls) edges of the span tree."""
        return [
            {"parent": parent, "span": name, "calls": n}
            for (parent, name), n in sorted(self.edges.items(), key=lambda e: (str(e[0][0]), e[0][1]))
        ]
