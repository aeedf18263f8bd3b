"""Spans around the public functions of every `siqm` module, from outside.

`instrument(tracer)` replaces each public function of the library layers,
at every module attribute that binds it (the defining module, `siqm.cli`,
the other layers that import it by name, and the package namespace), with a
wrapper that records a span: name, start, end and parent. A few methods are
wrapped on their class, and the two foreign bindings that matter,
`siqm.spectra.eigsh` and `siqm.dynamics.expm`, are wrapped where they are
bound. `siqm.cli.run_command` becomes the root span `cli`. Everything is
restored when the context exits, so untraced jobs run the original code.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly because jobs run on one thread.
"""

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

LAYERS = ("series", "families", "grid", "spectra", "lattice", "ladder_matrices",
          "coherent", "dynamics")

# Span names that the per-layer metrics cite; any other public function of a
# layer module gets "<layer>.<function>".
SPAN_NAMES = {
    "series.series_coefficients": "series.coeffs",
    "series.SelfSimilarW.__init__": "series.engine",
    "series.SelfSimilarW.ensure": "series.ensure",
    "series.SelfSimilarW.w": "series.eval",
    "series.SelfSimilarW.wp": "series.eval",
    "families.shape_invariance_residual": "families.shape_invariance",
    "spectra.eigenstate_with_prenorm": "spectra.eigenstate",
    "lattice.LatticeContext.__init__": "lattice.context",
    "lattice.dilation_identity_residual": "lattice.dilation_residual",
    "ladder_matrices.LadderMatrices.__init__": "ladder_matrices.build",
    "ladder_matrices.matrix_identities": "ladder_matrices.identities",
    "coherent.coherent_recursive": "coherent.recursive",
    "coherent.coherent_closed_scaling": "coherent.closed",
    "coherent.coherent_property_residuals": "coherent.residuals",
    "dynamics.evolve_forced": "dynamics.evolve",
    "dynamics.ForcedEvolution.best_fit_coherent": "dynamics.best_fit",
}

METHODS = (("series", "SelfSimilarW", ("__init__", "ensure", "w", "wp")),
           ("lattice", "LatticeContext", ("__init__",)),
           ("ladder_matrices", "LadderMatrices", ("__init__",)),
           ("dynamics", "ForcedEvolution", ("best_fit_coherent",)))

FOREIGN = (("spectra", "eigsh"), ("dynamics", "expm"))

ROOT = "cli"


class Tracer:
    """In-memory spans of the current job, plus counts derived from call arguments."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self._stack = []
        self.counts = Counter()
        self._extent = {}        # SelfSimilarW -> largest ensure() x_max
        self._eval_keys = set()  # distinct (family, a, grid) passed to eval_W
        self.wrappers = set()

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if hook else None

        @wraps(fn)
        def traced(*args, **kwargs):
            if hook:
                hook(self, signature.bind(*args, **kwargs).arguments)
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        self.wrappers.add(traced)
        return traced

    def take_job(self) -> dict:
        """Aggregate the spans and counts of the job just run, then reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        roots = [i for i, s in enumerate(spans) if s[3] < 0]
        for i, (name, start, end, _) in enumerate(spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        root_s = sum(spans[i][2] - spans[i][1] for i in roots)
        counts = Counter(self.counts)
        counts["series.table_points"] += sum(int(x / eng.step) + 1
                                             for eng, x in self._extent.items()
                                             if eng.q < 1.0)
        counts["families.eval_W.distinct"] += len(self._eval_keys)
        job = {"self_s": dict(self_s), "calls": dict(calls), "counts": dict(counts),
               "root_s": root_s, "root_names": sorted({spans[i][0] for i in roots})}
        spans.clear()
        self.counts.clear()
        self._extent.clear()
        self._eval_keys.clear()
        return job


# hooks: counts computed from the arguments of a call

def _ensure(tr, a):
    eng = a["self"]
    tr._extent[eng] = max(tr._extent.get(eng, 0.0), float(a["x_max"]))


def _eval_points(tr, a):
    import numpy as np
    tr.counts["series.eval.points"] += int(np.size(a["x"]))


def _eval_W(tr, a):
    fam = a["family"]
    tr._eval_keys.add((fam.name, fam.a1, fam.c, fam.rule, fam.series_order,
                       float(a["a"]), a["grid"]))


def _eigsh(tr, a):
    tr.counts["spectra.eigsh.n"] += int(a["A"].shape[0])


def _eigenstate(tr, a):
    tr.counts["spectra.eigenstate.raise_steps"] += int(a["n"])


def _evolve(tr, a):
    tr.counts["dynamics.rk4_steps"] += int(round(a["t_max"] / a["dt"]))


HOOKS = {"series.SelfSimilarW.ensure": _ensure,
         "series.SelfSimilarW.w": _eval_points,
         "series.SelfSimilarW.wp": _eval_points,
         "families.eval_W": _eval_W,
         "spectra.eigsh": _eigsh,
         "spectra.eigenstate_with_prenorm": _eigenstate,
         "dynamics.evolve_forced": _evolve}


def _siqm_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "siqm" or name.startswith("siqm."))]


@contextmanager
def instrument(tracer: Tracer):
    """Install spans at every binding of every traced callable; undo on exit."""
    undo = []
    modules = _siqm_modules()

    def rebind(fn, wrapper):
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    undo.append((m, attr, value))
                    setattr(m, attr, wrapper)

    try:
        for layer in LAYERS:
            mod = importlib.import_module(f"siqm.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                key = f"{layer}.{attr}"
                rebind(fn, tracer.wrap(SPAN_NAMES.get(key, key), fn, HOOKS.get(key)))
        for layer, cls_name, names in METHODS:
            cls = getattr(importlib.import_module(f"siqm.{layer}"), cls_name)
            for attr in names:
                key = f"{layer}.{cls_name}.{attr}"
                fn = cls.__dict__[attr]
                undo.append((cls, attr, fn))
                setattr(cls, attr, tracer.wrap(SPAN_NAMES.get(key, key), fn, HOOKS.get(key)))
        for layer, attr in FOREIGN:
            mod = importlib.import_module(f"siqm.{layer}")
            fn = getattr(mod, attr)
            key = f"{layer}.{attr}"
            undo.append((mod, attr, fn))
            setattr(mod, attr, tracer.wrap(key, fn, HOOKS.get(key)))
        cli = importlib.import_module("siqm.cli")
        rebind(cli.run_command, tracer.wrap(ROOT, cli.run_command))
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def untraced_bindings(tracer: Tracer) -> list:
    """Module attributes that still bind a public layer function directly.

    Run inside `instrument`: any hit is an import site the wrapping missed.
    """
    layer_modules = {f"siqm.{layer}" for layer in LAYERS}
    missed = []
    for m in _siqm_modules():
        for attr, value in vars(m).items():
            if not inspect.isfunction(value) or value in tracer.wrappers:
                continue
            if value.__module__ in layer_modules and not value.__name__.startswith("_"):
                missed.append(f"{m.__name__}.{attr}")
    return missed
