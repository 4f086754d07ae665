"""Span tracer for the semipositone package, bound from outside the package.

`Tracer.install` replaces, in every loaded `semipositone.*` module, each
attribute that *is* one of the traced functions with a timing wrapper, and
`numpy.linalg.solve` (the Newton step's linear solve) likewise;
`Tracer.uninstall` puts the originals back. Binding by identity matters
because `energy`, `mountain_pass`, `sweep_cli` and the package `__init__`
hold from-imported references: patching only the defining module would miss
every call made through those names.

A traced name that does not exist in the loaded package is recorded as
absent, not as an error, so the benchmark keeps running when a function is
deleted. Spans are aggregated as they close (calls, inclusive time, self
time = span minus child spans), bucketed by the operation in progress, so
tracing a long run holds no per-call records in memory.
"""

import functools
import os
import sys
import time
import weakref
from collections import defaultdict

# (layer module, function) pairs traced in `semipositone.<module>`.
TARGETS = [
    ("radial_core", "h2_inner"),
    ("radial_core", "laplacian"),
    ("radial_core", "integrate"),
    ("nonlinearity", "eval_Fa"),
    ("nonlinearity", "eval_fa"),
    ("nonlinearity", "growth_envelope"),
    ("nonlinearity", "check_f1"),
    ("nonlinearity", "check_f2"),
    ("nonlinearity", "check_f3"),
    ("nonlinearity", "check_f4"),
    ("weight", "sample_on_grid"),
    ("weight", "g2_left_side"),
    ("weight", "check_g1"),
    ("weight", "check_g2"),
    ("riesz_potential", "ring_kernel"),
    ("riesz_potential", "ring_kernel_pairs"),
    ("riesz_potential", "apply_potential"),
    ("riesz_potential", "riesz_solve"),
    ("energy", "i_a"),
    ("energy", "gradient_map"),
    ("energy", "estimate_a1"),
    ("energy", "estimate_bg"),
    ("mountain_pass", "mp_solve"),
    ("mountain_pass", "find_vtilde"),
    ("mountain_pass", "make_bump"),
    ("sweep_cli", "run_sweep"),
    ("sweep_cli", "build_problem"),
    ("sweep_cli", "emit"),
    ("sweep_cli", "run_hypothesis_checks"),
]

# numpy.linalg.solve is traced only while mp_solve is on the span stack.
LINSOLVE = "mountain_pass.linsolve"

PACKAGE = "semipositone"


class OpStats:
    """Aggregates of the spans closed during one operation."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.count = defaultdict(float)   # derived counters, see Tracer._observe


class Tracer:
    def __init__(self):
        self.absent = set()
        self.ops = {}
        self._stats = None
        self._stack = []        # [label, child seconds] per open span
        self._patched = []
        self._seen = {}         # id -> weak reference to a returned object
        self._kernels = []      # (weak reference, computed 8 n^2 bytes)

    # -- binding -----------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        self.absent = set()
        for module, attr in TARGETS:
            label = module + "." + attr
            mod = sys.modules.get(PACKAGE + "." + module)
            orig = getattr(mod, attr, None) if mod is not None else None
            if orig is None:
                self.absent.add(label)
                continue
            self._bind(modules, orig, self._wrap(label, orig))
        import numpy.linalg as la
        self._bind(modules + [la], la.solve, self._wrap_linsolve(la.solve))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []

    def _bind(self, modules, orig, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, orig))

    # -- spans -------------------------------------------------------------

    def begin(self, key):
        """Route the spans that close from now on to bucket `key`."""
        self._stats = self.ops.setdefault(key, OpStats())

    def _under(self, label):
        return any(frame[0] == label for frame in self._stack)

    def _span(self, label, fn, args, kwargs):
        stack = self._stack
        frame = [label, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dur
            st = self._stats
            if st is not None:
                st.calls[label] += 1
                st.incl[label] += dur
                st.self_s[label] += dur - frame[1]

    def _wrap(self, label, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if label == "riesz_potential.riesz_solve" and tracer._under("energy.estimate_bg"):
                tracer._count("energy.estimate_bg.iters", 1)
            result = tracer._span(label, fn, args, kwargs)
            tracer._observe(label, args, result)
            return result
        return wrapper

    def _wrap_linsolve(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, b, *args, **kwargs):
            if not tracer._under("mountain_pass.mp_solve"):
                return fn(a, b, *args, **kwargs)
            n = len(a)
            tracer._count(LINSOLVE + ".flops", 2.0 * n ** 3 / 3.0)
            return tracer._span(LINSOLVE, fn, (a, b) + args, kwargs)
        return wrapper

    def _count(self, name, amount):
        if self._stats is not None:
            self._stats.count[name] += amount

    def _first_sight(self, obj):
        ref = self._seen.get(id(obj))
        if ref is not None and ref() is obj:
            return False
        self._seen[id(obj)] = weakref.ref(obj)
        return True

    @property
    def kernel_bytes(self):
        """Computed bytes of the distinct kernels still alive."""
        return sum(nbytes for ref, nbytes in self._kernels if ref() is not None)

    def _observe(self, label, args, result):
        """Derived counters read from arguments and results of a closed span."""
        if label == "riesz_potential.ring_kernel":
            if self._first_sight(result):
                self._count("riesz_potential.ring_kernel.builds", 1)
                self._kernels.append((weakref.ref(result), 8 * args[0].n ** 2))
        elif label == "weight.sample_on_grid":
            if not self._first_sight(result):
                self._count("weight.sample_on_grid.hits", 1)
        elif label == "riesz_potential.apply_potential":
            n = args[1].grid.n
            self._count("riesz_potential.apply_potential.bytes", 8 * n * n + 16 * n)
        elif label == "mountain_pass.mp_solve":
            deform = len(result.diagnostics["history_residual"])
            self._count("mountain_pass.deform_iters", deform)
            self._count("mountain_pass.newton_iters", result.iterations - deform)
            self._count("mountain_pass.newton_used", bool(result.diagnostics["newton_used"]))
        elif label == "sweep_cli.emit":
            self._count("sweep_cli.emit.bytes", sum(os.path.getsize(p) for p in result))


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, value from (OpStats, Tracer), traced labels it depends on)
def _calls(label):
    return lambda st, tr: st.calls[label]


def _incl(*labels):
    return lambda st, tr: sum(st.incl[lb] for lb in labels)


def _self(label):
    return lambda st, tr: st.self_s[label]


def _counter(name):
    return lambda st, tr: st.count[name]


RK = "riesz_potential.ring_kernel"
MP = "mountain_pass.mp_solve"
SOG = "weight.sample_on_grid"
CHECK_F = tuple("nonlinearity.check_f%d" % k for k in (1, 2, 3, 4))

LAYER_METRICS = {
    RK + ".s": ("s", _incl(RK), (RK,)),
    RK + ".calls": ("count", _calls(RK), (RK,)),
    RK + ".builds": ("count", _counter(RK + ".builds"), (RK,)),
    RK + ".hit_ratio": ("ratio", lambda st, tr: _ratio(st.calls[RK] - st.count[RK + ".builds"],
                                                       st.calls[RK]), (RK,)),
    "riesz_potential.kernel_bytes": ("B", lambda st, tr: tr.kernel_bytes, (RK,)),
    "riesz_potential.riesz_solve.calls": ("count", _calls("riesz_potential.riesz_solve"),
                                          ("riesz_potential.riesz_solve",)),
    "riesz_potential.riesz_solve.self_s": ("s", _self("riesz_potential.riesz_solve"),
                                           ("riesz_potential.riesz_solve",)),
    "riesz_potential.apply_potential.calls": ("count", _calls("riesz_potential.apply_potential"),
                                              ("riesz_potential.apply_potential",)),
    "riesz_potential.apply_potential.self_s": ("s", _self("riesz_potential.apply_potential"),
                                               ("riesz_potential.apply_potential",)),
    "riesz_potential.apply_potential.bytes": ("B", _counter("riesz_potential.apply_potential.bytes"),
                                              ("riesz_potential.apply_potential",)),
    "riesz_potential.ring_kernel_pairs.calls": ("count", _calls("riesz_potential.ring_kernel_pairs"),
                                                ("riesz_potential.ring_kernel_pairs",)),
    "riesz_potential.ring_kernel_pairs.self_s": ("s", _self("riesz_potential.ring_kernel_pairs"),
                                                 ("riesz_potential.ring_kernel_pairs",)),
    MP + ".calls": ("count", _calls(MP), (MP,)),
    MP + ".self_s": ("s", _self(MP), (MP,)),
    "mountain_pass.deform_iters": ("count", _counter("mountain_pass.deform_iters"), (MP,)),
    "mountain_pass.newton_iters": ("count", _counter("mountain_pass.newton_iters"), (MP,)),
    "mountain_pass.newton_used_ratio": ("ratio", lambda st, tr: _ratio(
        st.count["mountain_pass.newton_used"], st.calls[MP]), (MP,)),
    LINSOLVE + ".calls": ("count", _calls(LINSOLVE), (MP,)),
    LINSOLVE + ".self_s": ("s", _self(LINSOLVE), (MP,)),
    LINSOLVE + ".flops": ("flop", _counter(LINSOLVE + ".flops"), (MP,)),
    "mountain_pass.find_vtilde.s": ("s", _incl("mountain_pass.find_vtilde"),
                                    ("mountain_pass.find_vtilde",)),
    "mountain_pass.make_bump.s": ("s", _incl("mountain_pass.make_bump"),
                                  ("mountain_pass.make_bump",)),
    "energy.i_a.calls": ("count", _calls("energy.i_a"), ("energy.i_a",)),
    "energy.i_a.self_s": ("s", _self("energy.i_a"), ("energy.i_a",)),
    "energy.gradient_map.calls": ("count", _calls("energy.gradient_map"), ("energy.gradient_map",)),
    "energy.gradient_map.self_s": ("s", _self("energy.gradient_map"), ("energy.gradient_map",)),
    "energy.estimate_a1.s": ("s", _incl("energy.estimate_a1"), ("energy.estimate_a1",)),
    "energy.estimate_bg.s": ("s", _incl("energy.estimate_bg"), ("energy.estimate_bg",)),
    "energy.estimate_bg.iters": ("count", _counter("energy.estimate_bg.iters"),
                                 ("energy.estimate_bg", "riesz_potential.riesz_solve")),
    "radial_core.h2_inner.calls": ("count", _calls("radial_core.h2_inner"), ("radial_core.h2_inner",)),
    "radial_core.h2_inner.self_s": ("s", _self("radial_core.h2_inner"), ("radial_core.h2_inner",)),
    "radial_core.laplacian.calls": ("count", _calls("radial_core.laplacian"), ("radial_core.laplacian",)),
    "radial_core.integrate.calls": ("count", _calls("radial_core.integrate"), ("radial_core.integrate",)),
    "radial_core.integrate.self_s": ("s", _self("radial_core.integrate"), ("radial_core.integrate",)),
    "nonlinearity.eval_Fa.calls": ("count", _calls("nonlinearity.eval_Fa"), ("nonlinearity.eval_Fa",)),
    "nonlinearity.eval_Fa.self_s": ("s", _self("nonlinearity.eval_Fa"), ("nonlinearity.eval_Fa",)),
    "nonlinearity.eval_fa.calls": ("count", _calls("nonlinearity.eval_fa"), ("nonlinearity.eval_fa",)),
    "nonlinearity.growth_envelope.s": ("s", _incl("nonlinearity.growth_envelope"),
                                       ("nonlinearity.growth_envelope",)),
    "nonlinearity.check_f.s": ("s", _incl(*CHECK_F), CHECK_F),
    SOG + ".calls": ("count", _calls(SOG), (SOG,)),
    SOG + ".hit_ratio": ("ratio", lambda st, tr: _ratio(st.count[SOG + ".hits"], st.calls[SOG]),
                         (SOG,)),
    "weight.g2_left_side.calls": ("count", _calls("weight.g2_left_side"), ("weight.g2_left_side",)),
    "weight.g2_left_side.self_s": ("s", _self("weight.g2_left_side"), ("weight.g2_left_side",)),
    "weight.check_g1.s": ("s", _incl("weight.check_g1"), ("weight.check_g1",)),
    "weight.check_g2.s": ("s", _incl("weight.check_g2"), ("weight.check_g2",)),
    "sweep_cli.run_sweep.s": ("s", _incl("sweep_cli.run_sweep"), ("sweep_cli.run_sweep",)),
    "sweep_cli.build_problem.s": ("s", _incl("sweep_cli.build_problem"), ("sweep_cli.build_problem",)),
    "sweep_cli.emit.s": ("s", _incl("sweep_cli.emit"), ("sweep_cli.emit",)),
    "sweep_cli.emit.bytes": ("B", _counter("sweep_cli.emit.bytes"), ("sweep_cli.emit",)),
    "sweep_cli.run_hypothesis_checks.s": ("s", _incl("sweep_cli.run_hypothesis_checks"),
                                          ("sweep_cli.run_hypothesis_checks",)),
}


def layer_values(tracer, keys):
    """Per-op values of each per-layer metric over the operations `keys`, as
    {name: {"unit", "values"}}; a metric resting on an absent function gets
    "absent": true and no values."""
    out = {}
    for name, (unit, fn, needs) in LAYER_METRICS.items():
        if any(lb in tracer.absent for lb in needs):
            out[name] = {"unit": unit, "values": [], "absent": True}
        else:
            out[name] = {"unit": unit, "values": [fn(tracer.ops[k], tracer) for k in keys]}
    return out
