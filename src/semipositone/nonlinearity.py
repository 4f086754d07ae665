"""Nonlinearity families f, the shift f_a, the positone limit f_0, and
samplable growth/monotonicity checks.

A nonlinearity is its three closed forms: f, its primitive F = F_closed and
its derivative f' = fprime, the three things the energy
I_a(u) = ||Delta u||^2 / 2 - int g F_a(u) and its Newton steps read.
Conventions, with t+ = max(t, 0):
    f_0(t) = f(t+),   f_a(t) = f(t+) - a,
    F(t) = int_0^t f,  F_a(t) = F(t+) - a t,
so f_a = -a and F_a = -a t on t <= 0. These hold because `NonlinearitySpec`
rejects an f with f(0) != 0 and an F_closed with F_closed(0) != 0.

The growth hypotheses are limits and monotonicity statements; the checkers
here sample dense logarithmic grids and report falsifiable evidence, they do
not prove anything.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

T_BIG = 1e6          # top of the default sampling range
ENVELOPE_FLOOR = 1e-300  # growth_envelope where f(t) <= eps t on every sample
_ORIGIN_TOL = 0.01   # f(t)/t must sit below this on the smallest decade
_GROWTH_TOL = 0.05   # slack on the subcritical ratio bound


def critical_exponent(dim):
    """2** = 2N/(N-4), the D^{2,2} Sobolev exponent."""
    if dim < 5:
        raise ValueError("dim=%d rejected: the problem class needs N >= 5" % dim)
    return 2.0 * dim / (dim - 4.0)


@dataclass(frozen=True)
class NonlinearitySpec:
    """f with its growth constants (gamma, c_f, r_mono) and the closed forms
    F_closed of F and fprime of f', all three callables on t >= 0 (a spec
    without one is refused when built, not halfway through a solve).
    check_sample, f on the checkers' log grid, is filled on first use and
    kept on the instance, so one pass of (f1)-(f4) samples f there once; a
    `dataclasses.replace`d spec starts without it."""
    f: Callable
    gamma: float
    c_f: float
    r_mono: float
    F_closed: Callable
    fprime: Callable
    dim: int = 5

    def __post_init__(self):
        for name in ("f", "F_closed", "fprime"):
            if not callable(getattr(self, name)):
                raise ValueError("%s=%r must be callable" % (name, getattr(self, name)))
        two_ss = critical_exponent(self.dim)
        if not 2.0 < self.gamma < two_ss:
            raise ValueError(
                "gamma=%g must lie in (2, 2**) = (2, %g) for N=%d"
                % (self.gamma, two_ss, self.dim))
        for name in ("c_f", "r_mono"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError("%s=%r must be finite" % (name, getattr(self, name)))
        for name, fn in (("f", self.f), ("F_closed", self.F_closed)):
            at0 = float(fn(0.0))
            if at0 != 0.0:
                raise ValueError("%s(0)=%g but the hypotheses need %s(0)=0 exactly"
                                 % (name, at0, name))

    @cached_property
    def check_sample(self):
        """f on _CHECK_T (read-only), the sample (f1)-(f4) share."""
        ft = np.array(self.f(_CHECK_T), dtype=float)
        ft.flags.writeable = False
        return ft


@dataclass(frozen=True, eq=False)
class ShiftedNonlinearity:
    """f_a = f - a on t >= 0 and -a on t <= 0; a = 0 is the positone limit f_0.
    a is one shift or an array of shifts that broadcasts against the values it
    meets (a[:, None] for (k, m) points), so f_a and F_a act row by row."""
    base: NonlinearitySpec
    a: float  # or an array of shifts

    def __post_init__(self):
        a = np.asarray(self.a)
        if not np.all((0 <= a) & (a < np.inf)):
            raise ValueError("shift a must be finite and nonnegative")


# On 0 < |t| < _F_SERIES_T the example's closed-form primitive cancels terms
# of size t against a result of size t^3 (relative error ~1e-13 at t = 0.1
# and ~1e-10 at 1e-3); there its Taylor series sum_k (-1)^k 2 t^{k+3}/((k+1)(k+3))
# is summed instead, by Horner's rule as numpy's polyval does. 40 terms leave
# a tail below 0.25^40 ~ 1e-24; above 0.25 the closed form is within 6e-15.
_F_SERIES_T = 0.25
_F_SERIES_COEF = np.array([2.0 * (-1) ** k / ((k + 1) * (k + 3)) for k in range(40)])


def example_nonlinearity(dim=5, gamma=2.5):
    """The built-in log-type example f(t) = 2 t ln(1 + t) with closed forms."""
    def f(t):
        t = np.asarray(t, dtype=float)
        return 2.0 * t * np.log1p(np.abs(t))

    def F(t):
        t = np.asarray(t, dtype=float)
        out = np.asarray((t * t - 1.0) * np.log1p(t) - 0.5 * t * t + t)
        small = (np.abs(t) < _F_SERIES_T) & (t != 0.0)  # the closed form is exact at 0
        if np.count_nonzero(small):  # cheaper than np.any on the common miss
            ts = t[small]
            acc = np.full_like(ts, _F_SERIES_COEF[-1])
            for c in _F_SERIES_COEF[-2::-1]:
                acc = c + acc * ts
            out[small] = ts ** 3 * acc
        return out[()]

    def fprime(t):
        t = np.asarray(t, dtype=float)
        return 2.0 * np.log1p(t) + 2.0 * t / (1.0 + t)

    return NonlinearitySpec(f=f, gamma=float(gamma), c_f=1.0, r_mono=1.0, dim=dim,
                            F_closed=F, fprime=fprime)


def power_nonlinearity(power, dim=5, gamma=None):
    """f(t) = t^power, so c_f = 1; gamma defaults to the exact growth power + 1."""
    if gamma is None:
        gamma = power + 1.0

    def f(t):
        t = np.asarray(t, dtype=float)
        return t ** power

    def F(t):
        t = np.asarray(t, dtype=float)
        return t ** (power + 1.0) / (power + 1.0)

    def fprime(t):
        t = np.asarray(t, dtype=float)
        return power * t ** (power - 1.0)

    return NonlinearitySpec(f=f, gamma=float(gamma), c_f=1.0, r_mono=1.0, dim=dim,
                            F_closed=F, fprime=fprime)


def linear_nonlinearity(dim=5, gamma=2.5):
    """f(t) = t, so c_f = 1; the `linear` family, a superlinearity counterexample."""
    def f(t):
        return np.array(t, dtype=float)

    def F(t):
        t = np.asarray(t, dtype=float)
        return 0.5 * t * t

    return NonlinearitySpec(f=f, gamma=float(gamma), c_f=1.0, r_mono=1.0, dim=dim, F_closed=F,
                            fprime=lambda t: np.ones_like(np.asarray(t, dtype=float)))


def eval_f0(spec, t):
    out = np.asarray(spec.f(np.maximum(np.asarray(t, dtype=float), 0.0)), dtype=float)
    return out if out.ndim else float(out)


def eval_fa(shifted, t):
    out = eval_f0(shifted.base, t) - shifted.a
    return out if np.ndim(out) else float(out)


def eval_Fa(shifted, t):
    t = np.asarray(t, dtype=float)
    out = np.asarray(shifted.base.F_closed(np.maximum(t, 0.0))) - shifted.a * t
    return out if out.ndim else float(out)


def eval_f0prime(spec, t):
    """Derivative of f_0 where it exists (0 on t < 0)."""
    t = np.asarray(t, dtype=float)
    pos = t > 0
    out = np.zeros_like(t)
    if np.any(pos):
        out[pos] = spec.fprime(t[pos])
    return out


# growth_envelope's coarse log grid, and its zoom: each round samples this
# many points on the bracket of neighbours around the running argmax
_ENVELOPE_T = np.geomspace(1e-8, T_BIG, 4001)
_ZOOM_ROUNDS, _ZOOM_POINTS = 3, 65


def growth_envelope(spec, eps):
    """Smallest sampled C with f(t) <= eps t + C t^{gamma-1} on t > 0.

    Least-upper fit over a dense log grid on [1e-8, T_BIG], then zoomed in
    3 rounds of 65 linear points on the bracket around the argmax so far
    (final spacing 2.5e-7 t), so points falling between log-grid samples
    stay dominated too, then bumped by a hair; ENVELOPE_FLOOR when no
    sample has f(t) > eps t.
    """
    def ratio(tt):
        return (np.asarray(spec.f(tt)) - eps * tt) / tt ** (spec.gamma - 1.0)

    t = _ENVELOPE_T
    rho = ratio(t)
    c = float(np.max(rho))
    for _ in range(_ZOOM_ROUNDS):
        i = int(np.argmax(rho))
        t = np.linspace(t[max(i - 1, 0)], t[min(i + 1, t.size - 1)], _ZOOM_POINTS)
        rho = ratio(t)
        c = max(c, float(np.max(rho)))
    return float(max(c, 0.0) * (1.0 + 1e-9) + ENVELOPE_FLOOR)


@dataclass
class CheckReport:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


# The checkers' fixed samples: a log grid on [1e-6, T_BIG], the levels f(t)/t
# must pass for (f2), and the compact interval of (f4) with its part of the
# grid, a prefix of _CHECK_T, and the points one step ahead of it for each of
# (f4)'s steps, concatenated so one call of f samples them all
_CHECK_T = np.geomspace(1e-6, T_BIG, 2000)
_F2_PROBES = (1.0, 10.0)
_F4_COMPACT = 100.0
_F4_T = _CHECK_T[_CHECK_T <= _F4_COMPACT]
_F4_STEPS = (1e-2, 1e-4, 1e-6)
_F4_SIZES = tuple(int(np.count_nonzero(_F4_T + h <= _F4_COMPACT)) for h in _F4_STEPS)
_F4_AHEAD = np.concatenate([_F4_T[:m] + h for h, m in zip(_F4_STEPS, _F4_SIZES)])


def check_f1(spec):
    """f(t)/t -> 0 at the origin and f(t)/t^{gamma-1} bounded by c_f at the top."""
    t, ft = _CHECK_T, spec.check_sample
    small = t <= 10.0 * t[0]
    origin_ratio = float(np.max(np.abs(ft[small] / t[small])))
    big = t >= t[-1] / 10.0
    growth_ratio = float(np.max(ft[big] / t[big] ** (spec.gamma - 1.0)))
    origin_ok = origin_ratio <= _ORIGIN_TOL
    growth_ok = growth_ratio <= spec.c_f * (1.0 + _GROWTH_TOL)
    return CheckReport("f1", origin_ok and growth_ok, {
        "origin_ratio": origin_ratio, "growth_ratio": growth_ratio,
        "c_f": spec.c_f, "origin_ok": origin_ok, "growth_ok": growth_ok})


def check_f2(spec):
    """f(t)/t must exceed every probe level somewhere in the sample range."""
    ratio = spec.check_sample / _CHECK_T
    exceeded = {m: bool(np.any(ratio > m)) for m in _F2_PROBES}
    return CheckReport("f2", all(exceeded.values()), {
        "max_ratio": float(np.max(ratio)), "probes": exceeded})


def check_f3(spec):
    """Discrete monotonicity of f(t)/t beyond the registered threshold R."""
    beyond = _CHECK_T > spec.r_mono
    ratio = spec.check_sample[beyond] / _CHECK_T[beyond]
    drops = np.diff(ratio)
    worst = float(np.min(drops)) if drops.size else 0.0
    ok = worst >= -1e-12 * max(1.0, float(np.max(np.abs(ratio))))
    return CheckReport("f3", ok, {"worst_drop": worst, "r_mono": spec.r_mono})


def check_f4(spec):
    """Difference quotients on [0, 100] must stay bounded as the step
    shrinks (growth between scales reads as a Lipschitz failure)."""
    ahead = np.split(np.asarray(spec.f(_F4_AHEAD)), np.cumsum(_F4_SIZES)[:-1])
    maxq = [float(np.max(np.abs(fa - spec.check_sample[:fa.size]) / h))
            for fa, h in zip(ahead, _F4_STEPS)]
    growth = max(maxq[i + 1] / maxq[i] for i in range(len(maxq) - 1)) if maxq[0] > 0 else 1.0
    ok = growth <= 2.0
    return CheckReport("f4", ok, {"max_quotients": maxq, "scale_growth": growth})
