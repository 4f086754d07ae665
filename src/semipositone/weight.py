"""Radial weights g: the annulus example chi_[r_in,r_out] |y|^{-d}, integrability
norms, and verification of the Riesz growth bound

    |x|^{(N-4) delta} int g(y)^delta / |x-y|^{(N-4) delta} dy <= C_g

for delta = 1 and delta = 2** at any probe radius.
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .nonlinearity import CheckReport, critical_exponent
from .radial_core import RadialField, gauss_legendre, sorted_union, sphere_area
from .riesz_potential import ring_kernel_pairs


@dataclass(frozen=True)
class WeightSpec:
    """A nonnegative radial weight supported on [r_in, r_out].

    For the example family profile(r) = r^{-d} on the annulus; for table
    weights (r_in, r_out) just bound the support and g is smooth between the
    knots. norms is a cache filled on demand, keyed by p. rule, the
    Gauss-Legendre rule over the support split at the knots with g and
    r^{N-1} at its nodes, is built on first use: the norms,
    `support_mass_delta` and the far probes of `g2_left_side` all read it,
    so one pass of (g1)/(g2) builds it once. Both belong to the instance: a
    `dataclasses.replace`d spec starts without them. L^inf is the max of g
    at the rule's nodes, r_in, r_out and the knots: exact for the annulus
    (r^{-d} peaks at r_in) and for tables (they peak at an end or a knot);
    a hand-built profile that peaks elsewhere is read on that sample.
    """
    profile: Callable
    dim: int
    r_in: float
    r_out: float
    d: float = 0.0
    name: str = "custom"
    knots: tuple = ()
    norms: dict = field(default_factory=dict, init=False)

    def norm(self, p):
        p = float(p)
        if p not in self.norms:
            self.norms[p] = _quad_norm(self, p)
        return self.norms[p]

    @cached_property
    def rule(self):
        """(nodes, weights, g, r^{N-1}) of the rule on [r_in, r_out] split at
        the knots, one panel per row, all read-only."""
        x, w, _ = _split_rule(self, np.array([self.r_in, self.r_out]))
        rule = (x, w, np.array(self.profile(x), dtype=float), x ** (self.dim - 1))
        for a in rule:
            a.flags.writeable = False
        return rule


def _annulus_lp(dim, d, r_in, r_out, p):
    """Closed form ||r^{-d} chi_[r_in,r_out]||_p over R^N."""
    if np.isinf(p):
        return r_in ** (-d)
    s = dim - d * p
    if abs(s) < 1e-13:
        block = np.log(r_out / r_in)
    else:
        block = (r_out ** s - r_in ** s) / s
    return (sphere_area(dim) * block) ** (1.0 / p)


def _split_rule(spec, edges):
    """The Gauss-Legendre rule on each [edges[k], edges[k+1]] (ascending),
    split at the knots, one panel per row: (nodes, weights, the k of each
    panel). g is smooth on every panel, so the rule is exact for tables and
    at machine precision for the annulus."""
    knots = np.asarray(spec.knots, dtype=float)
    pts = sorted_union(edges, knots[(knots > edges[0]) & (knots < edges[-1])])
    x, w = gauss_legendre(pts[:-1], pts[1:])
    return x, w, np.searchsorted(edges, pts[:-1], side="right") - 1


def _panel_sums(w, gp, r_pow, owner, cells):
    """Sum of w g^p r^{N-1} over each cell's panels; bincount adds a cell's
    panels in order, which keeps the last bit where a table has many knots."""
    piece = np.sum(w * gp * r_pow, axis=1)
    return np.bincount(owner, weights=piece, minlength=cells)


def _radial_integral(spec, edges):
    """int g r^{N-1} dr over each [edges[k], edges[k+1]] (ascending)."""
    x, w, owner = _split_rule(spec, edges)
    return _panel_sums(w, spec.profile(x), x ** (spec.dim - 1), owner, edges.size - 1)


def support_mass_delta(spec, delta):
    """int g^delta dy, the large-|x| limit of the (g2) left side."""
    _, w, g, r_pow = spec.rule
    mass = _panel_sums(w, g ** delta, r_pow, np.zeros(len(w), dtype=np.intp), 1)
    return float(sphere_area(spec.dim) * mass[0])


def _quad_norm(spec, p):
    if np.isinf(p):  # the rule's nodes, the support edges and the knots
        ends = spec.profile(np.array((spec.r_in, spec.r_out, *spec.knots)))
        return float(max(np.max(spec.rule[2]), np.max(ends)))
    return support_mass_delta(spec, p) ** (1.0 / p)


def example_weight(d=1.0, r_in=0.5, r_out=1.0, dim=5):
    """g(y) = |y|^{-d} on the annulus r_in <= |y| <= r_out, zero elsewhere.

    The annulus must sit inside the closed shell between radii 1/2 and 1 so
    that the support stays in B_1 \\ B_{1/2}.
    """
    if not (0.5 <= r_in < r_out <= 1.0):
        raise ValueError("annulus radii need 0.5 <= r_in < r_out <= 1, got [%g, %g]"
                         % (r_in, r_out))
    if not d > 0:
        raise ValueError("singularity exponent d must be positive")

    def profile(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = (r >= r_in) & (r <= r_out)
        out[inside] = r[inside] ** (-d)
        return out if out.ndim else float(out)

    spec = WeightSpec(profile=profile, dim=dim, r_in=r_in, r_out=r_out, d=d,
                      name="paper_example")
    spec.norms.update((p, _annulus_lp(dim, d, r_in, r_out, p)) for p in
                      (1.0, float(dim) / 4.0, _conjugate(critical_exponent(dim)), np.inf))
    return spec


def table_weight(r_values, g_values, dim=5, name="custom_table"):
    """Piecewise-linear weight from tabulated (r, g) samples; zero outside
    the tabulated range."""
    r_values = np.asarray(r_values, dtype=float)
    g_values = np.asarray(g_values, dtype=float)
    if r_values.ndim != 1 or r_values.shape != g_values.shape or r_values.size < 2:
        raise ValueError("need matching 1-D r and g tables with >= 2 entries")
    if not (np.all(np.isfinite(r_values)) and np.all(np.isfinite(g_values))):
        raise ValueError("r and g tables must be finite")
    if np.any(np.diff(r_values) <= 0):
        raise ValueError("r table must be strictly increasing")
    if r_values[0] < 0:
        raise ValueError("r table starts at r=%g < 0" % r_values[0])
    if np.any(g_values < 0):
        raise ValueError("weight table must be nonnegative")

    def profile(r):
        r = np.asarray(r, dtype=float)
        return np.interp(r, r_values, g_values, left=0.0, right=0.0)

    return WeightSpec(profile=profile, dim=dim, r_in=float(r_values[0]),
                      r_out=float(r_values[-1]), name=name,
                      knots=tuple(r_values[1:-1].tolist()))


def zero_weight(dim=5):
    def profile(r):
        return np.zeros_like(np.asarray(r, dtype=float))
    return WeightSpec(profile=profile, dim=dim, r_in=0.5, r_out=1.0, name="zero")


def _conjugate(p):
    return p / (p - 1.0)


def sample_on_grid(spec, grid):
    """Grid representation of g preserving cell masses at the support edges.

    Plain nodal sampling of a characteristic-function weight loses O(h) mass
    wherever r_in or r_out falls between nodes; here each node instead gets
    the mass of g over its trapezoid cell divided by the node's quadrature
    measure, so integrate(g_grid) reproduces ||g||_1 to roundoff and
    weighted quadratures keep their O(h^2) accuracy. The masses come from
    one Gauss-Legendre sum over the touched cells, split at the knots.
    """
    if grid.dim != spec.dim:
        raise ValueError("grid dim %d != weight dim %d" % (grid.dim, spec.dim))
    if spec.r_out >= grid.r_max:
        raise ValueError("grid r_max=%g does not cover the support [%g, %g]"
                         % (grid.r_max, spec.r_in, spec.r_out))
    h = grid.h
    lo = np.clip(grid.r - 0.5 * h, 0.0, None)
    hi = np.minimum(grid.r + 0.5 * h, grid.r_max)
    vals = np.zeros(grid.n)
    # the touched cells are contiguous; neighbours share the edge lo[i + 1]
    touched = np.nonzero(np.minimum(hi, spec.r_out) > np.maximum(lo, spec.r_in))[0]
    if touched.size:
        edges = np.clip(np.append(lo[touched], hi[touched[-1]]), spec.r_in, spec.r_out)
        mass = _radial_integral(spec, edges)
        measure = grid.r_pow[touched] * grid.w[touched]
        vals[touched] = np.divide(mass, measure, out=np.zeros_like(mass), where=measure > 0)
    return RadialField(grid=grid, values=vals)


def check_g1(spec):
    """Integrability report: L^1, L^{N/4}, L^{(2**)'} and L^inf norms by
    Gauss-Legendre over the knot-split support (L^inf as the max of g at the
    rule's nodes, the support edges and the knots: exact for the annulus and
    for tables), cross-checked against any cached closed forms."""
    ps = (1.0, float(spec.dim) / 4.0, _conjugate(critical_exponent(spec.dim)), np.inf)
    quad_norms = {p: _quad_norm(spec, p) for p in ps}
    mismatch = 0.0
    for p, v in spec.norms.items():
        if p in quad_norms and v > 0:
            mismatch = max(mismatch, abs(quad_norms[p] - v) / v)
    finite = all(np.isfinite(v) for v in quad_norms.values())
    details = {"norms": quad_norms, "closed_mismatch": mismatch}
    if quad_norms[1.0] == 0.0:
        warnings.warn("degenerate weight: ||g||_1 = 0")
        details["warning"] = "degenerate weight"
    return CheckReport("g1", finite, details)


def g2_left_side(spec, delta, x):
    """|x|^alpha int g^delta |x-y|^{-alpha} dy at probe radii x (a scalar or
    an array), alpha = (N-4) delta, by the closed-form ring kernel
    (`ring_kernel_pairs`) in the radial variable at every probe. delta is 1
    or 2** (alpha = N - 4 or 2N); any other delta raises ValueError.

    Probes clear of the support take its knot-split rule (`WeightSpec.rule`).
    Probes inside it or within 2% of its width of an edge take panels split
    at the edges, the knots, the probe and x -+ dist 2^j, dist the probe's
    distance to the support: graded toward the near-singularity at s = x,
    Gauss-Legendre converges geometrically (Trefethen, Approximation Theory
    and Approximation Practice, 2013, ch. 19). A probe that meets the
    support is +inf when alpha >= N.
    """
    dim = spec.dim
    alpha = (dim - 4.0) * delta
    shape = np.shape(x)
    x = np.ravel(np.asarray(x, dtype=float))
    if np.any(x <= 0):
        raise ValueError("probe radius must be positive")
    width = spec.r_out - spec.r_in
    dist = np.maximum(np.maximum(spec.r_in - x, x - spec.r_out), 0.0)
    meets = dist == 0.0
    near = meets | (dist < 0.02 * width)
    out = np.empty(x.size)
    s, jw, g, r_pow = (a.ravel() for a in spec.rule)
    far = x[~near]
    kern = ring_kernel_pairs(dim, far[:, None], s, alpha)
    integrand = g ** delta * r_pow * kern
    out[~near] = far ** alpha * np.sum(jw * integrand, axis=1)
    if alpha >= dim:  # the diagonal is not integrable
        out[meets], near = np.inf, near & ~meets
    edges, lo, hi, owner = np.array([spec.r_in, spec.r_out]), [], [], []
    for i in np.flatnonzero(near):  # all panels of all near probes, one rule
        steps = dist[i] * np.exp2(np.arange(np.log2(width / dist[i]) + 1)) if dist[i] else 0.0
        pts = sorted_union(edges, np.clip(spec.knots, *edges),
                           np.clip(np.append(x[i] - steps, x[i] + steps), *edges))
        lo.append(pts[:-1])
        hi.append(pts[1:])
        owner.append(np.full(pts.size - 1, i))
    if owner:
        s, jw = gauss_legendre(np.concatenate(lo), np.concatenate(hi))
        owner = np.concatenate(owner)
        gp = np.asarray(spec.profile(s), dtype=float) ** delta
        gp *= ring_kernel_pairs(dim, x[owner, None], s, alpha)
        out[near] = x[near] ** alpha * _panel_sums(jw, gp, s ** (dim - 1), owner, x.size)[near]
    return float(out[0]) if shape == () else out.reshape(shape)


# (g2) probe radii: exterior points |x| >= 1, clear of the support
_G2_PROBES = np.geomspace(1.05, 1e3, 24)
_G2_PROBES.flags.writeable = False


def check_g2(spec, delta):
    """Estimate C_g = sup over probes of the (g2) left side.

    delta must be 1 or 2** (within round-off). The probes are a log grid on
    [1.05, 1e3], exterior to the unit ball. Non-finite values are reported
    as failure rather than clipped.
    """
    dim = spec.dim
    two_ss = critical_exponent(dim)
    if not (abs(delta - 1.0) < 1e-12 or abs(delta - two_ss) < 1e-12):
        raise ValueError("delta=%g not in {1, 2**=%g}" % (delta, two_ss))
    values = g2_left_side(spec, delta, _G2_PROBES)
    finite = np.isfinite(values)
    c_g = float(np.max(values[finite])) if np.any(finite) else np.inf
    limit_mass = support_mass_delta(spec, delta)
    far_ratio = float(values[finite][-1] / limit_mass) if np.any(finite) and limit_mass > 0 else np.nan
    return CheckReport("g2", bool(np.all(finite)), {
        "delta": float(delta), "alpha": (dim - 4.0) * delta,
        "x_samples": _G2_PROBES, "values": values, "c_g": c_g,
        "limit_mass": limit_mass, "far_field_ratio": far_ratio})
