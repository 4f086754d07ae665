"""Radial weights g: the annulus example chi_[r_in,r_out] |y|^{-d}, integrability
norms, and verification of the Riesz growth bound

    |x|^{(N-4) delta} int g(y)^delta / |x-y|^{(N-4) delta} dy <= C_g

for delta = 1 and delta = 2** at any probe radius. The norms of g are
taken on the weight's one Gauss-Legendre rule (`WeightSpec.rule`), built
from `WeightSpec.profile` alone, and so is the (g2) left side at probes
clear of the support, in closed form: two moments of g at delta = 1, where
kappa_{N-4} is rank two, and a kernel rational in rho/R, with no float
pow, at delta = 2**.
"""

import warnings
from dataclasses import dataclass
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
    knots. rule, the Gauss-Legendre rule over the support split at the knots
    with g and r^{N-1} at its nodes, is built on first use: `norm`,
    `support_mass_delta` and the far probes of `g2_left_side` all read it,
    so one pass of (g1)/(g2) builds it once (a `dataclasses.replace`d spec
    builds its own).
    """
    profile: Callable
    dim: int
    r_in: float
    r_out: float
    knots: tuple = ()

    def norm(self, p):
        """||g||_p over R^N on the rule. L^inf is the max of g at the rule's
        nodes, r_in, r_out and the knots: exact for the annulus (r^{-d} peaks
        at r_in) and for tables (they peak at an end or a knot); a hand-built
        profile that peaks elsewhere is read on that sample."""
        p = float(p)
        if np.isinf(p):
            ends = self.profile(np.array((self.r_in, self.r_out, *self.knots)))
            return float(max(np.max(self.rule[2]), np.max(ends)))
        return support_mass_delta(self, p) ** (1.0 / p)

    @cached_property
    def rule(self):
        """(nodes, weights, g, r^{N-1}) of the rule on [r_in, r_out] split at
        the knots, one panel per row, all read-only."""
        x, w, _ = _split_rule(self, np.array([self.r_in, self.r_out]))
        rule = (x, w, np.array(self.profile(x), dtype=float), x ** (self.dim - 1))
        for a in rule:
            a.flags.writeable = False
        return rule


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


def _moment(spec, delta, k=0):
    """sum of jw g^delta r^{N-1} s^k over the rule, as `_panel_sums` adds it."""
    s, w, g, r_pow = spec.rule
    return _panel_sums(w, g ** delta * s ** float(k), r_pow, np.zeros(len(w), dtype=np.intp), 1)[0]


def support_mass_delta(spec, delta):
    """int g^delta dy, the large-|x| limit of the (g2) left side."""
    return float(sphere_area(spec.dim) * _moment(spec, delta))


def example_weight(d=1.0, r_in=0.5, r_out=1.0, dim=5):
    """g(y) = |y|^{-d} on the annulus r_in <= |y| <= r_out, zero elsewhere.

    The annulus must sit inside the closed shell between radii 1/2 and 1 so
    that the support stays in B_1 \\ B_{1/2}. Its norms come from the
    weight's Gauss rule as for any profile; they match the closed forms of
    r^{-d} on the annulus within a few ulps.
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

    return WeightSpec(profile=profile, dim=dim, r_in=r_in, r_out=r_out)


def table_weight(r_values, g_values, dim=5):
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
                      r_out=float(r_values[-1]), knots=tuple(r_values[1:-1].tolist()))


def sample_on_grid(spec, grid):
    """Grid representation of g preserving cell masses at the support edges.

    Plain nodal sampling of a characteristic-function weight loses O(h) mass
    wherever r_in or r_out falls between nodes; here each node instead gets
    the mass of g over its trapezoid cell divided by the node's quadrature
    measure, and weighted quadratures keep their O(h^2) accuracy. Node 0's
    measure r^{N-1} w is 0, so its half cell [0, h/2] goes to node 1, whose
    cell is [0, 3h/2]: the cells cover [0, r_max], and integrate(g_grid)
    reproduces ||g||_1 to roundoff at every n and r_max. The masses come
    from one Gauss-Legendre sum over the touched cells, split at the knots.
    """
    if grid.dim != spec.dim:
        raise ValueError("grid dim %d != weight dim %d" % (grid.dim, spec.dim))
    if spec.r_out >= grid.r_max:
        raise ValueError("grid r_max=%g does not cover the support [%g, %g]"
                         % (grid.r_max, spec.r_in, spec.r_out))
    h = grid.h
    lo = np.clip(grid.r - 0.5 * h, 0.0, None)
    hi = np.minimum(grid.r + 0.5 * h, grid.r_max)
    lo[1] = hi[0] = 0.0  # node 0 has no measure: its half cell is node 1's
    vals = np.zeros(grid.n)
    # the touched cells are contiguous; neighbours share the edge lo[i + 1]
    touched = np.nonzero(np.minimum(hi, spec.r_out) > np.maximum(lo, spec.r_in))[0]
    if touched.size:
        edges = np.clip(np.append(lo[touched], hi[touched[-1]]), spec.r_in, spec.r_out)
        mass = _radial_integral(spec, edges)
        vals[touched] = mass / (grid.r_pow[touched] * grid.w[touched])
    return RadialField(grid=grid, values=vals)


def check_g1(spec):
    """Integrability report: the L^1, L^{N/4}, L^{(2**)'} and L^inf norms of
    g, each `WeightSpec.norm` on the weight's knot-split Gauss rule."""
    two_ss = critical_exponent(spec.dim)
    ps = (1.0, float(spec.dim) / 4.0, two_ss / (two_ss - 1.0), np.inf)
    quad_norms = {p: spec.norm(p) for p in ps}
    finite = all(np.isfinite(v) for v in quad_norms.values())
    details = {"norms": quad_norms}
    if quad_norms[1.0] == 0.0:
        warnings.warn("degenerate weight: ||g||_1 = 0")
        details["warning"] = "degenerate weight"
    return CheckReport("g1", finite, details)


def g2_left_side(spec, delta, x):
    """|x|^alpha int g^delta |x-y|^{-alpha} dy at probe radii x (a scalar or
    an array), alpha = (N-4) delta, delta 1 or 2** (alpha = N - 4 or 2N);
    any other delta raises ValueError.

    Probes clear of the support take closed forms on `WeightSpec.rule`:
    nodes s, m = jw g^delta r^{N-1}, c = (N-4)/N, R and rho the larger and
    smaller of x and s. At delta = 1 kappa_{N-4} is rank two, so with
    M_k = sum m s^k the left side is omega (M_0 - c M_2 / x^2) beyond r_out
    and omega (x^alpha M_{-alpha} - c x^{alpha+2} M_{-alpha-2}) inside r_in.
    At 2** each node adds omega m (x/R)^{2N} (1 + z^2) / q^{N+1}, z = rho/R,
    with no float pow and q = 1 - z^2 from the exact difference,
    ((R - rho)/R)((R + rho)/R): from the rounded z it is 10-30 ulps off 2%
    past an edge (dims 6-9). Each probe's row is summed alone, so an array
    gives the bits of one call per probe.

    Probes inside the support or within 2% of its width of an edge take
    `ring_kernel_pairs` on panels split at the edges, the knots, the probe
    and x -+ dist 2^j, dist the probe's distance to the support: graded
    toward the near-singularity at s = x, Gauss-Legendre converges
    geometrically (Trefethen, Approximation Theory and Approximation
    Practice, 2013, ch. 19). A probe that meets the support is +inf when
    alpha >= N.
    """
    dim = spec.dim
    alpha = (dim - 4.0) * delta
    riesz = abs(alpha - (dim - 4.0)) <= 1e-12 * alpha
    if not (riesz or abs(alpha - 2.0 * dim) <= 1e-12 * alpha):
        raise ValueError("alpha=%g: closed forms exist for N-4=%d and 2N=%d only"
                         % (alpha, dim - 4, 2 * dim))
    shape = np.shape(x)
    x = np.ravel(np.asarray(x, dtype=float))
    if np.any(x <= 0):
        raise ValueError("probe radius must be positive")
    width = spec.r_out - spec.r_in
    dist = np.maximum(np.maximum(spec.r_in - x, x - spec.r_out), 0.0)
    meets = dist == 0.0
    near = meets | (dist < 0.02 * width)
    out = np.empty(x.size)
    out[~near] = (_far_riesz if riesz else _far_rational)(spec, delta, x[~near])
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


def _far_riesz(spec, delta, x):
    """The delta = 1 left side at probes x clear of the support, from its
    moments on the rule; see `g2_left_side`."""
    alpha = (spec.dim - 4.0) * delta
    c, om = (spec.dim - 4.0) / spec.dim, sphere_area(spec.dim)
    out = om * (_moment(spec, delta) - c * _moment(spec, delta, 2) / (x * x))
    inside = x < spec.r_in
    if inside.any():
        x = x[inside]
        out[inside] = om * (x ** alpha * _moment(spec, delta, -alpha)
                            - c * x ** (alpha + 2) * _moment(spec, delta, -alpha - 2))
    return out


def _far_rational(spec, delta, x):
    """The delta = 2** left side at probes x clear of the support, one row
    of nodes per probe; see `g2_left_side`."""
    s, jw, g, r_pow = (a.ravel() for a in spec.rule)
    big = np.maximum(x[:, None], s)
    q = np.abs(x[:, None] - s) / big
    q *= (x[:, None] + s) / big
    term = (2.0 - q) / _power(q, spec.dim + 1)  # 2 - q = 1 + z^2
    inside = x < spec.r_in  # x / R = z
    if inside.any():
        term[inside] *= _power(np.square(x[inside, None] / s), spec.dim)
    term *= jw * g ** delta * r_pow
    return sphere_area(spec.dim) * np.sum(term, axis=-1)


def _power(a, k):
    """a^k for an integer k >= 1 by squaring and multiplying, no float pow."""
    if k == 1:
        return a
    half = _power(a * a, k // 2)
    return half * a if k % 2 else half


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
