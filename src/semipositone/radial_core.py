"""Radial discretization of R^N: grids, fields, Laplacian, integrals, norms.

Radial profiles u(r) are written on a uniform grid over [0, r_max]; the
solve runs on the rule on supp g (`riesz_potential.Support`), the grid's
nodes and trapezoid weights there. Integrals carry the full N-dimensional
measure omega_N r^{N-1} dr, and those of g and f one 160-point
Gauss-Legendre rule built by Newton's method on P_160. A field formed as a
Riesz potential, u = T(h), carries its source h = Delta^2 u, and its
D^{2,2} products are int h v, exact on R^N and read only where h lives; the
finite-difference Laplacian, cut off at r_max, serves only fields without
a source.

The search space is deliberately radial: full grids in N >= 5 are infeasible
at desk scale and the canonical weight is radial. Nothing here asserts that
the continuum problem has radial solutions.
"""

import math
from dataclasses import dataclass

import numpy as np

def sphere_area(dim):
    """omega_N = N pi^{N/2} / Gamma(1 + N/2), the measure of the unit sphere."""
    return dim * math.pi ** (dim / 2.0) / math.gamma(1.0 + dim / 2.0)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    dim: int
    n: int
    r_max: float
    r: np.ndarray          # node coordinates, r[0] = 0, uniform spacing
    h: float               # node spacing r_max / (n - 1)
    w: np.ndarray          # trapezoid weights, sum(w) = r_max
    sphere_area: float     # omega_N
    r_pow: np.ndarray      # r^{N-1}, the power in the radial measure, computed once

    def key(self):
        return (self.dim, self.n, float(self.r_max))


@dataclass(eq=False)
class RadialField:
    grid: RadialGrid
    values: np.ndarray
    source: np.ndarray = None  # Delta^2 u on R^N when u is a Riesz potential

    def __post_init__(self):
        for name in ("values", "source"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (self.grid.n,):
                raise ValueError("field has %s %s for an n=%d grid"
                                 % (arr.shape, name, self.grid.n))
            setattr(self, name, arr)


def _require_same_grid(u, v):
    if u.grid.key() != v.grid.key():
        raise ValueError("grid mismatch: %s vs %s" % (u.grid.key(), v.grid.key()))


def make_grid(dim, n, r_max):
    """Uniform radial grid on [0, r_max] with trapezoid quadrature weights."""
    if dim < 5:
        raise ValueError("dim=%d rejected: the problem class needs N >= 5" % dim)
    if n < 16:
        raise ValueError("n=%d rejected: stencils need at least 16 nodes" % n)
    if not r_max > 0:
        raise ValueError("r_max must be positive")
    r = np.linspace(0.0, float(r_max), int(n))
    h = float(r[1] - r[0])
    w = np.full(int(n), h)
    w[0] = w[-1] = 0.5 * h
    return RadialGrid(dim=int(dim), n=int(n), r_max=float(r_max), r=r, h=h,
                      w=w, sphere_area=float(sphere_area(dim)),
                      r_pow=r ** (int(dim) - 1))


def laplacian(u):
    """Radial Laplacian u'' + (N-1)/r u', second order.

    r = 0 uses the regularity limit Delta u(0) = N u''(0) with the even
    extension u(-h) = u(h); r_max uses one-sided stencils exact on quadratics.
    """
    g = u.grid
    v = u.values
    h = g.h
    N = g.dim
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2 \
        + (N - 1) / g.r[1:-1] * (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = 2.0 * N * (v[1] - v[0]) / h**2
    d2 = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    d1 = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    out[-1] = d2 + (N - 1) / g.r[-1] * d1
    return RadialField(g, out)


def integrate_values(grid, values):
    """`integrate` of each row of the values (..., n) at the nodes of grid, a
    `RadialGrid` or the rule on supp g (`riesz_potential.Support`), along the
    last axis."""
    return grid.sphere_area * np.sum(values * grid.r_pow * grid.w, axis=-1)


def integrate(u):
    """int_{R^N} u dx = omega_N int_0^{r_max} u(r) r^{N-1} dr (trapezoid)."""
    return float(integrate_values(u.grid, u.values))


def h2_inner(u, v):
    """int Delta u Delta v dx; h2_inner(u, u) = ||Delta u||_2^2.

    When either field has a source h = Delta^2 u, this is int h v on R^N,
    exact and read on supp h only; otherwise the stencil, on [0, r_max].
    """
    _require_same_grid(u, v)
    if u.source is None:
        u, v = v, u
    if u.source is not None:
        return integrate(RadialField(u.grid, u.source * v.values))
    lu = laplacian(u).values
    lv = lu if v is u else laplacian(v).values
    return integrate(RadialField(u.grid, lu * lv))


def _legendre_rule(n):
    """The n-point rule on [-1, 1], n even, nodes ascending: Newton on y = 1 - x
    from Tricomi's guesses for the roots x > 0 of P_n, by the recurrence for P_j
    and P_j - P_{j-1} (Reinsch's form), so 1 - x^2 = y (2 - y) stays accurate."""
    k = np.arange(1, n // 2 + 1)
    y = 1.0 - (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(4):
        p, d = 1.0 - y, -y  # P_1 and D_1 at x = 1 - y
        for j in range(2, n + 1):
            d = ((j - 1) * d - (2 * j - 1) * y * p) / j
            p = p + d
        c = y * p - d  # P_{n-1} - x P_n = (1 - x^2) P_n' / n
        y = y + p * y * (2.0 - y) / (n * c)
    w = 2.0 * y * (2.0 - y) / (n * c) ** 2
    return np.concatenate((y - 1.0, (1.0 - y)[::-1])), np.concatenate((w, w[::-1]))


_GL_NODES, _GL_WEIGHTS = _legendre_rule(160)


def gauss_legendre(a, b):
    """Nodes and weights of the 160-point Gauss-Legendre rule on [a, b], a and
    b broadcast, the rule along a new last axis. Exact for polynomials of
    degree < 320, at machine precision for integrands analytic near [a, b]:
    split at every kink and jump. Against 40 digits the nodes are within 7e-17
    and the weights 3.7e-15 relative; numpy's eigenvector rule leggauss(160)
    loses 1.5e-11 at the ends (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013)."""
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    half = 0.5 * (b - a)
    return half * _GL_NODES + 0.5 * (b + a), half * _GL_WEIGHTS


def sorted_union(*arrays):
    """np.union1d of the arrays, bit for bit, without its import of numpy.ma."""
    pts = np.sort(np.concatenate(arrays, axis=None))
    return pts[np.concatenate(([True], pts[1:] != pts[:-1]))] if pts.size else pts
