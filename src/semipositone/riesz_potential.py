"""Ring-reduced Riesz kernels and potentials.

The inverse of Delta^2 on R^N is convolution with R4 |x|^{4-N}; -Delta of the
same function is convolution with R2 |x|^{2-N}. For radial sources the
convolution reduces to a one-dimensional integral against the spherical
average

    kappa_alpha(r, s) = int_{S^{N-1}} |r e1 - s w|^{-alpha} dsigma(w).

With R = max(r, s) and rho = min(r, s) it is a hypergeometric series,

    kappa_alpha(r, s) = omega_N R^{-alpha} 2F1(alpha/2, 1 + (alpha-N)/2; N/2; rho^2/R^2),

which closes at the orders used here:

    kappa_{N-2}(r, s) = omega_N R^{2-N}   (shell theorem)
    kappa_{N-4}(r, s) = omega_N R^{4-N} (1 - (N-4)/N rho^2 / R^2)
    kappa_{2N}(r, s)  = omega_N (r^2 + s^2) / |r^2 - s^2|^{N+1},

the last by Euler's transformation (DLMF 15.8.1). `ring_kernel_pairs`
evaluates the (g2) orders N - 4 and 2N. The solver's N - 4 and N - 2 are
sums of at most two products f(rho) g(R), so `apply_potential`
evaluates a potential in O(n) from prefix and suffix sums of the source,
and `support` gathers the same closed form on the nodes S of supp g into
the m x m block B, built once per problem and read by every iterative
stage of the solver; `ring_kernel` is the kernel as a dense matrix, a test
oracle.
`riesz_solve` returns u = R4 I_{N-4} h with its source h attached, which
is all the D^{2,2} products of `radial_core.h2_inner` need; `riesz_values`
is the same potential for every row of a (k, n) stack of sources.
"""

from dataclasses import dataclass

import numpy as np

from .radial_core import RadialField, RadialGrid, sphere_area


@dataclass(frozen=True)
class RieszConstants:
    dim: int
    r4: float
    r2: float


def riesz_constants(dim):
    om = sphere_area(dim)
    return RieszConstants(dim=dim,
                          r4=1.0 / (2.0 * (dim - 2) * (dim - 4) * om),
                          r2=1.0 / ((dim - 2) * om))


def ring_kernel_pairs(dim, r, s, alpha):
    """kappa_alpha(r_i, s_i) for broadcast arrays of radii at the (g2) orders
    alpha = N - 4 and 2N, matched within 1e-12 relative (the slack
    `check_g2` grants delta); any other alpha raises ValueError. r^2 - s^2
    is formed as (r - s)(r + s), so kappa_{2N} keeps its digits near the
    diagonal, where it is +inf; both orders are +inf at r = s = 0.
    """
    r, s = np.asarray(r, dtype=float), np.asarray(s, dtype=float)
    big = np.maximum(r, s)
    alpha = float(alpha)
    om = sphere_area(dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        if abs(alpha - (dim - 4.0)) <= 1e-12 * alpha:
            ratio = np.zeros(big.shape)  # rho / R, and 0 where r = s = 0
            np.divide(np.minimum(r, s), big, out=ratio, where=big > 0)
            z = ratio * ratio
            return om * big ** (-alpha) * (1.0 - z * ((dim - 4.0) / dim))
        if abs(alpha - 2.0 * dim) <= 1e-12 * alpha:
            kern = om * (r * r + s * s) / (np.abs(r - s) * (r + s)) ** (dim + 1)
            return np.where(big > 0, kern, np.inf)
    raise ValueError("alpha=%g: closed forms exist for N-4=%d and 2N=%d only"
                     % (alpha, dim - 4, 2 * dim))


def _kernel_coeffs(grid, alpha):
    """Powers of r for kappa_alpha = omega_N (R^{-alpha} - c rho^2 R^{-alpha-2}).

    Returns (r^{-alpha}, r^{-alpha-2}, c) with both powers set to 0 at r = 0,
    which gives K[0, 0] = 0 (its volume weight vanishes) and leaves
    K[0, j] = omega_N s_j^{-alpha} exact.
    """
    alpha = float(alpha)
    if alpha == grid.dim - 4.0:
        c = (grid.dim - 4.0) / grid.dim
    elif alpha == grid.dim - 2.0:
        c = 0.0
    else:
        raise ValueError("alpha=%g: closed forms exist for N-4=%d and N-2=%d only"
                         % (alpha, grid.dim - 4, grid.dim - 2))
    r = grid.r
    p0 = np.zeros(grid.n)
    p2 = np.zeros(grid.n)
    p0[1:] = r[1:] ** (-alpha)
    p2[1:] = p0[1:] / (r[1:] * r[1:])
    return p0, p2, c


def ring_kernel(grid, alpha):
    """Dense kappa_alpha(r_i, s_j) matrix over the grid, alpha in {N-4, N-2}.

    Row i, column j >= i has R = s_j and rho = r_i; the lower triangle is its
    mirror image.
    """
    p0, p2, c = _kernel_coeffs(grid, alpha)
    om = grid.sphere_area
    entries = np.multiply.outer(-c * om * grid.r * grid.r, p2)
    entries += om * p0
    lower = np.tri(grid.n, k=-1, dtype=bool)
    entries[lower] = entries.T[lower]
    return entries


@dataclass(frozen=True, eq=False)
class Support:
    """supp g discretised once per problem, by `support`. Every integral
    against g is a sum over the nodes S = flatnonzero(g) with weights
    mass = omega_N r^{N-1} w g, and T(g x) = B x on S, with the m x m block
    B = R4 K[S, S] diag(r^{N-1} w g)[S], K the order N-4 kernel. T reads x
    on S only, so its nonzero spectrum is that of B, and (I - T) x = y
    reduces to (I - B) x_S = y_S (Atkinson, The Numerical Solution of
    Integral Equations of the Second Kind, 1997, ch. 4)."""
    grid: RadialGrid
    g: np.ndarray  # the sampled grid values of g
    nodes: np.ndarray
    mass: np.ndarray
    block: np.ndarray

    def restrict(self, values):
        """The values on S of each row of the grid values (..., n), each row
        contiguous, so a sum over S adds up a batch row as it adds up one field."""
        return np.take(values, self.nodes, axis=-1)

    def apply(self, x):
        """B x for each row of the support values x (..., m): one matrix-vector
        product per row, so a row of a batch is its one-row product bit for bit."""
        return np.matmul(self.block, x[..., None])[..., 0]


def support(g_field):
    """The `Support` of the sampled weight g_field, B from the closed form."""
    grid, g = g_field.grid, g_field.values
    nodes = np.flatnonzero(g)
    p0, p2, c = _kernel_coeffs(grid, grid.dim - 4.0)
    big = np.maximum.outer(nodes, nodes)
    small = grid.r[np.minimum.outer(nodes, nodes)]
    kern = p0[big] - c * small * small * p2[big]
    col = (riesz_constants(grid.dim).r4 * grid.sphere_area
           * grid.r_pow[nodes] * grid.w[nodes] * g[nodes])
    mass = grid.sphere_area * grid.r_pow[nodes] * grid.w[nodes] * g[nodes]
    return Support(grid=grid, g=g, nodes=nodes, mass=mass, block=kern * col)


def _potential(grid, alpha, src):
    """kappa_alpha potentials of the rows of src (..., n) in O(n) each, from
    prefix and suffix sums along the last axis."""
    p0, p2, c = _kernel_coeffs(grid, alpha)
    r2 = grid.r * grid.r
    src = src * grid.r_pow * grid.w

    def outer(x):
        # sum over j > i, accumulated from the far end
        tail = np.zeros_like(x)
        tail[..., :-1] = np.cumsum(x[..., :0:-1], axis=-1)[..., ::-1]
        return tail

    out = p0 * np.cumsum(src, axis=-1) + outer(p0 * src)
    if c:
        out -= c * (p2 * np.cumsum(r2 * src, axis=-1) + r2 * outer(p2 * src))
    return grid.sphere_area * out


def apply_potential(alpha, h):
    """(I_alpha h)(r_i) = sum_j kappa_alpha(r_i, s_j) h(s_j) s_j^{N-1} w_j in O(n).

    kappa already integrates over the sphere, so the quadrature carries the
    radial measure only. The sum splits at s_j = r_i: R = r_i on the inner
    part (s_j <= r_i), R = s_j on the outer part (s_j > r_i).
    """
    return RadialField(h.grid, _potential(h.grid, alpha, h.values))


def riesz_values(grid, sources):
    """Values of u = R4 I_{N-4} h on grid for each row h of the (..., n)
    stack sources, in one O(n) pass per row."""
    if not np.all(np.isfinite(sources)):
        raise ValueError("source has non-finite values (divergent norms)")
    return riesz_constants(grid.dim).r4 * _potential(grid, grid.dim - 4, sources)


def riesz_solve(h):
    """u with Delta^2 u = h on R^N, u = R4 I_{N-4} h, carrying h as its source."""
    return RadialField(h.grid, riesz_values(h.grid, h.values), h.values)

