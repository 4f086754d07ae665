"""Ring-reduced Riesz kernels and potentials.

The inverse of Delta^2 on R^N is convolution with R4 |x|^{4-N}. For radial
sources the convolution reduces to a one-dimensional integral against the
spherical average

    kappa_alpha(r, s) = int_{S^{N-1}} |r e1 - s w|^{-alpha} dsigma(w).

With R = max(r, s) and rho = min(r, s) it is a hypergeometric series,

    kappa_alpha(r, s) = omega_N R^{-alpha} 2F1(alpha/2, 1 + (alpha-N)/2; N/2; rho^2/R^2),

which closes at the orders used here:

    kappa_{N-4}(r, s) = omega_N R^{4-N} (1 - (N-4)/N rho^2 / R^2)
    kappa_{2N}(r, s)  = omega_N (r^2 + s^2) / |r^2 - s^2|^{N+1},

the last by Euler's transformation (DLMF 15.8.1). `ring_kernel_pairs`
evaluates both on pairs of radii: for the (g2) check, and N - 4 for
`support`, the rule on supp g that the solver runs on, as the symmetric
m x m kernel K_S of T on its nodes S, the one operator of the solve.
kappa_{N-4} is a sum of two products f(rho) g(R), so a potential on the
output grid takes O(n) from prefix and suffix sums (`riesz_values`,
`apply_potential`; `riesz_solve` attaches the source h, which is all the
D^{2,2} products of `radial_core.h2_inner` need). `ring_kernel` is the
dense grid x grid kernel, a test oracle.
"""

from dataclasses import dataclass

import numpy as np

from .radial_core import RadialField, integrate_values, sphere_area


def riesz_r4(dim):
    """R4 = 1 / (2 (N-2)(N-4) omega_N): R4 |x|^{4-N} is Delta^2's fundamental solution."""
    return 1.0 / (2.0 * (dim - 2) * (dim - 4) * sphere_area(dim))


def ring_kernel_pairs(dim, r, s, alpha):
    """kappa_alpha(r_i, s_i) for broadcast arrays of radii at the (g2) orders
    alpha = N - 4, also the solver's kernel on S, and 2N, matched within 1e-12
    relative (the slack `check_g2` grants delta); any other alpha raises
    ValueError. r^2 - s^2 is formed as (r - s)(r + s), so kappa_{2N} keeps its
    digits near the diagonal, where it is +inf; both are +inf at r = s = 0.
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


def _check_order(grid, alpha):
    """The one order the grid kernels take: alpha = N-4, else ValueError."""
    if float(alpha) != grid.dim - 4.0:
        raise ValueError("alpha=%g: closed forms exist for N-4=%d only" % (alpha, grid.dim - 4))


def ring_kernel(grid, alpha):
    """Dense kappa_alpha(r_i, s_j) matrix over the grid, alpha = N-4:
    `ring_kernel_pairs` on grid x grid, with K[0, 0] = 0 (its volume weight
    vanishes) in place of +inf."""
    _check_order(grid, alpha)
    kern = ring_kernel_pairs(grid.dim, grid.r[:, None], grid.r, alpha)
    kern[0, 0] = 0.0
    return kern


@dataclass(frozen=True, eq=False)
class Support:
    """supp g as a rule, built once per problem by `support`: the nodes S of
    the grid g was sampled on where g != 0, and on S only their radii r,
    trapezoid weights w, r^{N-1}, g and mass = omega_N r^{N-1} w g. Every
    integral against g is a sum over S, and T(g x) = K_S (mass x) on S, the
    one T of the solve, K_S = R4 K[S, S] / omega_N symmetric, K the order N-4
    kernel, so (I - T) x = y reduces to (I - K_S diag(mass)) x_S = y_S (Atkinson,
    The Numerical Solution of Integral Equations of the Second Kind, 1997, ch. 4)."""
    dim: int
    sphere_area: float
    nodes: np.ndarray  # S as indices of the sampling grid, where outputs are written
    r: np.ndarray
    w: np.ndarray
    r_pow: np.ndarray
    g: np.ndarray
    mass: np.ndarray
    kernel: np.ndarray

    def restrict(self, values):
        """The values on S of each row of the grid values (..., n), each row
        contiguous, so a sum over S adds up a batch row as it adds up one field."""
        return np.take(values, self.nodes, axis=-1)

    integrate = integrate_values  # int_{R^N} v dx for support values (..., m), zero off S

    def apply(self, x):
        """T(g x) = K_S (mass x) on S for each row of the support values x
        (..., m): one matrix-vector product per row, so a row of a batch is its
        one-row product bit for bit."""
        return np.matmul(self.kernel, (self.mass * x)[..., None])[..., 0]


def support(g_field):
    """The `Support` of the sampled weight g_field, its kernel the closed form
    of `ring_kernel_pairs` on S x S. S never holds r = 0, where the pairs
    kernel is +inf: `sample_on_grid` gives g(0) = 0."""
    grid, nodes = g_field.grid, np.flatnonzero(g_field.values)
    r, w, r_pow, g = grid.r[nodes], grid.w[nodes], grid.r_pow[nodes], g_field.values[nodes]
    kernel = (riesz_r4(grid.dim) / grid.sphere_area
              * ring_kernel_pairs(grid.dim, r[:, None], r, grid.dim - 4))
    return Support(dim=grid.dim, sphere_area=grid.sphere_area, nodes=nodes, r=r, w=w,
                   r_pow=r_pow, g=g, mass=grid.sphere_area * r_pow * w * g, kernel=kernel)


def _potential(rule, src):
    """kappa_{N-4} = omega_N (R^{-alpha} - c rho^2 R^{-alpha-2}) potentials at
    the radii of rule (a `RadialGrid` or a `Support`) of the rows of src
    (..., n) on those radii, in O(n) each, from prefix and suffix sums along
    the last axis. Both powers of r are 0 at r = 0, which gives K[0, 0] = 0
    (its volume weight vanishes) and leaves K[0, j] = omega_N s_j^{-alpha}."""
    alpha = rule.dim - 4.0
    c = alpha / rule.dim
    r = rule.r
    lo = int(r[0] == 0.0)  # r = 0 keeps both powers 0
    p0, p2 = np.zeros((2, r.size))
    p0[lo:] = r[lo:] ** (-alpha)
    p2[lo:] = p0[lo:] / (r[lo:] * r[lo:])
    r2 = r * r
    src = src * rule.r_pow * rule.w

    def outer(x):
        # sum over j > i, accumulated from the far end
        tail = np.zeros_like(x)
        tail[..., :-1] = np.cumsum(x[..., :0:-1], axis=-1)[..., ::-1]
        return tail

    out = p0 * np.cumsum(src, axis=-1) + outer(p0 * src)
    out -= c * (p2 * np.cumsum(r2 * src, axis=-1) + r2 * outer(p2 * src))
    return rule.sphere_area * out


def apply_potential(alpha, h):
    """(I_alpha h)(r_i) = sum_j kappa_alpha(r_i, s_j) h(s_j) s_j^{N-1} w_j in O(n),
    alpha = N-4.

    kappa already integrates over the sphere, so the quadrature carries the
    radial measure only. The sum splits at s_j = r_i: R = r_i on the inner
    part (s_j <= r_i), R = s_j on the outer part (s_j > r_i).
    """
    _check_order(h.grid, alpha)
    return RadialField(h.grid, _potential(h.grid, h.values))


def riesz_values(grid, sources):
    """Values of u = R4 I_{N-4} h on grid for each row h of the (..., n)
    stack sources, in one O(n) pass per row."""
    if not np.all(np.isfinite(sources)):
        raise ValueError("source has non-finite values (divergent norms)")
    return riesz_r4(grid.dim) * _potential(grid, sources)


def riesz_solve(h):
    """u with Delta^2 u = h on R^N, u = R4 I_{N-4} h, carrying h as its source."""
    return RadialField(h.grid, riesz_values(h.grid, h.values), h.values)

