"""Variational layer: the functionals N_a, I_a over radial fields, the
gradient residual of the Riesz fixed-point map T(u) = riesz_solve(g f_a(u)),
and the mountain-pass geometry constants from their variational problems,
returned with the source of the B_g maximiser, the direction of the
straight path, and the support of g that every later stage reads.

`estimate_a1` samples g once and builds its `riesz_potential.Support`: the
rule on the m nodes S where g is nonzero (m = 14 of n = 512 for the
example), with the masses on S and the symmetric kernel K_S of
T(g x) = K_S (mass x). The layer functions take that support, no grid: N_a
and the residual are sums over S, F_a is evaluated there only, and on a
ray the norm is quadratic, so `ray_levels` gives
I_a(t v) = t^2 ||Delta v||^2 / 2 - N_a(t v) at an array of scales t of any
shape from one norm and one F_a call on a (t.shape, m) array: the one level
function of the straight path, whose every point is a scale of the bump.
`n_values`, `ray_levels` and `residuals` take a `ShiftedNonlinearity` whose
a is an array of shifts shaped to broadcast against their leading axes, so
the solver evaluates every row of a sweep in one call.

Norm convention: the energy space is D^{2,2}, norm ||Delta u||_2. Every
field the solver forms is a Riesz potential u = T(h) of a source h on S, so
||Delta u||^2 = int h u exactly on R^N, a sum over S (`Support.integrate`),
and the map h -> T(h) is self-adjoint there: the geometry constants, the
path levels, the level and the gradient residual all see the norm on R^N,
not on the ball of radius r_max.
"""

from dataclasses import dataclass, field

import numpy as np

from . import radial_core as rc
from .nonlinearity import ENVELOPE_FLOOR, T_BIG, eval_Fa, eval_fa, growth_envelope
from .weight import sample_on_grid
from .riesz_potential import Support, riesz_solve, support  # riesz_solve: bound for perfbench

_BG_TOL = 1e-12
_BG_MAX_ITER = 2000  # the iterate takes up to 1363 steps near the critical exponent


def n_values(x, shifted, sup):
    """N_a = int g F_a(u) for support values x = u[S] (..., m), summed over S."""
    return np.sum(sup.mass * eval_Fa(shifted, x), axis=-1)


def i_a(u, shifted, sup):
    """I_a(u) = ||Delta u||^2 / 2 - N_a(u), N_a summed over the nodes of supp g."""
    return 0.5 * rc.h2_inner(u, u) - float(n_values(u.values[sup.nodes], shifted, sup))


def ray_levels(x, nsq, shifted, sup, t):
    """I_a(t v) at every scale of the array t, of any shape, for the v with
    support values x = v[S] and ||Delta v||^2 = nsq; returns t.shape.

    The norm is quadratic and g vanishes off supp g, so
    I_a(t v) = t^2 nsq / 2 - sum_S g F_a(t x): one norm for the whole ray,
    and F_a on the (t.shape, m) array of scaled support values, which an
    array of shifts shaped to broadcast against t (a[:, None, None] for
    (k, j) scales) takes row by row.
    """
    t = np.asarray(t, dtype=float)
    f_a = eval_Fa(shifted, t[..., None] * x)
    return 0.5 * t * t * nsq - np.sum(sup.mass * f_a, axis=-1)


def residuals(x, h, shifted, sup):
    """The gradient residual ||Delta(u - T(u))||_2 of potentials u with
    support values x (..., m) and sources h (..., m) on S: u - T(u) is the
    potential of h - g f_a(x), and T(u) = sup.apply(f_a(x)) on S, so the residual
    is a sum over S, exact on R^N."""
    with np.errstate(over="ignore", invalid="ignore"):
        f_x = eval_fa(shifted, x)
        d = h - sup.g * f_x
    if not np.all(np.isfinite(d)):
        raise ValueError("divergent source norm: g f_a(u) is not finite on supp g")
    sq = sup.integrate(d * (x - sup.apply(f_x)))
    return np.sqrt(np.maximum(sq, 0.0))


def gradient_map(u, shifted, sup):
    """The gradient residual ||Delta(u - T(u))||_2, T(u) = riesz_solve(g f_a(u)),
    0 at discrete weak solutions; `residuals` of one potential u, which must
    have its source on S, as every field the solver forms has."""
    src = u.source
    nodes = sup.nodes
    if src is None or np.count_nonzero(src) != np.count_nonzero(src[nodes]):
        raise ValueError("gradient_map needs a potential whose source lives on supp g")
    return float(residuals(u.values[nodes], src[nodes], shifted, sup))


class GeometryError(ValueError):
    """The data leave the bound of `estimate_a1` without a positive rim."""


@dataclass
class GeometryConstants:
    b_g: float
    eps: float
    c_gamma: float
    rho: float
    beta: float
    a1: float
    c_lin: float
    rho1: float
    c_env: float
    gamma: float
    phi: np.ndarray = field(repr=False, compare=False)  # the source on S of the B_g maximiser
    support: Support = field(repr=False, compare=False)  # supp g, read by every stage
    grid: rc.RadialGrid = field(repr=False, compare=False)  # g's sampling grid: output only


def _ratio_sup(sup, p):
    """sup_u int g|u|^p / ||Delta u||^p and the source on S of its maximiser
    u = T(h), p >= 2.

    Normalised nonlinear power iteration v <- T(h) / ||Delta T(h)||,
    h = g|v|^{p-2} v (Boyd, Linear Algebra Appl. 9, 1974; Hein & Buhler,
    NIPS 2010), on the values at S, where T(g x) = sup.apply(x). By the
    representation ||Delta T(h)||^2 = int h T(h), so no step differentiates
    anything, and convexity of int g|u|^p makes the ratio rise monotonically.
    Its error is quadratic in that of v, which settles only linearly, so the
    iteration stops once both have settled to _BG_TOL. It starts at the
    constant field, which has mass wherever g lives.
    """
    mass = sup.mass
    v = np.ones(mass.size)
    lam_prev = np.inf
    for _ in range(_BG_MAX_ITER):
        dual = np.abs(v) ** (p - 2.0) * v  # h = g * dual
        t = sup.apply(dual)  # T(h) on S
        norm_d = np.sqrt((mass * dual * t).sum())  # (int h T(h))^{1/2}
        if norm_d == 0.0:
            return 0.0, np.zeros(mass.size)
        v, v_prev = t / norm_d, v
        lam = float((mass * np.abs(v) ** p).sum())
        if (abs(lam - lam_prev) <= _BG_TOL * lam
                and abs(v - v_prev).max() <= _BG_TOL * abs(v).max()):
            return lam, sup.g * dual / norm_d
        lam_prev = lam
    raise RuntimeError("power iteration for p=%g did not converge in %d steps"
                       % (p, _BG_MAX_ITER))


def estimate_bg(weight, grid):
    """B_g = sup int g u^2 / ||Delta u||^2, the p = 2 case of `_ratio_sup`."""
    return _ratio_sup(support(sample_on_grid(weight, grid)), 2.0)[0]


def estimate_a1(spec, weight, grid):
    """Mountain-pass geometry constants for the shifted family built on spec.

    Both embedding constants are variational problems solved exactly on
    the support: c_lin = sup int g|u| / ||Delta u|| = (int g T(g))^{1/2} by
    the representation (T(g) > 0 is the maximiser), and
    c_gamma = c_env / gamma * sup int g|u|^gamma / ||Delta u||^gamma by the
    power iteration of `_ratio_sup`. With eps = cap / 2, half the cap
    1/(B_g ||g||_{N/4}), and q = 1/2 - (eps/2) B_g,

        I_a(u) >= A(rho) - a c_lin rho on ||Delta u|| = rho,
        A(rho) = q rho^2 - c_gamma rho^gamma,

    maximized at rho* = (2q / (gamma c_gamma))^{1/(gamma-2)}; the first
    nontrivial zero is rho1 = (q / c_gamma)^{1/(gamma-2)} > rho*. Splitting
    A(rho*) in half between rim level and shift budget gives

        a1 = A(rho*) / (2 c_lin rho*),   beta = A(rho*) / 2.

    The maximiser T(phi) of the B_g iteration comes back too, as its source
    phi on S, the direction of the straight path (`mountain_pass.make_bump`),
    and so does the support the constants were computed on, which every
    later stage reads, and the grid g was sampled on, only where the solve
    writes its profiles. Raises GeometryError when the grid spacing is not
    below the width of supp g, when g has no mass on the grid (no cap), when
    q or A(rho*) leave no positive rim, and when the growth envelope sits at
    its floor (f(t) <= eps t on every sample), however finite the constants
    built on that floor come out.
    """
    gamma = spec.gamma
    if grid.h >= weight.r_out - weight.r_in:
        raise GeometryError("grid spacing h=%g is not below the width %g of supp g, so [grid] "
                            "n=%d, r_max=%g cannot resolve g; raise n or lower r_max"
                            % (grid.h, weight.r_out - weight.r_in, grid.n, grid.r_max))
    sup = support(sample_on_grid(weight, grid))
    b_g, phi = _ratio_sup(sup, 2.0)
    gn4 = weight.norm(sup.dim / 4.0)
    if not b_g * gn4 > 0:
        raise GeometryError("g has no mass on the grid: B_g=%g, ||g||_{N/4}=%g leave no "
                            "eps below 1/(B_g ||g||_{N/4})" % (b_g, gn4))
    eps = 0.5 / (b_g * gn4)
    q = 0.5 - 0.5 * eps * b_g
    if q <= 0:
        raise GeometryError("geometry collapsed: quadratic coefficient q=%g <= 0" % q)

    c_lin = float(np.sqrt(np.sum(sup.mass * sup.apply(np.ones(sup.mass.size)))))  # int g T(g)
    c_env = growth_envelope(spec, eps)
    c_gamma = c_env / gamma * _ratio_sup(sup, gamma)[0]

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rho1 = np.power(q / c_gamma, 1.0 / (gamma - 2.0))
        rho_star = np.power(2.0 * q / (gamma * c_gamma), 1.0 / (gamma - 2.0))
        a_rho = q * rho_star ** 2 * (gamma - 2.0) / gamma
        a1 = a_rho / (2.0 * c_lin * rho_star)
    beta = 0.5 * a_rho
    floor = c_env == ENVELOPE_FLOOR  # no sample beat eps t: c_gamma is no constant
    if floor or not all(np.isfinite(x) and x > 0 for x in (rho_star, beta, a1)):
        cause = "" if not floor else (
            "; f(t) <= eps t at every sampled t <= T_BIG (eps=%g, T_BIG=%g): f is linear "
            "there or outgrows eps t only beyond T_BIG, where the envelope does not sample "
            "(ROADMAP.md item 2, the envelope on an unbounded range)" % (eps, T_BIG))
        raise GeometryError("degenerate constants: c_gamma=%g, c_lin=%g give rho=%g, "
                            "beta=%g, a1=%g (A has no finite positive maximum)%s"
                            % (c_gamma, c_lin, rho_star, beta, a1, cause))
    return GeometryConstants(b_g=b_g, eps=eps, c_gamma=c_gamma, rho=rho_star,
                             beta=beta, a1=a1, c_lin=c_lin, rho1=rho1,
                             c_env=c_env, gamma=gamma, phi=phi, support=sup, grid=grid)

