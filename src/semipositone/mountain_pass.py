"""Numerical mountain-pass solver.

Three steps find the mountain-pass point. Take the crest, the node of highest
level, of the straight path from 0 to an endpoint vtilde with negative
energy; vtilde lies on the ray of the B_g maximiser phi that `estimate_a1`
returns, scaled by `make_bump` to ||Delta phi|| = 1. Every level on that
ray, the doubling ladder of `find_vtilde` and the path nodes of `_crest`,
comes from `energy.ray_levels`: t^2 ||Delta v||^2 / 2 from one norm per
ray, less int g F_a(t v) on the m nodes of supp g. Every field here is a
Riesz potential scaled by `radial_core.scale`, so it keeps its source and
each norm, level and residual is int h v, exact on R^N. Polish the crest by
semi-smooth Newton on u = T(u). T(u) = R4 K (g f_a(u)) reads u only on the
m nodes S of supp g, where it is B f_a(u[S]), B the m x m block of the
`riesz_potential.Support` that `estimate_a1` built: Newton runs on the m
values, each step one exact dense solve of I - B diag(f_a'), and the polished
point becomes a grid field once, by one `riesz_solve`. Certify it by
its Morse index, the number of eigenvalues above 1 of R4 K diag(g f_a'(u)),
read from the eigenvalues of B diag(f_a'(u[S])): a nondegenerate
mountain-pass point has index 1 (Hofer, Proc. AMS 90, 1984). The cost is
O(n + m^3); m^3 is small while g lives on a thin shell (m = 14 at n = 512
for the example) and grows when g fills the grid. A polish that fails, does
not lower the residual, falls below the rim level beta or has another index
is rejected, and the crest is returned, flagged non-converged.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import radial_core as rc
from .energy import estimate_a1, fa_prime_values, gradient_map, i_a, n_a, ray_levels
from .nonlinearity import eval_fa
from .riesz_potential import riesz_solve


@dataclass
class MPConfig:
    path_nodes: int = 17
    tol_res: float = 1e-4

    def __post_init__(self):
        if self.path_nodes < 8:
            raise ValueError("path needs at least 8 nodes, got %d" % self.path_nodes)


@dataclass
class MPSolution:
    u: rc.RadialField
    level: float
    residual: float
    a: float
    iterations: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)


def make_bump(phi):
    """phi clipped at 0 and scaled to ||Delta phi||_2 = 1, the direction of
    the straight path. phi must be nonnegative up to rounding; the clip
    keeps its source."""
    vals = phi.values
    if np.min(vals) < -1e-12 * max(np.max(np.abs(vals)), 1e-300):
        raise ValueError("bump must be nonnegative")
    clipped = rc.RadialField(phi.grid, np.maximum(vals, 0.0), phi.source)
    nh2 = rc.h2_norm(clipped)
    if nh2 == 0:
        raise ValueError("bump has zero D^{2,2} norm")
    return rc.scale(clipped, 1.0 / nh2)


_T_CAP_DOUBLINGS = 30


def find_vtilde(shifted, sup, bump, rho):
    """First point t*bump with negative energy along the ray, t doubling
    from 2*rho; the whole ladder is one `ray_levels` call. A cap at 2^30 rho
    turns persistent positivity into an error (superlinearity of f is
    suspect at that point)."""
    nh2 = rc.h2_norm(bump)
    if abs(nh2 - 1.0) > 1e-10:
        raise ValueError("bump must be normalized to ||Delta phi||_2 = 1, got %.3e" % nh2)
    if np.min(bump.values) < 0:
        raise ValueError("bump must be nonnegative")
    t = 2.0 * rho * 2.0 ** np.arange(_T_CAP_DOUBLINGS + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        negative = np.flatnonzero(ray_levels(bump, shifted, sup, t) < 0.0)
    if negative.size:
        return rc.scale(bump, t[negative[0]])
    raise RuntimeError(
        "no negative energy up to t = 2^%d rho along the bump ray; "
        "superlinearity (the f(t)/t -> infinity hypothesis) is suspect"
        % _T_CAP_DOUBLINGS)


# Newton takes 2 steps on the example; the bound only stops a stall.
_NEWTON_MAX_ITER = 20


def _morse_index(u, shifted, sup):
    """Morse index of I_a at u, and the top two eigenvalues it is read from.

    The second variation of I_a in the D^{2,2} metric is I - R4 K diag(g f_a'(u)),
    so each eigenvalue of R4 K diag(g f_a'(u)) above 1 is one descent
    direction. That operator's spectrum is the eigenvalues of
    B diag(f_a'(u[S])), B the support block of g, plus n - m zeros. Where
    g f_a'(u) >= 0 it is similar to a symmetric one, so its spectrum is
    real; the real parts are read.
    Returns (index, eigenvalues in decreasing order); the index counts only
    the two eigenvalues returned, so 2 means "at least 2". Without a
    registered f' there is no certificate: (None, empty).
    """
    if shifted.base.fprime is None:
        return None, np.empty(0)
    fp = fa_prime_values(shifted, u.values[sup.nodes])
    spectrum = np.concatenate((np.linalg.eigvals(sup.block * fp).real,
                               np.zeros(min(2, sup.grid.n - sup.nodes.size))))
    top = np.sort(spectrum)[::-1][:2]
    return int(np.sum(top > 1.0)), top


def _newton_polish(u0, shifted, sup, max_iter, tol=1e-11, trace=None):
    """Semi-smooth Newton on Phi(u) = u - T(u) over the values x = u[S],
    where T(u) = B f_a(x), with Jacobian I - B diag(f_a'(x)) (f_a' taken 0
    on x <= 0). Returns the grid field T(x), from one `riesz_solve`.

    trace, if given, is a dict that receives "residual" (max |Phi| on S at
    each iterate) and "support" (the nodes where g f_a'(x) != 0, per step),
    also when the polish fails.
    """
    residuals, support = [], []
    if trace is not None:
        trace.update(residual=residuals, support=support)
    if shifted.base.fprime is None:
        return None
    grid, g, nodes, block = sup.grid, sup.g, sup.nodes, sup.block
    x = u0.values[nodes]
    scale = max(1.0, float(np.max(np.abs(u0.values))))
    res_prev = np.inf
    for it in range(max_iter):
        phi = x - block @ eval_fa(shifted, x)
        res = float(np.max(np.abs(phi)))
        residuals.append(res)
        res /= scale
        if not np.isfinite(res):
            return None
        if res < tol:
            break
        if res > 10.0 * res_prev and it > 2:
            return None
        res_prev = min(res_prev, res)
        fp = fa_prime_values(shifted, x)
        try:
            x = x - np.linalg.solve(np.eye(nodes.size) - block * fp, phi)
        except np.linalg.LinAlgError:
            return None
        support.append(int(np.count_nonzero(fp)))
    else:
        it = max_iter
    src = np.zeros(grid.n)
    src[nodes] = g[nodes] * eval_fa(shifted, x)
    return riesz_solve(rc.RadialField(grid, src)), it


def _crest(vtilde, k_nodes, shifted, sup):
    """Highest of k_nodes evenly spaced nodes on the straight path from 0 to
    vtilde, all levels from one `ray_levels` call. Returns (node, its level,
    the level of vtilde); raises when the maximizer is pinned at an endpoint."""
    t = np.linspace(0.0, 1.0, k_nodes)
    levels = ray_levels(vtilde, shifted, sup, t)
    k_star = int(np.argmax(levels))
    if not 0 < k_star < k_nodes - 1:
        raise RuntimeError("path maximizer pinned at an endpoint")
    return rc.scale(vtilde, t[k_star]), levels[k_star], levels[-1]


def mp_solve(shifted, weight, grid, config=None, geometry=None, vtilde=None):
    """Crest of the straight path, Newton polish, Morse-index certificate, for
    one shift a, on geometry.support, which must lie on grid. Converged means
    a relative residual within tol_res at a point of Morse index 1; otherwise
    the crest comes back non-converged."""
    cfg = config or MPConfig()
    if geometry is None:
        geometry = estimate_a1(shifted.base, weight, grid)
    sup = geometry.support
    if sup.grid is not grid:
        raise ValueError("geometry was estimated on another grid than the one solved on")
    warned = []
    if shifted.a >= geometry.a1:
        warned.append("a=%g >= a1 estimate %g: geometry untrusted, solving anyway"
                      % (shifted.a, geometry.a1))
        warnings.warn(warned[-1])
    if vtilde is None:
        vtilde = find_vtilde(shifted, sup, make_bump(geometry.phi), geometry.rho)

    u_crest, crest_level, vtilde_level = _crest(vtilde, cfg.path_nodes, shifted, sup)
    crest_res = gradient_map(u_crest, shifted, sup)
    crest_norm = rc.h2_norm(u_crest)
    res_rel = crest_res / max(1.0, crest_norm)
    u_best, final_level, final_res, its = u_crest, crest_level, crest_res, 1
    final_norm = crest_norm

    newton = {}
    polished = _newton_polish(u_crest, shifted, sup, _NEWTON_MAX_ITER, trace=newton)
    newton_used = False
    if polished is not None:
        u_cand, newton_its = polished
        cand_level = i_a(u_cand, shifted, sup)
        cand_res = gradient_map(u_cand, shifted, sup)
        cand_norm = rc.h2_norm(u_cand)
        cand_rel = cand_res / max(1.0, cand_norm)
        # accept a genuine improvement: a better residual, still above the rim,
        # at a point of mountain-pass type
        if cand_rel < res_rel and cand_level >= geometry.beta - 1e-6:
            morse = _morse_index(u_cand, shifted, sup)
            if morse[0] == 1:
                u_best, final_level, final_res, res_rel = u_cand, cand_level, cand_res, cand_rel
                final_norm = cand_norm
                newton_used = True
                its += newton_its
    if not newton_used:
        morse = _morse_index(u_crest, shifted, sup)
    morse_index, morse_top = morse
    x = u_best.values[sup.nodes]  # the weak-form level (1/2) int g f_a(u) u - int g F_a(u)
    weak_level = 0.5 * np.sum(sup.mass * eval_fa(shifted, x) * x) - n_a(u_best, shifted, sup)

    diag = {
        "rim_ok": bool(final_level >= geometry.beta - 1e-6),
        "newton_used": newton_used,
        "newton_iterations": len(newton["support"]),
        "newton_residual_history": np.asarray(newton["residual"]),
        "support_nodes": newton["support"][-1] if newton["support"] else None,
        "morse_index": morse_index,
        "morse_top_eigenvalues": morse_top,
        "warnings": warned,
        "crest_level": crest_level,
        "vtilde_norm": rc.h2_norm(vtilde),
        "vtilde_level": vtilde_level,
        "norm_h2": final_norm,
        "weak_level": float(weak_level),
        "level_gap": float(abs(final_level - weak_level) / abs(final_level)),
        "history_norm": np.array([crest_norm]),
        "history_residual": np.array([crest_res]),
        "history_level": np.array([crest_level]),
        "geometry": geometry,
    }
    converged = res_rel <= cfg.tol_res and morse_index == 1
    return MPSolution(u=u_best, level=final_level, residual=final_res, a=shifted.a,
                      iterations=its, converged=bool(converged), diagnostics=diag)
