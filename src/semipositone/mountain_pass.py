"""Numerical mountain-pass solver.

The scheme is the classical one: hold a discretized path from 0 to an
endpoint vtilde with negative energy, locate the level maximizer along the
path, push that node down the negative D^{2,2} gradient u - T(u) with an
Armijo line search, drag its neighbors along, re-tension the path by
arc-length, and repeat until the gradient-map residual is small. A
semi-smooth Newton polish on u = T(u) finishes the job once the deformation
has found the basin; if the polish misbehaves the deformation iterate is
kept instead. The polish is matrix-free Newton-GMRES: the Jacobian
I - R4 K diag(g f_a'(u)) is applied through the O(n) Riesz potential, and
no n x n matrix is formed.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from . import radial_core as rc
from .energy import estimate_a1, estimate_bg, fa_prime_values, gradient_map, i_a
from .nonlinearity import eval_fa
from .riesz_potential import apply_potential, riesz_constants
from .weight import sample_on_grid


@dataclass
class MPConfig:
    path_nodes: int = 17
    tol_res: float = 1e-4
    max_iter: int = 400
    bump: str = "auto"
    bump_width: float = 1.5
    armijo: float = 1e-4
    step_frac: float = 0.5      # cap: fraction of the internode distance
    nudge: float = 0.3
    plateau_window: int = 50
    newton_max_iter: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.path_nodes < 8:
            raise ValueError("path needs at least 8 nodes, got %d" % self.path_nodes)


@dataclass
class MPPath:
    nodes: list
    levels: np.ndarray


@dataclass
class MPSolution:
    u: rc.RadialField
    level: float
    residual: float
    a: float
    iterations: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)


def make_bump(grid, kind="auto", weight=None, width=1.5):
    """Nonnegative C^2 bump with ||Delta phi||_2 = 1.

    "auto" uses the principal field of the B_g iteration (concentrates where
    g lives, which keeps the endpoint search cheap); "gaussian" and
    "polynomial_bump" are the fixed analytic profiles.
    """
    if kind == "auto":
        if weight is None:
            raise ValueError("auto bump needs the weight")
        _, phi = estimate_bg(weight, grid, return_field=True)
        vals = phi.values
    elif kind == "gaussian":
        vals = np.exp(-grid.r ** 2 / (2.0 * width * width))
    elif kind == "polynomial_bump":
        R = 2.0 * width
        x = np.clip(grid.r / R, 0.0, 1.0)
        vals = (1.0 - x * x) ** 4
    else:
        raise ValueError("unknown bump kind %r" % kind)
    if np.min(vals) < -1e-12 * max(np.max(np.abs(vals)), 1e-300):
        raise ValueError("bump must be nonnegative")
    vals = np.maximum(vals, 0.0)
    phi = rc.RadialField(grid, vals)
    nh2 = rc.h2_norm(phi)
    if nh2 == 0:
        raise ValueError("bump has zero D^{2,2} norm")
    return rc.RadialField(grid, vals / nh2)


_T_CAP_DOUBLINGS = 30


def find_vtilde(shifted, weight, bump, rho):
    """First point t*bump with negative energy along the ray, t doubling
    from 2*rho. A cap at 2^30 rho turns persistent positivity into an error
    (superlinearity of f is suspect at that point)."""
    nh2 = rc.h2_norm(bump)
    if abs(nh2 - 1.0) > 1e-10:
        raise ValueError("bump must be normalized to ||Delta phi||_2 = 1, got %.3e" % nh2)
    if np.min(bump.values) < 0:
        raise ValueError("bump must be nonnegative")
    t = 2.0 * rho
    for _ in range(_T_CAP_DOUBLINGS + 1):
        cand = rc.RadialField(bump.grid, t * bump.values)
        if i_a(cand, shifted, weight) < 0.0:
            return cand
        t *= 2.0
    raise RuntimeError(
        "no negative energy up to t = 2^%d rho along the bump ray; "
        "superlinearity (the f(t)/t -> infinity hypothesis) is suspect"
        % _T_CAP_DOUBLINGS)


def _seed_path(vtilde, k_nodes, warm_start=None):
    grid = vtilde.grid
    nodes = []
    if warm_start is None:
        for t in np.linspace(0.0, 1.0, k_nodes):
            nodes.append(rc.RadialField(grid, t * vtilde.values))
    else:
        # 0 -> warm solution -> vtilde, split evenly
        k_half = k_nodes // 2
        for t in np.linspace(0.0, 1.0, k_half, endpoint=False):
            nodes.append(rc.RadialField(grid, t * warm_start.values))
        for t in np.linspace(0.0, 1.0, k_nodes - k_half):
            vals = (1.0 - t) * warm_start.values + t * vtilde.values
            nodes.append(rc.RadialField(grid, vals))
    return nodes


def _retension(nodes):
    """Redistribute interior nodes to uniform D^{2,2} arc-length by linear
    interpolation along the polygonal path. Endpoints stay put exactly."""
    k = len(nodes)
    seg = np.empty(k - 1)
    for i in range(k - 1):
        seg[i] = rc.h2_norm(rc.RadialField(nodes[i].grid,
                                           nodes[i + 1].values - nodes[i].values))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if total == 0:
        return nodes
    targets = np.linspace(0.0, total, k)
    out = [nodes[0]]
    for t in targets[1:-1]:
        j = int(np.searchsorted(cum, t, side="right") - 1)
        j = min(j, k - 2)
        frac = (t - cum[j]) / seg[j] if seg[j] > 0 else 0.0
        vals = (1.0 - frac) * nodes[j].values + frac * nodes[j + 1].values
        out.append(rc.RadialField(nodes[0].grid, vals))
    out.append(nodes[-1])
    return out


# GMRES on the Newton system. I - R4 K D is the identity minus a compact
# operator, so GMRES converges superlinearly: 4-6 iterations per step on the
# example and at most 15 on synthetic Jacobians over N = 5..9, whatever n.
# The bounds only stop a solve that stalls; a stalled solve abandons the polish.
_KRYLOV_RTOL = 1e-13
_KRYLOV_RESTART = 40
_KRYLOV_MAXITER = 5


def _newton_step(grid, d, phi):
    """Solve (I - R4 K diag(d)) delta = -phi matrix-free by GMRES.

    K is the order N-4 ring kernel with its radial quadrature, applied in
    O(n) by `apply_potential`; d is g f_a'(u) on the grid. Returns
    (delta, GMRES iterations), or None if GMRES does not converge.
    """
    alpha = grid.dim - 4.0
    r4 = riesz_constants(grid.dim).r4

    def matvec(x):
        x = np.ravel(x)
        return x - r4 * apply_potential(alpha, rc.RadialField(grid, d * x)).values

    iters = []
    jac = LinearOperator((grid.n, grid.n), matvec=matvec, dtype=float)
    delta, info = gmres(jac, -phi, rtol=_KRYLOV_RTOL, atol=0.0,
                        restart=_KRYLOV_RESTART, maxiter=_KRYLOV_MAXITER,
                        callback=iters.append, callback_type="pr_norm")
    if info != 0:
        return None
    return delta, len(iters)


def _newton_polish(u0, shifted, weight, grid, max_iter, tol=1e-11, trace=None):
    """Semi-smooth Newton on Phi(u) = u - T(u), each step solved by GMRES.

    The Jacobian action is I - R4 K diag(g f_a'(u)), with the derivative of
    f_a taken 0 on u <= 0; no n x n matrix is formed. trace, if given, is a
    dict that receives "residual" (max |Phi| at each iterate) and "krylov"
    (GMRES iterations per step), also when the polish fails.
    """
    residuals, krylov = [], []
    if trace is not None:
        trace.update(residual=residuals, krylov=krylov)
    if shifted.base.fprime is None:
        return None
    alpha = grid.dim - 4.0
    r4 = riesz_constants(grid.dim).r4
    g = sample_on_grid(weight, grid).values
    u = u0.values.copy()
    scale = max(1.0, float(np.max(np.abs(u))))
    res_prev = np.inf
    for it in range(max_iter):
        t_u = r4 * apply_potential(alpha, rc.RadialField(grid, g * eval_fa(shifted, u))).values
        phi = u - t_u
        res = float(np.max(np.abs(phi)))
        residuals.append(res)
        res /= scale
        if not np.isfinite(res):
            return None
        if res < tol:
            return rc.RadialField(grid, u), it
        if res > 10.0 * res_prev and it > 2:
            return None
        res_prev = min(res_prev, res)
        step = _newton_step(grid, g * fa_prime_values(shifted, u), phi)
        if step is None:
            return None
        delta, its = step
        krylov.append(its)
        u = u + delta
    return rc.RadialField(grid, u), max_iter


def mp_solve(shifted, weight, grid, config=None, geometry=None,
             warm_start=None, vtilde=None):
    """Run the deformation + polish scheme for one shift a. Returns the best
    iterate flagged non-converged when the residual plateaus instead."""
    cfg = config or MPConfig()
    if geometry is None:
        geometry = estimate_a1(shifted.base, weight, grid)
    warned = []
    if shifted.a >= geometry.a1:
        warned.append("a=%g >= a1 estimate %g: geometry untrusted, solving anyway"
                      % (shifted.a, geometry.a1))
        warnings.warn(warned[-1])
    if vtilde is None:
        bump = make_bump(grid, cfg.bump, weight, cfg.bump_width)
        vtilde = find_vtilde(shifted, weight, bump, geometry.rho)
    k_nodes = cfg.path_nodes
    nodes = _seed_path(vtilde, k_nodes, warm_start)

    def level(u):
        return i_a(u, shifted, weight)

    def dnorm(vals):
        return rc.h2_norm(rc.RadialField(grid, vals))

    best = None  # (res_rel, field, iteration)
    hist_norm, hist_res, hist_level = [], [], []
    ep_drift = 0.0
    reseeded = False
    plateau_anchor, plateau_count = np.inf, 0
    it = 0
    for it in range(1, cfg.max_iter + 1):
        levels = np.array([level(u) for u in nodes])
        k_star = int(np.argmax(levels))
        if k_star in (0, k_nodes - 1):
            # maximizer pinned at an endpoint: re-seed once, then give up
            if reseeded:
                raise RuntimeError("path maximizer pinned at an endpoint after re-seeding")
            nodes = _seed_path(vtilde, k_nodes, None)
            reseeded = True
            continue
        u_star = nodes[k_star]
        t_u, res = gradient_map(u_star, shifted, weight)
        nh2 = rc.h2_norm(u_star)
        res_rel = res / max(1.0, nh2)
        hist_norm.append(nh2)
        hist_res.append(res)
        hist_level.append(levels[k_star])
        ep_drift = max(ep_drift,
                       float(np.max(np.abs(nodes[0].values))),
                       float(np.max(np.abs(nodes[-1].values - vtilde.values))))
        if best is None or res_rel < best[0]:
            best = (res_rel, u_star, it)

        if res_rel <= cfg.tol_res:
            break
        # plateau detection on the best residual seen
        if best[0] < 0.99 * plateau_anchor:
            plateau_anchor, plateau_count = best[0], 0
        else:
            plateau_count += 1
            if plateau_count >= cfg.plateau_window:
                break

        direction = t_u.values - u_star.values  # -grad in the D metric
        gn = dnorm(direction)
        if gn == 0:
            break
        gap_lo = dnorm(u_star.values - nodes[k_star - 1].values)
        gap_hi = dnorm(nodes[k_star + 1].values - u_star.values)
        step = min(1.0, cfg.step_frac * min(gap_lo, gap_hi) / gn)
        lvl0 = levels[k_star]
        accepted = False
        for _ in range(30):
            trial = u_star.values + step * direction
            if level(rc.RadialField(grid, trial)) <= lvl0 - cfg.armijo * step * gn * gn:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            plateau_count += 1
            continue
        moved = step * direction
        new_nodes = list(nodes)
        new_nodes[k_star] = rc.RadialField(grid, u_star.values + moved)
        for kn in (k_star - 1, k_star + 1):
            if 0 < kn < k_nodes - 1:
                new_nodes[kn] = rc.RadialField(grid, nodes[kn].values + cfg.nudge * moved)
        nodes = _retension(new_nodes)

    res_rel, u_best, best_it = best
    deform_level = level(u_best)

    newton = {}
    polished = _newton_polish(u_best, shifted, weight, grid, cfg.newton_max_iter,
                              trace=newton)
    newton_used = False
    if polished is not None:
        u_cand, newton_its = polished
        cand_level = level(u_cand)
        _, cand_res = gradient_map(u_cand, shifted, weight)
        cand_rel = cand_res / max(1.0, rc.h2_norm(u_cand))
        # accept only a genuine descent: better residual, still above the rim,
        # not above the crest it started from (inf-max levels only go down)
        sane = (cand_rel < res_rel
                and cand_level >= geometry.beta - 1e-6
                and cand_level <= deform_level * (1.0 + 1e-9) + 1e-9)
        if sane:
            u_best, res_rel = u_cand, cand_rel
            newton_used = True
            it += newton_its

    converged = res_rel <= cfg.tol_res
    final_level = level(u_best)
    _, final_res = gradient_map(u_best, shifted, weight)
    diag = {
        "rim_ok": bool(final_level >= geometry.beta - 1e-6),
        "newton_used": newton_used,
        "newton_iterations": len(newton["krylov"]),
        "newton_residual_history": np.asarray(newton["residual"]),
        "krylov_iterations": np.asarray(newton["krylov"], dtype=int),
        "warnings": warned,
        "deformation_level": deform_level,
        "vtilde_norm": rc.h2_norm(vtilde),
        "vtilde_level": level(vtilde),
        "history_norm": np.asarray(hist_norm),
        "history_residual": np.asarray(hist_res),
        "history_level": np.asarray(hist_level),
        "best_iteration": best_it,
        "endpoint_drift": ep_drift,
        "geometry": geometry,
    }
    # an accepted polish ends the iterate sequence at the polished point
    cerami_hist = list(zip(hist_norm, hist_res))
    if newton_used:
        cerami_hist.append((rc.h2_norm(u_best), final_res))
    if len(cerami_hist) >= 10:
        diag["cerami"] = cerami_diagnostics(cerami_hist)
    return MPSolution(u=u_best, level=final_level, residual=final_res, a=shifted.a,
                      iterations=it, converged=bool(converged), diagnostics=diag)


def cerami_diagnostics(history):
    """Observational shadow of the compactness condition along iterates:
    did ||Delta u_k|| stay bounded while (1 + ||Delta u_k||) res_k decayed?

    history: iterable of (norm_h2, residual) pairs, >= 10 of them.
    """
    hist = list(history)
    if len(hist) < 10:
        raise ValueError("need at least 10 iterates, got %d" % len(hist))
    norms = np.array([h[0] for h in hist])
    res = np.array([h[1] for h in hist])
    half = norms[len(norms) // 2:]
    drift = (np.max(half) - np.min(half)) / max(np.mean(half), 1e-300)
    # growth over the second half net of its largest single step: one finite
    # jump (a polished point after a stalled crest) stays bounded, a steady or
    # geometric rise does not
    growth = np.inf
    if np.all(np.isfinite(half)):
        logs = np.log(np.maximum(half, 1e-300))
        growth = np.expm1(logs[-1] - logs[0] - max(np.max(np.diff(logs)), 0.0))
    bounded = bool(growth < 0.10)
    weighted = (1.0 + norms) * res
    decayed = bool(weighted[-1] <= 0.5 * np.max(weighted) or weighted[-1] < 1e-8)
    return {"norms_bounded": bounded, "weighted_gradient_decayed": decayed,
            "norm_drift": float(drift), "norm_growth": float(growth),
            "weighted_last_over_max": float(weighted[-1] / max(np.max(weighted), 1e-300))}
