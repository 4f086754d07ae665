"""Numerical mountain-pass solver.

Three steps find the mountain-pass point. Take the crest, the node of highest
level, of the straight path from 0 to an endpoint vtilde with negative
energy; vtilde lies on the ray of the B_g maximiser phi that `estimate_a1`
returns, scaled by `make_bump` to ||Delta phi|| = 1. Polish the crest by
semi-smooth Newton on u = T(u). The polish is matrix-free Newton-GMRES: the
Jacobian I - R4 K diag(g f_a'(u)) is applied through the O(n) Riesz
potential, and no n x n matrix is formed. Certify the polished point by its
Morse index, the number of eigenvalues above 1 of R4 K diag(g f_a'(u)): a
nondegenerate mountain-pass point has index 1 (Hofer, Proc. AMS 90, 1984).
A polish that fails, does not lower the residual, falls below the rim level
beta or has another index is rejected, and the crest is returned, flagged
non-converged.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigs, gmres

from . import radial_core as rc
from .energy import estimate_a1, fa_prime_values, gradient_map, i_a
from .nonlinearity import eval_fa
from .riesz_potential import apply_potential, riesz_constants
from .weight import sample_on_grid


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
    the straight path. phi must be nonnegative up to rounding."""
    vals = phi.values
    if np.min(vals) < -1e-12 * max(np.max(np.abs(vals)), 1e-300):
        raise ValueError("bump must be nonnegative")
    vals = np.maximum(vals, 0.0)
    nh2 = rc.h2_norm(rc.RadialField(phi.grid, vals))
    if nh2 == 0:
        raise ValueError("bump has zero D^{2,2} norm")
    return rc.RadialField(phi.grid, vals / nh2)


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


# GMRES on the Newton system. I - R4 K D is the identity minus a compact
# operator, so GMRES converges superlinearly: 4-6 iterations per step on the
# example and at most 15 on synthetic Jacobians over N = 5..9, whatever n.
# The bounds only stop a solve that stalls; a stalled solve abandons the polish.
# Newton itself takes 5 steps on the example; its bound likewise only stops a stall.
_KRYLOV_RTOL = 1e-13
_KRYLOV_RESTART = 40
_KRYLOV_MAXITER = 5
_NEWTON_MAX_ITER = 20


def _linearization(grid, d):
    """x -> R4 K (d x), the derivative of T at u with d = g f_a'(u) on the grid.

    K is the order N-4 ring kernel with its radial quadrature, applied in
    O(n) by `apply_potential`.
    """
    alpha = grid.dim - 4.0
    r4 = riesz_constants(grid.dim).r4

    def apply(x):
        return r4 * apply_potential(alpha, rc.RadialField(grid, d * np.ravel(x))).values

    return apply


def _newton_step(grid, d, phi):
    """Solve (I - R4 K diag(d)) delta = -phi matrix-free by GMRES.

    Returns (delta, GMRES iterations), or None if GMRES does not converge.
    """
    apply = _linearization(grid, d)
    iters = []
    jac = LinearOperator((grid.n, grid.n), matvec=lambda x: np.ravel(x) - apply(x),
                         dtype=float)
    delta, info = gmres(jac, -phi, rtol=_KRYLOV_RTOL, atol=0.0,
                        restart=_KRYLOV_RESTART, maxiter=_KRYLOV_MAXITER,
                        callback=iters.append, callback_type="pr_norm")
    if info != 0:
        return None
    return delta, len(iters)


def _morse_index(u, shifted, weight):
    """Morse index of I_a at u, and the top two eigenvalues it is read from.

    The second variation of I_a in the D^{2,2} metric is I - R4 K diag(g f_a'(u)),
    so each eigenvalue of R4 K diag(g f_a'(u)) above 1 is one descent
    direction. Where g f_a'(u) >= 0 that operator is similar to a symmetric
    one, so its spectrum is real; the real parts are read. ARPACK starts from
    a fixed vector, so the result is deterministic. Returns (index, eigenvalues in decreasing order); the
    index counts only the two computed eigenvalues, so 2 means "at least 2".
    Without a registered f' there is no certificate: (None, empty).
    """
    if shifted.base.fprime is None:
        return None, np.empty(0)
    grid = u.grid
    d = sample_on_grid(weight, grid).values * fa_prime_values(shifted, u.values)
    op = LinearOperator((grid.n, grid.n), matvec=_linearization(grid, d), dtype=float)
    top = eigs(op, k=2, which="LR", v0=np.ones(grid.n), return_eigenvectors=False)
    top = np.sort(top.real)[::-1]
    return int(np.sum(top > 1.0)), top


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


def _crest(vtilde, k_nodes, level):
    """Highest of k_nodes evenly spaced nodes on the straight path from 0 to
    vtilde. Returns (node, its level); raises when the maximizer is pinned at
    an endpoint."""
    nodes = [rc.RadialField(vtilde.grid, t * vtilde.values)
             for t in np.linspace(0.0, 1.0, k_nodes)]
    levels = np.array([level(u) for u in nodes])
    k_star = int(np.argmax(levels))
    if not 0 < k_star < k_nodes - 1:
        raise RuntimeError("path maximizer pinned at an endpoint")
    return nodes[k_star], levels[k_star]


def mp_solve(shifted, weight, grid, config=None, geometry=None, vtilde=None):
    """Crest of the straight path, Newton polish, Morse-index certificate, for
    one shift a. Converged means a relative residual within tol_res at a
    point of Morse index 1; otherwise the crest comes back non-converged."""
    cfg = config or MPConfig()
    if geometry is None:
        geometry = estimate_a1(shifted.base, weight, grid)
    warned = []
    if shifted.a >= geometry.a1:
        warned.append("a=%g >= a1 estimate %g: geometry untrusted, solving anyway"
                      % (shifted.a, geometry.a1))
        warnings.warn(warned[-1])
    if vtilde is None:
        vtilde = find_vtilde(shifted, weight, make_bump(geometry.phi), geometry.rho)

    def level(u):
        return i_a(u, shifted, weight)

    u_crest, crest_level = _crest(vtilde, cfg.path_nodes, level)
    _, crest_res = gradient_map(u_crest, shifted, weight)
    crest_norm = rc.h2_norm(u_crest)
    res_rel = crest_res / max(1.0, crest_norm)
    u_best, final_level, final_res, its = u_crest, crest_level, crest_res, 1

    newton = {}
    polished = _newton_polish(u_crest, shifted, weight, grid, _NEWTON_MAX_ITER,
                              trace=newton)
    newton_used = False
    if polished is not None:
        u_cand, newton_its = polished
        cand_level = level(u_cand)
        _, cand_res = gradient_map(u_cand, shifted, weight)
        cand_rel = cand_res / max(1.0, rc.h2_norm(u_cand))
        # accept a genuine improvement: a better residual, still above the rim,
        # at a point of mountain-pass type
        if cand_rel < res_rel and cand_level >= geometry.beta - 1e-6:
            morse = _morse_index(u_cand, shifted, weight)
            if morse[0] == 1:
                u_best, final_level, final_res, res_rel = u_cand, cand_level, cand_res, cand_rel
                newton_used = True
                its += newton_its
    if not newton_used:
        morse = _morse_index(u_crest, shifted, weight)
    morse_index, morse_top = morse

    diag = {
        "rim_ok": bool(final_level >= geometry.beta - 1e-6),
        "newton_used": newton_used,
        "newton_iterations": len(newton["krylov"]),
        "newton_residual_history": np.asarray(newton["residual"]),
        "krylov_iterations": np.asarray(newton["krylov"], dtype=int),
        "morse_index": morse_index,
        "morse_top_eigenvalues": morse_top,
        "warnings": warned,
        "crest_level": crest_level,
        "vtilde_norm": rc.h2_norm(vtilde),
        "vtilde_level": level(vtilde),
        "history_norm": np.array([crest_norm]),
        "history_residual": np.array([crest_res]),
        "history_level": np.array([crest_level]),
        "geometry": geometry,
    }
    converged = res_rel <= cfg.tol_res and morse_index == 1
    return MPSolution(u=u_best, level=final_level, residual=final_res, a=shifted.a,
                      iterations=its, converged=bool(converged), diagnostics=diag)
