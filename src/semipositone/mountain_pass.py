"""Numerical mountain-pass solver, for a whole batch of shifts at once, on
the rule on supp g (`riesz_potential.Support`, built by `estimate_a1`).

Three steps find the mountain-pass point. Take the crest, the node of highest
level, of the straight path from 0 to an endpoint vtilde with negative
energy; vtilde lies on the ray of the B_g maximiser T(phi), scaled by
`make_bump` to unit norm, so every point of the path is a scale t times the
bump and a row is carried as its scale. Every level on that ray, the
doubling ladder of `vtilde_ladder` and the path nodes of `_crest`, comes
from `energy.ray_levels`: t^2 ||Delta bump||^2 / 2 from one norm, less
int g F_a(t bump) on the m nodes S of supp g; each norm, level and residual
is int h v, exact on R^N. Polish the crest by semi-smooth Newton on
u = T(u). T(u) = R4 K (g f_a(u)) reads u only on S, where it is
K_S (mass f_a(u[S])), K_S the symmetric m x m `Support.kernel`: Newton runs
on the m values, each step one exact dense solve of I - K_S diag(mass f_a'),
and the polished candidate is T(x) on S. Certify it by its Morse index, the
number of eigenvalues above 1 of R4 K diag(g f_a'(u)), read from
diag(s) K_S diag(s), s = sqrt(mass f_a'), while g f_a'(u) >= 0: a
nondegenerate mountain-pass point has index 1 (Hofer, Proc. AMS 90, 1984).
A polish that fails, does not lower the residual, falls below the rim level
beta or has another index is rejected, and the crest is returned, flagged
non-converged.

The shifts of a sweep differ only by the constant a in f_a = f_0 - a and
F_a = F_0(t+) - a t, and share S, K_S, the bump and rho. As t bump >= 0,
I_a(t bump) = I_0(t bump) + a t int g bump: `vtilde_ladder` takes the a = 0
levels of the ladder once per batch, `find_vtilde` reads each row's scale
off them, and `solve_shifts` carries the k shifts as a leading row axis,
with a the column a[:, None] of one `ShiftedNonlinearity`: the crest is one
(k, 17, m) evaluation, Newton one stacked solve per step over the live rows
(a row leaves where a one-row solve would stop), and the certificate one
`eigvalsh` of a (k, m, m) stack, each stack built in `_chunks` of at most
_STACK_BYTES. The grid, where profiles are written, is touched once, at the
end, by one `riesz_values` over (k, n) of each row's final source, so every
returned u is the potential of its source. `mp_solve` is the batch of one.
The cost is O(k n + k m^3) time and O(k n + min(k m^2, max(m^2,
_STACK_BYTES))) memory; m^3 is small while g lives on a thin shell (m = 14
at n = 512 for the example) and grows when g fills the grid.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import radial_core as rc
from .energy import n_values, ray_levels, residuals
from .nonlinearity import ShiftedNonlinearity, eval_f0, eval_f0prime, eval_fa
from .riesz_potential import riesz_r4, riesz_values


@dataclass
class MPConfig:
    tol_res: float = 1e-4


@dataclass
class MPSolution:
    u: rc.RadialField
    level: float
    residual: float
    a: float
    iterations: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)


def make_bump(phi, sup):
    """T(phi), phi a source on S, clipped at 0 and scaled to ||Delta u||_2 = 1:
    the straight path's direction, as (values on S, source on S, u(0)): K_S
    (mass phi / g) on S, and R4 int |y|^{4-N} phi, the maximum on R^N when
    phi >= 0. T(phi) >= 0 on S up to rounding; the clip keeps phi."""
    vals = sup.apply(phi / sup.g)  # g > 0 on S
    top = riesz_r4(sup.dim) * sup.integrate(sup.r ** (4.0 - sup.dim) * phi)  # K_S's row at r = 0
    if np.min(vals) < -1e-12 * max(np.max(np.abs(vals)), 1e-300):
        raise ValueError("bump must be nonnegative")
    vals = np.maximum(vals, 0.0)
    nh2 = np.sqrt(max(sup.integrate(phi * vals), 0.0))
    if nh2 == 0:
        raise ValueError("bump has zero D^{2,2} norm")
    t = 1.0 / nh2
    return t * vals, t * phi, t * top


_T_CAP_DOUBLINGS = 30
_PATH_NODES = 17  # nodes of the straight path from 0 to vtilde, both ends included


def vtilde_ladder(geometry, spec):
    """The ray of every shift on spec, built once: (bump, nsq, t, level0, slope)
    for bump = `make_bump(geometry.phi, geometry.support)`, nsq = ||Delta bump||^2,
    t = 2 rho 2^j (j <= 30), the a = 0 levels on t from one `ray_levels` call
    and t int g bump; I_a(t bump) = level0 + a slope."""
    sup = geometry.support
    x, h, _ = bump = make_bump(geometry.phi, sup)
    nsq = sup.integrate(h * x)
    t = 2.0 * geometry.rho * 2.0 ** np.arange(_T_CAP_DOUBLINGS + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        level0 = ray_levels(x, nsq, ShiftedNonlinearity(spec, 0.0), sup, t)
    return bump, nsq, t, level0, t * np.sum(sup.mass * x)


def find_vtilde(a, ladder):
    """Scale t of the first `vtilde_ladder` rung with level0 + a slope < 0 (-inf
    from an overflowed F counts, nan never does); none up to 2^30 rho raises."""
    _, _, t, level0, slope = ladder
    negative = np.flatnonzero(level0 + a * slope < 0.0)
    if negative.size:
        return float(t[negative[0]])
    raise RuntimeError(
        "no negative energy up to t = 2^%d rho along the bump ray; "
        "superlinearity (the f(t)/t -> infinity hypothesis) is suspect"
        % _T_CAP_DOUBLINGS)


# Newton takes 2 steps on the example; the bound only stops a stall.
_NEWTON_MAX_ITER = 20
_NEWTON_TOL = 1e-11  # a row stops at max|Phi| / scale below this

# The (rows, m, m) stacks of Newton and of the certificate are built at most
# this many bytes at a time, and always at least one row, so a wide support
# holds no more than a row-by-row solve would.
_STACK_BYTES = 8 * 2 ** 20


def _chunks(k, m):
    """Slices of the k rows whose (rows, m, m) stacks fit in _STACK_BYTES."""
    step = max(1, _STACK_BYTES // (8 * m * m))
    return [slice(i, i + step) for i in range(0, k, step)]


def _morse_index(x, spec, sup):
    """Morse index of I_a at each row of the support values x (k, m), and its
    top two eigenvalues; f_a' = f_0' on t > 0 whatever a is, so the index
    needs only the spec.

    The second variation of I_a in the D^{2,2} metric is I - R4 K diag(g f_a'(u)),
    so each eigenvalue of R4 K diag(g f_a'(u)) above 1 is one descent
    direction. That operator's spectrum is the eigenvalues of
    K_S diag(mass f_a'(u[S])), K_S the symmetric `sup.kernel`, plus zeros,
    similar where f_a' >= 0 to diag(s) K_S diag(s), s = sqrt(mass f_a'):
    one `eigvalsh` of the (k, m, m) stack K_S s_i s_j, chunk by chunk. A row
    where g f_a'(u) < 0 somewhere on S raises ValueError.
    Returns (indices (k,), each the count of all m eigenvalues above 1, and
    the top two eigenvalues (k, 2) in decreasing order, zero-padded when m < 2).
    """
    k, m = x.shape
    d = sup.mass * eval_f0prime(spec, x)
    if np.any(d < 0):
        raise ValueError("g f_a'(u) < 0 on supp g: the symmetric Morse certificate "
                         "needs g f_a'(u) >= 0")
    s = np.sqrt(d)
    spectrum = np.zeros((k, max(m, 2)))
    for c in _chunks(k, m):
        stack = sup.kernel * s[c, :, None]
        stack *= s[c, None, :]
        spectrum[c, :m] = np.linalg.eigvalsh(stack)
    return np.sum(spectrum > 1.0, axis=1), -np.sort(-spectrum, axis=1)[:, :2]


def _newton_steps(fp, phi, sup):
    """Steps dx with (I - K_S diag(mass fp)) dx = phi for each row of phi (k, m),
    one stacked solve per chunk of rows, and the list of rows whose system
    is singular: such a row fails alone."""
    k, m = phi.shape
    dx, singular = np.empty_like(phi), []
    for c in _chunks(k, m):
        jac = sup.kernel * -(sup.mass * fp[c])[:, None, :]
        jac.reshape(len(jac), -1)[:, ::m + 1] += 1.0
        try:
            dx[c] = np.linalg.solve(jac, phi[c, :, None])[..., 0]
        except np.linalg.LinAlgError:
            for j, i in enumerate(range(k)[c]):
                try:
                    dx[i] = np.linalg.solve(jac[j], phi[i])
                except np.linalg.LinAlgError:
                    singular.append(i)
    return dx, singular


def _newton_polish(x0, scale, shifted, sup, max_iter):
    """Semi-smooth Newton on Phi(x) = x - T(g f_a(x)) for every row of the
    support values x0 (k, m), with Jacobian I - K_S diag(mass f_a'(x)) (f_a'
    taken 0 on x <= 0), over the rows still active. A row stops at
    max|Phi| / scale < _NEWTON_TOL, and fails on a non-finite residual, a
    tenfold rise after step 3, or a singular Jacobian.

    Returns (x, ok, residual, steps, support): the final values, the mask of
    rows that did not fail, and per row max|Phi| at each iterate, the steps
    taken and the support size (nodes where g f_a'(x) != 0) at the last one.
    """
    k = len(x0)
    x = x0.copy()
    residual = [[] for _ in range(k)]
    steps, support = np.zeros(k, dtype=int), np.zeros(k, dtype=int)
    ok, best = np.ones(k, dtype=bool), np.full(k, np.inf)  # best: lowest res so far
    rows = np.arange(k)  # the rows still iterating; their state stays in x, ok, best
    for it in range(max_iter):
        xr = x[rows]
        phi = xr - sup.apply(eval_f0(shifted.base, xr) - shifted.a[rows])  # f_a = f_0 - a
        res = np.max(np.abs(phi), axis=1)
        for i, r in zip(rows.tolist(), res.tolist()):
            residual[i].append(r)
        res /= scale[rows]
        step = np.isfinite(res) & (res >= _NEWTON_TOL)
        if it > 2:
            step &= res <= 10.0 * best[rows]
        best[rows] = np.minimum(best[rows], res)
        ok[rows[~step & ~(res < _NEWTON_TOL)]] = False  # a row leaves done (below tol) or failed
        rows = rows[step]
        if not rows.size:
            break
        fp = eval_f0prime(shifted.base, xr[step])
        dx, singular = _newton_steps(fp, phi[step], sup)
        ok[rows[singular]] = False
        moved = np.ones(len(rows), dtype=bool)
        moved[singular] = False
        rows = rows[moved]
        x[rows] -= dx[moved]
        steps[rows] += 1
        support[rows] = np.count_nonzero(fp[moved], axis=1)
    return x, ok, residual, steps, support


def _crest(ladder, t, shifted, sup):
    """Highest of _PATH_NODES evenly spaced nodes on the straight path from 0
    to each endpoint t_i bump, all levels from one `ray_levels` call on the
    (k, _PATH_NODES) scales on the bump and norm of the ladder. Returns the
    crest scales c = s* t, the crest levels and the endpoint levels; raises
    when a maximizer is pinned at an endpoint."""
    s = np.linspace(0.0, 1.0, _PATH_NODES)
    levels = ray_levels(ladder[0][0], ladder[1],
                        ShiftedNonlinearity(shifted.base, shifted.a[..., None]), sup,
                        s * t[:, None])
    k_star = np.argmax(levels, axis=1)
    if k_star.min() == 0 or k_star.max() == _PATH_NODES - 1:
        raise RuntimeError("path maximizer pinned at an endpoint")
    return s[k_star] * t, levels[np.arange(len(t)), k_star], levels[:, -1]


def solve_shifts(spec, a_values, ladder, scales, geometry, config=None):
    """`mp_solve` for every shift a of a_values at once, from its endpoint
    t bump on the ladder, t the scale of the same position in scales
    (`find_vtilde` of that shift on this ladder: the scales mean nothing on
    another), on geometry.support: the rows differ only by the constant a in
    f_a = f_0 - a, so each stage runs once on the support values of all rows,
    and each row's final source becomes a field on geometry.grid by one
    potential over (k, n) at the end. Returns one MPSolution per shift."""
    cfg = config or MPConfig()
    sup, grid = geometry.support, geometry.grid
    shifted = ShiftedNonlinearity(spec, np.asarray(a_values, dtype=float).reshape(-1, 1))
    a = shifted.a[:, 0]
    k = a.size
    t = np.asarray(scales, dtype=float)
    if t.shape != (k,):
        raise ValueError("%d endpoints for %d shifts" % (t.size, k))
    warned = []
    for a_row in a.tolist():
        warned.append([])
        if a_row >= geometry.a1:
            warned[-1].append("a=%g >= a1 estimate %g: geometry untrusted, solving anyway"
                              % (a_row, geometry.a1))
            warnings.warn(warned[-1][-1])

    # each crest is c bump, so its values, source and norm are the bump's times c
    c, crest_level, vtilde_level = _crest(ladder, t, shifted, sup)
    (bump, bump_src, bump_top), bump_norm = ladder[0], np.sqrt(ladder[1])
    x0, h0 = c[:, None] * bump, c[:, None] * bump_src
    crest_norm = c * bump_norm
    crest_res = residuals(x0, h0, shifted, sup)
    res_rel = crest_res / np.maximum(1.0, crest_norm)

    # Newton polish; the candidate is T(x) = K_S (mass f_a(x)) on S with source
    # g f_a(x) (a failed polish stands in as its crest and is never accepted)
    scale = np.maximum(1.0, c * bump_top)  # the crest's maximum on R^N
    x, ok, newton_res, steps, support = _newton_polish(x0, scale, shifted, sup,
                                                       _NEWTON_MAX_ITER)
    f_x = eval_fa(shifted, np.where(ok[:, None], x, x0))
    hc = sup.g * f_x
    xc = sup.apply(f_x)
    cand_nsq = sup.integrate(hc * xc)
    # N_a at every row's candidate and crest, so at its final values, whichever is used
    cand_n, crest_n = n_values(np.stack((xc, x0)), shifted, sup)
    cand_level = 0.5 * cand_nsq - cand_n
    cand_res = residuals(xc, hc, shifted, sup)
    cand_norm = np.sqrt(np.maximum(cand_nsq, 0.0))
    cand_rel = cand_res / np.maximum(1.0, cand_norm)
    # accept a genuine improvement: a better residual, still above the rim,
    # at a point of mountain-pass type; the other rows are certified at the crest
    cand = ok & (cand_rel < res_rel) & (cand_level >= geometry.beta - 1e-6)
    index, top = _morse_index(np.where(cand[:, None], xc, x0), spec, sup)
    used = cand & (index == 1)
    if not np.array_equal(used, cand):
        redo = cand & ~used  # a rejected polish is certified at its crest
        index[redo], top[redo] = _morse_index(x0[redo], spec, sup)
    final_level, final_res, final_norm, res_rel = np.where(
        used, (cand_level, cand_res, cand_norm, cand_rel), (crest_level, crest_res, crest_norm,
                                                             res_rel))
    converged = (res_rel <= cfg.tol_res) & (index == 1)
    # the weak-form level (1/2) int g f_a(u) u - int g F_a(u) at each row's final values
    xb = np.where(used[:, None], xc, x0)
    weak_level = 0.5 * np.sum(sup.mass * eval_fa(shifted, xb) * xb, axis=-1) \
        - np.where(used, cand_n, crest_n)
    # the one extension to the grid: every row is the potential of its source
    src = np.zeros((k, grid.n))
    src[:, sup.nodes] = np.where(used[:, None], hc, h0)
    vals = riesz_values(grid, src)

    sols = []
    for i in range(k):
        diag = {
            "rim_ok": bool(final_level[i] >= geometry.beta - 1e-6),
            "newton_used": bool(used[i]),
            "newton_iterations": int(steps[i]),
            "newton_residual_history": np.asarray(newton_res[i]),
            "support_nodes": int(support[i]) if steps[i] else None,
            "morse_index": int(index[i]),
            "morse_top_eigenvalues": top[i],
            "warnings": warned[i],
            "crest_level": float(crest_level[i]),
            "vtilde_norm": float(t[i] * bump_norm),
            "vtilde_level": float(vtilde_level[i]),
            "norm_h2": float(final_norm[i]),
            "weak_level": float(weak_level[i]),
            "level_gap": float(abs(final_level[i] - weak_level[i]) / abs(final_level[i])),
            "history_residual": crest_res[i:i + 1],
            "geometry": geometry,
        }
        sols.append(MPSolution(u=rc.RadialField(grid, vals[i], src[i]),
                               level=float(final_level[i]), residual=float(final_res[i]),
                               a=float(a[i]), iterations=1 + int(steps[i]) if used[i] else 1,
                               converged=bool(converged[i]), diagnostics=diag))
    return sols


def mp_solve(shifted, geometry):
    """Crest of the straight path, Newton polish, Morse-index certificate, for
    one shift a, on geometry.support: `vtilde_ladder` and `find_vtilde`, then
    `solve_shifts` with one row. Converged means a relative residual within
    tol_res at a point of Morse index 1; otherwise the crest comes back
    non-converged."""
    ladder = vtilde_ladder(geometry, shifted.base)
    t = find_vtilde(shifted.a, ladder)
    return solve_shifts(shifted.base, [shifted.a], ladder, [t], geometry)[0]
