"""Shared fixtures. The expensive objects (n=512 kernel, geometry constants,
positone solve) are session-scoped so the whole suite pays for them once.
`h2_norm` and `scale` are the grid-field norm and scaling the solver no
longer takes, `full_grid`, `support_potential` and `bump_field` put support
values, a source on S and the bump on the grid, and
`random_trial_fields` and `rim_levels` are plain helpers, imported by the
tests that probe with random directions; `zero_potential`,
`zero_nonlinearity` and `zero_weight` are the degenerate inputs (the
potential T(0) with its source, f = 0 and g = 0); `weak_pairing`, `energy_report`,
`full_grid_n_a`, `full_grid_ratio_sup` and `fixed_point_map` are oracles
for the energy layer, `support_of` builds the support the layer
functions read, and `weak_lp_profile`, `c_r_constant`, `check_prop33` and
`prop33_negative_excess` check the paper's constants and its two-point
bound, which no solve reads; `envelope_refine` and `emit_texts` are the
per-sample envelope fit and the per-cell file formatter the package's faster
versions must reproduce, `masked_f0` and `masked_Fa` the f_0 and F_a of
element masks the positive-part forms must reproduce, `quadrature_primitive`
the cumulative Gauss-Legendre F the closed-form primitives must match and
`quadrature_spec` a spec that takes its F from it, and `oracle_check_f1` .. `oracle_check_g2` with
`oracle_checks` the hypothesis checkers that sample f and g afresh in every
call, which the per-spec samples must reproduce bit for bit (`bits` puts a
report's details in a form compared exactly), and `annulus_lp` the closed-form
norms of the annulus weight that its Gauss-rule norms must match; `g2_left_side_direct` (the
(g2) left side by nested adaptive quadrature), `oracle_g2_left_side` (the
dense `ring_kernel_pairs` sum the far probes' closed forms replace) and
`ring_kernel_hyp2f1` (the ring kernel at any order, by scipy's hyp2f1) are
the oracles for the package's closed-form (g2) integrals, and `oracle_ring_kernel_pairs` the
closed forms on explicitly broadcast radii; `newton_kernel` and
`newton_potential` are the order N - 2 kernel and -Delta u = R2 I_{N-2} h,
which the solver never forms; all imported the same way."""

import io
import json
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest

import semipositone as sp


def h2_norm(u):
    """||Delta u||_2 of a grid field by `h2_inner`: int h u over the grid when
    u has a source h, the stencil's on [0, r_max] otherwise."""
    return float(np.sqrt(max(sp.h2_inner(u, u), 0.0)))


def scale(u, t):
    """t u, with the source t Delta^2 u when u has one."""
    src = None if u.source is None else t * u.source
    return sp.RadialField(u.grid, t * u.values, src)


def full_grid(sup, grid, values):
    """The support values (..., m) on grid, zero off S."""
    out = np.zeros(np.shape(values)[:-1] + (grid.n,))
    out[..., sup.nodes] = values
    return out


def support_potential(sup, grid, source):
    """The potential on grid of the source (m,) on S, carrying that source."""
    return sp.riesz_solve(sp.RadialField(grid, full_grid(sup, grid, source)))


def bump_field(geometry, bump):
    """The bump (values, source, u(0)) of `make_bump` as a field on
    geometry.grid: the grid potential of its source, with the bump's own
    values on S, K_S applied to it, where the two differ by rounding only,
    so `h2_inner` and `i_a` read the numbers the solver reads."""
    u = support_potential(geometry.support, geometry.grid, bump[1])
    u.values[geometry.support.nodes] = bump[0]
    return u


def zero_potential(grid):
    """The zero field as the solver forms it: T(0), with its source."""
    return sp.RadialField(grid, np.zeros(grid.n), np.zeros(grid.n))


def zero_nonlinearity(dim=5, gamma=2.5):
    """f identically 0; the shifted problem is pure -a (no superlinearity)."""
    def zero(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    return sp.NonlinearitySpec(f=zero, gamma=float(gamma), c_f=1.0, r_mono=1.0, dim=dim,
                               F_closed=zero, fprime=zero)


def zero_weight(dim=5):
    """g identically 0 on the annulus [1/2, 1]."""
    return sp.WeightSpec(profile=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                         dim=dim, r_in=0.5, r_out=1.0)


def random_trial_fields(grid, count, rng, n_lobes=4, r_span=None):
    """Smooth random fields: sums of gaussian lobes with random centers,
    widths and signed amplitudes. Not normalized."""
    if r_span is None:
        r_span = 0.5 * grid.r_max
    fields = []
    for _ in range(count):
        vals = np.zeros(grid.n)
        for _ in range(n_lobes):
            c = rng.uniform(0.0, r_span)
            w = rng.uniform(0.3, 1.5)
            amp = rng.normal()
            vals += amp * np.exp(-((grid.r - c) ** 2) / (2.0 * w * w))
        fields.append(sp.RadialField(grid, vals))
    return fields


def rim_levels(shifted, geometry, grid, n_fields=100, seed=11):
    """I_a over n_fields random fields scaled to the rim ||Delta u|| = rho*;
    the geometry promises min >= beta for a < a1."""
    rng = np.random.default_rng(seed)
    levels = []
    for u in random_trial_fields(grid, n_fields, rng):
        nh2 = h2_norm(u)
        if nh2 == 0:
            continue
        scaled = sp.RadialField(grid, u.values * (geometry.rho / nh2))
        levels.append(sp.i_a(scaled, shifted, geometry.support))
    return np.asarray(levels)


def full_grid_n_a(u, shifted, weight):
    """N_a(u) = int g F_a(u) with F_a on every grid node, g = 0 included."""
    g = sp.sample_on_grid(weight, u.grid).values
    return sp.integrate(sp.RadialField(u.grid, g * sp.eval_Fa(shifted, u.values)))


def full_grid_ratio_sup(weight, grid, p, tol=1e-12, max_iter=2000):
    """sup int g|u|^p / ||Delta u||^p and its maximiser by the power iteration
    v <- T(h) / (int h T(h))^{1/2}, h = g|v|^{p-2} v, with T = riesz_solve
    applied on the whole grid at every step, until both the ratio and the
    iterate on supp g, the only values the next step reads, have settled to
    tol."""
    g = sp.sample_on_grid(weight, grid).values
    on = g != 0
    mass = g * grid.r_pow * grid.w * grid.sphere_area
    v = np.ones(grid.n)
    lam_prev = np.inf
    for _ in range(max_iter):
        dual = np.abs(v) ** (p - 2.0) * v
        t = sp.riesz_solve(sp.RadialField(grid, g * dual)).values
        norm_d = np.sqrt(np.sum(mass * dual * t))
        if norm_d == 0.0:
            return 0.0, zero_potential(grid)
        v, v_prev = t / norm_d, v
        lam = float(np.sum(mass * np.abs(v) ** p))
        step = np.abs(v - v_prev)[on]
        if abs(lam - lam_prev) <= tol * lam and np.max(step) <= tol * np.max(np.abs(v[on])):
            return lam, sp.RadialField(grid, v)
        lam_prev = lam
    raise RuntimeError("power iteration for p=%g did not converge" % p)


def weak_lp_profile(dim, alpha):
    """sup_s s^{N/(N-4)} |{ |x|^{4-N} > s }|, which must equal omega_N / N.

    The level set is the ball of radius rho(s) solving rho^{4-N} = s; rho is
    recovered numerically (bracketed root) and the measure analytically.
    """
    from scipy.optimize import brentq

    if alpha != dim - 4:
        raise ValueError("profile is defined for the biharmonic exponent alpha = N - 4")
    om = sp.sphere_area(dim)
    p = dim / (dim - 4.0)
    vals = []
    for s in np.geomspace(1e-3, 1e3, 25):
        rho = brentq(lambda t: t ** (4.0 - dim) - s, 1e-12, 1e12, xtol=1e-15, rtol=1e-15)
        measure = om / dim * rho ** dim
        vals.append(s ** p * measure)
    vals = np.asarray(vals)
    if np.ptp(vals) > 1e-10 * vals.max():
        raise AssertionError("level-set profile is not constant in s")
    return float(vals.max())


def c_r_constant(spec, eps):
    """C_R = (eps/2) R^2 + (C/gamma) R^gamma with R = r_mono and the
    registered envelope pair (eps, C)."""
    C = sp.growth_envelope(spec, eps)
    R = spec.r_mono
    return 0.5 * eps * R * R + C / spec.gamma * R ** spec.gamma


def envelope_refine(spec, eps):
    """`growth_envelope` by a 20001-point linear refine of the bracket
    around the argmax of the 4001-point log grid on [1e-8, T_BIG]."""
    def ratio(tt):
        return (np.asarray(spec.f(tt)) - eps * tt) / tt ** (spec.gamma - 1.0)

    t = np.geomspace(1e-8, sp.nonlinearity.T_BIG, 4001)
    rho = ratio(t)
    i = int(np.argmax(rho))
    fine = np.linspace(t[max(i - 1, 0)], t[min(i + 1, t.size - 1)], 20001)
    c = max(float(np.max(rho)), float(np.max(ratio(fine))))
    return float(max(c, 0.0) * (1.0 + 1e-9) + 1e-300)


def masked_f0(spec, t):
    """f_0 by its two branches: f(t) where t > 0, and 0 elsewhere."""
    t = np.asarray(t, dtype=float)
    pos = t > 0
    out = np.zeros_like(t)
    if np.any(pos):
        out[pos] = spec.f(t[pos])
    return out


def masked_Fa(shifted, t):
    """F_a by its two branches: F(t) - a t where t > 0, and -a t elsewhere."""
    t = np.asarray(t, dtype=float)
    pos = t > 0
    out = -shifted.a * t
    if np.any(pos):
        out = np.where(pos, np.asarray(shifted.base.F_closed(np.where(pos, t, 0.0)))
                       - shifted.a * t, out)
    return out


def quadrature_primitive(f, t):
    """F(t) = int_0^t f at t >= 0 by one cumulative Gauss-Legendre sum over
    panels between the sorted samples and the octaves 2^k t_min, k >= -40
    (t_min the least positive sample): f is smooth on (0, inf), so each panel
    is at machine precision, and whatever f does at 0 stays in the first
    panel, of relative size 2^-40. The oracle for the closed-form primitives."""
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0):
        raise ValueError("quadrature_primitive takes t >= 0")
    sorted_union, gauss_legendre = sp.radial_core.sorted_union, sp.radial_core.gauss_legendre
    samples = sorted_union(tt)
    out = np.zeros(tt.shape)
    if samples.size and samples[-1] > 0:
        t_min = samples[samples > 0][0]
        octaves = t_min * 2.0 ** np.arange(-40, np.log2(samples[-1] / t_min))
        ends = sorted_union([0.0], octaves, samples)
        x, w = gauss_legendre(ends[:-1], ends[1:])
        cumulative = np.concatenate(([0.0], np.cumsum(np.sum(w * f(x), axis=1))))
        out = cumulative[np.searchsorted(ends, tt)]
    return float(out) if out.ndim == 0 else out


def quadrature_spec(spec):
    """spec with F_closed replaced by `quadrature_primitive` of its f."""
    return replace(spec, F_closed=lambda t: quadrature_primitive(spec.f, t))


def emit_texts(report):
    """{file name: text} of what `emit` writes for report, one cell at a time."""
    fmt = sp.sweep_cli._fmt
    texts = {}
    fh = io.StringIO()
    fh.write(sp.sweep_cli.CSV_HEADER + "\n")
    for r in report.rows:
        fh.write(",".join([
            fmt(r.a), fmt(r.level), fmt(r.norm_h2), fmt(r.sup_ext),
            fmt(r.min_value), fmt(r.neg_mass), fmt(r.decay_fit),
            fmt(r.decay_pred), fmt(r.residual), fmt(r.converged)]) + "\n")
    texts["sweep.csv"] = fh.getvalue()
    fh = io.StringIO()
    json.dump({"summary": report.summary, "config": report.config_echo},
              fh, indent=2, sort_keys=True)
    fh.write("\n")
    texts["summary.json"] = fh.getvalue()
    r_cells = [repr(r) + "," for r in np.asarray(report.grid_r, dtype=float).tolist()]
    for i, (a, vals) in enumerate(sorted(report.profiles.items(), reverse=True)):
        fh = io.StringIO()
        fh.write("r,u\n")
        fh.writelines(rr + repr(uu) + "\n" for rr, uu in
                      zip(r_cells, np.asarray(vals, dtype=float).tolist()))
        texts["profile_%02d_a%s.csv" % (i, ("%.6g" % a))] = fh.getvalue()
    return texts


def bits(x):
    """x with every float as its repr and every array as (dtype, shape,
    reprs), so == compares a report's details bit for bit (nan included)."""
    if isinstance(x, dict):
        return {bits(k): bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [bits(v) for v in x]
    if isinstance(x, np.ndarray):
        return (str(x.dtype), x.shape, [repr(v) for v in x.ravel().tolist()])
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return x


_CHECK_T = np.geomspace(1e-6, 1e6, 2000)


def oracle_check_f1(spec):
    ft = np.asarray(spec.f(_CHECK_T))
    small = _CHECK_T <= 10.0 * _CHECK_T[0]
    origin_ratio = float(np.max(np.abs(ft[small] / _CHECK_T[small])))
    big = _CHECK_T >= _CHECK_T[-1] / 10.0
    growth_ratio = float(np.max(ft[big] / _CHECK_T[big] ** (spec.gamma - 1.0)))
    origin_ok, growth_ok = origin_ratio <= 0.01, growth_ratio <= spec.c_f * 1.05
    return sp.CheckReport("f1", origin_ok and growth_ok, {
        "origin_ratio": origin_ratio, "growth_ratio": growth_ratio,
        "c_f": spec.c_f, "origin_ok": origin_ok, "growth_ok": growth_ok})


def oracle_check_f2(spec):
    ratio = np.asarray(spec.f(_CHECK_T)) / _CHECK_T
    exceeded = {m: bool(np.any(ratio > m)) for m in (1.0, 10.0)}
    return sp.CheckReport("f2", all(exceeded.values()), {
        "max_ratio": float(np.max(ratio)), "probes": exceeded})


def oracle_check_f3(spec):
    t = _CHECK_T[_CHECK_T > spec.r_mono]
    ratio = np.asarray(spec.f(t)) / t
    drops = np.diff(ratio)
    worst = float(np.min(drops)) if drops.size else 0.0
    ok = worst >= -1e-12 * max(1.0, float(np.max(np.abs(ratio))))
    return sp.CheckReport("f3", ok, {"worst_drop": worst, "r_mono": spec.r_mono})


def oracle_check_f4(spec):
    maxq = []
    t = _CHECK_T[_CHECK_T <= 100.0]
    for hstep in (1e-2, 1e-4, 1e-6):
        pts = t[t + hstep <= 100.0]
        q = np.abs(np.asarray(spec.f(pts + hstep))
                   - np.asarray(spec.f(pts))) / hstep
        maxq.append(float(np.max(q)))
    growth = max(maxq[i + 1] / maxq[i] for i in range(2)) if maxq[0] > 0 else 1.0
    return sp.CheckReport("f4", growth <= 2.0, {"max_quotients": maxq, "scale_growth": growth})


def _oracle_rule(weight):
    """g's Gauss-Legendre rule on [r_in, r_out] split at the knots, built
    afresh; on the annulus, one panel, as (g2) used to build it per call."""
    pts = sp.radial_core.sorted_union([weight.r_in, weight.r_out], weight.knots)
    return sp.radial_core.gauss_legendre(pts[:-1], pts[1:])


def _oracle_mass(weight, p):
    x, w = _oracle_rule(weight)
    piece = np.sum(w * weight.profile(x) ** p * x ** (weight.dim - 1), axis=1)
    total = np.bincount(np.zeros(piece.size, dtype=int), weights=piece)[0]
    return float(sp.sphere_area(weight.dim) * total)


def annulus_lp(dim, d, r_in, r_out, p):
    """Closed form ||r^{-d} chi_[r_in,r_out]||_p over R^N."""
    if np.isinf(p):
        return r_in ** (-d)
    s = dim - d * p
    block = np.log(r_out / r_in) if abs(s) < 1e-13 else (r_out ** s - r_in ** s) / s
    return (sp.sphere_area(dim) * block) ** (1.0 / p)


def oracle_check_g1(weight):
    two_ss = sp.critical_exponent(weight.dim)
    ps = (1.0, weight.dim / 4.0, two_ss / (two_ss - 1.0), np.inf)
    quad = {p: _oracle_mass(weight, p) ** (1.0 / p) for p in ps[:3]}
    r = np.concatenate((np.linspace(weight.r_in, weight.r_out, 20001), weight.knots))
    quad[np.inf] = float(np.max(weight.profile(r)))
    details = {"norms": quad}
    if quad[1.0] == 0.0:
        warnings.warn("degenerate weight: ||g||_1 = 0")
        details["warning"] = "degenerate weight"
    return sp.CheckReport("g1", all(np.isfinite(v) for v in quad.values()), details)


def oracle_g2_left_side(weight, delta, x):
    """The (g2) left side at an array of probes clear of the support, as the
    dense sum of `ring_kernel_pairs` over g's rule."""
    dim, alpha = weight.dim, (weight.dim - 4.0) * delta
    s, jw = (a.ravel() for a in _oracle_rule(weight))
    kern = sp.riesz_potential.ring_kernel_pairs(dim, x[:, None], s, alpha)
    integrand = weight.profile(s) ** delta * s ** (dim - 1) * kern
    return x ** alpha * np.sum(jw * integrand, axis=1)


def g2_left_side_direct(spec, delta, x):
    """Nested adaptive quadrature in (s, polar angle); slow but safe when the
    probe sits close to or inside the support."""
    from scipy.integrate import quad

    dim = spec.dim
    alpha = (dim - 4.0) * delta
    ring = sp.sphere_area(dim - 1)

    def inner(s):
        def ang(th):
            d2 = x * x + s * s - 2.0 * x * s * np.cos(th)
            return np.sin(th) ** (dim - 2) * d2 ** (-0.5 * alpha)
        val, _ = quad(ang, 0.0, np.pi, epsabs=1e-11, limit=400)
        return spec.profile(s) ** delta * s ** (dim - 1) * ring * val

    val, _ = quad(inner, spec.r_in, spec.r_out, epsabs=1e-11, limit=400)
    return float(x ** alpha * val)


def ring_kernel_hyp2f1(dim, r, s, alpha):
    """kappa_alpha(r, s) = omega_N R^{-alpha} 2F1(alpha/2, 1 + (alpha-N)/2; N/2;
    rho^2/R^2) by scipy's hyp2f1, at any alpha."""
    from scipy.special import hyp2f1

    r, s = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(s, dtype=float))
    big = np.maximum(r, s)
    ratio = np.zeros(big.shape)
    np.divide(np.minimum(r, s), big, out=ratio, where=big > 0)
    alpha = float(alpha)
    with np.errstate(divide="ignore"):
        scale = sp.sphere_area(dim) * big ** (-alpha)
    return scale * hyp2f1(0.5 * alpha, 1.0 + 0.5 * (alpha - dim), 0.5 * dim, ratio * ratio)


def newton_kernel(grid):
    """The dense kappa_{N-2}(r_i, s_j) over the grid by `ring_kernel_hyp2f1`,
    with K[0, 0] = 0, where the volume weight vanishes. Its series stops at
    its first term, the shell theorem's omega_N max(r, s)^{2-N}."""
    rr, ss = np.meshgrid(grid.r, grid.r, indexing="ij")
    km = ring_kernel_hyp2f1(grid.dim, rr, ss, grid.dim - 2)
    km[0, 0] = 0.0
    return km


def newton_potential(h):
    """-Delta u of u = R4 I_{N-4} h, which is R2 I_{N-2} h with
    R2 = 1/((N-2) omega_N): `newton_kernel` against the trapezoid radial
    measure of h."""
    g = h.grid
    r2 = 1.0 / ((g.dim - 2) * g.sphere_area)
    return sp.RadialField(g, r2 * (newton_kernel(g) @ (h.values * g.r_pow * g.w)))


def oracle_ring_kernel_pairs(dim, r, s, alpha):
    """`ring_kernel_pairs` with r and s put through `np.broadcast_arrays`
    before any arithmetic, at the (g2) orders N - 4 and 2N."""
    r, s = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(s, dtype=float))
    big = np.maximum(r, s)
    om = sp.sphere_area(dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        if alpha == dim - 4:
            ratio = np.zeros(big.shape)
            np.divide(np.minimum(r, s), big, out=ratio, where=big > 0)
            z = ratio * ratio
            return om * big ** (-float(alpha)) * (1.0 - z * ((dim - 4.0) / dim))
        kern = om * (r * r + s * s) / (np.abs(r - s) * (r + s)) ** (dim + 1)
        return np.where(big > 0, kern, np.inf)


def oracle_check_g2(weight, delta):
    x = sp.weight._G2_PROBES
    values = sp.weight.g2_left_side(replace(weight), delta, x)  # its own rule
    mass = _oracle_mass(weight, delta)
    return sp.CheckReport("g2", bool(np.all(np.isfinite(values))), {
        "delta": float(delta), "alpha": (weight.dim - 4.0) * delta, "x_samples": x,
        "values": values, "c_g": float(np.max(values)), "limit_mass": mass,
        "far_field_ratio": float(values[-1] / mass)})


def oracle_checks(cfg):
    """`run_hypothesis_checks` with every checker sampling on its own."""
    spec, weight, _ = sp.build_problem(cfg)
    return [oracle_check_f1(spec), oracle_check_f2(spec), oracle_check_f3(spec),
            oracle_check_f4(spec), oracle_check_g1(weight)] + \
        [oracle_check_g2(weight, d) for d in (1.0, sp.critical_exponent(cfg.problem.dim))]


def check_prop33(shifted, s, t, eps=0.5):
    """Residual of F_a(s) - F_a(t) <= (s^2 - t^2)/(2s) f_a(s) + C_R on the
    admissible orderings 0 < t <= s or s <= t < 0. Negative residual = holds."""
    if not ((0 < t <= s) or (s <= t < 0)):
        raise ValueError("(s, t)=(%g, %g) outside the admissible orderings" % (s, t))
    lhs = sp.eval_Fa(shifted, s) - sp.eval_Fa(shifted, t)
    rhs = (s * s - t * t) / (2.0 * s) * sp.eval_fa(shifted, s)
    return float(lhs - rhs - c_r_constant(shifted.base, eps))


def prop33_negative_excess(shifted, s, t):
    """Exact excess of the negative branch: for s <= t < 0,

        [F_a(s) - F_a(t)] - (s^2 - t^2)/(2s) f_a(s) = a (t - s)^2 / (2|s|) >= 0,

    so the chain claimed for that branch runs the other way; the factor-2
    relaxation lhs <= 2 * rhs holds exactly instead. Returns the excess."""
    if not (s <= t < 0):
        raise ValueError("negative branch needs s <= t < 0")
    return shifted.a * (t - s) ** 2 / (2.0 * abs(s))


def weak_pairing(u, v, shifted, weight):
    """<I_a'(u), v> = int Delta u Delta v - int g f_a(u) v."""
    g = sp.sample_on_grid(weight, u.grid).values
    nonlin = sp.integrate(sp.RadialField(u.grid, g * sp.eval_fa(shifted, u.values) * v.values))
    return sp.h2_inner(u, v) - nonlin


@dataclass
class EnergyReport:
    value: float
    norm_h2: float
    nonlinear_term: float
    grad_residual: float


def support_of(weight, grid):
    """The support of weight sampled on grid, as `estimate_a1` builds it."""
    return sp.riesz_potential.support(sp.sample_on_grid(weight, grid))


def fixed_point_map(u, shifted, sup):
    """T(u) = riesz_solve(g f_a(u)) on the whole grid, by its definition."""
    g = full_grid(sup, u.grid, sup.g)
    return sp.riesz_solve(sp.RadialField(u.grid, g * sp.eval_fa(shifted, u.values)))


def energy_report(u, shifted, sup):
    nh2 = h2_norm(u)
    nl = float(sp.energy.n_values(u.values[sup.nodes], shifted, sup))
    res = sp.gradient_map(u, shifted, sup)
    return EnergyReport(value=0.5 * nh2 ** 2 - nl, norm_h2=nh2,
                        nonlinear_term=nl, grad_residual=res)


def oracle_thresholds(rows, profiles):
    """(a2_estimate, a3_estimate, threshold_index) of `_summarize` by its
    three loops before they became one scan: a2 and a3 each rescan every
    row's tail, the threshold index tries every split."""
    pos_rows = [r for r in rows if r.a > 0]
    sup_global = {r.a: float(np.max(np.abs(profiles[r.a]))) for r in rows}

    # a2: largest a whose whole tail (all smaller a, converged) keeps norm_h2
    # within 25% of the positone norm
    a2 = None
    ref = rows[-1].norm_h2 if rows and rows[-1].a == 0.0 else None
    if ref and ref > 0:
        for r in rows:
            if r.a == 0.0 or not r.converged:
                continue
            tail = [q for q in rows if 0.0 < q.a <= r.a and q.converged]
            if tail and all(abs(q.norm_h2 - ref) <= 0.25 * ref for q in tail):
                a2 = r.a
                break

    # a3: largest a with min u >= -tol, provided everything below it agrees
    a3 = None
    tol_of = {r.a: 1e-8 * sup_global[r.a] for r in rows}
    nonneg = {r.a: r.min_value >= -tol_of[r.a] for r in pos_rows if r.converged}
    for r in pos_rows:
        if not r.converged:
            continue
        below = [q for q in pos_rows if q.converged and q.a <= r.a]
        if nonneg[r.a] and all(nonneg[q.a] for q in below):
            a3 = r.a
            break

    # threshold index over descending positive rows: rows above strictly dip
    # negative, rows at/below stay nonnegative; None when the split is dirty
    threshold_index = None
    flags = [nonneg.get(r.a, False) for r in pos_rows]
    for k in range(len(flags) + 1):
        if all(not f for f in flags[:k]) and all(flags[k:]):
            threshold_index = k
            break
    return a2, a3, threshold_index


def manufactured(dim, spec, S=1e3):
    """An exact solution of Delta^2 u = g f(u) (a = 0), built backwards:
    h = S ((r - 1/2)(1 - r))^2 on [1/2, 1], u* = R4 I_{N-4} h, and
    g = h / f(u*) there, so that g f(u*) = h. Returns (weight, u_star, level):
    the `WeightSpec` of g, u* as a function of r, and the exact level
    I_0(u*) = omega int r^{N-1} (h u* / 2 - g F(u*)) dr.

    With c = (N - 4)/N the ring kernel of order N - 4 is omega kappa,
    kappa = r^{4-N} - c s^2 r^{2-N} for s < r and s^{4-N} - c r^2 s^{2-N}
    for s > r (`riesz_potential`), so u*(r) = R4 omega int h s^{N-1} kappa ds
    integrates a polynomial in s on each side of r at integer N, which the
    Gauss-Legendre rule split at r does exactly. The level's integrand is
    analytic on [1/2, 1], where one rule is at machine precision."""
    r_in, r_out = 0.5, 1.0
    c = (dim - 4.0) / dim
    om = sp.sphere_area(dim)
    gauss_legendre = sp.radial_core.gauss_legendre

    def h(r):
        return S * ((r - r_in) * (r_out - r)) ** 2

    def u_star(r):
        r = np.asarray(r, dtype=float)
        cut = np.clip(r, r_in, r_out)
        s, w = gauss_legendre(r_in, cut)  # s < r; empty for r <= r_in
        r = r[..., None]
        rr = np.maximum(r, r_in)
        inner = np.sum(w * h(s) * s ** (dim - 1)
                       * (rr ** (4.0 - dim) - c * s * s * rr ** (2.0 - dim)), axis=-1)
        s, w = gauss_legendre(cut, r_out)  # s > r; empty for r >= r_out
        outer = np.sum(w * h(s) * s ** (dim - 1)
                       * (s ** (4.0 - dim) - c * r * r * s ** (2.0 - dim)), axis=-1)
        return sp.riesz_r4(dim) * om * (inner + outer)

    def profile(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = (r > r_in) & (r < r_out)
        out[inside] = h(r[inside]) / spec.f(u_star(r[inside]))
        return out if out.ndim else float(out)

    s, w = gauss_legendre(r_in, r_out)
    u = u_star(s)
    level = om * np.sum(w * s ** (dim - 1) * (0.5 * h(s) * u - profile(s) * spec.F_closed(u)))
    weight = sp.WeightSpec(profile=profile, dim=dim, r_in=r_in, r_out=r_out)
    return weight, u_star, float(level)


@pytest.fixture(scope="session")
def grid512():
    return sp.make_grid(5, 512, 20.0)


@pytest.fixture(scope="session")
def grid256():
    return sp.make_grid(5, 256, 20.0)


@pytest.fixture(scope="session")
def grid128():
    return sp.make_grid(5, 128, 20.0)


@pytest.fixture(scope="session")
def example_spec():
    return sp.example_nonlinearity()


@pytest.fixture(scope="session")
def example_w():
    return sp.example_weight()


@pytest.fixture(scope="session")
def geometry512(example_spec, example_w, grid512):
    return sp.estimate_a1(example_spec, example_w, grid512)


@pytest.fixture(scope="session")
def geometry128(example_spec, example_w, grid128):
    return sp.estimate_a1(example_spec, example_w, grid128)


@pytest.fixture(scope="session")
def positone512(example_spec, geometry512):
    shifted = sp.ShiftedNonlinearity(example_spec, 0.0)
    return sp.mp_solve(shifted, geometry512)
