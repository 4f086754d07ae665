import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh

import semipositone as sp
from semipositone.energy import _ratio_sup
from semipositone.nonlinearity import eval_f0prime
from semipositone.radial_core import RadialField
from semipositone.riesz_potential import ring_kernel

from conftest import (energy_report, fixed_point_map, full_grid, full_grid_n_a,
                      full_grid_ratio_sup, h2_norm, quadrature_spec, random_trial_fields,
                      rim_levels, scale, support_of, support_potential, weak_pairing,
                      zero_potential, zero_weight)


def smooth_field(grid, seed, n_lobes=3):
    rng = np.random.default_rng(seed)
    vals = np.zeros(grid.n)
    for _ in range(n_lobes):
        c = rng.uniform(0.0, 3.0)
        w = rng.uniform(0.4, 1.2)
        vals += rng.normal() * np.exp(-((grid.r - c) ** 2) / (2.0 * w * w))
    return RadialField(grid, vals)


def test_energy_report_internal_identity(example_spec, example_w, grid128):
    sh = sp.ShiftedNonlinearity(example_spec, 0.3)
    sup = support_of(example_w, grid128)
    u = sp.riesz_solve(RadialField(grid128, full_grid(sup, grid128, sup.g)
                                   * smooth_field(grid128, 1).values))
    rep = energy_report(u, sh, sup)
    assert rep.value == pytest.approx(0.5 * rep.norm_h2**2 - rep.nonlinear_term,
                                      rel=1e-12, abs=1e-12)
    assert rep.value == pytest.approx(sp.i_a(u, sh, sup), rel=1e-12)


def test_nonlinear_term_split_oracle(example_spec, example_w, grid128):
    # for u >= 0: N_a(u) = int g F(u) - a int g u, evaluated as two separate
    # quadratures
    a = 0.7
    sh = sp.ShiftedNonlinearity(example_spec, a)
    u = RadialField(grid128, np.exp(-((grid128.r - 0.75) ** 2)))
    gv = sp.sample_on_grid(example_w, grid128).values
    f_part = sp.integrate(RadialField(grid128, gv * example_spec.F_closed(u.values)))
    lin_part = sp.integrate(RadialField(grid128, gv * u.values))
    sup = support_of(example_w, grid128)
    assert sp.energy.n_values(u.values[sup.nodes], sh, sup) == pytest.approx(
        f_part - a * lin_part, rel=1e-12)


def _family(name, dim):
    if name == "example":
        return sp.example_nonlinearity(dim=dim)
    if name == "power":
        return sp.power_nonlinearity(3.0, dim=dim, gamma=2.5)
    # the example f with F from the tests' quadrature primitive, no closed form
    return quadrature_spec(sp.example_nonlinearity(dim=dim))


@given(dim=st.integers(5, 9), family=st.sampled_from(["example", "power", "fallback"]),
       shift=st.sampled_from([0.0, 0.3, 40.0]), signed=st.booleans(),
       top=st.floats(1e-3, 1e6), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_ray_levels_match_i_a(dim, family, shift, signed, top, seed):
    # I_a(t v) = t^2 ||Delta v||^2 / 2 - N_a(t v) on a whole ray at once,
    # against one i_a per scale; a signed v puts support values on the
    # F_a = -a t branch
    grid = sp.make_grid(dim, 128, 20.0)
    weight = sp.example_weight(dim=dim)
    sh = sp.ShiftedNonlinearity(_family(family, dim), shift)
    rng = np.random.default_rng(seed)
    vals = random_trial_fields(grid, 1, rng, r_span=2.0)[0].values
    if not signed:
        vals = np.abs(vals)
    v = RadialField(grid, vals / h2_norm(RadialField(grid, vals)))
    sup = support_of(weight, grid)
    on_support = np.max(np.abs(v.values[sup.nodes]))
    t = np.linspace(0.0, top / on_support, 9)
    levels = sp.ray_levels(v.values[sup.nodes], sp.h2_inner(v, v), sh, sup, t)
    assert levels.shape == t.shape
    for t_k, level in zip(t, levels):
        ref = sp.i_a(RadialField(grid, t_k * v.values), sh, sup)
        assert abs(level - ref) <= 1e-12 * 0.5 * t_k ** 2


@given(dim=st.integers(5, 9), n=st.integers(32, 400),
       support=st.sampled_from(["annulus", "gapped table"]),
       family=st.sampled_from(["example", "power"]), shift=st.floats(0.0, 50.0),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_n_a_on_support_matches_full_grid(dim, n, support, family, shift, seed):
    # the sum over the nodes where g != 0 leaves out only zero terms; the
    # gapped table has g = 0 on whole cells inside its support
    grid = sp.make_grid(dim, n, 20.0)
    if support == "annulus":
        weight = sp.example_weight(dim=dim)
    else:
        weight = sp.table_weight([0.5, 1.0, 4.0, 5.0, 6.0, 9.0, 10.0],
                                 [1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.5], dim=dim)
    gv = sp.sample_on_grid(weight, grid).values
    sh = sp.ShiftedNonlinearity(_family(family, dim), shift)
    rng = np.random.default_rng(seed)
    u = RadialField(grid, rng.uniform(-1.0, 3.0, n))
    scale = sp.integrate(RadialField(grid, np.abs(gv * sp.eval_Fa(sh, u.values))))
    sup = support_of(weight, grid)
    assert abs(sp.energy.n_values(u.values[sup.nodes], sh, sup)
               - full_grid_n_a(u, sh, weight)) <= 1e-13 * scale
    if support != "annulus":
        inner = gv[(grid.r > weight.r_in) & (grid.r < weight.r_out)]
        assert np.any(inner == 0.0) and np.any(inner > 0.0)


def test_energy_zero_field(example_spec, example_w, grid128):
    sh = sp.ShiftedNonlinearity(example_spec, 0.5)
    sup = support_of(example_w, grid128)
    z = zero_potential(grid128)
    assert sp.i_a(z, sh, sup) == 0.0
    t0, res = fixed_point_map(z, sh, sup), sp.gradient_map(z, sh, sup)
    # T(0) = -a R4 K4 g is strictly negative: the shift alone pushes down
    assert np.all(t0.values < 0.0)
    assert res > 0.0


def test_gradient_map_positone_zero_is_critical(example_spec, example_w, grid128):
    sh = sp.ShiftedNonlinearity(example_spec, 0.0)
    sup = support_of(example_w, grid128)
    z = zero_potential(grid128)
    t0, res = fixed_point_map(z, sh, sup), sp.gradient_map(z, sh, sup)
    assert res == 0.0
    assert np.all(t0.values == 0.0)


def test_gradient_map_rejects_divergent_source(example_spec, example_w, grid128):
    sh = sp.ShiftedNonlinearity(example_spec, 0.0)
    sup = support_of(example_w, grid128)
    # a potential of ~2e306 on supp g, where f overflows to inf
    huge = scale(support_potential(sup, grid128, sup.g), 5e307)
    with pytest.raises(ValueError, match="divergent"):
        sp.gradient_map(huge, sh, sup)


def test_gradient_map_rejects_fields_it_cannot_read_on_support(example_spec, example_w,
                                                               grid128):
    # the residual is a sum over supp g: a field without a source, or with
    # source off supp g, has no residual there and is refused
    sh = sp.ShiftedNonlinearity(example_spec, 0.0)
    sup = support_of(example_w, grid128)
    smooth = smooth_field(grid128, 3)
    for u in (smooth, sp.riesz_solve(smooth)):
        with pytest.raises(ValueError, match="source lives on supp g"):
            sp.gradient_map(u, sh, sup)


def test_directional_derivative_richardson(example_spec, example_w, grid128):
    # central differences of I_a along v, Richardson-extrapolated, against
    # the weak-form pairing
    sh = sp.ShiftedNonlinearity(example_spec, 0.2)
    sup = support_of(example_w, grid128)
    for seed in range(5):
        u = smooth_field(grid128, 10 + seed)
        v = smooth_field(grid128, 100 + seed)
        scale = max(1.0, h2_norm(u))
        h = 1e-5 * scale  # below the F_a kink scale, above roundoff

        def diff(step):
            up = RadialField(grid128, u.values + step * v.values)
            dn = RadialField(grid128, u.values - step * v.values)
            return (sp.i_a(up, sh, sup) - sp.i_a(dn, sh, sup)) / (2.0 * step)

        extrap = (4.0 * diff(h / 2.0) - diff(h)) / 3.0
        exact = weak_pairing(u, v, sh, example_w)
        assert abs(extrap - exact) < 1e-5 * max(1.0, abs(exact))


def test_estimate_bg_dense_oracle(example_w, grid128):
    # same-grid dense eigensolve: M = R4 K4 diag(m) is similar to the
    # symmetric S = R4 sqrt(m) K4 sqrt(m), so its top eigenvalue is real and
    # computable without the iteration
    g = grid128
    lam = sp.estimate_bg(example_w, g)
    gv = sp.sample_on_grid(example_w, g).values
    m = gv * g.r ** (g.dim - 1) * g.w
    root = np.sqrt(m)
    k4 = ring_kernel(g, g.dim - 4)
    s_mat = sp.riesz_r4(g.dim) * root[:, None] * k4 * root[None, :]
    top = eigh(s_mat, eigvals_only=True)[-1]
    assert lam == pytest.approx(top, rel=1e-2)


def test_estimate_bg_zero_weight(grid128):
    assert sp.estimate_bg(zero_weight(), grid128) == 0.0


def test_estimate_bg_scales_linearly(example_w, grid128):
    base = sp.estimate_bg(example_w, grid128)
    doubled = sp.WeightSpec(profile=lambda r: 2.0 * example_w.profile(r),
                            dim=5, r_in=0.5, r_out=1.0)
    assert sp.estimate_bg(doubled, grid128) == pytest.approx(2.0 * base, rel=1e-9)


def test_estimate_a1_internal_relations(geometry128):
    geo = geometry128
    assert 0 < geo.rho < geo.rho1
    assert geo.beta > 0 and geo.a1 > 0
    # beta = A(rho*)/2 and a1 = beta / (c_lin rho*)
    assert geo.a1 == pytest.approx(geo.beta / (geo.c_lin * geo.rho), rel=1e-12)
    # rho*/rho1 = (2/gamma)^{1/(gamma-2)}
    ratio = (2.0 / geo.gamma) ** (1.0 / (geo.gamma - 2.0))
    assert geo.rho / geo.rho1 == pytest.approx(ratio, rel=1e-12)


def test_geometry_frozen_regression(geometry512):
    # n = 512, r_max = 20; guards the whole constant chain (B_g eigenvalue,
    # envelope, the c_lin and c_gamma variational problems) against silent
    # drift
    assert geometry512.b_g == pytest.approx(0.0378143416472, rel=1e-6)
    assert geometry512.rho == pytest.approx(13719.6829327, rel=1e-6)
    assert geometry512.beta == pytest.approx(8358379.85625, rel=1e-6)
    assert geometry512.a1 == pytest.approx(1265.28543628, rel=1e-6)


def test_c_lin_dense_oracle(example_w, grid128, geometry128):
    # c_lin^2 = int g T(g) with T = r4 K on the closed-form dense kernel, for
    # the example and, in dims 5-9, for the annulus and a table weight
    def dense_c_lin(weight, g):
        mg = sp.sample_on_grid(weight, g).values * g.r ** (g.dim - 1) * g.w
        k4 = ring_kernel(g, g.dim - 4)
        return np.sqrt(g.sphere_area * sp.riesz_r4(g.dim) * (mg @ k4 @ mg))

    assert geometry128.c_lin == pytest.approx(dense_c_lin(example_w, grid128), rel=1e-12)
    r_tab = np.linspace(0.0, 19.0, 40)
    for dim in range(5, 10):
        g = sp.make_grid(dim, 128, 20.0)
        spec = sp.power_nonlinearity(2.0, dim=dim)
        for weight in (sp.example_weight(dim=dim),
                       sp.table_weight(r_tab, 1.0 / (1.0 + r_tab**2), dim=dim)):
            geo = sp.estimate_a1(spec, weight, g)
            assert geo.c_lin == pytest.approx(dense_c_lin(weight, g), rel=1e-12)


@given(dim=st.integers(5, 9), n=st.integers(48, 400), frac=st.floats(0.02, 0.98),
       low=st.floats(-1.0, 0.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_ratio_sup_dominates_random_sources(dim, n, frac, low, seed):
    # the iterated sup of int g|u|^p / ||Delta u||^p bounds the ratio at
    # u = T(h) for signed sources h, ||Delta u||^2 = int h u, with no safety
    # factor: rough sources on supp g and smooth lobes around it
    grid = sp.make_grid(dim, n, 20.0)
    weight = sp.example_weight(dim=dim)
    p = 2.0 + frac * (sp.critical_exponent(dim) - 2.0)
    top, _ = _ratio_sup(support_of(weight, grid), p)
    gv = sp.sample_on_grid(weight, grid).values
    rng = np.random.default_rng(seed)
    for k in range(100):
        if k % 2:
            h = (gv > 0) * rng.uniform(low, 1.0, n)
        else:
            h = np.zeros(n)
            for _ in range(3):
                width = rng.uniform(0.05, 1.0)
                h += rng.normal() * np.exp(-((grid.r - rng.uniform(0.0, 2.0)) ** 2)
                                           / (2.0 * width * width))
        src = RadialField(grid, h)
        u = sp.riesz_solve(src).values
        den = sp.integrate(RadialField(grid, h * u))
        if den <= 0.0:
            continue
        num = sp.integrate(RadialField(grid, gv * np.abs(u) ** p))
        assert num / den ** (p / 2.0) <= top * (1.0 + 1e-12)


@given(dim=st.integers(5, 9), n=st.integers(48, 400), frac=st.floats(0.0, 0.98),
       support=st.sampled_from(["annulus", "table"]))
@example(dim=8, n=369, frac=0.5632459018647915, support="table")  # the iterate lags the ratio
@settings(max_examples=25, deadline=None)
def test_ratio_sup_block_matches_full_grid(dim, n, frac, support):
    # the iteration on the m values of supp g is the full-grid one: the
    # same sup and the same maximiser, whose source on S extends it to the
    # grid once
    grid = sp.make_grid(dim, n, 20.0)
    if support == "annulus":
        weight = sp.example_weight(dim=dim)
    else:
        r_tab = np.linspace(0.0, 19.0, 40)
        weight = sp.table_weight(r_tab, 1.0 / (1.0 + r_tab**2), dim=dim)
    p = 2.0 + frac * (sp.critical_exponent(dim) - 2.0)
    sup = support_of(weight, grid)
    lam, h = _ratio_sup(sup, p)
    assert h.shape == sup.nodes.shape
    src = np.zeros(grid.n)
    src[sup.nodes] = h
    phi = sp.riesz_solve(RadialField(grid, src))
    lam_ref, phi_ref = full_grid_ratio_sup(weight, grid, p)
    assert lam == pytest.approx(lam_ref, rel=1e-12)
    scale = np.max(np.abs(phi_ref.values))
    assert np.max(np.abs(phi.values - phi_ref.values)) <= 1e-12 * scale


def test_geometry_independent_of_r_max(example_spec, example_w):
    # every field in the constants is a Riesz potential of a source on
    # supp g, so at fixed spacing the domain radius drops out
    ref = sp.estimate_a1(example_spec, example_w, sp.make_grid(5, 501, 20.0))
    for r_max in (2.0, 4.0, 12.0, 40.0):
        grid = sp.make_grid(5, int(round(r_max / 0.04)) + 1, r_max)
        geo = sp.estimate_a1(example_spec, example_w, grid)
        for name in ("c_lin", "c_gamma", "beta", "a1"):
            assert getattr(geo, name) == pytest.approx(getattr(ref, name), rel=1e-12)


def test_weight_supported_far_out(example_spec):
    # the constant start has mass on any support; a fixed bump near the
    # origin underflowed there and gave B_g = 0
    w = sp.table_weight([27.0, 28.0, 30.0], [1.0, 2.0, 1.0])
    g = sp.make_grid(5, 256, 40.0)
    lam = sp.estimate_bg(w, g)
    m = sp.sample_on_grid(w, g).values * g.r ** (g.dim - 1) * g.w
    root = np.sqrt(m)
    k4 = ring_kernel(g, g.dim - 4)
    s_mat = sp.riesz_r4(g.dim) * root[:, None] * k4 * root[None, :]
    assert lam == pytest.approx(eigh(s_mat, eigvals_only=True)[-1], rel=1e-10)
    geo = sp.estimate_a1(example_spec, w, g)
    assert geo.b_g == lam and geo.a1 > 0 and np.isfinite(geo.beta)
    x, h, _ = sp.make_bump(geo.phi, geo.support)
    assert geo.support.integrate(h * x) == pytest.approx(1.0, rel=1e-10)
    assert np.min(x) >= 0.0


def test_estimate_a1_takes_no_grid_potential(monkeypatch, example_spec, example_w, grid128):
    # the p = 2 and p = gamma iterations both run on S, and the B_g
    # maximiser, the path direction, comes back as its source on S: no
    # potential is taken on the grid
    calls = []
    for mod, name in ((sp.energy, "riesz_solve"), (sp.riesz_potential, "riesz_values"),
                      (sp.riesz_potential, "apply_potential")):
        monkeypatch.setattr(mod, name, lambda *args, _name=name: calls.append(_name))
    geo = sp.estimate_a1(example_spec, example_w, grid128)
    assert calls == []
    monkeypatch.undo()
    assert geo.phi.shape == geo.support.nodes.shape and geo.grid is grid128
    assert np.all(support_potential(geo.support, grid128, geo.phi).values > 0.0)


def test_estimate_a1_degenerate_raises():
    # dim 7, example data: eps = cap/2 leaves the growth envelope at its
    # floor, c_gamma ~ 1e-304, and rho overflows
    spec = sp.example_nonlinearity(dim=7)
    w = sp.example_weight(dim=7)
    with pytest.raises(sp.GeometryError, match="^degenerate constants"):
        sp.estimate_a1(spec, w, sp.make_grid(7, 128, 20.0))


def test_estimate_a1_floor_does_not_call_the_example_linear():
    # at dim 7 the example's f(t)/t = 2 ln(1 + t) grows without bound, but
    # eps ~ 35 exceeds 2 ln(1 + T_BIG) ~ 27.6: the message blames the
    # sampled range, not the superlinearity of f
    with pytest.raises(sp.GeometryError) as err:
        sp.estimate_a1(sp.example_nonlinearity(dim=7), sp.example_weight(dim=7),
                       sp.make_grid(7, 128, 20.0))
    msg = str(err.value)
    assert "T_BIG=1e+06" in msg and "only beyond T_BIG" in msg
    assert "not superlinear" not in msg


@pytest.mark.parametrize("gamma", [2.5, 6.0, 8.0])
def test_estimate_a1_names_a_linear_f(gamma):
    # f(t) = t never beats eps t: the message names that cause, with eps and
    # T_BIG, also at large gamma, where the floored envelope c_env = 1e-300
    # gives finite constants (a1 ~ 1e75 at gamma = 6) rather than an overflow
    spec = sp.linear_nonlinearity(dim=5, gamma=gamma)
    w = sp.example_weight(dim=5)
    with pytest.raises(sp.GeometryError,
                       match=r"^degenerate constants: .*; f\(t\) <= eps t at every sampled "
                             r"t <= T_BIG \(eps=\S+, T_BIG=1e\+06\): f is linear there or "
                             r"outgrows eps t only beyond T_BIG, where the envelope does not "
                             r"sample \(ROADMAP.md item 2, the envelope on an unbounded range\)$"):
        sp.estimate_a1(spec, w, sp.make_grid(5, 128, 20.0))


def test_estimate_a1_collapse(example_spec, grid128):
    # eps = cap / 2 = 1/(2 B_g ||g||_{N/4}) gives q = 1/2 - 1/(4 ||g||_{N/4}),
    # so a tiny-amplitude weight, ||g||_{N/4} <= 1/2, leaves a quadratic
    # coefficient q <= 0
    tiny = sp.WeightSpec(profile=lambda r: 1e-6 * np.where((np.asarray(r) >= 0.5)
                                                           & (np.asarray(r) <= 1.0),
                                                           1.0 / np.maximum(np.asarray(r), 1e-12), 0.0),
                         dim=5, r_in=0.5, r_out=1.0)
    assert tiny.norm(grid128.dim / 4.0) <= 0.5
    with pytest.raises(sp.GeometryError, match="collapsed"):
        sp.estimate_a1(example_spec, tiny, grid128)


@pytest.mark.parametrize("weight", [
    zero_weight(), sp.table_weight([0.5, 0.75, 1.0], [0.0, 0.0, 0.0])], ids=["zero", "zero_table"])
def test_estimate_a1_names_a_weight_without_mass(example_spec, grid128, weight):
    # B_g = ||g||_{N/4} = 0 leaves no cap 1/(B_g ||g||_{N/4}) to put eps below:
    # the message says g has no mass, not eps=inf
    with pytest.raises(sp.GeometryError, match=r"^g has no mass on the grid: B_g=0, "):
        sp.estimate_a1(example_spec, weight, grid128)


@pytest.mark.xfail(strict=True, raises=sp.GeometryError, reason=(
    "eps = cap/2 with cap = 1/(B_g ||g||_{N/4}) gives q = 1/2 - 1/(4 ||g||_{N/4}), "
    "and B_g already carries g, so every weight with ||g||_{N/4} <= 1/2 gets "
    "q <= 0; at 0.3x eps = 32.7 puts the envelope at its floor. The choice of "
    "eps is ROADMAP item 2 (the sharpest a1)"))
def test_geometry_survives_scaling_g(example_spec, grid512):
    # g -> s g is f -> s f with a -> s a, and s f is as superlinear as f, so
    # each scaled copy of the example-shaped table has a mountain-pass
    # geometry as the table itself does
    r = np.linspace(0.5, 1.0, 6)
    for s in (1.0, 0.3, 0.1):
        geo = sp.estimate_a1(example_spec, sp.table_weight(r, s / r), grid512)
        assert np.isfinite(geo.a1) and geo.a1 > 0


def test_rim_levels_dominate_beta(example_spec, example_w, grid128, geometry128):
    sh = sp.ShiftedNonlinearity(example_spec, 0.5 * geometry128.a1)
    levels = rim_levels(sh, geometry128, grid128)
    assert levels.size > 0
    assert np.min(levels) >= geometry128.beta - 1e-6


def test_fa_prime_vanishes_on_nonpositive(example_spec):
    vals = np.array([-2.0, 0.0, 1.0, 3.0])
    out = eval_f0prime(example_spec, vals)
    assert out[0] == 0.0 and out[1] == 0.0
    assert out[2] == pytest.approx(example_spec.fprime(1.0))
    assert out[3] == pytest.approx(example_spec.fprime(3.0))
