import numpy as np
import pytest

import semipositone as sp
from semipositone.radial_core import RadialField


@pytest.fixture(scope="module")
def positone128(example_spec, example_w, grid128, geometry128):
    sh = sp.ShiftedNonlinearity(example_spec, 0.0)
    return sp.mp_solve(sh, example_w, grid128, None, geometry128)


def test_mpconfig_rejects_short_path():
    with pytest.raises(ValueError):
        sp.MPConfig(path_nodes=5)


def test_make_bump_kinds(example_w, grid128):
    for kind in ("auto", "gaussian", "polynomial_bump"):
        phi = sp.make_bump(grid128, kind, example_w)
        assert np.min(phi.values) >= 0.0
        assert sp.h2_norm(phi) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match="unknown bump"):
        sp.make_bump(grid128, "hat", example_w)
    with pytest.raises(ValueError, match="weight"):
        sp.make_bump(grid128, "auto")


def test_find_vtilde_negative_level(example_spec, example_w, grid128, geometry128):
    sh = sp.ShiftedNonlinearity(example_spec, 1.0)
    bump = sp.make_bump(grid128, "auto", example_w)
    v = sp.find_vtilde(sh, example_w, bump, geometry128.rho)
    assert sp.i_a(v, sh, example_w) < 0.0
    assert sp.h2_norm(v) > geometry128.rho


def test_find_vtilde_rejects_unnormalized(example_spec, example_w, grid128):
    sh = sp.ShiftedNonlinearity(example_spec, 0.0)
    bad = RadialField(grid128, 2.0 * sp.make_bump(grid128, "gaussian").values)
    with pytest.raises(ValueError, match="normalized"):
        sp.find_vtilde(sh, example_w, bad, 1.0)


def test_find_vtilde_no_superlinearity(example_w, grid128):
    # pure shift (f = 0): I_a(t phi) = t^2/2 + a t int g phi > 0 for t > 0,
    # so the doubling search must hit its cap and raise
    sh = sp.ShiftedNonlinearity(sp.zero_nonlinearity(), 1.0)
    bump = sp.make_bump(grid128, "gaussian")
    with pytest.raises(RuntimeError, match="superlinearity"):
        sp.find_vtilde(sh, example_w, bump, 1.0)


def test_positone_solution(positone128, example_spec, example_w, geometry128):
    sol = positone128
    assert sol.converged
    assert sol.a == 0.0
    assert sol.residual <= 1e-4 * max(1.0, sp.h2_norm(sol.u))
    assert sol.level >= geometry128.beta - 1e-6
    assert np.all(sol.u.values >= 0.0)
    assert sol.diagnostics["rim_ok"]


def test_endpoints_never_move(positone128):
    assert positone128.diagnostics["endpoint_drift"] == 0.0


def test_crest_levels_descend(positone128):
    lv = positone128.diagnostics["history_level"]
    if len(lv) > 1:
        worst_rise = np.max(np.diff(lv))
        assert worst_rise <= 1e-2 * abs(lv[0])


def test_critical_point_certificate(positone128, example_spec, example_w, grid128):
    # weak form against 20 random smooth test fields, in two readings.
    # <u - T(u), v>_D is the certificate the solver actually drives to zero;
    # weak_pairing re-derives the nonlinear term through the stencil laplacian,
    # so at a kernel fixed point it can only be small up to the finite-difference
    # vs kernel closure gap (measured 1.4e-3 relative at n = 128).
    sh = sp.ShiftedNonlinearity(example_spec, 0.0)
    t_u, _ = sp.gradient_map(positone128.u, sh, example_w)
    diff = sp.RadialField(grid128, positone128.u.values - t_u.values)
    nu = sp.h2_norm(positone128.u)
    rng = np.random.default_rng(5)
    for f in sp.random_trial_fields(grid128, 20, rng):
        nv = sp.h2_norm(f)
        if nv == 0:
            continue
        assert abs(sp.h2_inner(diff, f)) <= 1e-10 * nv * max(1.0, nu)
        pair = sp.weak_pairing(positone128.u, f, sh, example_w)
        assert abs(pair) <= 5e-3 * nv * max(1.0, nu)


def test_newton_polish_engages(positone128):
    assert positone128.diagnostics["newton_used"]
    assert positone128.residual <= 1e-8 * max(1.0, sp.h2_norm(positone128.u))


def test_cerami_sees_polished_endpoint(positone128):
    # the deformation stalls at its crest; the accepted polish is the last
    # iterate, and there the weighted gradient (1 + ||Delta u||) res has decayed
    cer = positone128.diagnostics["cerami"]
    assert cer["weighted_gradient_decayed"]
    assert cer["weighted_last_over_max"] < 1e-6


def test_solution_positive_despite_shift(example_spec, example_w, grid128,
                                         geometry128, positone128):
    # small-a solve stays positive everywhere and lands near the positone
    a = 0.01 * geometry128.a1
    sh = sp.ShiftedNonlinearity(example_spec, a)
    sol = sp.mp_solve(sh, example_w, grid128, None, geometry128,
                      warm_start=positone128.u)
    assert sol.converged
    assert np.min(sol.u.values) >= -1e-8 * np.max(np.abs(sol.u.values))
    ext = grid128.r >= 1.0
    gap = np.max(np.abs(sol.u.values[ext] - positone128.u.values[ext]))
    assert gap < 0.05 * np.max(np.abs(positone128.u.values[ext]))


def test_warns_beyond_a1(example_spec, example_w, grid128, geometry128):
    sh = sp.ShiftedNonlinearity(example_spec, 2.0 * geometry128.a1)
    cfg = sp.MPConfig(max_iter=12, plateau_window=5, newton_max_iter=4)
    with pytest.warns(UserWarning, match="geometry untrusted"):
        sp.mp_solve(sh, example_w, grid128, cfg, geometry128)


@pytest.mark.xfail(strict=False, reason=(
    "the interior-dip half of the semipositone signature: min u_a < 0 should "
    "appear once a crosses the threshold, but for this nonlinearity the "
    "mountain-pass solution inflates with a and keeps f_a(u) > 0 on the "
    "support at every reachable shift, so positivity never breaks (scanned "
    "to a ~ 3e8 x a1; see the notes ledger)"))
def test_large_shift_dips_negative(example_spec, example_w, grid128, geometry128):
    import warnings
    sh = sp.ShiftedNonlinearity(example_spec, 50.0 * geometry128.a1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = sp.mp_solve(sh, example_w, grid128, None, geometry128)
    assert sol.converged and np.min(sol.u.values) < 0.0


def test_cerami_diagnostics_paths():
    hist = [(10.0 + 0.01 * k, 1.0 / (k + 1.0)) for k in range(40)]
    d = sp.cerami_diagnostics(hist)
    assert d["norms_bounded"]
    assert d["weighted_gradient_decayed"]
    runaway = [(10.0 * 2.0**k, 1.0) for k in range(12)]
    d2 = sp.cerami_diagnostics(runaway)
    assert not d2["norms_bounded"]
    with pytest.raises(ValueError):
        sp.cerami_diagnostics(hist[:5])
