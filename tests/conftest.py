"""Shared fixtures. The expensive objects (n=512 kernel, geometry constants,
positone solve) are session-scoped so the whole suite pays for them once.
`random_trial_fields` and `rim_levels` are plain helpers, imported by the
tests that probe with random directions; `weak_pairing`, `energy_report`,
`full_grid_n_a`, `full_grid_ratio_sup` and `fixed_point_map` are oracles
for the energy layer, `support_of` builds the support the layer
functions read, and `weak_lp_profile`, `c_r_constant`, `check_prop33` and
`prop33_negative_excess` check the paper's constants and its two-point
bound, which no solve reads; all imported the same way."""

from dataclasses import dataclass

import numpy as np
import pytest

import semipositone as sp


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
        nh2 = sp.h2_norm(u)
        if nh2 == 0:
            continue
        scaled = sp.RadialField(grid, u.values * (geometry.rho / nh2))
        levels.append(sp.i_a(scaled, shifted, geometry.support))
    return np.asarray(levels)


def full_grid_n_a(u, shifted, weight):
    """N_a(u) = int g F_a(u) with F_a on every grid node, g = 0 included."""
    g = sp.sample_on_grid(weight, u.grid).values
    return sp.integrate(sp.RadialField(u.grid, g * sp.eval_Fa(shifted, u.values)))


def full_grid_ratio_sup(weight, grid, p, tol=1e-12, max_iter=500):
    """sup int g|u|^p / ||Delta u||^p and its maximiser by the power iteration
    v <- T(h) / (int h T(h))^{1/2}, h = g|v|^{p-2} v, with T = riesz_solve
    applied on the whole grid at every step."""
    g = sp.sample_on_grid(weight, grid).values
    mass = g * grid.r_pow * grid.w * grid.sphere_area
    v = np.ones(grid.n)
    lam_prev = np.inf
    for _ in range(max_iter):
        dual = np.abs(v) ** (p - 2.0) * v
        t = sp.riesz_solve(sp.RadialField(grid, g * dual)).values
        norm_d = np.sqrt(np.sum(mass * dual * t))
        if norm_d == 0.0:
            return 0.0, sp.zeros(grid)
        v = t / norm_d
        lam = float(np.sum(mass * np.abs(v) ** p))
        if abs(lam - lam_prev) <= tol * lam:
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
    return sp.riesz_solve(sp.RadialField(u.grid, sup.g * sp.eval_fa(shifted, u.values)))


def energy_report(u, shifted, sup):
    nh2 = sp.h2_norm(u)
    nl = sp.n_a(u, shifted, sup)
    res = sp.gradient_map(u, shifted, sup)
    return EnergyReport(value=0.5 * nh2 ** 2 - nl, norm_h2=nh2,
                        nonlinear_term=nl, grad_residual=res)


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
def positone512(example_spec, example_w, grid512, geometry512):
    shifted = sp.ShiftedNonlinearity(example_spec, 0.0)
    return sp.mp_solve(shifted, example_w, grid512, None, geometry512)
