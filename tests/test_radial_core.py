import numpy as np
import pytest
from scipy.integrate import quad

import semipositone as sp
from semipositone.radial_core import RadialField, gauss_legendre

from conftest import h2_norm


def test_sphere_area_closed_forms():
    # omega_5 = 8 pi^2 / 3, omega_6 = pi^3, omega_4 = 2 pi^2
    assert abs(sp.sphere_area(5) - 8 * np.pi**2 / 3) < 1e-14 * sp.sphere_area(5)
    assert abs(sp.sphere_area(6) - np.pi**3) < 1e-14 * sp.sphere_area(6)
    assert abs(sp.sphere_area(4) - 2 * np.pi**2) < 1e-14 * sp.sphere_area(4)


def test_make_grid_rejects_low_dim():
    with pytest.raises(ValueError, match="N >= 5"):
        sp.make_grid(4, 128, 10.0)


def test_make_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        sp.make_grid(5, 8, 10.0)
    with pytest.raises(ValueError):
        sp.make_grid(5, 128, 0.0)


def test_grid_key_distinguishes_grids():
    a = sp.make_grid(5, 128, 10.0)
    b = sp.make_grid(5, 128, 20.0)
    c = sp.make_grid(6, 128, 10.0)
    assert len({a.key(), b.key(), c.key()}) == 3
    assert a.key() == sp.make_grid(5, 128, 10.0).key()


def test_laplacian_exact_on_quadratics():
    # Delta(r^2) = 2N everywhere; the boundary stencils are calibrated to be
    # exact on quadratics, so this probes all three stencil families at once.
    g = sp.make_grid(5, 64, 10.0)
    u = RadialField(g, 3.0 + 2.0 * g.r**2)
    lap = sp.laplacian(u).values
    assert np.max(np.abs(lap - 2.0 * 2 * g.dim)) < 1e-9


def test_laplacian_second_order_on_cos():
    def worst(n):
        g = sp.make_grid(5, n, 10.0)
        u = RadialField(g, np.cos(g.r))
        exact = -np.cos(g.r) - (g.dim - 1) * np.sin(g.r) / np.where(g.r > 0, g.r, 1.0)
        exact[0] = -g.dim
        return np.max(np.abs(sp.laplacian(u).values - exact))

    ratio = worst(200) / worst(400)
    assert 3.5 < ratio < 4.5


def test_integrate_gaussian():
    # int_{R^5} exp(-|x|^2) = pi^{5/2}; trapezoid superconverges here because
    # every derivative of r^4 exp(-r^2) vanishes at both ends of [0, r_max]
    g = sp.make_grid(5, 128, 20.0)
    val = sp.integrate(RadialField(g, np.exp(-g.r**2)))
    assert abs(val - np.pi**2.5) < 1e-12 * np.pi**2.5


def test_h2_norm_against_quadrature_oracle():
    g = sp.make_grid(5, 512, 20.0)
    u = RadialField(g, np.exp(-g.r**2))
    oracle2 = quad(lambda r: (4 * r * r - 10) ** 2 * np.exp(-2 * r * r) * r**4,
                   0, 20, epsabs=1e-13)[0] * g.sphere_area
    assert abs(h2_norm(u) - np.sqrt(oracle2)) < 2e-3 * np.sqrt(oracle2)


def test_h2_inner_symmetry_and_bilinearity():
    g = sp.make_grid(5, 64, 10.0)
    rng = np.random.default_rng(3)
    u = RadialField(g, rng.standard_normal(g.n))
    v = RadialField(g, rng.standard_normal(g.n))
    w = RadialField(g, rng.standard_normal(g.n))
    assert abs(sp.h2_inner(u, v) - sp.h2_inner(v, u)) < 1e-9 * abs(sp.h2_inner(u, v))
    lhs = sp.h2_inner(RadialField(g, 2.0 * u.values + w.values), v)
    rhs = 2.0 * sp.h2_inner(u, v) + sp.h2_inner(w, v)
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_field_grid_mismatch():
    g1 = sp.make_grid(5, 32, 5.0)
    with pytest.raises(ValueError):
        RadialField(g1, np.zeros(31))
    with pytest.raises(ValueError, match="source"):
        RadialField(g1, np.zeros(32), np.zeros(31))


def _legendre_root_40_digits(n, x0):
    # Newton on P_n by its recurrence in 40-digit arithmetic from a float
    # guess; returns the root and its weight 2 / ((1 - x^2) P_n'(x)^2)
    import mpmath

    with mpmath.workdps(40):
        x = mpmath.mpf(float(x0))
        for _ in range(8):
            p, q = x, mpmath.mpf(1)
            for j in range(2, n + 1):
                p, q = ((2 * j - 1) * x * p - (j - 1) * q) / j, p
            dp = n * (q - x * p) / (1 - x * x)
            x -= p / dp
        return x, 2 / ((1 - x * x) * dp * dp)


def test_gauss_legendre_rule_against_40_digits():
    # the ends, where eigenvector weights lose accuracy (leggauss(160) is off
    # by 1.5e-11 there), interior nodes and the middle of the rule on [-1, 1]
    import mpmath

    x, w = gauss_legendre(-1.0, 1.0)
    assert x.shape == w.shape == (160,) and np.all(np.diff(x) > 0)
    for i in (0, 1, 2, 20, 57, 79, 80, 121, 158, 159):
        root, weight = _legendre_root_40_digits(160, x[i])
        with mpmath.workdps(40):
            assert abs(float(mpmath.mpf(float(x[i])) - root)) <= 2e-16
            assert abs(float((mpmath.mpf(float(w[i])) - weight) / weight)) <= 1e-14


def test_gauss_legendre_rule_exact_symmetric_and_as_leggauss():
    x, w = gauss_legendre(-1.0, 1.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(np.sum(w) - 2.0) <= 1e-15
    # exact on x^{2k}, degree 2k <= 318 < 320, up to the rounding of the nodes:
    # the correctly rounded rule itself reads 4.0e-15 at k = 159
    for k in range(160):
        assert abs(np.sum(w * x ** (2 * k)) * (k + 0.5) - 1.0) <= 5e-15, k
    # numpy's eigenvector rule: nodes to an ulp, weights within its own
    # 1.5e-11 error at the ends
    lx, lw = np.polynomial.legendre.leggauss(160)
    assert np.max(np.abs(x - lx)) <= 2e-16
    assert np.max(np.abs(w / lw - 1.0)) <= 2e-11
