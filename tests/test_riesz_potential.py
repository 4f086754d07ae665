import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import semipositone as sp
from semipositone.radial_core import RadialField
from semipositone.riesz_potential import ring_kernel_pairs

from conftest import oracle_ring_kernel_pairs, ring_kernel_hyp2f1, weak_lp_profile


def test_riesz_constants_closed_forms():
    for dim in (5, 6, 8):
        om = sp.sphere_area(dim)
        c = sp.riesz_constants(dim)
        assert abs(c.r4 - 1.0 / (2.0 * (dim - 2) * (dim - 4) * om)) < 1e-15 * c.r4
        assert abs(c.r2 - 1.0 / ((dim - 2) * om)) < 1e-15 * c.r2


def test_newton_identity_small():
    # kappa_{N-2}(r,s) = omega_N max(r,s)^{2-N}: spherical averages of the
    # Newton kernel see a ring as a point at the larger radius
    for dim in (5, 6):
        g = sp.make_grid(dim, 96, 3.0)
        km = sp.ring_kernel(g, dim - 2)
        rr = np.maximum.outer(g.r, g.r)
        with np.errstate(divide="ignore"):
            exact = g.sphere_area * rr ** (2.0 - dim)
        off = ~np.eye(g.n, dtype=bool) & (rr > 0)
        rel = np.abs(km[off] - exact[off]) / exact[off]
        assert np.max(rel) < 1e-6


def test_kernel_symmetry(grid128):
    km = sp.ring_kernel(grid128, 1.0)
    finite = np.isfinite(km)
    assert np.array_equal(finite, finite.T)
    assert np.allclose(km[finite], km.T[finite], rtol=1e-12)


def test_zero_radius_row_exact():
    # kappa_alpha(0, s) = omega_N s^{-alpha}: every point of the ring is at
    # distance s from the origin
    g = sp.make_grid(5, 64, 4.0)
    km = sp.ring_kernel(g, 1.0)
    s = g.r[1:]
    assert np.allclose(km[0, 1:], g.sphere_area / s, rtol=1e-12)
    assert np.allclose(km[1:, 0], g.sphere_area / s, rtol=1e-12)


def test_diagonal_against_direct_quadrature():
    # independent 1-d oracle for the ring average: the diagonal r = s, and
    # off-diagonal pairs at 2N, the (g2) order delta = 2**, and at 2.3, where
    # the hypergeometric series does not terminate (there the kernel is the
    # hyp2f1 oracle, which ring_kernel_pairs does not evaluate)
    def oracle(dim, alpha, r, s):
        def integrand(theta):
            d2 = (r - s) ** 2 + 4.0 * r * s * np.sin(0.5 * theta) ** 2  # |r e1 - s w|^2
            return np.sin(theta) ** (dim - 2) * d2 ** (-alpha / 2.0)

        return sp.sphere_area(dim - 1) * quad(integrand, 0.0, np.pi, epsabs=0,
                                              epsrel=1e-13, limit=200)[0]

    cases = [(5, 1.0, 0.7, 0.7)]
    cases += [(dim, alpha, r, s) for dim in (5, 7, 9) for alpha in (2.3, 2.0 * dim)
              for r, s in ((0.7, 0.3), (1.5, 3.0), (2.0, 1.8))]
    for dim, alpha, r, s in cases:
        kernel = ring_kernel_hyp2f1 if alpha == 2.3 else ring_kernel_pairs
        val = kernel(dim, np.array([r]), np.array([s]), alpha)[0]
        expected = oracle(dim, alpha, r, s)
        assert abs(val - expected) < 1e-12 * expected, (dim, alpha, r, s)


def _mp_ring_kernel(dim, alpha, r, s, closed=False):
    """kappa_alpha at float radii in 40-digit mpmath: omega_N R^{-alpha} times
    2F1(alpha/2, 1 + (alpha-N)/2; N/2; z), or with closed=True the Euler form
    (1 + z)(1 - z)^{-N-1} of alpha = 2N, z = rho^2 / R^2."""
    import mpmath

    out = []
    with mpmath.workdps(40):
        half = mpmath.mpf(dim) / 2
        om = 2 * mpmath.pi ** half / mpmath.gamma(half)
        for a, b in zip(r, s):
            big, small = mpmath.mpf(float(max(a, b))), mpmath.mpf(float(min(a, b)))
            z = (small / big) ** 2
            f = ((1 + z) * (1 - z) ** (-dim - 1) if closed else
                 mpmath.hyp2f1(mpmath.mpf(alpha) / 2, 1 + mpmath.mpf(alpha - dim) / 2, half, z))
            out.append(float(om * big ** -alpha * f))
    return np.array(out)


def test_order_2n_is_algebraic():
    # at alpha = 2N Euler's transformation (DLMF 15.8.1) closes the series:
    # kappa_{2N} = omega_N R^{-2N} (1 + z) (1 - z)^{-N-1}, z = rho^2 / R^2,
    # here in 40-digit mpmath (in floats 1 - z loses digits near the diagonal)
    # rho / R from 0 to 0.999, packed towards the diagonal, over six decades of R
    big = np.geomspace(0.01, 100.0, 200)
    small = np.random.default_rng(0).permutation(1.0 - np.geomspace(1e-3, 1.0, 200)) * big
    for dim in range(5, 10):
        exact = _mp_ring_kernel(dim, 2 * dim, big, small, closed=True)
        for r, s in ((big, small), (small, big)):
            np.testing.assert_allclose(ring_kernel_pairs(dim, r, s, 2.0 * dim), exact,
                                       rtol=1e-13, atol=0)


@pytest.mark.parametrize("dim", range(5, 10))
def test_terminating_orders_match_hyp2f1(dim):
    # the two (g2) orders against the series: N - 4 (b = -1) against scipy's
    # hyp2f1, 2N (c - b = -1 after Euler's transformation) against 40-digit
    # mpmath, for rho / R from 0 to 0.999 and on the diagonal
    import scipy.special

    big = np.geomspace(0.01, 100.0, 200)
    ratio = np.concatenate((1.0 - np.geomspace(1e-3, 1.0, 199), [1.0]))
    small = ratio * big
    z = (small / big) ** 2
    alpha = dim - 4
    want = sp.sphere_area(dim) * big ** (-float(alpha)) * scipy.special.hyp2f1(
        0.5 * alpha, 1.0 + 0.5 * (alpha - dim), 0.5 * dim, z)
    want_2n = _mp_ring_kernel(dim, 2 * dim, big[:-1], small[:-1])
    for r, s in ((big, small), (small, big)):
        got = ring_kernel_pairs(dim, r, s, alpha)
        np.testing.assert_allclose(got[:-1], want[:-1], rtol=1e-13, atol=0)
        assert got[-1] == pytest.approx(want[-1], rel=1e-13)  # Gauss's sum
        got = ring_kernel_pairs(dim, r, s, 2 * dim)
        np.testing.assert_allclose(got[:-1], want_2n, rtol=1e-13, atol=0)
        assert got[-1] == np.inf


@pytest.mark.parametrize("dim", range(5, 10))
def test_ring_kernel_pairs_pointwise_against_mpmath(dim):
    # both orders against the 40-digit series, R over four decades and rho / R
    # from 0 to 1 - 1e-8, packed toward the diagonal, in both argument orders:
    # r^2 - s^2 formed as (r - s)(r + s) keeps kappa_{2N} to a few ulp there
    big = np.geomspace(0.01, 100.0, 120)
    ratio = np.concatenate(([0.0], 1.0 - np.geomspace(1e-8, 1.0, 119)))
    small = np.random.default_rng(dim).permutation(ratio) * big
    for alpha, rtol in ((dim - 4, 2e-15), (2 * dim, 1e-14)):
        want = _mp_ring_kernel(dim, alpha, big, small)
        for r, s in ((big, small), (small, big)):
            np.testing.assert_allclose(ring_kernel_pairs(dim, r, s, alpha), want,
                                       rtol=rtol, atol=0)


def test_diagonal_infinite_when_alpha_large():
    # the ring self-interaction diverges once alpha >= N - 1: at the
    # non-terminating 4.5 by the hyp2f1 oracle, at the terminating 2N by
    # ring_kernel_pairs
    v = ring_kernel_hyp2f1(5, np.array([0.8]), np.array([0.8]), 4.5)[0]
    assert np.isinf(v)
    assert np.isinf(ring_kernel_pairs(5, np.array([0.8]), np.array([0.8]), 10.0)[0])


@pytest.mark.parametrize("alpha", [2.3, 3.0, 4.5, 9.0, 10.5, 12.0])
def test_ring_kernel_pairs_rejects_nonterminating_order(alpha):
    # only the two (g2) orders N - 4 and 2N have a closed form here; N - 2 and
    # 2N + 2 (3 and 12 at N = 5) terminate as series but are rejected too
    with pytest.raises(ValueError, match="N-4=1 and 2N=10 only"):
        ring_kernel_pairs(5, np.array([0.3]), np.array([0.7]), alpha)


@pytest.mark.parametrize("order", ["N-4", "2N"])
@pytest.mark.parametrize("dim", [5, 7])
def test_ring_kernel_pairs_broadcasts_its_radii(dim, order):
    # r and s broadcast in the arithmetic itself: each layout gives the
    # broadcast shape and the bits of the form that broadcasts them first,
    # r = s = 0 (in the (k, 1) x (P,) layouts) included
    alpha = dim - 4.0 if order == "N-4" else 2.0 * dim
    rng = np.random.default_rng(dim)
    col = np.append(0.0, rng.uniform(0.1, 2.0, 2))[:, None]
    row = np.append(0.0, rng.uniform(0.1, 2.0, 4))
    full = rng.uniform(0.1, 2.0, (2, 3, 5))
    cases = [(0.7, 1.3), (0.0, 0.4), (np.array(0.7), np.array(1.3)), (np.array(0.7), row),
             (col, row), (row, col), (full[0], full[1]), (full[0], full[0])]
    for r, s in cases:
        got = ring_kernel_pairs(dim, r, s, alpha)
        want = oracle_ring_kernel_pairs(dim, r, s, alpha)
        assert np.shape(got) == np.broadcast_shapes(np.shape(r), np.shape(s))
        assert np.asarray(got).dtype == np.float64
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert np.isinf(ring_kernel_pairs(dim, 0.0, 0.0, alpha))
    assert np.isinf(ring_kernel_pairs(dim, col, row, alpha)[0, 0])
    with pytest.raises(ValueError):
        ring_kernel_pairs(dim, np.ones(3), np.ones(4), alpha)


@given(c=st.floats(min_value=0.1, max_value=10.0),
       r=st.floats(min_value=0.05, max_value=5.0),
       s=st.floats(min_value=0.05, max_value=5.0))
@settings(max_examples=40, deadline=None)
def test_kernel_scaling_law(c, r, s):
    # kappa_alpha(cr, cs) = c^{-alpha} kappa_alpha(r, s)
    alpha = 1.0
    a = ring_kernel_pairs(5, np.array([c * r]), np.array([c * s]), alpha)[0]
    b = ring_kernel_pairs(5, np.array([r]), np.array([s]), alpha)[0]
    if np.isfinite(a) and np.isfinite(b):
        assert abs(a - c ** (-alpha) * b) < 1e-8 * max(abs(b), 1.0)


@pytest.mark.parametrize("dim", [5, 6, 7, 9])
def test_closed_forms_against_quadrature(dim):
    # ring_kernel is the closed form built from powers of r; at N - 4 it
    # matches ring_kernel_pairs' own closed form, at N - 2 the hyp2f1 oracle
    # (the Gauss sum on the diagonal, omega_N max^{-alpha} on the r = 0 row
    # and column)
    g = sp.make_grid(dim, 40, 6.0)
    rr, ss = np.meshgrid(g.r, g.r, indexing="ij")
    for alpha in (dim - 4, dim - 2):
        km = sp.ring_kernel(g, alpha)
        assert km[0, 0] == 0.0
        kernel = ring_kernel_pairs if alpha == dim - 4 else ring_kernel_hyp2f1
        oracle = kernel(dim, rr, ss, alpha)
        off = ~np.eye(g.n, dtype=bool)
        diag = np.arange(1, g.n)
        np.testing.assert_allclose(km[off], oracle[off], rtol=1e-12, atol=0)
        np.testing.assert_allclose(km[diag, diag], oracle[diag, diag],
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(km[0, 1:], g.sphere_area * g.r[1:] ** (-alpha),
                                   rtol=1e-12, atol=0)
    for bad in (dim - 3, dim - 1):
        with pytest.raises(ValueError, match="closed forms"):
            sp.ring_kernel(g, bad)
        with pytest.raises(ValueError, match="closed forms"):
            sp.apply_potential(bad, RadialField(g, np.ones(g.n)))


@given(dim=st.integers(min_value=5, max_value=9),
       n=st.integers(min_value=16, max_value=300),
       r_max=st.floats(min_value=1.0, max_value=40.0),
       lo=st.floats(min_value=0.0, max_value=1.0),
       hi=st.floats(min_value=0.0, max_value=1.0),
       order=st.sampled_from([4, 2]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(dim=5, n=64, r_max=20.0, lo=0.0, hi=1.0, order=4, seed=0)
@example(dim=9, n=17, r_max=3.0, lo=0.0, hi=0.1, order=2, seed=1)
@example(dim=7, n=200, r_max=12.0, lo=0.9, hi=1.0, order=4, seed=2)
@settings(max_examples=60, deadline=None)
def test_apply_potential_matches_dense(dim, n, r_max, lo, hi, order, seed):
    # the O(n) prefix/suffix-sum apply against the dense closed-form product,
    # for nonnegative sources on [r_lo, r_hi]; lo = 0 puts mass at r = 0 and
    # hi = 1 carries the support out to r_max
    g = sp.make_grid(dim, n, r_max)
    i0, i1 = sorted((round(lo * (n - 1)), round(hi * (n - 1))))
    vals = np.zeros(n)
    vals[i0:i1 + 1] = np.random.default_rng(seed).uniform(0.1, 1.0, i1 + 1 - i0)
    h = RadialField(g, vals)
    alpha = dim - order
    dense = sp.ring_kernel(g, alpha) @ (vals * g.r ** (dim - 1) * g.w)
    fast = sp.apply_potential(alpha, h).values
    np.testing.assert_allclose(fast, dense, rtol=1e-13, atol=0)


def test_ring_kernel_rejects_bad_alpha(grid128):
    with pytest.raises(ValueError):
        sp.ring_kernel(grid128, 0.0)
    with pytest.raises(ValueError):
        sp.ring_kernel(grid128, 5.0)


def test_riesz_solve_far_field_newton(grid256):
    # beyond the support of h, -Delta u = R2 I_{N-2} h must follow the exact
    # Newton law R2 ||h||_1 r^{2-N} because kappa_{N-2} is exact there
    g = grid256
    h = RadialField(g, np.where(g.r < 1.0, (1.0 - np.minimum(g.r, 1.0) ** 2) ** 4, 0.0))
    mass = sp.integrate(h)
    c = sp.riesz_constants(g.dim)
    neg_lap = c.r2 * sp.apply_potential(g.dim - 2, h).values
    far = g.r >= 2.0
    expected = c.r2 * mass * g.r[far] ** (2.0 - g.dim)
    assert np.max(np.abs(neg_lap[far] - expected) / expected) < 1e-10


def test_riesz_solve_rejects_nonfinite(grid128):
    bad = RadialField(grid128, np.zeros(grid128.n))
    bad.values[3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        sp.riesz_solve(bad)


def test_weak_lp_profile_wrong_alpha():
    with pytest.raises(ValueError):
        weak_lp_profile(5, 2.0)


@pytest.mark.parametrize("n", [256, 512, 4097])
@pytest.mark.parametrize("dim", [5, 6, 7, 8, 9])
def test_potential_off_support_is_its_closed_form(dim, n):
    # off the support of a signed source h on [1/2, 1], the order N-4 kernel
    # has R = r (beyond) or R = s (inside), so u = R4 I_{N-4} h is exactly
    # r^{4-N} (A + B r^{-2}) beyond the last nonzero of h and C0 - C2 r^2
    # before the first, with the four moments as the trapezoid sums of the
    # potential itself: A = R4 w int h s^{N-1}, B = -c R4 w int h s^{N+1},
    # C0 = R4 w int h s^3, C2 = c R4 w int h s, c = (N-4)/N
    g = sp.make_grid(dim, n, 20.0)
    on = (g.r >= 0.5) & (g.r <= 1.0)
    h = RadialField(g, np.where(on, np.cos(3.0 * np.pi * g.r) - 0.2, 0.0))
    u = sp.riesz_solve(h).values
    r4, c = sp.riesz_constants(dim).r4, (dim - 4.0) / dim

    def moment(k):
        return r4 * g.sphere_area * np.sum(h.values * g.r ** k * g.w)

    src = np.flatnonzero(h.values)
    assert np.any(h.values > 0) and np.any(h.values < 0)
    beyond, core = g.r > g.r[src[-1]], g.r < g.r[src[0]]
    rb, rc = g.r[beyond], g.r[core]
    want = rb ** (4.0 - dim) * (moment(dim - 1) - c * moment(dim + 1) * rb ** -2.0)
    assert np.max(np.abs(u[beyond] - want)) <= 1e-13 * np.max(np.abs(u[beyond]))
    want = moment(3) - c * moment(1) * rc * rc
    assert np.max(np.abs(u[core] - want)) <= 1e-13 * np.max(np.abs(u[core]))
