import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import semipositone as sp
from semipositone.radial_core import RadialField
from semipositone.weight import g2_left_side, support_mass_delta

from conftest import (annulus_lp, bits, g2_left_side_direct, oracle_check_g1, oracle_g2_left_side,
                      zero_weight)

# a 3-piece table weight: g = 1, 1.4, 1.4, 0.3 at r = 0.5, 0.7, 0.85, 1.3
TABLE_R, TABLE_G = [0.5, 0.7, 0.85, 1.3], [1.0, 1.4, 1.4, 0.3]
# the same table ending at r = 1, and a table on [2, 3], which the (g2)
# probes 1.05, 1.415 and 1.908 see from inside r_in, clear of its near band
UNIT_TABLE = ([0.5, 0.7, 0.85, 1.0], TABLE_G)
INNER_TABLE = ([2.0, 2.3, 2.7, 3.0], [0.6, 1.5, 1.1, 0.4])


def test_example_norms_closed_forms(example_w):
    # ||g||_1 = omega_5 int_{1/2}^1 r^{-1} r^4 dr = (8 pi^2/3)(15/64) = 5 pi^2/8
    assert example_w.norm(1.0) == pytest.approx(5.0 * np.pi**2 / 8.0, rel=1e-12)
    assert example_w.norm(np.inf) == pytest.approx(2.0, rel=1e-12)
    # N/4 norm drives the eigenvalue bound; closed annulus formula
    p = 5.0 / 4.0
    closed = (sp.sphere_area(5) * (1.0 - 0.5 ** (5 - p)) / (5 - p)) ** (1.0 / p)
    assert example_w.norm(p) == pytest.approx(closed, rel=1e-12)


def test_check_g1_quadrature_agreement():
    # the Gauss-rule norms, as `norm` and as (g1) reports them, lie within
    # 4 eps of the annulus closed forms at the four (g1) exponents, over
    # 120 annuli: dims 5-9, four singularities, three inner and two outer radii
    eps = np.finfo(float).eps
    for dim, d, r_in, r_out in itertools.product(range(5, 10), (0.5, 1.0, 2.0, 3.7),
                                                 (0.5, 0.6, 0.75), (0.9, 1.0)):
        w = sp.example_weight(d=d, r_in=r_in, r_out=r_out, dim=dim)
        rep = sp.check_g1(w)
        assert rep.passed
        two_ss = sp.critical_exponent(dim)
        for p in (1.0, dim / 4.0, two_ss / (two_ss - 1.0), np.inf):
            closed = annulus_lp(dim, d, r_in, r_out, p)
            assert abs(w.norm(p) - closed) <= 4 * eps * closed, (dim, d, r_in, r_out, p)
            assert abs(rep.details["norms"][p] - closed) <= 4 * eps * closed


# the nodes of the 160-point rule on [0.5, 1], the support with no knots
_NODES = sp.WeightSpec(profile=np.zeros_like, dim=5, r_in=0.5, r_out=1.0).rule[0].ravel()


@pytest.mark.parametrize("peak,knots", [
    pytest.param(0.5, (), id="r_in"),
    pytest.param(1.0, (), id="r_out"),
    pytest.param(0.6180339887, (0.6180339887,), id="knot"),
    pytest.param(_NODES[0], (), id="node0"),
    pytest.param(_NODES[79], (), id="node79"),
    pytest.param(_NODES[159], (), id="node159")])
def test_sup_norm_samples_every_point(peak, knots):
    # the L^inf norm reads g at the rule's nodes, the support edges and the
    # knots: a profile that peaks at one of these points alone has its peak
    # value as the norm
    spec = sp.WeightSpec(profile=lambda r: 1.0 / (1.0 + 1e6 * np.abs(np.asarray(r) - peak)),
                         dim=5, r_in=0.5, r_out=1.0, knots=knots)
    assert spec.norm(np.inf) == 1.0
    assert sp.check_g1(spec).details["norms"][np.inf] == 1.0


@given(dim=st.integers(5, 9), d=st.floats(0.0, 3.0, exclude_min=True),
       r_in=st.floats(0.5, 1.0), r_out=st.floats(0.5, 1.0))
@settings(max_examples=60, deadline=None)
def test_sup_norm_is_exact_on_the_annulus(dim, d, r_in, r_out):
    # r^{-d} peaks at r_in, which the L^inf sample holds: g(r_in), bit for
    # bit. The closed form r_in^{-d} is Python's float power, which can round
    # one ulp away from numpy's array power in the profile (d = 2 at
    # r_in = 0.7960029953828607 does)
    assume(r_in < r_out)
    spec = sp.example_weight(d=d, r_in=r_in, r_out=r_out, dim=dim)
    sup = sp.check_g1(spec).details["norms"][np.inf]
    assert sup == spec.profile(r_in) == spec.norm(np.inf)
    closed = r_in ** -d
    assert abs(sup - closed) <= np.spacing(closed)


@given(dim=st.integers(5, 9), r0=st.floats(0.0, 2.0),
       table=st.lists(st.tuples(st.floats(1e-3, 1.0), st.floats(0.0, 1e6, allow_subnormal=False)),
                      min_size=2, max_size=12))
@settings(max_examples=60, deadline=None)
def test_sup_norm_is_exact_on_tables(dim, r0, table):
    # a piecewise-linear table peaks at an end or a knot, which the L^inf
    # sample holds: max(g), bit for bit
    steps, g = np.array(table).T
    spec = sp.table_weight(r0 + np.cumsum(steps), g, dim=dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an all-zero table is degenerate
        assert sp.check_g1(spec).details["norms"][np.inf] == np.max(g)


@pytest.mark.parametrize("dim", [5, 7])
def test_sup_norm_reads_the_knots(dim):
    # a table peaks at a knot, here 0.5 + 0.8/3, which L^inf reads as one of
    # its sample points, so the norm is the knot's value exactly
    spec = sp.table_weight(np.linspace(0.5, 1.3, 4), [1.0, 3.0, 2.0, 0.5], dim=dim)
    assert sp.check_g1(spec).details["norms"][np.inf] == 3.0


@pytest.mark.parametrize("dim", [5, 7])
@pytest.mark.parametrize("table", [
    (TABLE_R, TABLE_G),
    (np.linspace(0.0, 19.0, 200), 1.0 / (1.0 + np.linspace(0.0, 19.0, 200) ** 2))])
def test_check_g1_on_tables_matches_per_call_rule(dim, table):
    # the finite norms read the spec's one knot-split rule; the report is the
    # one that builds the rule afresh for each norm, bit for bit
    got = sp.check_g1(sp.table_weight(*table, dim=dim))
    want = oracle_check_g1(sp.table_weight(*table, dim=dim))
    assert got.passed == want.passed
    assert bits(got.details) == bits(want.details)


def test_check_g1_warns_on_zero_weight():
    with pytest.warns(UserWarning, match="degenerate"):
        rep = sp.check_g1(zero_weight())
    assert rep.details["warning"] == "degenerate weight"


def test_example_weight_rejects_bad_geometry():
    with pytest.raises(ValueError):
        sp.example_weight(r_in=0.4)
    with pytest.raises(ValueError):
        sp.example_weight(r_out=1.2)
    with pytest.raises(ValueError):
        sp.example_weight(d=0.0)
    with pytest.raises(ValueError):
        sp.example_weight(r_in=0.9, r_out=0.6)


def test_sample_on_grid_mass_identity(example_w):
    # partial-cell corrected sampling reproduces ||g||_1 exactly under the
    # grid trapezoid rule, even though the support edges fall inside cells
    for n in (97, 128, 256):
        g = sp.make_grid(5, n, 20.0)
        gf = sp.sample_on_grid(example_w, g)
        assert sp.integrate(gf) == pytest.approx(example_w.norm(1.0), rel=1e-13)


_ZERO_TO_19 = np.linspace(0.0, 19.0, 40)


@pytest.mark.parametrize("weight, n, r_max", [
    (sp.example_weight(), 16, 20.0), (sp.example_weight(), 16, 1000.0),
    (sp.example_weight(), 512, 1e4), (sp.example_weight(dim=7), 16, 1000.0),
    (sp.table_weight(_ZERO_TO_19, 1.0 / (1.0 + _ZERO_TO_19 ** 2)), 64, 20.0),
    (sp.table_weight([0.0, 0.5, 1.0], [1.0, 1.0, 1.0]), 16, 20.0)],
    ids=["example-n16", "example-n16-rmax1e3", "example-n512-rmax1e4", "dim7-n16-rmax1e3",
         "table-0-19-n64", "table-from-0-n16"])
def test_sample_on_grid_keeps_node_0_half_cell(weight, n, r_max):
    # node 0 has measure r^{N-1} w = 0, so the mass of g on its half cell
    # [0, h/2] goes to node 1: coarse grids and large r_max put part or all
    # of the support there, and the sampled g keeps ||g||_1 within 4 eps
    grid = sp.make_grid(weight.dim, n, r_max)
    assert weight.r_in < 0.5 * grid.h
    got = sp.integrate(sp.sample_on_grid(weight, grid))
    assert abs(got - weight.norm(1.0)) <= 4 * np.finfo(float).eps * weight.norm(1.0)


def test_weighted_moment_accuracy(example_w, grid512):
    # second moment against the closed annulus integral; cell-average
    # sampling is O(h^2) here
    g = grid512
    gf = sp.sample_on_grid(example_w, g)
    got = sp.integrate(RadialField(g, gf.values * g.r**2))
    closed = g.sphere_area * (1.0**6 - 0.5**6) / 6.0
    assert abs(got - closed) < 5e-3 * closed


def test_table_weight_roundtrip():
    r = np.linspace(0.0, 2.0, 101)
    vals = np.where((r >= 0.5) & (r <= 1.0), 1.3, 0.0)
    w = sp.table_weight(r, vals)
    assert w.profile(0.75) == pytest.approx(1.3)
    assert w.profile(1.5) == 0.0
    with pytest.raises(ValueError):
        sp.table_weight(r, vals[:-1])
    with pytest.raises(ValueError):
        sp.table_weight(r, -vals)


def test_table_weight_masses_exact():
    # g = 2r on [0.5, 0.7], 1.4 on [0.7, r_7], (1.4/r_7) r on [r_7, 1.3]:
    # each piece is c r^k, so every integral of g^p r^{N-1} has a closed
    # form. r_7 is a grid node; 0.5, 0.7 and 1.3 sit strictly inside cells.
    # Split at the knots, the cell masses are exact; one rule across a knot
    # is off by ~5e-7 here.
    g = sp.make_grid(5, 128, 20.0)
    r7 = float(g.r[7])
    knots = [0.5, 0.7, r7, 1.3]
    coef = [(2.0, 1), (1.4, 0), (1.4 / r7, 1)]
    w = sp.table_weight(knots, [2.0 * 0.5, 1.4, 1.4, 1.4 / r7 * 1.3])
    for k in (0.5, 0.7, 1.3):
        assert not np.any(np.isclose(k, g.r, rtol=0.0, atol=1e-3 * g.h))
        assert not np.any(np.isclose(k, g.r + 0.5 * g.h, rtol=0.0, atol=1e-3 * g.h))

    def exact(a, b, p):
        total = 0.0
        for (lo, hi), (c, k) in zip(zip(knots[:-1], knots[1:]), coef):
            lo, hi = max(lo, a), min(hi, b)
            if hi > lo:
                e = k * p + g.dim
                total += c ** p * (hi ** e - lo ** e) / e
        return total

    gf = sp.sample_on_grid(w, g)
    masses = gf.values * g.r ** (g.dim - 1) * g.w
    lo = np.clip(g.r - 0.5 * g.h, 0.0, None)
    hi = np.minimum(g.r + 0.5 * g.h, g.r_max)
    want = np.array([exact(a, b, 1.0) for a, b in zip(lo, hi)])
    assert np.count_nonzero(want) == 6
    np.testing.assert_allclose(masses, want, rtol=1e-13, atol=0.0)
    assert sp.integrate(gf) == pytest.approx(w.norm(1.0), rel=1e-13)
    p = g.dim / 4.0
    closed = (g.sphere_area * exact(0.5, 1.3, p)) ** (1.0 / p)
    assert w.norm(p) == pytest.approx(closed, rel=1e-13)


def test_table_weight_rejects_negative_radius():
    # a table from r = -0.5 would integrate r^{N-1} over [-0.5, 0]; r = 0 is
    # a legal first row
    with pytest.raises(ValueError, match="r=-0.5 < 0"):
        sp.table_weight([-0.5, 0.5, 1.0], [1.0, 1.0, 1.0])
    w = sp.table_weight([0.0, 0.5, 1.0], [1.0, 1.0, 1.0])
    assert w.r_in == 0.0 and w.norm(1.0) > 0


def test_table_weight_rejects_nonfinite():
    ones = [1.0, 1.0, 1.0]
    for r in ([0.5, np.nan, 1.0], [0.5, 0.75, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            sp.table_weight(r, ones)
    for g in ([1.0, np.inf, np.nan], [np.nan, 1.0, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            sp.table_weight([0.5, 0.75, 1.0], g)


def test_g2_exterior_paper_bound(example_w):
    # annulus with r_out < 1 so dist(A, B_1^c) > 0: the left side at every
    # exterior probe is bounded by dist^{(4-N)delta} * int_A g^delta
    w = sp.example_weight(r_out=0.9)
    delta = 1.0
    dist = 1.0 - 0.9
    bound = dist ** ((4 - 5) * delta) * support_mass_delta(w, delta)
    for x in (1.5, 3.0, 10.0, 100.0):
        val = g2_left_side(w, delta, x)
        assert val <= bound * (1.0 + 1e-9)


def test_g2_far_field_limit(example_w):
    # |x|^{(N-4)delta} I(x) -> int g^delta as |x| -> infinity
    for delta in (1.0, sp.critical_exponent(5)):
        mass = support_mass_delta(example_w, delta)
        val = g2_left_side(example_w, delta, 1e3)
        assert abs(val / mass - 1.0) < 1e-2


def test_g2_direct_quadrature_fallback_matches(example_w):
    # the closed-form ring kernel on the support's rule agrees with nested
    # adaptive quadrature in (s, angle) where the latter is trustworthy
    delta = 1.0
    for x in (1.5, 2.5):
        a = g2_left_side(example_w, delta, x)
        b = g2_left_side_direct(example_w, delta, x)
        assert abs(a - b) < 1e-6 * max(abs(a), abs(b))


def test_check_g2_exterior(example_w):
    rep = sp.check_g2(example_w, 1.0)
    assert rep.passed
    assert np.isfinite(rep.details["c_g"])


def test_check_g2_rejects_bad_delta(example_w):
    with pytest.raises(ValueError):
        sp.check_g2(example_w, 2.0)


@pytest.mark.parametrize("dim", [5, 7])
def test_g2_left_side_rejects_other_orders(dim):
    # the ring kernel exists at the two (g2) orders only: delta = (N-2)/(N-4),
    # alpha = N - 2, is refused, and check_g2 takes delta in {1, 2**} alone
    w = sp.example_weight(dim=dim)
    delta = (dim - 2.0) / (dim - 4.0)
    with pytest.raises(ValueError, match="N-4=%d and 2N=%d" % (dim - 4, 2 * dim)):
        g2_left_side(w, delta, np.array([1.5, 3.0]))
    with pytest.raises(ValueError, match="not in"):
        sp.check_g2(w, delta)


def test_check_g2_values_are_g2_left_side_at_its_probes(example_w):
    # the report's values are the (g2) left side at the reported probes, bit
    # for bit, and its C_g is their maximum
    for delta in (1.0, sp.critical_exponent(5)):
        rep = sp.check_g2(example_w, delta)
        x = rep.details["x_samples"]
        assert x.size > 0 and np.all(x >= 1.0)
        np.testing.assert_array_equal(rep.details["values"], g2_left_side(example_w, delta, x))
        assert rep.details["c_g"] == np.max(rep.details["values"])


def test_g2_interior_probe_divergent(example_w):
    # on the support, alpha = (N-4) * 2** = 10 >= N: self-interaction diverges
    v = g2_left_side(example_w, sp.critical_exponent(5), 0.75)
    assert np.isinf(v)


def test_g2_left_side_array_matches_scalar_calls(example_w):
    # one call over an array of probes (any shape) gives what one call per
    # probe gives, near-support probes, far probes inside r_in (the annulus's
    # last row, the [2, 3] table's first) and the +inf rule included
    inner = sp.table_weight(*INNER_TABLE)
    for w, x in ((example_w, np.array([[1.05, 3.0, 1e3], [0.75, 1.005, 1.5], [0.1, 0.3, 0.45]])),
                 (inner, np.array([[1.05, 1.415, 1.908], [1.995, 2.5, 3.5]]))):
        for delta in (1.0, sp.critical_exponent(5)):
            got = g2_left_side(w, delta, x)
            want = np.array([[g2_left_side(w, delta, v) for v in row] for row in x])
            assert got.shape == x.shape
            np.testing.assert_array_equal(got, want)
            assert all(isinstance(v, float) for v in want.ravel().tolist())
    # alpha = 10 >= N: +inf exactly where the probe meets the support
    got = g2_left_side(example_w, sp.critical_exponent(5), np.array([0.5, 0.75, 1.0, 1.005]))
    assert np.array_equal(np.isinf(got), [True, True, True, False])
    assert np.isfinite(g2_left_side(example_w, 1.0, np.array([0.5, 0.75, 1.0]))).all()


@pytest.mark.parametrize("dim", range(5, 10))
def test_g2_far_probes_match_the_dense_sum(dim, monkeypatch):
    # far probes take closed forms on the rule (two moments of g at delta = 1,
    # the rational kernel at 2**) and no `ring_kernel_pairs`; they give the
    # dense ring-kernel sum over the same rule within 8 ulps (measured 2.6)
    # on the annulus at the `check_g2` probes, the unit table from just past
    # its near band (which ends at 1.01) and the [2, 3] table from inside r_in
    eps = np.finfo(float).eps
    calls = []
    monkeypatch.setattr(sp.weight, "ring_kernel_pairs", lambda *a: calls.append(a))
    inner = np.array([1.05, 1.415, 1.908, 3.5, 40.0])
    for w, x in ((sp.example_weight(dim=dim), sp.weight._G2_PROBES),
                 (sp.table_weight(*UNIT_TABLE, dim=dim), np.geomspace(1.0101, 1e3, 24)),
                 (sp.table_weight(*INNER_TABLE, dim=dim), inner)):
        for delta in (1.0, sp.critical_exponent(dim)):
            got = g2_left_side(w, delta, x)
            want = oracle_g2_left_side(w, delta, x)
            assert np.all(np.abs(got - want) <= 8 * eps * want), (w.r_in, delta, got / want - 1)
    assert calls == []


def _mp_left_side(w, delta, x):
    """The (g2) left side at far probes x, summed over w's rule (its nodes,
    weights and g taken exact, omega the float `sphere_area`) in 40-digit
    mpmath with the kernel x^alpha kappa_alpha(x, s) in closed form."""
    import mpmath

    dim = w.dim
    s, jw, g, _ = (a.ravel() for a in w.rule)
    with mpmath.workdps(40):
        mf = mpmath.mpf
        nodes = [(mf(si), mf(ji) * mf(gi) ** mf(delta) * mf(si) ** (dim - 1))
                 for si, ji, gi in zip(s, jw, g)]
        out = []
        for v in map(mf, x):
            total = 0
            for si, mi in nodes:
                if delta == 1.0:
                    big, rho = max(v, si), min(v, si)
                    kern = (v / big) ** (dim - 4) * (1 - mf(dim - 4) / dim * (rho / big) ** 2)
                else:
                    kern = v ** (2 * dim) * (v * v + si * si) / abs(v * v - si * si) ** (dim + 1)
                total += mi * kern
            out.append(float(mf(sp.sphere_area(dim)) * total))
    return np.array(out)


@pytest.mark.parametrize("dim", range(5, 10))
def test_g2_far_forms_against_mpmath(dim):
    # against a 40-digit sum over the same rule the far closed forms lie
    # within 4 ulps (measured 2), and so does the dense sum they replace
    # (2), at a probe 2.01% of the width past the unit table's r_out, where
    # q = 1 - z^2 formed from the rounded z is 10-30 ulps off at dims 6-9,
    # and at the [2, 3] table's probes inside r_in
    unit, inner = sp.table_weight(*UNIT_TABLE, dim=dim), sp.table_weight(*INNER_TABLE, dim=dim)
    cases = ((unit, np.array([1.0 + 0.0201 * 0.5, 1.05, 3.0, 1e3])),
             (inner, np.array([1.05, 1.415, 1.908, 3.5])),
             (sp.example_weight(dim=dim), np.array([1.05, 1e3])))
    for w, x in cases:
        for delta in (1.0, sp.critical_exponent(dim)):
            want = _mp_left_side(w, delta, x)
            for got in (g2_left_side(w, delta, x), oracle_g2_left_side(w, delta, x)):
                ulps = np.abs(got - want) / np.spacing(want)
                assert np.all(ulps <= 4), (w.r_in, delta, ulps)


@given(dim=st.integers(5, 9), r0=st.floats(0.0, 0.5),
       table=st.lists(st.tuples(st.floats(1e-3, 1.0 / 16.0),
                                st.one_of(st.just(0.0), st.floats(1e-3, 10.0))),
                      min_size=2, max_size=8))
@settings(max_examples=60, deadline=None)
def test_g2_exterior_left_side_rises_to_the_mass(dim, r0, table):
    # at delta = 1 the left side beyond the support is omega (M_0 - c M_2 / x^2)
    # with c M_2 > 0: it rises with x towards int g, so `check_g2`'s C_g is
    # its last probe's value and the far-field ratio is at most 1 (and within
    # c (r_out / 1e3)^2 of it). Tables inside the unit ball keep every probe
    # clear of the support
    steps, g = np.array(table).T
    assume(np.any(g > 0))
    w = sp.table_weight(r0 + np.cumsum(steps), g, dim=dim)
    rep = sp.check_g2(w, 1.0)
    values = rep.details["values"]
    assert rep.passed and np.all(values > 0)
    assert np.all(np.diff(values) >= 0)
    assert rep.details["c_g"] == values[-1] <= rep.details["limit_mass"]
    assert 1.0 - 1e-6 <= rep.details["far_field_ratio"] <= 1.0


def _table_moment(r, g, k):
    """int g(s) s^k ds of the piecewise-linear table (r, g), in rationals."""
    total = Fraction(0)
    for a, b, ga, gb in zip(*(map(Fraction, v) for v in (r[:-1], r[1:], g[:-1], g[1:]))):
        if b == a:
            continue
        slope = (gb - ga) / (b - a)
        total += (ga - slope * a) * (b ** (k + 1) - a ** (k + 1)) / (k + 1) \
            + slope * (b ** (k + 2) - a ** (k + 2)) / (k + 2)
    return total


def _table_g2(r, g, x):
    """The (g2) left side at dim 5, delta = 1, of the table (r, g) at the
    probes x, from rational moments of the table split at each probe.

    x kappa_1(x, s) = omega (1 - s^2 / (5 x^2)) for s < x and
    omega (x / s - x^3 / (5 s^3)) for s > x, so the left side is
    omega (M_4 - M_6 / (5 x^2)) over s < x plus omega (x M_3 - x^3 M_1 / 5)
    over s > x, with M_k = int g s^k ds."""
    r, g = [Fraction(v) for v in r], [Fraction(v) for v in g]
    out = []
    for v in x:
        v = Fraction(v)
        cut = min(max(v, r[0]), r[-1])
        i = max(j for j in range(len(r) - 1) if r[j] <= cut)
        g_cut = g[i] + (g[i + 1] - g[i]) * (cut - r[i]) / (r[i + 1] - r[i])
        lo, g_lo = r[:i + 1] + [cut], g[:i + 1] + [g_cut]
        hi, g_hi = [cut] + r[i + 1:], [g_cut] + g[i + 1:]
        inner = _table_moment(lo, g_lo, 4) - _table_moment(lo, g_lo, 6) / (5 * v ** 2)
        outer = v * _table_moment(hi, g_hi, 3) - v ** 3 * _table_moment(hi, g_hi, 1) / 5
        out.append(sp.sphere_area(5) * float(inner + outer))
    return np.array(out)


def test_g2_on_table_matches_closed_form():
    # at dim 5 and delta = 1 the left side of a piecewise-linear table is a
    # sum of polynomial pieces once the table is split at the probe
    # (`_table_g2`). Split at the knots and at the probe the rule is exact on
    # every piece, for probes inside the support too; one panel across the
    # kinks is ~5e-6 off
    table = sp.table_weight(TABLE_R, TABLE_G)
    x = np.array([0.6, 0.85, 1.05, 1.1, 1.2, 1.3, 1.5, 2.0, 10.0])
    np.testing.assert_allclose(g2_left_side(table, 1.0, x), _table_g2(TABLE_R, TABLE_G, x),
                               rtol=1e-13, atol=0.0)
    # the same table moved inside B_1, so that every (g2) probe is clear of
    # it, and the [0, 19] table, which holds 10 of the 24 probes
    r19 = np.linspace(0.0, 19.0, 40)
    for r, g in ((TABLE_R[:3] + [1.0], TABLE_G), (r19, 1.0 / (1.0 + r19 ** 2))):
        rep = sp.check_g2(sp.table_weight(r, g), 1.0)
        probes = rep.details["x_samples"]
        np.testing.assert_allclose(rep.details["values"], _table_g2(r, g, probes),
                                   rtol=1e-13, atol=0.0)
    r = TABLE_R[:3] + [1.0]
    rep = sp.check_g2(sp.table_weight(r, TABLE_G), 1.0)
    m4, m6 = _table_moment(r, TABLE_G, 4), _table_moment(r, TABLE_G, 6)
    ratio = float(1 - m6 / (5 * Fraction(rep.details["x_samples"][-1]) ** 2 * m4))
    assert rep.details["far_field_ratio"] == pytest.approx(ratio, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("dim", [5, 7])
def test_g2_margin_probes_match_one_dimensional_quadrature(dim):
    # delta = 2**: alpha = 2N and kappa_{2N} = omega (x^2 + s^2) / |x^2 - s^2|^{N+1}
    # is near-singular at s = x, within 1e-4 of the support at the closest
    # probes here. Against adaptive quadrature in s of its Euler form
    # omega R^{-2N} (1 + z)(1 - z)^{-N-1}, z = rho^2 / R^2, with the nearer
    # edge as a breakpoint (within 3.4e-13 of 40-digit mpmath here, and
    # g2_left_side within 4.4e-13)
    from scipy.integrate import quad

    w = sp.example_weight(dim=dim)
    delta = sp.critical_exponent(dim)
    om = sp.sphere_area(dim)

    def integrand(s, x):
        z = (min(x, s) / max(x, s)) ** 2
        kappa = om * max(x, s) ** (-2.0 * dim) * (1.0 + z) * (1.0 - z) ** (-dim - 1)
        return w.profile(s) ** delta * s ** (dim - 1) * kappa

    for gap in np.geomspace(1e-4, 1e-2, 5):
        for x, edge in ((w.r_out + gap, w.r_out), (w.r_in - gap, w.r_in)):
            want = x ** (2 * dim) * quad(integrand, w.r_in, w.r_out, args=(x,), points=[edge],
                                         epsabs=0.0, epsrel=1e-13, limit=200)[0]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = g2_left_side(w, delta, x)
            assert abs(got - want) <= 1e-11 * want, (x, got, want)


def test_check_g2_on_tables_warns_nothing():
    # probes inside a table's support are closed-form sums too: no warning,
    # finite at delta = 1, +inf (failing) at delta = 2** where they meet it
    r19 = np.linspace(0.0, 19.0, 40)
    for table in (sp.table_weight(TABLE_R, TABLE_G), sp.table_weight(r19, 1.0 / (1.0 + r19 ** 2))):
        for delta in (1.0, sp.critical_exponent(5)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = sp.check_g2(table, delta)
            assert rep.passed == (delta == 1.0)
