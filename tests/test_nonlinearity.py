import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import semipositone as sp
from semipositone.nonlinearity import T_BIG, growth_envelope

from conftest import (bits, c_r_constant, check_prop33, envelope_refine, masked_f0, masked_Fa,
                      oracle_check_f1, oracle_check_f2, oracle_check_f3, oracle_check_f4,
                      prop33_negative_excess, quadrature_primitive, quadrature_spec,
                      zero_nonlinearity)


def _square_forms():
    """F and f' of f(t) = t^2, for specs built by hand."""
    return dict(F_closed=lambda t: np.asarray(t, dtype=float) ** 3 / 3.0,
                fprime=lambda t: 2.0 * np.asarray(t, dtype=float))


def test_critical_exponent_values():
    assert sp.critical_exponent(5) == 10.0
    assert sp.critical_exponent(6) == 6.0
    assert sp.critical_exponent(8) == 4.0
    with pytest.raises(ValueError):
        sp.critical_exponent(4)


def test_spec_validation():
    with pytest.raises(ValueError):
        sp.NonlinearitySpec(f=lambda t: t**2, gamma=12.0, c_f=1.0, r_mono=1.0, dim=5,
                            **_square_forms())
    with pytest.raises(ValueError):
        sp.NonlinearitySpec(f=lambda t: t + 1.0, gamma=2.5, c_f=1.0, r_mono=1.0, dim=5,
                            **_square_forms())


@pytest.mark.parametrize("name", ["f", "F_closed", "fprime"])
@pytest.mark.parametrize("value", [None, 1.0])
def test_spec_rejects_a_missing_closed_form(example_spec, name, value):
    # f, F and f' are the three things the solver reads: a spec without one
    # is refused when built, with the field named, not halfway through a solve
    with pytest.raises(ValueError, match="^%s=%r must be callable$" % (name, value)):
        dataclasses.replace(example_spec, **{name: value})


@pytest.mark.parametrize("name", ["c_f", "r_mono"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_spec_rejects_nonfinite_constants(name, value):
    # a nan r_mono used to surface in check_f3 as an empty-array reduction,
    # and a nan c_f made check_f1 fail without saying why
    kw = dict(f=lambda t: t**2, gamma=2.5, c_f=1.0, r_mono=1.0, dim=5, **_square_forms())
    kw[name] = value
    with pytest.raises(ValueError, match="^%s=.* must be finite" % name):
        sp.NonlinearitySpec(**kw)


def test_shift_rejects_negative_a(example_spec):
    with pytest.raises(ValueError):
        sp.ShiftedNonlinearity(example_spec, -0.1)
    # a = 0 is the positone limit and must be allowed
    sp.ShiftedNonlinearity(example_spec, 0.0)


def test_shift_column_rejects_one_negative_entry(example_spec):
    with pytest.raises(ValueError, match="nonnegative"):
        sp.ShiftedNonlinearity(example_spec, np.array([[0.0], [2.5], [-1e-12], [7.0]]))
    sp.ShiftedNonlinearity(example_spec, np.array([[0.0], [2.5], [1e-12], [7.0]]))


@pytest.mark.parametrize("a", [np.nan, np.inf, np.array([[0.0], [2.5], [np.nan], [7.0]])])
def test_shift_rejects_nonfinite_a(example_spec, a):
    # a nan or infinite shift is no shift: it is rejected here, not found
    # later as a ray that never turns negative
    with pytest.raises(ValueError, match="shift a must be finite and nonnegative"):
        sp.ShiftedNonlinearity(example_spec, a)


@pytest.mark.parametrize("spec", [sp.example_nonlinearity(), sp.power_nonlinearity(3.0, gamma=3.5)])
def test_shift_column_is_the_scalar_shifts(spec):
    # f_a and F_a of a (k, 1) column of shifts on (k, m) values are the k
    # one-shift calls on the rows, bit for bit
    a = np.array([0.0, 0.3, 2.0, 1e4])
    t = np.array([-1.0, 0.0, 1e-3, 0.1, 0.24, 0.7, 3.0, 1e3]) * np.array([[1.0], [0.5], [2.0],
                                                                        [7.0]])
    column = sp.ShiftedNonlinearity(spec, a[:, None])
    for ev in (sp.eval_fa, sp.eval_Fa):
        got = ev(column, t)
        want = np.array([ev(sp.ShiftedNonlinearity(spec, float(ai)), row) for ai, row in zip(a, t)])
        assert got.shape == t.shape
        np.testing.assert_array_equal(got, want)


def test_spec_rejects_offset_primitive(example_spec):
    # F = int_0^t f vanishes at 0, and F_a(t) = F(t+) - a t reads F(0) on
    # t <= 0: a primitive offset by 1 is refused as f(0) != 0 is
    F = example_spec.F_closed
    with pytest.raises(ValueError, match=r"^F_closed\(0\)=1 .*F_closed\(0\)=0 exactly"):
        dataclasses.replace(example_spec, F_closed=lambda t: F(t) + 1.0)
    with pytest.raises(ValueError, match=r"^f\(0\)=nan"):
        dataclasses.replace(example_spec, f=lambda t: np.full_like(t, np.nan))


def _outcome(fn, *args):
    """fn(*args) as an array, or the type of the error it raises."""
    try:
        return np.asarray(fn(*args))
    except ValueError as exc:
        return type(exc)


SIGNED = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
                   st.floats(-1e6, 1e6, allow_subnormal=True))


@pytest.mark.parametrize("spec", [
    sp.example_nonlinearity(), sp.power_nonlinearity(1.5, gamma=2.5), sp.linear_nonlinearity(),
    quadrature_spec(sp.example_nonlinearity())],
    ids=["example", "power", "linear", "quadrature"])
@settings(max_examples=60, deadline=None)
@given(t=hnp.arrays(np.float64, st.integers(0, 24), elements=SIGNED),
       a=st.sampled_from([0.0, 0.3, 1e4]))
def test_positive_part_forms_match_masks(spec, t, a):
    # f_0 = f(t+), f_a = f(t+) - a and F_a = F(t+) - a t give the values of
    # the element masks, on signed samples with +-0 and +-inf (+-0 compare
    # equal, as do nans in the same place); "quadrature" takes F from the
    # tests' quadrature primitive, a primitive that is no closed form, and
    # there +inf stops both forms of F with the same ValueError
    sh = sp.ShiftedNonlinearity(spec, a)
    with np.errstate(all="ignore"):
        f0, want_f0 = sp.eval_f0(spec, t), masked_f0(spec, t)
        np.testing.assert_array_equal(f0, want_f0)
        np.testing.assert_array_equal(sp.eval_fa(sh, t), want_f0 - a)
        got, want = _outcome(sp.eval_Fa, sh, t), _outcome(masked_Fa, sh, t)
    if isinstance(want, type):
        assert got is want
    else:
        np.testing.assert_array_equal(got, want)


def test_positive_part_passes_nan(example_spec):
    # t+ = max(t, 0) keeps a nan, where the masks made f_0(nan) = 0
    sh = sp.ShiftedNonlinearity(example_spec, 0.3)
    assert np.isnan(sp.eval_f0(example_spec, np.nan))
    assert np.isnan(sp.eval_fa(sh, np.nan))
    assert np.isnan(sp.eval_Fa(sh, np.nan))
    got = sp.eval_f0(example_spec, np.array([np.nan, -1.0, 2.0]))
    assert np.isnan(got[0]) and got[1] == 0.0 and got[2] == example_spec.f(2.0)


def test_example_closed_antiderivative(example_spec):
    # F_closed against the quadrature primitive
    for t in (0.3, 1.0, 7.5, 40.0):
        closed = example_spec.F_closed(t)
        quadded = quadrature_primitive(example_spec.f, t)
        assert abs(closed - quadded) < 1e-8 * max(1.0, abs(closed))


def test_quadrature_primitive_cumulative(example_spec):
    # one cumulative sum serves unsorted samples with repeats and t = 0
    t = np.array([7.5, 0.0, T_BIG, 1e-3, 0.3, 40.0, 1.0, 1e-3])
    got = quadrature_primitive(example_spec.f, t)
    closed = example_spec.F_closed(t)
    assert got.shape == t.shape and got[1] == 0.0
    # F_closed cancels terms of size t near 0 (1.2e-10 relative at 1e-3),
    # so its own rounding sets the scale there
    assert np.all(np.abs(got - closed) <= 1e-10 * np.maximum(np.abs(closed), t))
    # the Taylor series F = sum_k (-1)^k 2 t^{k+3} / ((k+1)(k+3)) at 1e-3
    series = sum((-1) ** k * 2.0 * 1e-3 ** (k + 3) / ((k + 1) * (k + 3)) for k in range(8))
    assert got[3] == pytest.approx(series, rel=1e-14)
    scalar = quadrature_primitive(example_spec.f, 7.5)
    assert isinstance(scalar, float) and scalar == pytest.approx(closed[0], rel=1e-12)
    bare = quadrature_spec(example_spec)
    assert isinstance(sp.eval_Fa(sp.ShiftedNonlinearity(bare, 0.5), 2.0), float)
    # f = t^1.5 is not smooth at 0; the octaves below 1e-3 grade it out
    power = sp.power_nonlinearity(1.5)
    t = np.array([1e-3, T_BIG])
    assert np.all(np.abs(quadrature_primitive(power.f, t) / power.F_closed(t) - 1.0) <= 1e-13)


def test_example_primitive_matches_series(example_spec):
    # F(t) = (t^2 - 1) log1p(t) - t^2/2 + t cancels terms of size t against
    # a result of size t^3; the registered F_closed matches the Taylor series
    # sum_k (-1)^k 2 t^{k+3} / ((k+1)(k+3)), summed to convergence at 40
    # digits, to 1e-14 relative over [1e-8, 1], on both sides of the
    # threshold where it switches to the series, and exactly at +-0;
    # [0.1, 0.3] is sampled densely because the closed form reaches 3e-14 there
    import mpmath

    from semipositone.nonlinearity import _F_SERIES_T

    edge = np.array([0.0, -0.0, np.nextafter(_F_SERIES_T, 0.0), _F_SERIES_T,
                     np.nextafter(_F_SERIES_T, 1.0)])
    t = np.concatenate((np.geomspace(1e-8, 1.0, 161), np.linspace(0.1, 0.3, 401), edge))
    with mpmath.workdps(40):
        want = np.array([float(mpmath.nsum(
            lambda k: (-1) ** k * 2 * mpmath.mpf(x) ** (k + 3) / ((k + 1) * (k + 3)),
            [0, mpmath.inf])) for x in t])
    got = example_spec.F_closed(t)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    assert example_spec.F_closed(0.0) == 0.0


def test_example_registered_derivative(example_spec):
    h = 1e-6
    for t in (0.5, 2.0, 25.0):
        fd = (example_spec.f(t + h) - example_spec.f(t - h)) / (2.0 * h)
        assert abs(example_spec.fprime(t) - fd) < 1e-5 * max(1.0, abs(fd))


def _family(name, power):
    if name == "example":
        return sp.example_nonlinearity()
    if name == "linear":
        return sp.linear_nonlinearity()
    return sp.power_nonlinearity(power)


@pytest.mark.parametrize("family", ["example", "linear", "power"])
@settings(max_examples=100, deadline=None)
@given(log_a=st.floats(-6.0, 6.0 - np.log10(2.0)), span=st.floats(0.0, 1.0),
       power=st.floats(1.1, 8.0))
def test_closed_forms_integrate_to_each_other(family, log_a, span, power):
    # F(b) - F(a) = int_a^b f and f(b) - f(a) = int_a^b f' on 1e-6 <= a < b <= 1e6,
    # each integral a Gauss-Legendre sum over the octave panels a 2^k of
    # [a, b], within 1e-13 of int |.|: F_closed and fprime are the only F and
    # f' the solver reads. b >= 2a keeps the rounding of F(a) and F(b),
    # which cancels when b is near a, out of what is measured
    spec = _family(family, power)
    a = 10.0 ** log_a
    b = min(2.0 * a * (1e6 / (2.0 * a)) ** span, 1e6)
    pts = np.append(a * 2.0 ** np.arange(np.ceil(np.log2(b / a))), b)
    x, w = sp.radial_core.gauss_legendre(pts[:-1], pts[1:])
    for prim, der in ((spec.F_closed, spec.f), (spec.f, spec.fprime)):
        d = np.asarray(der(x), dtype=float)
        residual = float(prim(b)) - float(prim(a)) - np.sum(w * d)
        assert abs(residual) <= 1e-13 * np.sum(w * np.abs(d))


@given(t=st.floats(min_value=-50.0, max_value=-1e-3))
@settings(max_examples=60)
def test_shifted_negative_branch(example_spec, t):
    sh = sp.ShiftedNonlinearity(example_spec, 0.7)
    assert sp.eval_fa(sh, t) == -0.7
    assert abs(sp.eval_Fa(sh, t) - (-0.7 * t)) < 1e-12 * max(1.0, abs(t))


def test_shifted_jump_at_zero(example_spec):
    # f_a(0+) = f(0) - a = -a and f_a(0-) = -a: continuous at 0, value -a
    sh = sp.ShiftedNonlinearity(example_spec, 0.3)
    assert abs(sp.eval_fa(sh, 1e-12) - (-0.3)) < 1e-10
    assert sp.eval_fa(sh, 0.0) == -0.3
    assert sp.eval_Fa(sh, 0.0) == 0.0


@given(t=st.floats(min_value=1e-6, max_value=1e5))
@settings(max_examples=80, deadline=None)
def test_growth_envelope_dominates(example_spec, t):
    eps = 0.25
    C = growth_envelope(example_spec, eps)
    assert example_spec.f(t) <= eps * t + C * t ** (example_spec.gamma - 1.0) + 1e-9


def _envelope_specs():
    # the example's gamma = 2.5 lies below 2** at every dim 5-9; each spec
    # with its id, family-N<dim>-g<gamma>
    specs = ([("paper_example", sp.example_nonlinearity(dim=dim)) for dim in range(5, 10)]
             + [("power", sp.power_nonlinearity(3.0, gamma=3.5)),
                ("power", sp.power_nonlinearity(3.0)), ("linear", sp.linear_nonlinearity())])
    return [pytest.param(s, id="%s-N%d-g%g" % (family, s.dim, s.gamma)) for family, s in specs]


_ENVELOPE_EPS = np.geomspace(1e-3, 35.0, 12)


def _recording(spec):
    """spec with f logging every sample it is called on, and the log."""
    seen = []

    def f(t):
        seen.append(np.atleast_1d(np.asarray(t, dtype=float)).copy())
        return spec.f(t)

    rec = dataclasses.replace(spec, f=f)
    seen.clear()  # the spec's own f(0) check
    return rec, seen


@pytest.mark.parametrize("spec", _envelope_specs())
def test_growth_envelope_matches_linear_refine(spec):
    # the zoom finds the constant of the 20001-point refine, across six
    # decades of eps, including maxima pinned at either end of the range
    for eps in _ENVELOPE_EPS:
        assert growth_envelope(spec, eps) == pytest.approx(envelope_refine(spec, eps),
                                                          rel=1e-12, abs=0)


@pytest.mark.parametrize("spec", _envelope_specs())
def test_growth_envelope_dominates_every_sample(spec):
    # every coarse and zoom node, recorded from the calls to f, lies under
    # the envelope, and one fit samples f on at most 4001 + 3 * 65 points
    for eps in _ENVELOPE_EPS:
        rec, seen = _recording(spec)
        C = growth_envelope(rec, eps)
        t = np.concatenate(seen)
        assert t.size <= 4001 + 3 * 65
        assert t.min() == 1e-8 and t.max() == T_BIG
        assert np.all(spec.f(t) <= eps * t + C * t ** (spec.gamma - 1.0))


def test_c_r_constant_formula(example_spec):
    eps = 0.5
    C = growth_envelope(example_spec, eps)
    R = example_spec.r_mono
    expect = 0.5 * eps * R * R + C / example_spec.gamma * R ** example_spec.gamma
    assert c_r_constant(example_spec, eps) == pytest.approx(expect, rel=1e-14)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_prop33_residual_positive_branch(example_spec, data):
    # 0 < t <= s over six decades; the shift only helps on this branch, so a
    # can be taken large
    a = data.draw(st.sampled_from([0.01, 0.1, 1.0, 10.0]))
    sh = sp.ShiftedNonlinearity(example_spec, a)
    lo = data.draw(st.floats(min_value=-3.0, max_value=3.0))
    hi = data.draw(st.floats(min_value=-3.0, max_value=3.0))
    x, y = 10.0**lo, 10.0**hi
    assert check_prop33(sh, max(x, y), min(x, y)) <= 1e-10


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_prop33_residual_negative_branch_small(example_spec, data):
    # s <= t < 0 with |s| <= 1: the regime the estimate is used in (the rim
    # geometry keeps negative parts small). The exact excess a(t-s)^2/(2|s|)
    # stays below C_R here, so the raw residual is still <= 0.
    a = data.draw(st.sampled_from([0.01, 0.1, 1.0]))
    sh = sp.ShiftedNonlinearity(example_spec, a)
    lo = data.draw(st.floats(min_value=-3.0, max_value=0.0))
    hi = data.draw(st.floats(min_value=-3.0, max_value=0.0))
    x, y = 10.0**lo, 10.0**hi
    assert check_prop33(sh, -max(x, y), -min(x, y)) <= 1e-10


def test_prop33_negative_branch_boundary(example_spec):
    # widely separated negative pairs overrun C_R by exactly the closed-form
    # excess; the unrelaxed chain does not extend there (see notes ledger)
    sh = sp.ShiftedNonlinearity(example_spec, 1.0)
    res = check_prop33(sh, -1000.0, -1.0)
    assert res > 0
    excess = prop33_negative_excess(sh, -1000.0, -1.0)
    assert res == pytest.approx(excess - c_r_constant(example_spec, 0.5), rel=1e-12)


def test_prop33_rejects_inadmissible(example_spec):
    sh = sp.ShiftedNonlinearity(example_spec, 0.1)
    for s, t in ((1.0, 2.0), (-1.0, -2.0), (1.0, -1.0), (0.0, 0.0)):
        with pytest.raises(ValueError):
            check_prop33(sh, s, t)


@given(s=st.floats(min_value=-100.0, max_value=-1e-2),
       gap=st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=100)
def test_prop33_negative_excess_algebra(example_spec, s, gap):
    # the closed-form excess equals the direct difference of the two sides
    t = min(s + gap, -1e-8)
    a = 0.4
    sh = sp.ShiftedNonlinearity(example_spec, a)
    lhs = sp.eval_Fa(sh, s) - sp.eval_Fa(sh, t)
    rhs = (s * s - t * t) / (2.0 * s) * sp.eval_fa(sh, s)
    excess = prop33_negative_excess(sh, s, t)
    assert excess >= 0.0
    assert abs((lhs - rhs) - excess) < 1e-9 * max(1.0, abs(excess))
    # and the factor-2 relaxed chain holds on this branch
    assert lhs <= 2.0 * rhs + 1e-9 * max(1.0, abs(rhs))


def root_spec():
    """sqrt is non-Lipschitz at 0: quotients blow up between scales."""
    return sp.NonlinearitySpec(f=lambda t: np.sqrt(np.maximum(t, 0.0)), gamma=2.5,
                               c_f=10.0, r_mono=1.0, dim=5,
                               F_closed=lambda t: 2.0 / 3.0 * np.asarray(t, dtype=float) ** 1.5,
                               fprime=lambda t: 0.5 / np.sqrt(t))


def hump_spec():
    """A ratio f/t that decays beyond r_mono fails f3."""
    return sp.NonlinearitySpec(f=lambda t: t * np.exp(-t), gamma=2.5, c_f=10.0,
                               r_mono=1.0, dim=5,
                               F_closed=lambda t: 1.0 - (1.0 + t) * np.exp(-t),
                               fprime=lambda t: (1.0 - t) * np.exp(-t))


def test_checker_counterexamples():
    assert not sp.check_f4(root_spec()).passed
    assert not sp.check_f3(hump_spec()).passed


@pytest.mark.parametrize("make", [
    root_spec, hump_spec, sp.example_nonlinearity, zero_nonlinearity, sp.linear_nonlinearity,
    lambda: sp.power_nonlinearity(3.0, dim=7, gamma=3.0)])
def test_checkers_match_per_call_sampling(make):
    # (f1)-(f4) read one f sample per spec, and (f4) its three shifted point
    # sets from one call of f; each report is the one that sampling f afresh
    # in every checker gives, bit for bit, in any order of the checks
    checks = [sp.check_f1, sp.check_f2, sp.check_f3, sp.check_f4]
    oracles = [oracle_check_f1, oracle_check_f2, oracle_check_f3, oracle_check_f4]
    for order in (slice(None), slice(None, None, -1)):
        spec = make()
        for check, oracle in list(zip(checks, oracles))[order]:
            got, want = check(spec), oracle(spec)
            assert (got.name, got.passed) == (want.name, want.passed)
            assert bits(got.details) == bits(want.details)

