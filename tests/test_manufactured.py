"""Manufactured exact solutions: the distance of a solve's level to the truth.

`manufactured` builds g so that a known u* solves Delta^2 u = g f(u) at
a = 0, with its exact level. The solve must find u* as a certified
mountain-pass point, and its level error must fall at second order as the
grid is refined: the ratio is asserted, not only a tolerance, so a loss of
order fails.
"""

import numpy as np
import pytest
from scipy.integrate import quad

import semipositone as sp

from conftest import manufactured

# the example f at dim 5; power f at dims 7 and 9, where the example's
# geometry leaves the envelope's sampled range
SPECS = {5: lambda: sp.example_nonlinearity(dim=5),
         7: lambda: sp.power_nonlinearity(2.0, dim=7),
         9: lambda: sp.power_nonlinearity(1.5, dim=9)}
# |relative level error| at n = 1024
BOUNDS = {5: 1e-4, 7: 1e-3, 9: 4e-3}


@pytest.mark.parametrize("dim", [5, 7])
def test_manufactured_solution_is_exact(dim):
    # u* and the level against adaptive quadrature of the closed-form ring
    # kernel, inside, on and outside the support
    spec = SPECS[dim]()
    weight, u_star, level = manufactured(dim, spec)
    r4, om = sp.riesz_r4(dim), sp.sphere_area(dim)

    def h(s):
        return 1e3 * ((s - 0.5) * (1.0 - s)) ** 2
    for r in (0.0, 0.3, 0.5, 0.7, 0.93, 1.0, 3.0):
        cut = min(max(r, 0.5), 1.0)
        ref = r4 * sum(quad(lambda s: h(s) * s ** (dim - 1)
                            * sp.ring_kernel_pairs(dim, r, s, dim - 4.0), lo, hi,
                            epsabs=0.0, epsrel=1e-13)[0]
                       for lo, hi in ((0.5, cut), (cut, 1.0)) if hi > lo)
        assert u_star(r) == pytest.approx(ref, rel=1e-14)
    # g f(u*) = h on the support, and the level is a 1-D integral of it
    s = np.linspace(0.55, 0.95, 9)
    assert np.allclose(weight.profile(s) * spec.f(u_star(s)), h(s), rtol=1e-14)
    ref = om * quad(lambda x: x ** (dim - 1) * (0.5 * h(x) * u_star(x) - weight.profile(x)
                                                * float(spec.F_closed(u_star(x)))),
                    0.5, 1.0, epsabs=0.0, epsrel=1e-13)[0]
    assert level == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("dim", [5, 7, 9])
def test_level_converges_to_manufactured_level(dim):
    # a = 0, r_max = 20: every solve converges at Morse index 1, and the
    # relative level error falls by >= 3x per doubling of n (second order)
    spec = SPECS[dim]()
    weight, _, level = manufactured(dim, spec)
    errors = []
    for n in (256, 512, 1024):
        geo = sp.estimate_a1(spec, weight, sp.make_grid(dim, n, 20.0))
        sol = sp.mp_solve(sp.ShiftedNonlinearity(spec, 0.0), geo)
        assert sol.converged
        assert sol.diagnostics["morse_index"] == 1
        errors.append(abs(sol.level - level) / level)
    assert errors[0] >= 3.0 * errors[1] and errors[1] >= 3.0 * errors[2]
    assert errors[2] <= BOUNDS[dim]
