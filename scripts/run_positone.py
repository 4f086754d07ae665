"""Solve the unshifted (a = 0) problem on the built-in example and print the
full diagnostic picture: geometry constants, critical level and norms, the
far-field amplitude A = R4 int Delta^2 u of u = r^{4-N} (A + B r^{-2})
beyond supp g against R4 int g f_a(u), and the Morse-index certificate.
The level is printed twice: as I_a(u) with ||Delta u||^2 = int h u over
the source, and in weak form, (1/2) int g f_a(u) u - int g F_a(u),
with the relative gap between the two, of the order of the residual at a
critical point.

This is the reference experiment: the a = 0 critical point is the limit
object every sweep row is compared against.

Usage:
    python scripts/run_positone.py [--n 512] [--r-max 20] [--profile out.csv]
"""

import argparse
import sys
import time

import numpy as np

import semipositone as sp
from semipositone.sweep_cli import _profile_csv, _rows_from_solutions


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=512, help="radial nodes")
    ap.add_argument("--r-max", type=float, default=20.0, help="domain radius")
    ap.add_argument("--dim", type=int, default=5)
    ap.add_argument("--profile", default=None, help="write the solution profile to this CSV")
    args = ap.parse_args(argv)

    spec = sp.example_nonlinearity(dim=args.dim)
    weight = sp.example_weight(dim=args.dim)
    grid = sp.make_grid(args.dim, args.n, args.r_max)

    t0 = time.perf_counter()
    try:
        geo = sp.estimate_a1(spec, weight, grid)
    except sp.GeometryError as exc:  # as `solve` reports it
        print("geometry error: %s" % exc, file=sys.stderr)
        return 2
    t_geo = time.perf_counter() - t0
    print("geometry  (%.2f ms)" % (1e3 * t_geo))
    print("  b_g   = %.6g    eps  = %.6g" % (geo.b_g, geo.eps))
    print("  rho   = %.6g    rho1 = %.6g" % (geo.rho, geo.rho1))
    print("  beta  = %.6g    a1   = %.6g" % (geo.beta, geo.a1))

    shifted = sp.ShiftedNonlinearity(spec, 0.0)
    t0 = time.perf_counter()
    try:
        sol = sp.mp_solve(shifted, geo)
    except RuntimeError as exc:  # the vtilde ladder cap or a pinned crest
        print("solve error: %s" % exc, file=sys.stderr)
        return 2
    t_solve = time.perf_counter() - t0

    u = sol.u
    diag = sol.diagnostics
    norm = diag["norm_h2"]
    row = _rows_from_solutions([sol], spec, geo.support)[0]  # the sweep's a = 0 row
    fit, pred = row.decay_fit, row.decay_pred

    print("solve     (%.2f ms, %d iterations, m=%s support nodes, newton=%s)"
          % (1e3 * t_solve, sol.iterations, diag["support_nodes"], diag["newton_used"]))
    print("  converged    = %s" % sol.converged)
    print("  level        = %.12g   (rim floor beta = %.6g)" % (sol.level, geo.beta))
    print("  weak level   = %.12g   (relative gap %.3e)"
          % (diag["weak_level"], diag["level_gap"]))
    print("  ||Delta u||  = %.12g" % norm)
    print("  sup u        = %.6g    min u = %.6g" % (np.max(u.values), np.min(u.values)))
    print("  residual     = %.3e   (relative %.3e)" % (sol.residual, sol.residual / max(1.0, norm)))
    print("  decay  fit   = %.6g    predicted = %.6g   ratio = %.6f"
          % (fit, pred, fit / pred))
    print("  morse index  = %s   (top eigenvalues of R4 K diag(g f'(u)): %s)"
          % (diag["morse_index"],
             ", ".join("%.6g" % x for x in diag["morse_top_eigenvalues"])))

    if args.profile:
        with open(args.profile, "w") as fh:
            fh.write(_profile_csv(grid.r, u.values))
        print("profile -> %s" % args.profile)

    return 0 if sol.converged else 2


if __name__ == "__main__":
    sys.exit(main())
