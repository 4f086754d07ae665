"""Run a shift sweep from a config file and print the row table plus the
summary indicators. The `solve` CLI emits machine artifacts only (CSV/JSON);
this script renders the same sweep for a human reader.

Usage:
    python scripts/run_sweep.py [--config scripts/configs/example.ini] [--out DIR]
"""

import argparse
import os
import sys
import time

import semipositone as sp


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=os.path.join(here, "configs", "example.ini"))
    ap.add_argument("--out", default=None, help="also emit CSV/JSON artifacts here")
    args = ap.parse_args(argv)

    try:
        cfg = sp.parse_config(args.config)
        sp.build_problem(cfg)  # as `solve`: the weight and grid check their own inputs
    except (OSError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    try:
        report = sp.run_sweep(cfg)
    except sp.GeometryError as exc:  # as `solve` reports both
        print("geometry error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:  # the vtilde ladder cap or a pinned crest, in any row
        print("solve error: %s" % exc, file=sys.stderr)
        return 2
    dt = time.perf_counter() - t0

    print("sweep: %d rows in %.1f ms   (a1 = %.6g, beta = %.6g)"
          % (len(report.rows), 1e3 * dt, report.geometry.a1, report.geometry.beta))
    print("%12s %15s %15s %12s %11s %9s %5s"
          % ("a", "level", "norm_h2", "min_value", "decay", "resid", "conv"))
    for r in report.rows:
        print("%12.5g %15.8g %15.8g %12.5g %11.4f %9.2e %5s"
              % (r.a, r.level, r.norm_h2, r.min_value,
                 r.decay_fit / r.decay_pred if r.decay_pred else float("nan"),
                 r.residual, "ok" if r.converged else "NO"))

    s = report.summary
    print("summary:")
    print("  a2_estimate     = %s" % s["a2_estimate"])
    print("  a3_estimate     = %s" % s["a3_estimate"])
    print("  threshold_index = %s" % s["threshold_index"])
    print("  beta1           = %s" % s["beta1"])
    print("  n_converged     = %s / %s" % (s["n_converged"], len(report.rows)))

    if args.out:
        t0 = time.perf_counter()
        paths = sp.emit(report, args.out)
        dt = time.perf_counter() - t0
        for p in paths:
            print("wrote %s" % p)
        print("wrote %d files in %.1f ms" % (len(paths), 1e3 * dt))

    bad = [r for r in report.rows if not r.converged]
    return 2 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
