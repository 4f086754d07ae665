"""One benchmark process: set up a workload from a fresh interpreter, then
run its operations back to back for a fixed time.

Started by run.py, never imported by the package. The last line of standard
output is one JSON object with the set-up timings, the per-op wall times, the
unit counts, the peak RSS, the quality fields, the machine block and, when
traced, the per-layer metrics.

usage: worker.py --workload NAME --config INI [--config INI] --scratch DIR
                 --seconds S --trace 0|1
"""

import os

# BLAS is pinned to one thread before numpy can load, so op times do not
# depend on how BLAS threads share the cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# paper run criteria; see README.md
DECAY_TOL = 1e-2


def load_package(root=ROOT):
    """Import semipositone from <root>/src and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import semipositone
    where = os.path.dirname(os.path.abspath(semipositone.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise ImportError("semipositone loaded from %s, not from %s" % (where, src))
    return semipositone


# -- workloads ---------------------------------------------------------------

class SolverWorkload:
    """sweep-n512 (full warm sweep + emit) and single-n1024 (one cold a = 0
    solve, as `solve --single-a 0.0`)."""

    def __init__(self, single):
        self.single = single

    def setup(self, sp, cfg_paths, scratch):
        cfg = sp.parse_config(cfg_paths[0])
        _, weight, grid = sp.build_problem(cfg)
        g = sp.sample_on_grid(weight, grid)
        t0 = time.perf_counter()
        sp.riesz_solve(g)   # assembles the kernels every solve command pays for
        return {"cfg": cfg, "emit_dir": os.path.join(scratch, "emit")}, time.perf_counter() - t0

    def units(self, state):
        if self.single:
            return 1
        sweep = state["cfg"].sweep
        return (len({a for a in sweep.a_list if a > 0}) if sweep.a_list else sweep.count) + 1

    def op(self, sp, state):
        if self.single:
            return sp.run_sweep(state["cfg"], [0.0])
        report = sp.run_sweep(state["cfg"])
        sp.emit(report, state["emit_dir"])
        return report

    def cleanup(self, state):
        shutil.rmtree(state["emit_dir"], ignore_errors=True)

    def judge(self, sp, state, report):
        """Failed checks per row: the unit count minus rows returned fail too."""
        tol = state["cfg"].mp.tol_res
        beta = report.summary["beta"]
        failures = []
        for r in report.rows:
            bad = []
            if not r.converged:
                bad.append("converged")
            if not r.residual / max(1.0, r.norm_h2) <= tol:
                bad.append("residual")
            if not r.level >= beta:
                bad.append("level>=beta")
            if not abs(r.decay_fit / r.decay_pred - 1.0) <= DECAY_TOL:
                bad.append("decay")
            if not r.min_value >= 0.0:
                bad.append("min_u>=0")
            if bad:
                failures.append("a=%.6g: %s" % (r.a, ",".join(bad)))
        missing = self.units(state) - len(report.rows)
        failures += ["missing row"] * max(missing, 0)
        return failures

    def quality(self, sp, state, report):
        spec, weight, grid = sp.build_problem(state["cfg"])
        g = sp.sample_on_grid(weight, grid).values
        rows = []
        for r in report.rows:
            u = report.profiles[r.a]
            shifted = sp.ShiftedNonlinearity(spec, r.a)
            nonlin = sp.integrate(sp.RadialField(grid, g * sp.eval_fa(shifted, u) * u))
            prim = sp.integrate(sp.RadialField(grid, g * sp.eval_Fa(shifted, u)))
            rows.append({"a": r.a, "level": r.level, "weak_level": 0.5 * nonlin - prim,
                         "rel_residual": r.residual / max(1.0, r.norm_h2),
                         "decay_ratio": r.decay_fit / r.decay_pred,
                         "min_u": r.min_value})
        s = report.summary
        return {"a1": s["a1_estimate"], "beta": s["beta"],
                "n_converged": s["n_converged"], "rows": rows}


class ChecksWorkload:
    """`solve --check-hypotheses` at dim 5 and at dim 7; each pass builds its
    problem afresh, so per-spec caches start empty every time."""

    REPORTS_PER_PASS = 7    # f1..f4, g1, g2 at delta = 1 and delta = 2**

    def setup(self, sp, cfg_paths, scratch):
        cfgs = [sp.parse_config(p) for p in cfg_paths]
        for cfg in cfgs:
            sp.build_problem(cfg)
        return {"cfgs": cfgs}, 0.0

    def units(self, state):
        return self.REPORTS_PER_PASS * len(state["cfgs"])

    def op(self, sp, state):
        return [(cfg.problem.dim, rep) for cfg in state["cfgs"]
                for rep in sp.sweep_cli.run_hypothesis_checks(cfg)]

    def cleanup(self, state):
        pass

    def judge(self, sp, state, reports):
        failures = ["dim=%d %s" % (dim, rep.name) for dim, rep in reports if not rep.passed]
        return failures + ["missing report"] * max(self.units(state) - len(reports), 0)

    def quality(self, sp, state, reports):
        out = []
        for dim, rep in reports:
            tag = rep.name
            if rep.name == "g2":
                tag = "g2(delta=%g)" % rep.details["delta"]
            out.append({"dim": dim, "check": tag, "passed": bool(rep.passed)})
        return {"reports": out}


WORKLOADS = {
    "sweep-n512": SolverWorkload(single=False),
    "single-n1024": SolverWorkload(single=True),
    "checks": ChecksWorkload(),
}


# -- measurement -------------------------------------------------------------

def measure(sp, workload, state, seconds, tracer=None):
    """Closed loop, one client: ops back to back until `seconds` have passed.

    With a tracer, every second op is traced, so traced and untraced op
    times interleave and their ratio is the tracing overhead. An op that
    raises fails all of its units and the loop goes on.
    """
    times, traced = [], []
    attempted = failed = 0
    errors, quality = [], None
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        on = tracer is not None and i % 2 == 1
        if on:
            tracer.install()
            tracer.begin(i)
        t0 = time.perf_counter()
        try:
            result = workload.op(sp, state)
            exc = None
        except Exception as e:  # a failing op is counted, the run goes on
            exc = e
        dt = time.perf_counter() - t0
        if on:
            tracer.uninstall()
        workload.cleanup(state)
        units = workload.units(state)
        attempted += units
        if exc is not None:
            failed += units
            errors.append("op %d: %s: %s" % (i, type(exc).__name__, exc))
        else:
            bad = workload.judge(sp, state, result)
            failed += min(len(bad), units)
            errors += ["op %d: %s" % (i, b) for b in bad]
            if quality is None:
                quality = workload.quality(sp, state, result)
        times.append(dt)
        traced.append(on)
        i += 1
    return {"op_s": times, "traced": traced, "attempted": attempted,
            "failed": failed, "errors": errors[:20], "quality": quality}


def machine_block(sp):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "semipositone": getattr(sp, "__version__", None),
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}
    for key, path, field in (("cpu_model", "/proc/cpuinfo", "model name"),
                             ("mem_total", "/proc/meminfo", "MemTotal")):
        try:
            with open(path) as fh:
                info[key] = next((ln.split(":", 1)[1].strip() for ln in fh
                                  if ln.startswith(field)), None)
        except OSError:
            info[key] = None
    return info


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", action="append", required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    sp = load_package()
    import_s = time.perf_counter() - t0
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.begin("setup")
    state, kernel_s = workload.setup(sp, args.config, args.scratch)
    ready = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
    out = {"ready_mono": ready, "import_s": import_s, "kernel_s": kernel_s}
    out.update(measure(sp, workload, state, args.seconds, tracer))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["machine"] = machine_block(sp)
    if tracer is not None:
        from tracer import layer_values
        out["layer"] = layer_values(tracer, [i for i, on in enumerate(out["traced"]) if on])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
