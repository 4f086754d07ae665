"""End-to-end and per-layer benchmark of the semipositone solver.

    python3 perfbench/run.py --workload sweep-n512 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --trace 0          # every workload, one command

Each workload runs in PROCESSES fresh interpreters, one after another. Each
sets up, then runs operations back to back (closed loop, one client) for its
share of --seconds. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a run in which every second op is traced. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. Without --workload every workload runs in turn and the
combined record is written to --out. See README.md for the workloads, the
metrics and the layer-to-metric map.

This file uses the standard library only; the package is loaded by
worker.py, from src/ of the checkout this file sits in.
"""

import argparse
import configparser
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXAMPLE_INI = os.path.join("scripts", "configs", "example.ini")

WORKLOADS = ("sweep-n512", "single-n1024", "checks")
# Fresh-interpreter processes per run, one after another. Each sets up and
# then runs ops for --seconds / PROCESSES. On this machine a process's speed
# varies by up to 40% from the next one's, so pooling ops from five
# processes steadies the medians.
PROCESSES = 5
DEADLINE_S = 170.0      # a run ends within 180 s
TAIL_BEYOND = 10        # samples the tail percentile must leave above it
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Gated end-to-end metrics, as declared in BENCHMARK.json. The op time tail
# and fail_ratio are printed and recorded but not gated: every op of a run
# does identical work, so the tail measures this machine's drift rather than
# the program, and fail_ratio is 0 when all is well (ok_ratio gates it).
END_TO_END = (("setup_s", "s"), ("op_s_p50", "s"), ("peak_rss_mb", "MB"),
              ("ok_ratio", "ratio"))


class BenchError(RuntimeError):
    pass


def write_configs(root, tmp, workload, seed, grid_n=None):
    """INI files for the workload: the shipped example with the workload
    seed as [sweep] seed, and the workload's grid or dimension."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not cp.read(os.path.join(root, EXAMPLE_INI)):
        raise BenchError("missing %s" % EXAMPLE_INI)
    cp["sweep"]["seed"] = str(seed)
    if workload == "single-n1024":
        cp["grid"]["n"] = "1024"
    if grid_n is not None:
        cp["grid"]["n"] = str(grid_n)
    variants = [("problem", "dim", d) for d in (5, 7)] if workload == "checks" else [None]
    paths = []
    for k, var in enumerate(variants):
        if var is not None:
            cp[var[0]][var[1]] = str(var[2])
        path = os.path.join(tmp, "%s-%d.ini" % (workload, k))
        with open(path, "w") as fh:
            cp.write(fh)
        paths.append(path)
    return paths


def run_worker(args, deadline):
    """Start worker.py in a fresh interpreter; returns (spawn time, its
    JSON result). Raises BenchError if it fails or overruns the deadline."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **PINNED)
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker overran the %.0f s deadline" % DEADLINE_S)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker exited with code %d" % proc.returncode)
    return spawned, json.loads(lines[-1])


def tail(values):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    above it, i.e. the 11th largest. With 20 samples or fewer no percentile
    above the median leaves that many, and the maximum is reported."""
    xs = sorted(values)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(name, seed, seconds, trace, grid_n=None):
    """Run one workload; returns the result record (see module docstring)."""
    deadline = time.monotonic() + DEADLINE_S
    tmp = os.path.join(ROOT, ".bench_tmp", "%d-%s" % (os.getpid(), name))
    os.makedirs(tmp, exist_ok=True)
    try:
        args = ["--workload", name, "--scratch", tmp,
                "--seconds", repr(seconds / PROCESSES), "--trace", str(trace)]
        for path in write_configs(ROOT, tmp, name, seed, grid_n):
            args += ["--config", path]
        runs = [run_worker(args, deadline) for _ in range(PROCESSES)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    procs = [out for _, out in runs]
    ops = [(t, on) for out in procs for t, on in zip(out["op_s"], out["traced"])]
    plain = [t for t, on in ops if not on]
    attempted = sum(out["attempted"] for out in procs)
    failed = sum(out["failed"] for out in procs)
    setup_each = [out["ready_mono"] - spawned for spawned, out in runs]
    if trace:
        metrics = {}
        for key, m in procs[0]["layer"].items():
            values = [v for out in procs for v in out["layer"][key]["values"]]
            metrics[key] = {"value": statistics.median(values) if values else 0,
                            "unit": m["unit"]}
            if any(out["layer"][key].get("absent") for out in procs):
                metrics[key]["absent"] = True
        traced = [t for t, on in ops if on]
        metrics["trace.overhead"] = {
            "value": statistics.median(traced) / statistics.median(plain) - 1.0
            if traced and plain else 0, "unit": "ratio"}
        for key in ("import_s", "kernel_s"):
            metrics["setup." + key] = {
                "value": statistics.median(out[key] for out in procs), "unit": "s"}
    else:
        e2e = {"setup_s": statistics.median(setup_each),
               "op_s_p50": statistics.median(plain),
               "peak_rss_mb": statistics.median(out["peak_rss_mb"] for out in procs),
               "ok_ratio": 1.0 - failed / attempted}
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END}
    tail_s, tail_pct = tail(plain) if plain else (None, None)
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
        "info": {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                 "processes": PROCESSES, "ops": len(ops), "untraced_ops": len(plain),
                 "setup_s_each": setup_each, "op_s_tail": tail_s, "op_s_tail_pct": tail_pct,
                 "fail_ratio": failed / attempted,
                 "errors": [e for out in procs for e in out["errors"]][:20],
                 "quality": next((out["quality"] for out in procs if out["quality"]), None),
                 "machine": procs[-1]["machine"]},
    }


def print_report(rec):
    info = rec["info"]
    print("workload %s  seed %s  %ss  trace %d  ops %d (%d untraced)"
          % (info["workload"], info["seed"], info["seconds"], info["trace"],
             info["ops"], info["untraced_ops"]))
    row = "  %-44s %14.6g %-6s%s"
    for name, m in rec["metrics"].items():
        extra = "  median of %d set-ups" % info["processes"] if name == "setup_s" else ""
        print(row % (name, m["value"], m["unit"], extra + ("  (absent)" if m.get("absent") else "")))
    if info["op_s_tail"] is not None and not info["trace"]:
        print(row % ("op_s_tail", info["op_s_tail"], "s", "  p%.1f of %d ops, not gated"
                     % (info["op_s_tail_pct"], info["untraced_ops"])))
    print(row % ("fail_ratio", info["fail_ratio"], "ratio", "  %d failed of %d units"
                 % (rec["failed"], rec["attempted"])))
    for err in info["errors"]:
        print("  error: %s" % err)
    print("# quality %s" % json.dumps(info["quality"], sort_keys=True))
    print("# machine %s" % json.dumps(info["machine"], sort_keys=True))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload; default: all of them, written to --out")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_out", "BENCH_local.json"),
                    help="record of an all-workload run")
    ap.add_argument("--grid-n", type=int, default=None,
                    help="override the solver grid size (smoke tests only)")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "semipositone")):
        print("no src/semipositone next to %s: run from a full checkout" % HERE,
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    try:
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, args.trace, args.grid_n)
            print_report(rec)
            records.append(rec)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    if args.workload:
        rec = records[0]
        print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({r["info"]["workload"]: r for r in records}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % args.out)
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
