"""Tests of the benchmark itself: failure accounting, the tracer's binding,
the tail statistic, and smoke runs on a small grid that must emit every
metric named in BENCHMARK.json with its unit.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

SMALL_N = 128   # smallest grid on which every row of the example converges

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module")
def sp():
    return worker.load_package(ROOT)


def _setup(sp, tmp_path, name):
    paths = run.write_configs(ROOT, str(tmp_path), name, seed=1, grid_n=SMALL_N)
    wl = worker.WORKLOADS[name]
    state, _ = wl.setup(sp, paths, str(tmp_path))
    return wl, state


def _raise_on_call(monkeypatch, module, name, which):
    """Make module.name raise RuntimeError on call number `which` only."""
    orig = getattr(module, name)
    calls = []

    def stub(*args, **kwargs):
        calls.append(1)
        if len(calls) == which:
            raise RuntimeError("no negative energy along the bump ray (stub)")
        return orig(*args, **kwargs)
    monkeypatch.setattr(module, name, stub)


def test_raising_op_is_counted_and_later_ops_run(sp, tmp_path, monkeypatch):
    wl, state = _setup(sp, tmp_path, "single-n1024")
    _raise_on_call(monkeypatch, sp.sweep_cli, "find_vtilde", 1)
    res = worker.measure(sp, wl, state, seconds=0.5)
    ops = len(res["op_s"])
    assert ops >= 2
    assert res["attempted"] == ops
    assert res["failed"] == 1
    assert res["errors"][0].startswith("op 0: RuntimeError")
    assert res["quality"]["n_converged"] == 1


def test_raising_sweep_fails_all_its_rows(sp, tmp_path, monkeypatch):
    wl, state = _setup(sp, tmp_path, "sweep-n512")
    _raise_on_call(monkeypatch, sp.sweep_cli, "find_vtilde", 3)
    res = worker.measure(sp, wl, state, seconds=0.0)
    assert len(res["op_s"]) == 1
    assert res["attempted"] == res["failed"] == 13
    assert not os.path.exists(state["emit_dir"])


def test_tracer_binds_by_identity_and_restores(sp):
    orig = sp.sweep_cli.run_sweep
    orig_solve = sp.riesz_potential.riesz_solve
    import numpy.linalg as la
    orig_la = la.solve
    tr = tracer.Tracer()
    tr.install()
    try:
        # the package __init__ and sweep_cli hold the same wrapped object
        assert sp.run_sweep is sp.sweep_cli.run_sweep is not orig
        assert sp.energy.riesz_solve is sp.riesz_potential.riesz_solve is not orig_solve
        assert la.solve is not orig_la
        assert not tr.absent
    finally:
        tr.uninstall()
    assert sp.run_sweep is sp.sweep_cli.run_sweep is orig
    assert sp.energy.riesz_solve is orig_solve
    assert la.solve is orig_la


def test_missing_function_is_reported_absent(sp, monkeypatch):
    monkeypatch.delattr(sp.riesz_potential, "ring_kernel")
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == {"riesz_potential.ring_kernel"}
    metrics = tracer.layer_values(tr, [])
    assert metrics["riesz_potential.ring_kernel.builds"]["absent"] is True
    assert metrics["riesz_potential.kernel_bytes"]["absent"] is True
    assert "absent" not in metrics["riesz_potential.riesz_solve.calls"]


def test_tail_leaves_ten_samples_above():
    assert run.tail(list(range(1, 26))) == (15, 60.0)
    assert run.tail(list(range(1, 21))) == (20, 100.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_per_layer_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    produced = {name: unit for name, (unit, _, _) in tracer.LAYER_METRICS.items()}
    produced.update({"setup.import_s": "s", "setup.kernel_s": "s", "trace.overhead": "ratio"})
    assert declared == produced
    assert [m["name"] for m in SPEC["end_to_end"]] == [k for k, _ in run.END_TO_END]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "12", "--trace", str(trace), "--grid-n", str(SMALL_N)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(rec) == {"correct", "attempted", "failed", "metrics"}
    assert rec["correct"] and rec["failed"] == 0 and rec["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in rec["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    assert all(isinstance(m["value"], (int, float)) for m in rec["metrics"].values())
    if trace:
        # every process traced at least one op
        assert rec["metrics"]["sweep_cli.build_problem.s"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
