import ast
import dataclasses
import glob
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import semipositone as sp
from semipositone import (energy, mountain_pass, radial_core, riesz_potential, sweep_cli,
                          weight)
from semipositone.sweep_cli import (CSV_HEADER, SweepReport, SweepRow,
                                    _config_echo, _default_a_values, _profile_csv,
                                    _summarize, build_problem, emit, main, parse_config)

from conftest import bits, emit_texts, oracle_checks, oracle_thresholds


def write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


SMALL = "[grid]\nn = 128\nr_max = 20\n[sweep]\ncount = 2\ndecades = 1\n"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_header_is_pinned():
    assert CSV_HEADER == ("a,level,norm_h2,sup_ext,min_value,neg_mass,"
                          "decay_fit,decay_pred,residual,converged")


def test_parse_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, ""))
    assert cfg.problem.dim == 5
    assert cfg.problem.family == "paper_example"
    assert cfg.grid.n == 512
    assert cfg.mp.tol_res == 1e-4
    assert cfg.sweep.count == 12


def test_parse_sectionless_is_problem(tmp_path):
    cfg = parse_config(write(tmp_path, "dim = 6\ngamma = 3.0\n"))
    assert cfg.problem.dim == 6
    assert cfg.problem.gamma == 3.0


def test_parse_a_list_and_bools(tmp_path):
    cfg = parse_config(write(tmp_path, "[sweep]\na_list = 0.5, 0.25\n"))
    assert cfg.sweep.a_list == (0.5, 0.25)


@pytest.mark.parametrize("text,fragment", [
    ("[problem]\nfoo = 1\n", "problem.foo"),
    ("[nope]\nx = 1\n", "unknown section"),
    ("dim = 4\n", "N >= 5"),
    ("gamma = 12\n", "(2, 10)"),
    ("[sweep]\nwarm_start = true\n", "sweep.warm_start"),
    ("[mp]\narmijo = 0.1\n", "mp.armijo"),
    ("[mp]\nmax_iter = 400\n", "mp.max_iter"),
    ("[grid]\nr_max = 0.8\n", "r_max"),
    ("[sweep]\ndecades = -2\n", "sweep.decades"),
    ("[sweep]\ndecades = 0\n", "sweep.decades"),
    ("[grid]\nn = 8\n", "16 nodes"),
    ("[sweep]\na_list = -1\n", ">= 0"),
    ("[sweep]\na_list = 0.5, nan\n", "sweep.a_list"),
    ("[grid]\nr_max = inf\n", "grid.r_max"),
    ("[weight]\nfamily = custom_table\n", "table_path"),
    ("[problem]\nfamily = cubic\n", "family"),
    ("[mp]\npath_nodes = 17\n", "mp.path_nodes: unknown key"),
    ("family = power\npower = 2\ngamma = 2.9\n", "(f1)"),
    ("[grid]\nn = 128\nn = 256\n", "option 'n' in section 'grid' already exists"),
    ("[grid]\nn = 128\n[grid]\nr_max = 8\n", "section 'grid' already exists"),
    ("[grid]\nn 128\n", "parsing errors"),
    # line numbers are the file's own, with or without section headers
    ("foo\n", "[line  1]: 'foo\\n'"),
    ("dim = 5\ndim = 6\n", "[line  2]: option 'dim' in section 'problem' already exists"),
    ("[grid]\nn = 128\nn = 256\n", "[line  3]: option 'n' in section 'grid'"),
    ("[mp]\ntol_res = 0\n", "mp.tol_res"),
    ("[mp]\ntol_res = -1\n", "mp.tol_res"),
])
def test_parse_rejections(tmp_path, text, fragment):
    with pytest.raises(ValueError, match=None) as err:
        parse_config(write(tmp_path, text))
    assert fragment in str(err.value)


def test_example_ini_shows_every_key_with_its_default():
    # its header says so; commented-out keys count as shown, and the file
    # parses to the defaults
    shown, section = {}, None
    with open(os.path.join(ROOT, "scripts", "configs", "example.ini")) as fh:
        for line in fh:
            head = re.match(r"\[(\w+)\]", line)
            if head:
                section = head.group(1)
                continue
            key = re.match(r"#?\s*(\w+)\s*=\s*([^#]*)", line)
            if key:
                shown[(section, key.group(1))] = key.group(2).strip()
    schema = sweep_cli._SCHEMA
    assert set(shown) == {(sec, k) for sec, keys in schema.items() for k in keys}
    defaults = sweep_cli.Config()
    for (sec, k), raw in shown.items():
        value = sweep_cli._coerce("%s.%s" % (sec, k), raw, schema[sec][k])
        assert value == getattr(getattr(defaults, sec), k), (sec, k)
    parsed = parse_config(os.path.join(ROOT, "scripts", "configs", "example.ini"))
    assert _config_echo(parsed, build_problem(parsed)[1]) \
        == _config_echo(defaults, build_problem(defaults)[1])


def test_perfbench_traced_functions_exist():
    # the benchmark tracer records a deleted function as absent and runs on
    tracer_path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", tracer_path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [(mod, name) for mod, name in tracer.TARGETS
               if not callable(getattr(importlib.import_module("semipositone." + mod),
                                       name, None))]
    assert missing == []


def test_perfbench_tracer_binds_and_reads_mp_solve(example_spec, example_w, grid128,
                                                  geometry128):
    # the tracer finds every traced name in the loaded package, and the
    # diagnostics it reads off an mp_solve result are there: a deletion that
    # turns a benchmark layer "absent" fails here
    tracer_path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", tracer_path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tr.absent == set()
        tr.begin("op")
        sol = sp.mp_solve(sp.ShiftedNonlinearity(example_spec, 0.0), example_w, grid128,
                          None, geometry128)
    finally:
        tr.uninstall()
    assert len(sol.diagnostics["history_residual"]) >= 1
    assert isinstance(sol.diagnostics["newton_used"], bool)
    count = tr.ops["op"].count
    assert tr.ops["op"].calls["mountain_pass.mp_solve"] == 1
    assert count["mountain_pass.deform_iters"] == len(sol.diagnostics["history_residual"])
    assert count["mountain_pass.newton_used"] == sol.diagnostics["newton_used"]


@pytest.mark.parametrize("text,args", [
    ("[grid]\nn = 128\n", ["--single-a", "1e15", "--check-hypotheses"]),  # ladder cap
    ("[problem]\ndim = 6\n", []),  # the default a-list at dim 6
], ids=["single-a-1e15", "dim-6"])
def test_solve_error_exits_two_without_sweep_files(tmp_path, capsys, text, args):
    # a RuntimeError of any row (the vtilde ladder cap, a pinned crest) is
    # reported as a solve error, not a traceback; no sweep file is written,
    # and the hypothesis report stays
    out = tmp_path / "out"
    assert main(["--config", write(tmp_path, text), "--out", str(out)] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("solve error: ")
    assert not (out / "sweep.csv").exists() and not (out / "summary.json").exists()
    assert (out / "checks.json").exists() == ("--check-hypotheses" in args)


@pytest.mark.parametrize("table", ["0.5,1\n", "0.5\n1.0\n", "0.5,1,2\n1.0,1,2\n"],
                         ids=["one-row", "one-column", "three-columns"])
def test_malformed_table_is_a_config_error(tmp_path, capsys, table):
    # one row, one column or three columns: a config error naming the
    # problem, not an IndexError, and nothing written
    tab = tmp_path / "g.csv"
    tab.write_text(table)
    out = tmp_path / "out"
    cfg = write(tmp_path, "[weight]\nfamily = custom_table\ntable_path = %s\n" % tab)
    assert main(["--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert ("weight.table_path" in err) == (table != "0.5,1\n")
    assert not out.exists()


def test_percent_in_table_path_is_literal(tmp_path, capsys):
    # a '%' in a value is the path's own character, not configparser's
    # interpolation: a missing file is a config error naming the path, and a
    # table under a '%' directory loads
    out = tmp_path / "out"
    missing = tmp_path / "x%y.csv"
    cfg = write(tmp_path, "[weight]\nfamily = custom_table\ntable_path = %s\n" % missing)
    assert main(["--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(missing) in err
    assert not out.exists()
    (tmp_path / "100%").mkdir()
    table = tmp_path / "100%" / "g%(r)s.csv"
    np.savetxt(table, np.c_[[0.5, 0.75, 1.0], [1.0, 2.0, 1.0]], delimiter=",")
    cfg = parse_config(write(tmp_path, "[weight]\nfamily = custom_table\ntable_path = %s\n"
                             "[grid]\nn = 128\n" % table))
    assert cfg.weight.table_path == str(table)
    assert build_problem(cfg)[1].norm(np.inf) == 2.0


def test_power_family_needs_gamma_at_least_power_plus_one(tmp_path, capsys):
    # f = t^power grows like t^(gamma-1) only when gamma >= power + 1; the
    # defaults power = 3, gamma = 2.5 used to pass parsing and die in
    # find_vtilde. Now solve exits 2 with a config error that names (f1)
    out = tmp_path / "out"
    assert main(["--config", write(tmp_path, "family = power\n"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "(f1)" in err
    assert not out.exists()
    for text in ("family = power\npower = 3\ngamma = 4\n", "family = power\npower = 1.5\n"):
        assert parse_config(write(tmp_path, text)).problem.family == "power"


def test_build_problem_families(tmp_path):
    cfg = parse_config(write(tmp_path, "family = power\npower = 3\ngamma = 4\n"))
    spec, weight, grid = sweep_cli.build_problem(cfg)
    assert spec.f(2.0) == pytest.approx(8.0)
    assert weight.name == "paper_example"
    assert grid.n == 512


def test_default_a_values(geometry128):
    vals = _default_a_values(geometry128, 12, 2.0)
    assert len(vals) == 12
    assert vals[0] == pytest.approx(0.5 * geometry128.a1)
    assert vals[-1] == pytest.approx(0.5 * geometry128.a1 * 1e-2)
    assert all(x > y for x, y in zip(vals, vals[1:]))


def fake_row(a, norm, min_value, converged=True):
    return SweepRow(a=a, level=2.0, norm_h2=norm, sup_ext=1.0,
                    min_value=min_value, neg_mass=max(0.0, -min_value),
                    decay_fit=1.0, decay_pred=1.0, residual=1e-9,
                    converged=converged)


def test_summarize_threshold_logic(grid128, geometry128):
    rows = [fake_row(4.0, 1.3, -0.5), fake_row(2.0, 1.2, -0.2),
            fake_row(1.0, 1.1, 0.0), fake_row(0.5, 1.05, 0.0),
            fake_row(0.0, 1.0, 0.0)]
    profiles = {r.a: np.full(grid128.n, max(r.norm_h2, 1.0)) for r in rows}
    for r in rows:
        profiles[r.a][5] = r.min_value if r.min_value < 0 else profiles[r.a][5]
    s = _summarize(rows, profiles, grid128, geometry128)
    assert s["threshold_index"] == 2
    assert s["a3_estimate"] == 1.0
    assert s["a2_estimate"] == 2.0
    assert s["beta1"] > 0
    assert s["n_converged"] == 5


def test_summarize_dirty_split_is_none(grid128, geometry128):
    rows = [fake_row(4.0, 1.0, 0.0), fake_row(2.0, 1.0, -0.5),
            fake_row(1.0, 1.0, 0.0), fake_row(0.0, 1.0, 0.0)]
    profiles = {r.a: np.ones(grid128.n) for r in rows}
    s = _summarize(rows, profiles, grid128, geometry128)
    assert s["threshold_index"] is None
    # a3 exists anyway: below a=1 everything is clean
    assert s["a3_estimate"] == 1.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-6, 1e3), unique=True, max_size=14), st.booleans(),
       st.sampled_from([1.0, 0.5, 0.0]), st.data())
def test_summarize_scan_matches_tail_loops(grid128, geometry128, a_values, positone, ref,
                                           data):
    # synthetic rows in descending a, the positone row last when present:
    # the one scan gives the a2, a3 and threshold index of the loops that
    # rescanned every tail; min u straddles the 1e-8 sup|u| tolerance
    a_desc = sorted(a_values, reverse=True) + ([0.0] if positone else [])
    rows, profiles = [], {}
    for a in a_desc:
        min_value = data.draw(st.sampled_from([-0.5, -2e-8, -2e-9, 0.0, 0.5]))
        norm = ref if a == 0.0 else ref * data.draw(st.sampled_from([0.5, 0.75, 1.0, 1.2, 1.3]))
        rows.append(fake_row(a, norm, min_value, converged=data.draw(st.booleans())))
        profiles[a] = np.ones(grid128.n)
        profiles[a][0] = min_value
    s = _summarize(rows, profiles, grid128, geometry128)
    assert (s["a2_estimate"], s["a3_estimate"], s["threshold_index"]) == \
        oracle_thresholds(rows, profiles)


def test_emit_empty_sweep(tmp_path, grid128, geometry128):
    rep = SweepReport(rows=[], summary=_summarize([], {}, grid128, geometry128),
                      config_echo={}, profiles={}, grid_r=grid128.r)
    paths = emit(rep, str(tmp_path / "out"))
    csv = open(paths[0]).read()
    assert csv == CSV_HEADER + "\n"
    blob = json.load(open(paths[1]))
    assert blob["summary"]["a2_estimate"] is None
    assert blob["summary"]["a3_estimate"] is None
    assert blob["summary"]["beta1"] is None


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    cfg = parse_config(write(tmp_path_factory.mktemp("cfg"), SMALL))
    return sweep_cli.run_sweep(cfg)


def test_run_sweep_row_structure(small_report):
    rows = small_report.rows
    assert len(rows) == 3
    assert rows[-1].a == 0.0
    assert all(x.a > y.a for x, y in zip(rows, rows[1:]))
    assert all(r.converged for r in rows)
    # levels clear the rim
    assert all(r.level >= small_report.summary["beta"] - 1e-6 for r in rows)


def test_run_sweep_summary_sanity(small_report):
    s = small_report.summary
    assert s["n_rows"] == 3
    assert s["beta1"] > 0
    dists = [d for _, d in s["limit_sup_distance"]]
    assert all(x > y for x, y in zip(dists, dists[1:]))


def test_summary_reports_morse_index(tmp_path, small_report):
    # one [a, index] pair per row, in row order, and every converged row certified
    pairs = small_report.summary["morse_index"]
    assert [a for a, _ in pairs] == [r.a for r in small_report.rows]
    assert all(idx == 1 for (_, idx), r in zip(pairs, small_report.rows) if r.converged)
    blob = json.load(open(emit(small_report, str(tmp_path / "out"))[1]))
    assert blob["summary"]["morse_index"] == pairs


def test_summary_reports_level_gap(tmp_path, small_report):
    # one [a, gap] pair per row: the relative gap between the level and its
    # weak form, of the order of the residual at a critical point
    pairs = small_report.summary["level_gap"]
    assert [a for a, _ in pairs] == [r.a for r in small_report.rows]
    assert all(0.0 <= gap <= 1e-8 for _, gap in pairs)
    blob = json.load(open(emit(small_report, str(tmp_path / "out"))[1]))
    assert blob["summary"]["level_gap"] == pairs


def test_emit_roundtrip(tmp_path, small_report):
    paths = emit(small_report, str(tmp_path / "out"))
    lines = open(paths[0]).read().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(small_report.rows)
    first = lines[1].split(",")
    assert float(first[0]) == small_report.rows[0].a
    assert first[-1] in ("true", "false")
    blob = json.load(open(paths[1]))
    assert blob["config"]["grid"]["n"] == 128
    assert blob["summary"]["n_rows"] == 3
    # one profile per row
    assert len(paths) == 2 + len(small_report.rows)


def synthetic_report(finite):
    """A report whose cells leave the positional range of repr: subnormal,
    tiny, huge and negative cells, signed zeros and, unless finite, nan and
    +-inf, in the r column, in every profile and in the rows."""
    cells = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e-5, -9.99e-5, 1e-4, 0.5, -3.0,
                      1e15, 1e16, 3.3e17, -1.7976931348623157e308, 1e300]
                     + ([] if finite else [np.nan, np.inf, -np.inf]))
    shifts = (2.0, 1e-9, 0.0)
    rows = [fake_row(a, 1e20, -1e-20) for a in shifts]
    profiles = {a: np.roll(cells, k) for k, a in enumerate(shifts)}
    return SweepReport(rows=rows, summary={"n_rows": len(rows)}, config_echo={},
                       profiles=profiles, grid_r=np.roll(cells, -1))


@pytest.mark.parametrize("name", ["small_report", "synthetic_report"])
def test_emit_matches_per_cell_formatter(tmp_path, request, name):
    # one write per file, each profile from one array, writes what the per-cell
    # formatter writes, byte for byte, for every file: on a solved sweep, and
    # on cells that repr writes in exponent notation or as nan and +-inf
    report = (synthetic_report(finite=False) if name == "synthetic_report"
              else request.getfixturevalue(name))
    paths = emit(report, str(tmp_path / "out"))
    written = {}
    for path in paths:
        with open(path) as fh:
            written[os.path.basename(path)] = fh.read()
    assert written == emit_texts(report)


# a cell repr writes in positional notation (0, or 1e-4 <= |x| < 1e16), or any cell
POSITIONAL = st.one_of(st.sampled_from([0.0, -0.0]),
                       st.floats(1e-4, 1e16, exclude_max=True),
                       st.floats(-1e16, -1e-4, exclude_min=True))
ANY_CELL = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([POSITIONAL, ANY_CELL]).flatmap(
    lambda cells: hnp.arrays(np.float64, st.tuples(st.integers(0, 20), st.just(2)),
                             elements=cells)))
@example(np.array([[0.0, -0.0]]))
@example(np.array([[1e-4, -np.nextafter(1e16, 0.0)], [-1e-4, 1.0]]))
@example(np.array([[1e-4, np.nextafter(1e-4, 0.0)]]))
@example(np.array([[1e16, np.nextafter(1e16, 0.0)]]))
@example(np.array([[5e-324, 1.7976931348623157e308], [-1.7976931348623157e308, 1.0]]))
@example(np.empty((0, 2)))
def test_profile_csv_is_repr(cells):
    # both columns come from one strategy, so a case takes either the
    # one-call orjson path (every cell positional) or the repr path; the
    # text is the per-cell repr join, on both sides of the positional
    # range [1e-4, 1e16) and at its edges
    r, u = cells[:, 0], cells[:, 1]
    want = "r,u\n" + "".join("%s,%s\n" % (repr(x), repr(y))
                             for x, y in zip(r.tolist(), u.tolist()))
    assert _profile_csv(r, u) == want


@pytest.mark.parametrize("text", ["", "[sweep]\na_list = 0.5, 0.25\n[grid]\nn = 64\n"])
def test_config_echo_matches_asdict(tmp_path, text):
    # the fields read in place give the deep copy's echo, tuples as lists
    cfg = parse_config(write(tmp_path, text))
    expect = {name: {k: (list(v) if isinstance(v, tuple) else v)
                     for k, v in dataclasses.asdict(getattr(cfg, name)).items()}
              for name in ("problem", "weight", "grid", "mp", "sweep")}
    echo = _config_echo(cfg, build_problem(cfg)[1])
    assert echo == expect
    assert json.dumps(echo, sort_keys=True) == json.dumps(expect, sort_keys=True)


@pytest.mark.parametrize("a_values", [[np.nan, -5.0], [0.5, -1e-12], [np.inf], [0.5, np.nan]])
def test_run_sweep_rejects_bad_shifts(tmp_path, a_values):
    # a negative or non-finite shift is an error, not a row silently dropped
    cfg = parse_config(write(tmp_path, SMALL))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        sweep_cli.run_sweep(cfg, a_values)


def test_run_sweep_folds_repeats_and_zero(tmp_path):
    # repeated shifts and an explicit 0 fold into one row each, the
    # positone row last
    cfg = parse_config(write(tmp_path, SMALL))
    report = sweep_cli.run_sweep(cfg, [0.0, 2.0, 0.0, 2.0])
    assert [r.a for r in report.rows] == [2.0, 0.0]


def test_sweep_deterministic(tmp_path):
    cfg = parse_config(write(tmp_path, SMALL))
    r1 = sweep_cli.run_sweep(cfg)
    r2 = sweep_cli.run_sweep(cfg)
    d1 = emit(r1, str(tmp_path / "o1"))
    d2 = emit(r2, str(tmp_path / "o2"))
    assert open(d1[0]).read() == open(d2[0]).read()
    assert open(d1[1]).read() == open(d2[1]).read()


def test_default_sweep_reads_decay_without_a_fit(tmp_path, monkeypatch):
    # beyond supp g every row is r^{4-N} (A + B r^{-2}) exactly, so the
    # shipped sweep reads A off each row's source: no least-squares solve
    calls, lstsq = [], np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: calls.append(args) or lstsq(*args, **kw))
    report = sweep_cli.run_sweep(parse_config(write(tmp_path, "")))
    assert calls == [] and len(report.rows) == 13
    assert all(abs(r.decay_fit / r.decay_pred - 1.0) <= 1e-12 for r in report.rows)


def test_main_config_error(tmp_path, capsys):
    rc = main(["--config", write(tmp_path, "dim = 4\n"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_main_config_syntax_error(tmp_path, capsys):
    # a key given twice is the file's error, reported as such, not a traceback
    out = tmp_path / "out"
    path = write(tmp_path, "[grid]\nn = 128\nn = 256\n")
    assert main(["--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and path in err
    assert not out.exists()


@pytest.mark.parametrize("text,fragment", [
    ("[weight]\nd = -1\n", "d must be positive"),
    ("[weight]\nr_in = 0.2\n", "annulus radii"),
    ("[weight]\nfamily = custom_table\ntable_path = TABLE\n", "r=-0.5 < 0"),
])
def test_main_weight_error_is_config_error(tmp_path, capsys, text, fragment):
    table = tmp_path / "g.csv"  # starts at r = -0.5
    np.savetxt(table, np.c_[[-0.5, 0.5, 1.0], [1.0, 1.0, 1.0]], delimiter=",")
    out = tmp_path / "out"
    rc = main(["--config", write(tmp_path, text.replace("TABLE", str(table))), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and fragment in err
    assert not out.exists()


def test_main_table_past_r_max_is_config_error(tmp_path, capsys):
    # a table sets its own support, whatever [weight] r_out says: rows out to
    # r = 25 on a grid of radius 20 are a config error, not a traceback
    r = np.linspace(0.0, 25.0, 26)
    table = tmp_path / "g.csv"
    np.savetxt(table, np.c_[r, 1.0 / (1.0 + r**2)], delimiter=",")
    text = "[weight]\nfamily = custom_table\ntable_path = %s\n[grid]\nn = 128\n" % table
    out = tmp_path / "out"
    rc = main(["--config", write(tmp_path, text), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "r_out=25" in err
    assert not out.exists()


def test_table_inside_unit_ball_parses_and_solves(tmp_path):
    # the support of a table weight is the table's own, so [weight] r_out
    # (1 by default) does not bound r_max; a grid ending inside B_1 has no
    # exterior node, so sup_ext is NaN and limit_sup_distance is empty
    r = np.linspace(0.1, 0.8, 8)
    table = tmp_path / "g.csv"
    np.savetxt(table, np.c_[r, 1.0 + r], delimiter=",")
    cfg = parse_config(write(tmp_path, "[weight]\nfamily = custom_table\ntable_path = %s\n"
                             "[grid]\nn = 128\nr_max = 0.95\n[sweep]\ncount = 2\n" % table))
    report = sweep_cli.run_sweep(cfg)
    assert len(report.rows) == 3 and all(row.converged for row in report.rows)
    assert [idx for _, idx in report.summary["morse_index"]] == [1] * 3
    assert all(np.isnan(row.sup_ext) for row in report.rows)
    assert report.summary["limit_sup_distance"] == []
    # the echo gives the support the table was built on, not the unread
    # [weight] r_in / r_out defaults, and no d
    assert report.config_echo["weight"] == {"family": "custom_table", "r_in": 0.1,
                                            "r_out": 0.8, "table_path": str(table)}


def test_main_degenerate_geometry_exits_2(tmp_path, capsys):
    # dim 7, example data: eps = cap/2 leaves the growth envelope at its floor
    # and estimate_a1 finds no positive rim
    out = tmp_path / "out"
    rc = main(["--config", write(tmp_path, "[problem]\ndim = 7\n[grid]\nn = 128\n"),
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("geometry error: degenerate constants")
    assert not out.exists()


def test_bg_iteration_runs_once(tmp_path, monkeypatch):
    # the B_g maximiser that estimate_a1 computes is the path direction:
    # the p = 2 power iteration runs once per sweep, not again for the bump
    orig, powers = energy._ratio_sup, []

    def counting(sup, p):
        powers.append(p)
        return orig(sup, p)
    monkeypatch.setattr(energy, "_ratio_sup", counting)
    cfg = parse_config(write(tmp_path, "[grid]\nn = 1024\n"))
    report = sweep_cli.run_sweep(cfg, [0.0])
    assert powers.count(2.0) == 1
    assert report.rows[0].converged


def test_straight_path_stays_on_support(tmp_path, monkeypatch):
    # the batch shares one bump ray and evaluates F_a on the m nodes of
    # supp g: a sweep pays 4 norms of the bump whatever its row count
    # (make_bump's, the ladder's, the crest path's, solve_shifts'), counted
    # as calls of h2_inner, and 10 integrals in all, where the batch takes
    # the norms of all rows at once as integrals of stacked values; the
    # trailing axis of every F_a argument is the m nodes, never the grid,
    # the 31 rungs of the vtilde ladder are one F_a call for the whole
    # sweep, and no F_a argument holds more than the 31 rungs times m, or
    # the 17 path nodes times m per row
    h2_calls, integrals, fa_shapes = [], [], []
    h2_inner, integrate_values = radial_core.h2_inner, radial_core.integrate_values
    eval_fa_prim = energy.eval_Fa

    def counting_h2(u, v):
        h2_calls.append(u.grid.n)
        return h2_inner(u, v)

    def counting_integrals(grid, values, *args):
        integrals.append(np.shape(values))
        return integrate_values(grid, values, *args)

    def sizing_fa(shifted, t):
        fa_shapes.append(np.shape(t))
        return eval_fa_prim(shifted, t)
    monkeypatch.setattr(radial_core, "h2_inner", counting_h2)
    monkeypatch.setattr(radial_core, "integrate_values", counting_integrals)
    monkeypatch.setattr(energy, "eval_Fa", sizing_fa)
    cfg = parse_config(write(tmp_path, SMALL))
    report = sweep_cli.run_sweep(cfg)
    _, weight, grid = sweep_cli.build_problem(cfg)
    m = np.count_nonzero(sp.sample_on_grid(weight, grid).values)
    rows = len(report.rows)
    assert all(r.converged for r in report.rows)
    assert len(h2_calls) <= 4
    assert len(integrals) <= 10
    assert fa_shapes and all(shape[-1] == m < grid.n for shape in fa_shapes)
    assert fa_shapes.count((31, m)) == 1
    assert all(np.prod(shape) <= max(31, 17 * rows) * m for shape in fa_shapes)


def test_solver_runs_on_one_support_block(tmp_path, monkeypatch):
    # supp g is sampled and discretised once per sweep, and every stage reads
    # that support: each row's ray is searched by find_vtilde, and the solve
    # applies a potential only where it ends, once for all rows after the
    # last search, to extend the polished points to the grid; the residuals
    # are sums over S
    counts = {"apply_potential": 0, "support": 0, "sample_on_grid": 0, "riesz_values": 0}
    shapes = []
    for name in counts:
        home = weight if name == "sample_on_grid" else riesz_potential
        orig = getattr(home, name)

        def counting(*args, _orig=orig, _name=name):
            counts[_name] += 1
            if _name == "riesz_values":
                shapes.append(np.shape(args[1]))
            return _orig(*args)
        for mod in (weight, riesz_potential, energy, mountain_pass, sweep_cli):
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counting)
    starts, find_vtilde = [], sweep_cli.find_vtilde

    def row_start(*args):
        starts.append(dict(counts))
        return find_vtilde(*args)
    monkeypatch.setattr(sweep_cli, "find_vtilde", row_start)
    report = sweep_cli.run_sweep(parse_config(write(tmp_path, "[grid]\nn = 128\n")))
    assert len(starts) == len(report.rows) == 13
    assert all(r.converged for r in report.rows)
    assert counts["support"] == counts["sample_on_grid"] == 1
    # one potential for the B_g maximiser before the first search, one
    # batched potential for all rows after the last
    assert counts["apply_potential"] == 0
    assert all(begin["riesz_values"] == 1 for begin in starts)
    assert shapes == [(128,), (13, 128)]


def test_sweep_takes_no_stencil(tmp_path, monkeypatch):
    # every norm, level and residual of a solve is int h v over the source:
    # the finite-difference Laplacian is never called
    calls = []
    laplacian = radial_core.laplacian

    def counting(u):
        calls.append(u.grid.n)
        return laplacian(u)
    monkeypatch.setattr(radial_core, "laplacian", counting)
    report = sweep_cli.run_sweep(parse_config(write(tmp_path, "[grid]\nn = 128\n")))
    assert len(report.rows) == 13 and all(r.converged for r in report.rows)
    assert calls == []


@pytest.mark.parametrize("table", [
    [[0.5, 1.0], [1.0, 1.0]],                                   # g = 1 on [0.5, 1]
    np.c_[np.linspace(0.0, 19.0, 40), 1.0 / (1.0 + np.linspace(0.0, 19.0, 40) ** 2)],
])
def test_table_weights_converge_at_index_one(tmp_path, table):
    # with the norm on R^N, the flat table's polished point clears the rim and
    # the [0, 19] table's straight path has a crest of mountain-pass type
    tab = tmp_path / "g.csv"
    np.savetxt(tab, np.asarray(table), delimiter=",")
    cfg = parse_config(write(tmp_path, "[weight]\nfamily = custom_table\n"
                             "table_path = %s\n[grid]\nn = 256\n[sweep]\ncount = 3\n" % tab))
    report = sweep_cli.run_sweep(cfg)
    assert len(report.rows) == 4 and all(r.converged for r in report.rows)
    assert [idx for _, idx in report.summary["morse_index"]] == [1] * 4


def test_wide_support_sweep_holds_one_stack_chunk(tmp_path, monkeypatch):
    # the [0, 19] table fills the grid (m = 364 of n = 384): held at once,
    # the 13 rows' (k, m, m) Newton and eigvals stacks would take 13 MB;
    # built under a 1 MB budget, one row at a time, the solve peaks below
    # 60% of one such stack (the rest is the O(k 17 m) crest path), and
    # every number comes out as with the stacks held at once
    tab = tmp_path / "g.csv"
    r = np.linspace(0.0, 19.0, 40)
    np.savetxt(tab, np.c_[r, 1.0 / (1.0 + r ** 2)], delimiter=",")
    cfg = parse_config(write(tmp_path, "[weight]\nfamily = custom_table\n"
                             "table_path = %s\n[grid]\nn = 384\n" % tab))
    solve_shifts, peaks = sweep_cli.solve_shifts, []

    def traced(*args):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sols = solve_shifts(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        return sols
    monkeypatch.setattr(sweep_cli, "solve_shifts", traced)
    held = sweep_cli.run_sweep(cfg)
    monkeypatch.setattr(mountain_pass, "_STACK_BYTES", 2 ** 20)
    chunked = sweep_cli.run_sweep(cfg)
    k, m = len(chunked.rows), chunked.geometry.support.nodes.size
    assert k == 13 and m == 364 and all(r.converged for r in chunked.rows)
    assert peaks[1] < 0.6 * 8 * k * m * m < peaks[0]
    assert chunked.rows == held.rows
    assert all(np.array_equal(chunked.profiles[a], held.profiles[a]) for a in held.profiles)


@pytest.mark.parametrize("name", ["small_report", "synthetic_report"])
def test_profile_csv_cells_round_trip(tmp_path, request, name):
    # each profile, formatted as one interleaved [r, u] array, writes the
    # same bytes as one "%r,%r" line per node, and every cell reads back
    # exactly, signed zeros
    # and the cells outside the positional range included
    report = (synthetic_report(finite=True) if name == "synthetic_report"
              else request.getfixturevalue(name))
    paths = emit(report, str(tmp_path / "out"))
    profiles = sorted(report.profiles.items(), reverse=True)
    assert len(paths[2:]) == len(profiles)
    for path, (_, vals) in zip(paths[2:], profiles):
        with open(path) as fh:
            text = fh.read()
        assert text == "r,u\n" + "".join("%r,%r\n" % (float(r), float(u))
                                         for r, u in zip(report.grid_r, vals))
        cells = [line.split(",") for line in text.splitlines()[1:]]
        assert [float(r) for r, _ in cells] == report.grid_r.tolist()
        assert [float(u) for _, u in cells] == vals.tolist()
        assert [np.signbit(float(u)) for _, u in cells] == np.signbit(vals).tolist()


def test_sweep_and_checks_import_no_quadpack_or_optimize(tmp_path):
    # a sweep and the default checks run on fixed Gauss rules, closed forms,
    # terminating series and dense numpy solves on the support, so a process
    # that only solves and checks never imports any scipy module, let alone
    # scipy.integrate or scipy.optimize; nor orjson, which only emit reads.
    # Probes inside or near a table's support, and delta = 2** probes just
    # off the annulus, take the same closed forms on Gauss panels. The Gauss
    # rule is built without numpy.polynomial and the merges sort without
    # np.unique, so after emit and a generic eval_F (no F_closed) as well,
    # neither numpy.polynomial nor numpy.ma is loaded
    small = write(tmp_path, SMALL)
    dim7 = write(tmp_path, "[problem]\ndim = 7\n" + SMALL, "dim7.ini")
    np.savetxt(tmp_path / "g.csv", np.c_[[0.5, 0.7, 0.85, 1.3], [1.0, 1.4, 1.4, 0.3]],
               delimiter=",")
    table = write(tmp_path, SMALL + "[weight]\nfamily = custom_table\ntable_path = %s\n"
                  % (tmp_path / "g.csv"), "table.ini")
    code = "\n".join([
        "import sys",
        "import semipositone as sp",
        "report = sp.run_sweep(sp.parse_config(%r))" % small,
        "for path in (%r, %r):" % (small, dim7),
        "    reports = sp.sweep_cli.run_hypothesis_checks(sp.parse_config(path))",
        "    assert all(r.passed for r in reports)",
        "reports = sp.sweep_cli.run_hypothesis_checks(sp.parse_config(%r))" % table,
        "assert [r.passed for r in reports][-2:] == [True, False]",
        "w = sp.example_weight()",
        "assert 0 < sp.weight.g2_left_side(w, sp.critical_exponent(5), 1.0001) < float('inf')",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'orjson'))",
        "sp.sweep_cli.emit(report, %r)" % str(tmp_path / "out"),
        "spec = sp.NonlinearitySpec(f=lambda t: t * t, gamma=3.0, c_f=1.0, r_mono=1.0)",
        "assert abs(sp.eval_F(spec, [0.5, 2.0])[1] - 8.0 / 3.0) < 1e-14",
        "print(sorted(m for m in sys.modules",
        "             if m.split('.')[:2] in (['numpy', 'polynomial'], ['numpy', 'ma'])))"])
    src = os.path.dirname(os.path.dirname(os.path.abspath(sp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-3:] == ["[]", "[]", "[]"]


def _declared(*extras):
    """pyproject's runtime dependencies and those of the named extras, by name."""
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    deps = project["dependencies"] + [d for e in extras
                                      for d in project["optional-dependencies"][e]]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps}


def _non_stdlib_imports(*patterns):
    """Top-level names of the absolute imports in the files matching the glob
    patterns under the repository root, at the top of a file or inside a
    function, less the standard library."""
    imported = set()
    for pattern in patterns:
        for path in glob.glob(os.path.join(ROOT, pattern)):
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update(a.name.split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
    return imported - set(sys.stdlib_module_names)


def test_runtime_imports_are_the_declared_dependencies():
    # every module the package imports, at the top of a file or inside a
    # function, is in the standard library or among pyproject's runtime
    # dependencies, and every dependency is imported
    assert _non_stdlib_imports(os.path.join("src", "semipositone", "*.py")) == _declared()


def test_test_and_script_imports_are_declared():
    # every module the tests and scripts import, other than the package and
    # conftest, is a runtime dependency or in the test extra
    imported = _non_stdlib_imports(os.path.join("tests", "*.py"), os.path.join("scripts", "*.py"))
    assert imported - {"semipositone", "conftest"} <= _declared("test")


def test_run_positone_script_small_ball():
    # r_max = 8 is enough once the norm is int h u on R^N: the script exits 0
    # (converged) and its two readings of the level agree
    src = os.path.dirname(os.path.dirname(os.path.abspath(sp.__file__)))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "run_positone.py"),
                          "--n", "128", "--r-max", "8"],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    gap = re.search(r"weak level .*\(relative gap (\S+)\)", out.stdout)
    assert gap and float(gap.group(1)) <= 1e-8


def test_run_sweep_script_on_example_at_n128(tmp_path):
    # the shipped config at 128 nodes: exit 0 (every row converged) and the
    # 12 shifts plus the positone row printed between header and summary
    text = open(os.path.join(ROOT, "scripts", "configs", "example.ini")).read()
    assert text.count("n = 512 ") == 1
    cfg = write(tmp_path, text.replace("n = 512 ", "n = 128 "))
    src = os.path.dirname(os.path.dirname(os.path.abspath(sp.__file__)))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "run_sweep.py"),
                          "--config", cfg],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("sweep: 13 rows")
    rows = lines[2:lines.index("summary:")]
    assert len(rows) == 13
    assert all(row.split()[-1] == "ok" for row in rows)


def test_run_positone_decay_matches_sweep_row(tmp_path, capsys):
    # the script forms the decay source on supp g as the sweep does, so its
    # printed decay numbers are the a = 0 row of sweep.csv for the same problem
    spec = importlib.util.spec_from_file_location(
        "run_positone", os.path.join(ROOT, "scripts", "run_positone.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--n", "128", "--r-max", "8"]) == 0
    printed = re.search(r"decay  fit   = (\S+)    predicted = (\S+)   ratio = (\S+)",
                        capsys.readouterr().out)
    out = tmp_path / "out"
    assert main(["--config", write(tmp_path, "[grid]\nn = 128\nr_max = 8\n"),
                 "--out", str(out)]) == 0
    last = open(out / "sweep.csv").read().splitlines()[-1].split(",")
    assert float(last[0]) == 0.0
    fit, pred = float(last[6]), float(last[7])
    assert printed.groups() == ("%.6g" % fit, "%.6g" % pred, "%.6f" % (fit / pred))


def test_run_positone_profile_is_the_sweep_format(tmp_path, capsys):
    # --profile writes the profile CSV of the sweep, which is, byte for byte,
    # one "%r,%r" line per node under the header r,u
    spec = importlib.util.spec_from_file_location(
        "run_positone", os.path.join(ROOT, "scripts", "run_positone.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    path = tmp_path / "profile.csv"
    assert script.main(["--n", "128", "--profile", str(path)]) == 0
    grid = sp.make_grid(5, 128, 20.0)
    u = sp.mp_solve(sp.ShiftedNonlinearity(sp.example_nonlinearity(dim=5), 0.0),
                    sp.example_weight(dim=5), grid).u
    want = "r,u\n" + "".join("%r,%r\n" % (float(r), float(v)) for r, v in zip(grid.r, u.values))
    assert path.read_bytes() == want.encode()


def test_main_missing_file(tmp_path, capsys):
    rc = main(["--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("shift", ["-5", "nan", "inf"])
def test_main_rejects_bad_single_a(tmp_path, capsys, shift):
    out = tmp_path / "out"
    rc = main(["--config", write(tmp_path, SMALL), "--out", str(out),
               "--single-a", shift])
    assert rc == 2
    assert "--single-a" in capsys.readouterr().err
    assert not out.exists()


def test_main_single_a_zero(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["--config", write(tmp_path, SMALL), "--out", str(out),
               "--single-a", "0"])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith("true")


def test_main_check_hypotheses_only(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["--config", write(tmp_path, SMALL), "--out", str(out),
               "--check-hypotheses"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "g2(delta=1)" in printed
    assert "g2(delta=10)" in printed
    blob = json.load(open(out / "checks.json"))
    assert len(blob) == 7
    assert all(v["passed"] for v in blob.values())


@pytest.mark.parametrize("family", ["paper_example", "power"])
@pytest.mark.parametrize("dim", [5, 6, 7, 8, 9])
def test_hypothesis_checks_match_per_call_sampling(family, dim):
    # one pass reads one f sample and one Gauss rule per spec; every report
    # is the one the checkers give when each samples f and g on its own
    cfg = parse_config(os.path.join(ROOT, "scripts", "configs", "example.ini"))
    cfg.problem = dataclasses.replace(cfg.problem, dim=dim, family=family)
    got, want = sweep_cli.run_hypothesis_checks(cfg), oracle_checks(cfg)
    assert [(r.name, r.passed) for r in got] == [(r.name, r.passed) for r in want]
    for g, w in zip(got, want):
        assert bits(g.details) == bits(w.details), g.name


@pytest.mark.parametrize("table", [None, [[0.5, 1.0], [0.7, 1.4], [0.85, 1.4], [1.3, 0.3]]])
def test_hypothesis_checks_sample_f_twice_and_build_one_rule(tmp_path, monkeypatch, table):
    # a pass calls f on arrays twice (the shared (f1)-(f4) sample, then the
    # (f4) points one step ahead) and builds g's Gauss rule once, for the
    # annulus and for a table with knots alike. The table's support reaches
    # the first (g2) probe, 1.05, which takes one more rule at delta = 1 (at
    # delta = 2** it is +inf and needs none)
    text = ""
    if table is not None:
        np.savetxt(tmp_path / "g.csv", np.asarray(table), delimiter=",")
        text = "[weight]\nfamily = custom_table\ntable_path = %s\n" % (tmp_path / "g.csv")
    cfg = parse_config(write(tmp_path, text))
    calls = {"f": 0, "rule": 0}
    real_rule, real_build = weight.gauss_legendre, sweep_cli.build_problem

    def counted_rule(a, b):
        calls["rule"] += 1
        return real_rule(a, b)

    def counted_build(cfg):
        spec, w, grid = real_build(cfg)

        def f(t):
            calls["f"] += np.ndim(t) > 0
            return spec.f(t)
        return dataclasses.replace(spec, f=f), w, grid

    monkeypatch.setattr(weight, "gauss_legendre", counted_rule)
    monkeypatch.setattr(sweep_cli, "build_problem", counted_build)
    for _ in range(2):  # each pass builds its specs afresh and samples anew
        calls.update(f=0, rule=0)
        assert len(sweep_cli.run_hypothesis_checks(cfg)) == 7
        assert calls == {"f": 2, "rule": 1 if table is None else 2}


def test_replaced_specs_sample_afresh():
    # the samples belong to one instance: a dataclasses.replace'd spec with
    # another f or g samples its own, and the original keeps its own
    spec = sp.power_nonlinearity(3.0)
    base = sp.check_f1(spec).details["growth_ratio"]
    twice = dataclasses.replace(spec, f=lambda t: 2.0 * spec.f(t), c_f=2.0)
    assert sp.check_f1(twice).details["growth_ratio"] == 2.0 * base
    np.testing.assert_array_equal(twice.check_sample, 2.0 * spec.check_sample)
    assert sp.check_f1(spec).details["growth_ratio"] == base
    w = sp.example_weight()
    mass = weight.support_mass_delta(w, 1.0)
    w2 = dataclasses.replace(w, profile=lambda r: 2.0 * w.profile(r))
    assert weight.support_mass_delta(w2, 1.0) == 2.0 * mass
    assert w2.norm(1.0) == 2.0 * mass  # its own integral, not w's closed form
    assert w.norm(1.0) == weight._annulus_lp(5, 1.0, 0.5, 1.0, 1.0)
    np.testing.assert_array_equal(w2.rule[2], 2.0 * w.rule[2])
    assert sp.check_g1(w2).details["norms"][1.0] == 2.0 * sp.check_g1(w).details["norms"][1.0]
    assert sp.check_g2(w2, 1.0).details["c_g"] == 2.0 * sp.check_g2(w, 1.0).details["c_g"]
    assert weight.support_mass_delta(w, 1.0) == mass
