"""Batch driver: a-sweeps against the positone limit, threshold estimates
(a2 window, a3 positivity edge, both from one scan up the converged rows,
and beta1), hypothesis checks, and the `solve` command line entry point.

Config files are INI-style key = value with sections [problem], [weight],
[grid], [mp], [sweep]; a file without section headers is read as [problem].
Unknown sections or keys are rejected with the offending key path, a key
or section given twice or a line without = with the file, and a
custom_table file must hold two columns r,g. `solve` exits 2 on a config,
geometry or solve error (a row's RuntimeError), with no sweep file written.
"""

import argparse
import configparser
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import radial_core as rc
from .energy import GeometryError, estimate_a1
from .mountain_pass import MPConfig, find_vtilde, solve_shifts, vtilde_ladder
from .nonlinearity import (ShiftedNonlinearity, check_f1, check_f2, check_f3,
                           check_f4, critical_exponent, eval_fa,
                           example_nonlinearity, linear_nonlinearity,
                           power_nonlinearity)
from .riesz_potential import riesz_r4
from .weight import check_g1, check_g2, example_weight, table_weight


@dataclass
class ProblemConfig:
    dim: int = 5
    family: str = "paper_example"
    gamma: float = 2.5
    power: float = 3.0          # exponent for family = "power"


@dataclass
class WeightConfig:
    family: str = "paper_example"
    d: float = 1.0
    r_in: float = 0.5
    r_out: float = 1.0
    table_path: str = ""


@dataclass
class GridConfig:
    n: int = 512
    r_max: float = 20.0


@dataclass
class SweepConfig:
    count: int = 12
    decades: float = 2.0
    a_list: tuple = ()
    seed: int = 7               # not read: nothing is sampled; kept for old configs


@dataclass
class Config:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    weight: WeightConfig = field(default_factory=WeightConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    mp: MPConfig = field(default_factory=MPConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)


# keys admitted from files: every field of every section, with its type
_SCHEMA = {sec.name: {f.name: f.type for f in dataclasses.fields(sec.type)}
           for sec in dataclasses.fields(Config)}


def _coerce(path, raw, kind):
    try:
        if kind is tuple:
            raw = raw.strip()
            value = tuple(float(x) for x in raw.split(",")) if raw else ()
        else:
            value = kind(raw)
    except ValueError:
        raise ValueError("%s: cannot parse %r as %s" % (path, raw, kind.__name__))
    if kind in (float, tuple) and not np.all(np.isfinite(value)):
        raise ValueError("%s: %r is not finite" % (path, raw))
    return value


def parse_config(path):
    """Read and validate a config file; returns a full Config with defaults
    filled in. Raises ValueError with a key path on any schema violation."""
    with open(path) as fh:
        text = fh.read()
    # no interpolation: a '%' in a value, as in a table path, is literal
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    header = 0
    try:
        try:
            cp.read_string(text, source=path)
        except configparser.MissingSectionHeaderError:
            header = 1  # the line of [problem], which the file does not hold
            cp.read_string("[problem]\n" + text, source=path)
    except configparser.ParsingError as exc:  # lines without =, as numbered in the file
        renumbered = configparser.ParsingError(path)
        for lineno, line in exc.errors:
            renumbered.append(lineno - header, line)
        raise ValueError(str(renumbered))
    except (configparser.DuplicateOptionError, configparser.DuplicateSectionError) as exc:
        raise ValueError(str(type(exc)(*exc.args[:-1], exc.lineno - header)))

    cfg = Config()
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ValueError("unknown section [%s]" % section)
        values = {}
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ValueError("%s.%s: unknown key" % (section, key))
            values[key] = _coerce("%s.%s" % (section, key), raw, _SCHEMA[section][key])
        setattr(cfg, section, dataclasses.replace(getattr(cfg, section), **values))
    _validate(cfg)
    return cfg


def _validate(cfg):
    if cfg.problem.dim < 5:
        raise ValueError("problem.dim=%d rejected: the problem class needs N >= 5"
                         % cfg.problem.dim)
    two_ss = critical_exponent(cfg.problem.dim)
    if not 2.0 < cfg.problem.gamma < two_ss:
        raise ValueError("problem.gamma=%g must lie in (2, 2**) = (2, %g) for dim=%d"
                         % (cfg.problem.gamma, two_ss, cfg.problem.dim))
    if cfg.problem.family not in ("paper_example", "power", "linear"):
        raise ValueError("problem.family=%r not one of paper_example|power|linear"
                         % cfg.problem.family)
    if cfg.problem.family == "power" and cfg.problem.gamma < cfg.problem.power + 1.0:
        raise ValueError("problem.gamma=%g < power + 1: f = t^power outgrows t^(gamma-1), "
                         "so (f1) fails" % cfg.problem.gamma)
    if cfg.weight.family not in ("paper_example", "custom_table"):
        raise ValueError("weight.family=%r not one of paper_example|custom_table"
                         % cfg.weight.family)
    if cfg.weight.family == "custom_table" and not cfg.weight.table_path:
        raise ValueError("weight.table_path required for custom_table weights")
    if not cfg.mp.tol_res > 0:
        raise ValueError("mp.tol_res=%g must be > 0" % cfg.mp.tol_res)
    if cfg.grid.n < 16:
        raise ValueError("grid.n=%d rejected: need at least 16 nodes" % cfg.grid.n)
    if cfg.weight.family == "paper_example" and cfg.grid.r_max <= cfg.weight.r_out:
        raise ValueError("grid.r_max=%g must exceed the weight support r_out=%g"
                         % (cfg.grid.r_max, cfg.weight.r_out))
    if cfg.sweep.count < 1:
        raise ValueError("sweep.count must be >= 1")
    if not cfg.sweep.decades > 0:
        raise ValueError("sweep.decades=%g must be > 0" % cfg.sweep.decades)
    if any(a < 0 for a in cfg.sweep.a_list):
        raise ValueError("sweep.a_list entries must be >= 0")


def build_problem(cfg):
    """(nonlinearity spec, weight spec, grid) from a validated config."""
    p = cfg.problem
    if p.family == "paper_example":
        spec = example_nonlinearity(dim=p.dim, gamma=p.gamma)
    elif p.family == "power":
        spec = power_nonlinearity(p.power, dim=p.dim, gamma=p.gamma)
    else:
        spec = linear_nonlinearity(dim=p.dim, gamma=p.gamma)
    w = cfg.weight
    if w.family == "paper_example":
        weight = example_weight(d=w.d, r_in=w.r_in, r_out=w.r_out, dim=p.dim)
    else:
        tab = np.loadtxt(w.table_path, delimiter=",", ndmin=2)
        if tab.shape[1] != 2:
            raise ValueError("weight.table_path=%s: need 2 columns r,g, got %d"
                             % (w.table_path, tab.shape[1]))
        weight = table_weight(tab[:, 0], tab[:, 1], dim=p.dim)
    if weight.r_out >= cfg.grid.r_max:  # a table sets its own support
        raise ValueError("grid.r_max=%g must exceed the weight support r_out=%g"
                         % (cfg.grid.r_max, weight.r_out))
    grid = rc.make_grid(p.dim, cfg.grid.n, cfg.grid.r_max)
    return spec, weight, grid


@dataclass
class SweepRow:
    a: float
    level: float
    norm_h2: float
    sup_ext: float
    min_value: float
    neg_mass: float
    decay_fit: float
    decay_pred: float
    residual: float
    converged: bool


CSV_HEADER = ",".join(f.name for f in dataclasses.fields(SweepRow))


@dataclass
class SweepReport:
    rows: list
    summary: dict
    config_echo: dict
    profiles: dict        # a -> node values (np.ndarray)
    grid_r: np.ndarray
    geometry: object = None


def _default_a_values(geometry, count, decades):
    a_max = 0.5 * geometry.a1
    if count == 1:
        return [a_max]
    k = np.arange(count)
    return list(a_max * 10.0 ** (-decades * k / (count - 1)))


def _rows_from_solutions(sols, spec, sup):
    """One SweepRow per solution; the profile statistics run on the (k, n)
    stack of profiles. Beyond supp g each profile is exactly
    r^{4-N} (A + B r^{-2}) with A = R4 int Delta^2 u: decay_fit is that A,
    from the row's own source, and decay_pred is R4 int g f_a(u), both sums
    over S."""
    grid = sols[0].u.grid
    u = np.array([sol.u.values for sol in sols])
    a = np.array([sol.a for sol in sols])
    ext_abs = np.abs(u[:, grid.r >= 1.0])  # no column when the grid ends inside B_1
    sup_ext = np.max(ext_abs, axis=1) if ext_abs.size else np.full(len(u), np.nan)
    min_value, neg_mass = np.min(u, axis=1), rc.integrate_values(grid, np.maximum(-u, 0.0))
    r4 = riesz_r4(grid.dim)
    fit = r4 * sup.integrate(sup.restrict([sol.u.source for sol in sols]))
    f_u = eval_fa(ShiftedNonlinearity(spec, a[:, None]), sup.restrict(u))
    pred = r4 * sup.integrate(sup.g * f_u)
    return [SweepRow(a=sol.a, level=sol.level, norm_h2=sol.diagnostics["norm_h2"],
                     sup_ext=float(sup_ext[i]), min_value=float(min_value[i]),
                     neg_mass=float(neg_mass[i]), decay_fit=float(fit[i]),
                     decay_pred=float(pred[i]), residual=sol.residual,
                     converged=sol.converged)
            for i, sol in enumerate(sols)]


def run_sweep(cfg, a_values=None):
    """Solve the shifted problem over a decreasing a-list plus the positone
    limit: each row's endpoint by `find_vtilde` on one `vtilde_ladder`, then
    every row in one batch (`solve_shifts`). a_values must be finite and >= 0;
    repeats and an explicit 0 fold into the rows, the positone row last."""
    if a_values is not None and not all(0.0 <= a < np.inf for a in a_values):
        raise ValueError("every shift a must be finite and nonnegative, got %r"
                         % (list(a_values),))
    spec, weight, grid = build_problem(cfg)
    geometry = estimate_a1(spec, weight, grid)
    if a_values is None:
        a_values = list(cfg.sweep.a_list) if cfg.sweep.a_list \
            else _default_a_values(geometry, cfg.sweep.count, cfg.sweep.decades)
    a_desc = sorted({float(a) for a in a_values if a > 0}, reverse=True)
    a_desc.append(0.0)  # positone row always present, always last

    ladder = vtilde_ladder(geometry, spec)
    scales = [find_vtilde(a, ladder) for a in a_desc]
    sols = solve_shifts(spec, a_desc, ladder, scales, geometry, cfg.mp)
    rows = _rows_from_solutions(sols, spec, geometry.support)
    profiles = {sol.a: sol.u.values for sol in sols}

    summary = _summarize(rows, profiles, grid, geometry)
    for key in ("morse_index", "level_gap"):
        summary[key] = [[sol.a, sol.diagnostics[key]] for sol in sols]
    echo = _config_echo(cfg, weight)
    return SweepReport(rows=rows, summary=summary, config_echo=echo,
                       profiles=profiles, grid_r=grid.r.copy(), geometry=geometry)


def _summarize(rows, profiles, grid, geometry):
    ext = grid.r >= 1.0
    u_tilde = profiles.get(0.0)
    pos_rows = [r for r in rows if r.a > 0]
    a = np.array([r.a for r in rows])
    u = np.array([profiles[r.a] for r in rows]).reshape(len(rows), grid.n)  # (k, n)
    sup_global = dict(zip(a.tolist(), np.max(np.abs(u), axis=1).tolist()))

    limit_sup_distance = []
    if u_tilde is not None and np.any(ext):
        dist = np.max(np.abs(u[a > 0][:, ext] - u_tilde[ext]), axis=1)
        limit_sup_distance = [[r.a, d] for r, d in zip(pos_rows, dist.tolist())]

    # one scan up the converged shifted rows from the smallest a (rows come in
    # descending a): a2 is the largest a whose whole tail keeps norm_h2 within
    # 25% of the positone norm, a3 the largest whose whole tail has
    # min u >= -1e-8 sup|u|
    ref = rows[-1].norm_h2 if rows and rows[-1].a == 0.0 else None
    nonneg = [r.converged and r.min_value >= -1e-8 * sup_global[r.a] for r in pos_rows]
    a2 = a3 = None
    in_window, tail_nonneg = bool(ref and ref > 0), True
    for r, flag in zip(reversed(pos_rows), reversed(nonneg)):
        if r.converged:
            in_window = in_window and abs(r.norm_h2 - ref) <= 0.25 * ref
            tail_nonneg = tail_nonneg and flag
            a2, a3 = (r.a if in_window else a2), (r.a if tail_nonneg else a3)

    # threshold index over descending positive rows: rows above strictly dip
    # negative (or did not converge), rows from the first nonnegative one on
    # stay nonnegative; None when the split is dirty
    first = nonneg.index(True) if True in nonneg else len(nonneg)
    threshold_index = first if all(nonneg[first:]) else None

    # empirical beta_1: the smallest sup norm over the shifted rows
    beta1 = min(sup_global[r.a] for r in pos_rows) if pos_rows else None

    return {
        "a1_estimate": float(geometry.a1),
        "beta": float(geometry.beta),
        "rho": float(geometry.rho),
        "b_g": float(geometry.b_g),
        "eps": float(geometry.eps),
        "a2_estimate": a2,
        "a3_estimate": a3,
        "beta1": beta1,
        "threshold_index": threshold_index,
        "limit_sup_distance": limit_sup_distance,
        "sup_norms": [[r.a, sup_global[r.a]] for r in rows],
        "n_rows": len(rows),
        "n_converged": sum(1 for r in rows if r.converged),
    }


def _config_echo(cfg, weight):
    """Every field of every section, tuples as lists, read without a copy.
    A table weight sets its own support and reads neither [weight] r_in,
    r_out nor d: its echo gives the support of the weight as built, no d."""
    echo = {}
    for name in (section.name for section in dataclasses.fields(cfg)):
        sec = getattr(cfg, name)
        values = {f.name: getattr(sec, f.name) for f in dataclasses.fields(sec)}
        echo[name] = {k: (list(v) if isinstance(v, tuple) else v) for k, v in values.items()}
    if cfg.weight.family == "custom_table":
        del echo["weight"]["d"]
        echo["weight"].update(r_in=weight.r_in, r_out=weight.r_out)
    return echo


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    return repr(float(x))


def _profile_csv(r, u):
    """The profile CSV: header r,u and one line repr(r_i),repr(u_i) per node.

    repr writes positional notation exactly where x == 0 or
    1e-4 <= |x| < 1e16, and there its shortest round-trip digits are
    those of Ryu (Adams, PLDI 2018), which orjson writes for the whole
    interleaved array r_0, u_0, r_1, u_1, ... in one call; every second
    comma of that line then becomes a newline. A profile with any other
    cell (exponent notation, nan, +-inf) is formatted by repr itself.
    orjson is imported here, so a solve or a check never loads it.
    """
    import orjson

    cells = np.column_stack((r, u)).astype(float, copy=False).ravel()
    mag = np.abs(cells)
    if cells.size and np.all((cells == 0) | ((mag >= 1e-4) & (mag < 1e16))):
        line = np.frombuffer(bytearray(orjson.dumps(cells, option=orjson.OPT_SERIALIZE_NUMPY)),
                             np.uint8)[1:-1]  # without the brackets
        line[np.flatnonzero(line == ord(","))[1::2]] = ord("\n")
        body = line.tobytes().decode() + "\n"
    else:
        body = ("%r,%r\n" * (cells.size // 2)) % tuple(cells.tolist())
    return "r,u\n" + body


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def emit(report, out_dir):
    """Write rows CSV, summary JSON, and per-a profile CSVs; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    rows = "".join(",".join(_fmt(getattr(r, key)) for key in CSV_HEADER.split(",")) + "\n"
                   for r in report.rows)
    summary = json.dumps({"summary": report.summary, "config": report.config_echo},
                         indent=2, sort_keys=True) + "\n"
    paths = [_write(os.path.join(out_dir, "sweep.csv"), CSV_HEADER + "\n" + rows),
             _write(os.path.join(out_dir, "summary.json"), summary)]
    for i, (a, vals) in enumerate(sorted(report.profiles.items(), reverse=True)):
        prof_path = os.path.join(out_dir, "profile_%02d_a%s.csv" % (i, ("%.6g" % a)))
        paths.append(_write(prof_path, _profile_csv(report.grid_r, vals)))
    return paths


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [float(x) for x in obj.ravel()]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def run_hypothesis_checks(cfg):
    """All (f) and (g) checks for the configured problem; returns reports."""
    spec, weight, _ = build_problem(cfg)
    reports = [check_f1(spec), check_f2(spec), check_f3(spec), check_f4(spec),
               check_g1(weight)]
    for delta in (1.0, critical_exponent(cfg.problem.dim)):
        reports.append(check_g2(weight, delta))
    return reports


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="solve",
        description="Mountain-pass sweeps for the semipositone biharmonic problem")
    ap.add_argument("--config", required=True, help="INI config file")
    ap.add_argument("--out", default=None, help="output directory (default ./solve_out)")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--sweep", action="store_true",
                      help="run the full a-sweep (default action)")
    mode.add_argument("--single-a", type=float, default=None, metavar="A",
                      help="solve a single shift value instead of the sweep")
    ap.add_argument("--check-hypotheses", action="store_true",
                    help="run the (f1)-(f4), (g1), (g2) sample checks")
    args = ap.parse_args(argv)
    if args.single_a is not None \
            and not (np.isfinite(args.single_a) and args.single_a >= 0):
        print("--single-a must be a finite shift >= 0, got %r" % args.single_a,
              file=sys.stderr)
        return 2

    try:
        cfg = parse_config(args.config)
        build_problem(cfg)  # weight and grid constructors check their own inputs
    except (OSError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    out_dir = args.out or "solve_out"
    status = 0

    if args.check_hypotheses:
        os.makedirs(out_dir, exist_ok=True)
        reports = run_hypothesis_checks(cfg)
        blob = {}
        for rep in reports:
            tag = rep.name
            if rep.name == "g2":
                tag = "g2(delta=%g)" % rep.details["delta"]
            print("%-14s %s" % (tag, "PASS" if rep.passed else "FAIL"))
            blob[tag] = {"passed": rep.passed, "details": _jsonable(rep.details)}
        with open(os.path.join(out_dir, "checks.json"), "w") as fh:
            json.dump(blob, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if not all(rep.passed for rep in reports):
            status = 1
        if not (args.sweep or args.single_a is not None):
            return status

    a_values = [args.single_a] if args.single_a is not None else None
    try:
        report = run_sweep(cfg, a_values)
    except GeometryError as exc:
        print("geometry error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:  # the vtilde ladder cap or a pinned crest, in any row
        print("solve error: %s" % exc, file=sys.stderr)
        return 2
    paths = emit(report, out_dir)
    s = report.summary
    print("rows=%d converged=%d a1=%.6g beta=%.6g beta1=%s a2=%s a3=%s"
          % (s["n_rows"], s["n_converged"], s["a1_estimate"], s["beta"],
             s["beta1"], s["a2_estimate"], s["a3_estimate"]))
    for p in paths[:2]:
        print("wrote %s" % p)
    if s["n_converged"] < s["n_rows"]:
        status = max(status, 2)
    return status

