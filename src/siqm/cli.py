"""Command-line front end with CSV outputs and JSON run manifests.

Subcommands map one-to-one onto the library capabilities:

    spectrum     ladder levels vs the diagonalization oracle (CSV)
    coeffs       superpotential series coefficients (CSV)
    eigenstates  ladder-built wavefunctions (CSV)
    verify       operator-identity suites (JSON report)
    coherent     coherent-state coefficients and property residuals (CSV)
    evolve       forced time evolution trajectories (CSV)

Every completed run (exit code 0 or 2) writes a manifest JSON recording the
command, the effective parameters, tolerances in force, a result summary,
and the output files. Exit codes: 0 success, 1 validation error, 2
numerical failure (tolerance exceeded). Numeric CSV output is formatted
with shortest round-trip floats and no timestamps, so identical parameter
sets give bitwise-identical files on one platform.
"""

import argparse
import csv
import json
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .coherent import (coherent_closed_scaling, coherent_property_residuals,
                       coherent_recursive)
from .dynamics import DriveProfile, evolve_forced
from .families import (DEFAULT_FAMILY, FAMILIES, family_from_config,
                       shape_invariance_residual, suggested_grid)
from .grid import Grid, build_grid
from .ladder_matrices import MATRIX_TOL, LadderMatrices, matrix_identities
from .lattice import (applicable_relations, commutator_residual,
                      dilation_identity_residual)
from .series import SelfSimilarW, radius_estimate, series_coefficients
from .spectra import (energy_levels, eigenstate_with_prenorm, fd_diagonalize,
                      normalization_factor)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

LATTICE_TOL = 1e-6
DILATION_TOL = 1e-5
SHAPE_TOL = 1e-6
ORACLE_TOL = 1e-3
PRENORM_TOL = 1e-3
COHERENT_EIGEN_TOL = 1e-10
COHERENT_DERIVATIVE_TOL = 1e-6
NORM_DRIFT_TOL = 1e-8

VERIFY_SUITES = ("shape-invariance", "lattice-algebra", "q-oscillator",
                 "dilation", "matrix-identities")

# every parameter key some registered family declares
FAMILY_KEYS = {key for cls in FAMILIES.values() for key in cls.config_keys}
GRID_KEYS = ("grid_min", "grid_max", "grid_points")


class CliError(Exception):
    """Validation failure that maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _fmt(v) -> str:
    return repr(float(v))


def _write_csv(path: Path, header: list[str], rows) -> None:
    def cell(c):
        if isinstance(c, str):
            return c
        if isinstance(c, (int, np.integer)):
            return str(int(c))
        return _fmt(c)

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([cell(c) for c in row])


def _build_parser() -> _Parser:
    p = _Parser(prog="siqm", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_family_flags(sp):
        sp.add_argument("--family", choices=tuple(FAMILIES))
        sp.add_argument("--q", type=float)
        sp.add_argument("--c", type=float)
        sp.add_argument("--a1", type=float)
        sp.add_argument("--config", type=Path)

    def add_grid_flags(sp):
        sp.add_argument("--grid-min", type=float)
        sp.add_argument("--grid-max", type=float)
        sp.add_argument("--grid-points", type=int)

    sp = sub.add_parser("spectrum", help="ladder levels vs diagonalization oracle")
    add_family_flags(sp)
    add_grid_flags(sp)
    sp.add_argument("--levels", type=int, default=6)
    sp.add_argument("--out", type=Path)

    sp = sub.add_parser("coeffs", help="series coefficients of the superpotential")
    sp.add_argument("--q", type=float)
    sp.add_argument("--c0", type=float, default=1.0)
    sp.add_argument("--order", type=int, default=40)
    add_grid_flags(sp)
    sp.add_argument("--config", type=Path)
    sp.add_argument("--out", type=Path)

    sp = sub.add_parser("eigenstates", help="ladder-built wavefunctions")
    add_family_flags(sp)
    add_grid_flags(sp)
    sp.add_argument("--levels", type=int, default=3)
    sp.add_argument("--out", type=Path)

    sp = sub.add_parser("verify", help="operator-identity suites")
    add_family_flags(sp)
    add_grid_flags(sp)
    sp.add_argument("--suite", choices=VERIFY_SUITES)
    sp.add_argument("--order", type=int, help="series truncation of the "
                    "scaling-family superpotential (low values break the W table)")
    sp.add_argument("--levels", type=int, default=20)
    sp.add_argument("--report", type=Path)
    sp.add_argument("--out", type=Path)

    sp = sub.add_parser("coherent", help="coherent-state coefficients")
    add_family_flags(sp)
    sp.add_argument("--z-re", type=float, default=1.0)
    sp.add_argument("--z-im", type=float, default=0.0)
    sp.add_argument("--levels", type=int, default=20)
    sp.add_argument("--out", type=Path)

    sp = sub.add_parser("evolve", help="forced-oscillator evolution")
    add_family_flags(sp)
    sp.add_argument("--drive", type=str, default="const:0.1")
    sp.add_argument("--t-max", type=float, default=5.0)
    sp.add_argument("--dt", type=float, default=0.002)
    sp.add_argument("--phase-sign", choices=("paper", "conjugate"),
                    default="conjugate")
    sp.add_argument("--levels", type=int, default=23)
    sp.add_argument("--out", type=Path)
    return p


def _load_config(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"config parse error at line {exc.lineno}, "
                       f"column {exc.colno}: {exc.msg}")
    allowed = {"family", "q", "c", "a1", "c0", "order", "levels",
               "grid_min", "grid_max", "grid_points", "z_re", "z_im",
               "drive", "t_max", "dt", "phase_sign", "suite"}
    for key in cfg:
        if key not in allowed:
            raise CliError(f"unknown config key {key!r}")
    return cfg


def _merge_config(args: argparse.Namespace) -> dict:
    """Config file values fill in flags the command line left unset."""
    merged = {}
    if getattr(args, "config", None):
        merged.update(_load_config(args.config))
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        if val is not None:
            merged[key] = val
    return merged


def _family_from(params: dict):
    """The family of --family (or the default) from the keys it declares.

    A family key given for a family that does not declare it is rejected.
    """
    cfg = {key: params[key] for key in FAMILY_KEYS if params.get(key) is not None}
    cfg["family"] = params.get("family", DEFAULT_FAMILY)
    return family_from_config(cfg)


def _grid_from(params: dict) -> Grid | None:
    """The grid of the three grid flags, or None when none of them is given."""
    values = [params.get(key) for key in GRID_KEYS]
    if all(v is None for v in values):
        return None
    if None in values:
        raise CliError("provide all of --grid-min, --grid-max, --grid-points "
                       "or none of them")
    return build_grid(*values)


def _cmd_spectrum(params: dict, outputs: list) -> tuple[dict, int]:
    fam = _family_from(params)
    n_max = int(params.get("levels", 6))
    table = energy_levels(fam, n_max)
    grid = _grid_from(params) or suggested_grid(fam)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        e_fd, _ = fd_diagonalize(fam, grid, n_max + 1)
    errs = np.abs(table.levels - e_fd)
    rows = [(n, table.levels[n], e_fd[n], errs[n]) for n in range(n_max + 1)]
    out = params.get("out")
    if out:
        _write_csv(Path(out), ["n", "E_ladder", "E_fd", "abs_err"], rows)
        outputs.append(str(out))
    worst = float(np.max(errs / np.maximum(1.0, table.levels)))
    ok = worst <= ORACLE_TOL
    results = {"max_rel_err": worst, "tolerance": ORACLE_TOL, "pass": ok,
               "levels": [float(v) for v in table.levels]}
    return results, EXIT_OK if ok else EXIT_NUMERICAL


def _cmd_coeffs(params: dict, outputs: list) -> tuple[dict, int]:
    if params.get("q") is None:
        raise CliError("--q is required for coeffs")
    q = float(params["q"])
    c0 = float(params.get("c0", 1.0))
    K = int(params.get("order", 40))
    grid = _grid_from(params)
    sc = series_coefficients(q, c0, K)
    rows = [(k, sc.coeffs[k]) for k in range(K + 1)]
    out = params.get("out")
    if out:
        _write_csv(Path(out), ["k", "c_k"], rows)
        outputs.append(str(out))
        if grid is not None:
            # companion x, W(x) table on the requested grid
            eng = SelfSimilarW(sc)
            wvals = eng.w(grid.x)
            table = Path(out).with_name(Path(out).stem + ".table.csv")
            _write_csv(table, ["x", "W"], zip(grid.x, wvals))
            outputs.append(str(table))
    results = {"radius_estimate": float(radius_estimate(sc)),
               "remainder": sc.remainder}
    return results, EXIT_OK


def _cmd_eigenstates(params: dict, outputs: list) -> tuple[dict, int]:
    fam = _family_from(params)
    n_max = int(params.get("levels", 3))
    grid = _grid_from(params) or suggested_grid(fam)
    table = energy_levels(fam, n_max)
    states, prenorm_errs = [], []
    for n in range(n_max + 1):
        psi, prenorm = eigenstate_with_prenorm(fam, n, grid)
        states.append(psi)
        expected = normalization_factor(table, n)
        prenorm_errs.append(abs(prenorm - expected) / max(expected, 1e-300))
    header = ["x"]
    for n in range(n_max + 1):
        header += [f"re_psi_{n}", f"im_psi_{n}"]
    x = grid.x
    rows = []
    for i in range(grid.n_points):
        row = [x[i]]
        for st in states:
            row += [st.amplitudes[i].real, st.amplitudes[i].imag]
        rows.append(row)
    out = params.get("out")
    if out:
        _write_csv(Path(out), header, rows)
        outputs.append(str(out))
    worst = max(prenorm_errs)
    ok = worst <= PRENORM_TOL
    results = {"max_prenorm_rel_err": worst, "tolerance": PRENORM_TOL, "pass": ok}
    return results, EXIT_OK if ok else EXIT_NUMERICAL


def _verify_shape(fam, grid) -> dict:
    res = shape_invariance_residual(fam, grid)
    return {"shape-invariance": {"residual": res, "tolerance": SHAPE_TOL,
                                 "pass": res <= SHAPE_TOL}}


def _verify_relations(fam, grid, relations) -> dict:
    report = {}
    for rel in relations:
        res = commutator_residual(rel, fam, grid=grid, window=12)
        report[rel] = {"residual": res, "tolerance": LATTICE_TOL,
                       "pass": res <= LATTICE_TOL}
    return report


def _verify_dilation(fam, grid) -> dict:
    report = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for which in ("yy3", "yy6"):
            res = dilation_identity_residual(fam, grid, which)
            report[f"dilation-{which}"] = {"residual": res,
                                           "tolerance": DILATION_TOL,
                                           "pass": res <= DILATION_TOL}
    return report


def _verify_matrix(fam, n_levels: int) -> dict:
    table = energy_levels(fam, n_levels + 1)
    rep = matrix_identities(table, n_levels)
    return {key: {"residual": val["deviation"], "tolerance": val["tolerance"],
                  "pass": val["pass"]} for key, val in rep.items()}


def _cmd_verify(params: dict, outputs: list) -> tuple[dict, int]:
    fam = _family_from(params)
    suite = params.get("suite")
    if suite not in VERIFY_SUITES:
        raise CliError(f"--suite is required (one of {', '.join(VERIFY_SUITES)})")
    if suite == "matrix-identities":
        report = _verify_matrix(fam, int(params.get("levels", 20)))
    else:
        grid = _grid_from(params) or Grid(-15.0, 15.0, 3001)
        if suite == "lattice-algebra":
            report = _verify_relations(fam, grid, applicable_relations(fam))
        elif suite == "q-oscillator":
            report = _verify_relations(fam, grid, ["q-oscillator"])
        elif suite == "shape-invariance":
            report = _verify_shape(fam, grid)
        else:
            report = _verify_dilation(fam, grid)
    rep_path = params.get("report")
    if rep_path:
        Path(rep_path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        outputs.append(str(rep_path))
    failing = sorted(k for k, v in report.items() if not v["pass"])
    results = {"suite": suite, "relations": report, "failing": failing}
    return results, EXIT_OK if not failing else EXIT_NUMERICAL


def _cmd_coherent(params: dict, outputs: list) -> tuple[dict, int]:
    fam = _family_from(params)
    N = int(params.get("levels", 20))
    z = complex(float(params.get("z_re", 1.0)), float(params.get("z_im", 0.0)))
    table = energy_levels(fam, max(N - 1, 1))
    state = coherent_recursive(table, z, N)
    ladder = LadderMatrices(table, N)
    eig_res, der_res = coherent_property_residuals(state, ladder)
    results = {"eigen_residual": eig_res, "eigen_tolerance": COHERENT_EIGEN_TOL,
               "derivative_residual": der_res,
               "derivative_tolerance": COHERENT_DERIVATIVE_TOL,
               "partial_norm": state.partial_norm()}
    if fam.q is not None and fam.q < 1.0:
        closed = coherent_closed_scaling(fam.q, fam.c * fam.a1, z, N)
        agree = float(np.max(np.abs(closed.coefficients - state.coefficients)
                             / np.abs(state.coefficients)))
        results["closed_vs_recursive"] = agree
    rows = [(n, state.coefficients[n].real, state.coefficients[n].imag)
            for n in range(N)]
    out = params.get("out")
    if out:
        _write_csv(Path(out), ["n", "re_h_n", "im_h_n"], rows)
        outputs.append(str(out))
    ok = eig_res <= COHERENT_EIGEN_TOL and der_res <= COHERENT_DERIVATIVE_TOL
    results["pass"] = ok
    return results, EXIT_OK if ok else EXIT_NUMERICAL


def _cmd_evolve(params: dict, outputs: list) -> tuple[dict, int]:
    fam = _family_from(params)
    N = int(params.get("levels", 23))
    drive = DriveProfile.parse(str(params.get("drive", "const:0.1")))
    table = energy_levels(fam, N)
    ev = evolve_forced(table, drive, float(params.get("t_max", 5.0)),
                       float(params.get("dt", 0.002)),
                       sign_convention=str(params.get("phase_sign", "conjugate")))
    ladder = LadderMatrices(table, N + 1)
    z_fit, coh_overlap = ev.best_fit_coherent(table, ladder)
    header = ["t"]
    dim = ev.trajectory.shape[1]
    for n in range(dim):
        header += [f"re_c_{n}", f"im_c_{n}"]
    header += ["norm", "overlap_closed"]
    rows = []
    for i, t in enumerate(ev.t_grid):
        row = [t]
        for n in range(dim):
            row += [ev.trajectory[i, n].real, ev.trajectory[i, n].imag]
        row += [ev.norms[i], ev.overlaps[i]]
        rows.append(row)
    out = params.get("out")
    if out:
        _write_csv(Path(out), header, rows)
        outputs.append(str(out))
    results = {"final_overlap_closed": ev.final_overlap,
               "norm_drift": ev.norm_drift,
               "best_fit_z": [z_fit.real, z_fit.imag],
               "best_fit_coherent_overlap": coh_overlap,
               "sign_convention": ev.sign_convention}
    ok = ev.norm_drift <= NORM_DRIFT_TOL
    results["pass"] = ok
    return results, EXIT_OK if ok else EXIT_NUMERICAL


_COMMANDS = {"spectrum": _cmd_spectrum, "coeffs": _cmd_coeffs,
             "eigenstates": _cmd_eigenstates, "verify": _cmd_verify,
             "coherent": _cmd_coherent, "evolve": _cmd_evolve}

_TOLERANCES = {"lattice": LATTICE_TOL, "dilation": DILATION_TOL,
               "matrix": MATRIX_TOL, "shape_invariance": SHAPE_TOL,
               "oracle": ORACLE_TOL, "prenorm": PRENORM_TOL,
               "coherent_eigen": COHERENT_EIGEN_TOL,
               "coherent_derivative": COHERENT_DERIVATIVE_TOL,
               "norm_drift": NORM_DRIFT_TOL}


def _manifest_path(params: dict, command: str) -> Path:
    for key in ("out", "report"):
        target = params.get(key)
        if target:
            target = Path(target)
            return target.with_name(target.name + ".manifest.json")
    return Path(f"{command}.manifest.json")


def run_command(argv: list[str]) -> int:
    """Parse and execute one CLI invocation; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        params = _merge_config(args)
        outputs: list[str] = []
        results, code = _COMMANDS[args.command](params, outputs)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    manifest = {
        "command": args.command,
        "params": {k: (str(v) if isinstance(v, Path) else v)
                   for k, v in sorted(params.items())},
        "version": __version__,
        "tolerances": _TOLERANCES,
        "results": results,
        "outputs": outputs,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    path = _manifest_path(params, args.command)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    status = "ok" if code == EXIT_OK else "numerical failure"
    print(f"{args.command}: {status}; manifest {path}")
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
