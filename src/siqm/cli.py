"""Command-line front end with CSV outputs and JSON run manifests.

Subcommands map one-to-one onto the library capabilities:

    spectrum     ladder levels vs the diagonalization oracle (CSV)
    coeffs       superpotential series coefficients (CSV)
    eigenstates  ladder-built wavefunctions (CSV)
    verify       operator-identity suites (JSON report)
    coherent     coherent-state coefficients and property residuals (CSV)
    evolve       forced time evolution trajectories (CSV)

A parameter takes its value from, in rising precedence, its command's
default (its COMMANDS row), a JSON config file (--config) and the flags given.
A config holds only its command's parameters, keyed by flag name with
underscores (z_re, t_max, phase_sign, grid_points); any other key exits 1,
and each value is parsed as its flag's text would be. verify writes its
report to --report; the other commands write their CSV to --out.
The family flags are the config keys of the registered families: --q, --c,
--a1 and --order (the series truncation of the scaling family).

A command writes nothing until it has computed everything. Then its files
are written in order, and last a manifest JSON beside the first of them
recording the command, the effective parameters, tolerances in force
(TOLERANCES), a result summary, and the output files. Exit codes: 0
success, 1 validation error, 2 numerical failure (tolerance exceeded). A
run whose output or manifest cannot be written exits 1 with one `error:`
line, and the files written before that failure stay. CSV floats are
Python's shortest round-trip repr, byte for byte, rendered by a vectorized
formatter (`_csvfloat`); CSVs hold no timestamps, so identical parameter
sets give bitwise-identical files on one platform.
"""

import argparse
import functools
import json
import re
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from ._csvfloat import csv_chunks
from .coherent import (coherent_closed_scaling, coherent_property_residuals,
                       coherent_recursive)
from .dynamics import DriveProfile, evolve_forced
from .families import (DEFAULT_FAMILY, FAMILIES, family_from_config,
                       shape_invariance_residual, suggested_grid, worst_residual)
from .grid import Grid
from .ladder_matrices import matrix_identities
from .lattice import (applicable_relations, commutator_residual,
                      dilation_identity_residual)
from .series import SelfSimilarW, series_coefficients
from .spectra import energy_levels, eigenstate_with_prenorm, fd_diagonalize

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

# the one declaration of every gate's tolerance; each manifest records it
TOLERANCES = {"lattice": 1e-6, "dilation": 1e-5, "matrix": 1e-12,
              "shape_invariance": 1e-6, "oracle": 1e-3, "prenorm": 1e-3,
              "coherent_eigen": 1e-10, "coherent_derivative": 1e-6,
              "norm_drift": 1e-8}
CLOSED_FORM_FLOOR = 1e-12  # closed vs recursive coherent: max(floor, 100 eps / (1 - q))

VERIFY_SUITES = ("shape-invariance", "lattice-algebra", "q-oscillator",
                 "dilation", "matrix-identities")

# A flag is keyed by its config key (the flag name with underscores) and declared
# as (argparse keywords, default or None); the parser sets no default, so that None
# means "not given" when config and flags layer. --family, then each family key:
FAMILY_FLAGS = {"family": ({"choices": tuple(FAMILIES)}, DEFAULT_FAMILY), **{
    key: ({"type": kind, "help": "/".join(n for n, c in FAMILIES.items() if key in c.config_keys)
           + " parameter"}, None)
    for cls in FAMILIES.values() for key, (_, kind) in cls.config_keys.items()}}
INT, FLOAT = {"type": int}, {"type": float}
GRID_FLAGS = {"grid_min": (FLOAT, None), "grid_max": (FLOAT, None), "grid_points": (INT, None)}
PATH_FLAG = ({"type": Path}, None)


class CliError(Exception):
    """Validation failure that maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern took a negative float in exponent form for an option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise CliError(message)


def _csv(header: list[str], *columns):
    """The bytes of a CSV with one row per entry of the columns, in chunks.

    A column is a 1-D array or a 2-D block of columns, of ints or floats.
    Values print byte for byte as their Python repr: ints plainly, floats
    as the shortest string that reads back to the same double. The rows
    are rendered a few thousand values at a time (`_csvfloat`), each chunk
    as it is taken, so a file that is not written is never rendered.
    """
    yield (",".join(header) + "\n").encode()
    yield from csv_chunks([np.asarray(col).reshape(len(col), -1) for col in columns])


def _json(obj) -> str:
    """The JSON text of the verify report and of every manifest."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@functools.cache
def _build_parser() -> _Parser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    p = _Parser(prog="siqm", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.summary)
        for key, (kwargs, default) in cmd.all_flags.items():
            if default is not None:
                kwargs = {**kwargs,
                          "help": f"{kwargs.get('help', '')} (default: {default})".lstrip()}
            sp.add_argument(f"--{key.replace('_', '-')}", **kwargs)
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
    if not isinstance(cfg, dict):
        raise CliError("config must be a JSON object")
    return cfg


def _merge_params(parser: _Parser, args: argparse.Namespace) -> dict:
    """Command defaults, then the config file, then the flags given.

    A config key must name one of the command's own parameter flags, and
    its value is parsed as that flag's text would be, with the flag's type
    and choices; a null value, like an absent flag, leaves the value below
    it in force. A float that is not finite (inf or nan) is refused.
    """
    flags = {key: val for key, val in vars(args).items() if key not in ("command", "config")}
    cmd = COMMANDS[args.command]
    cfg = _load_config(args.config) if args.config else {}
    for key in cfg:
        if key not in flags or key == cmd.output:
            raise CliError(f"unknown config key {key!r} for {args.command}")
    cfg = {key: val for key, val in cfg.items() if val is not None}
    if cfg:
        try:
            parsed = parser.parse_args([args.command, *(f"--{key.replace('_', '-')}={val}"
                                                         for key, val in cfg.items())])
        except CliError as exc:
            raise CliError(f"config {args.config}: {exc}")
        cfg = {key: getattr(parsed, key) for key in cfg}
    merged = {key: default for key, (_, default) in cmd.all_flags.items() if default is not None}
    for layer in (cfg, flags):
        merged.update((key, val) for key, val in layer.items() if val is not None)
    for key, val in merged.items():
        if isinstance(val, float) and not np.isfinite(val):
            raise CliError(f"--{key.replace('_', '-')} must be finite, got {key} = {val!r}")
    return merged


def _family_from(params: dict):
    """The family params["family"], built from the family keys present.

    A family key given for a family that does not declare it is rejected.
    """
    return family_from_config({key: params[key] for key in FAMILY_FLAGS if key in params})


def _grid_from(params: dict) -> Grid | None:
    """The grid of the three grid flags, or None when none of them is given."""
    values = [params.get(key) for key in GRID_FLAGS]
    if all(v is None for v in values):
        return None
    if None in values:
        raise CliError("provide all of --grid-min, --grid-max, --grid-points "
                       "or none of them")
    return Grid(*values)


# Each command computes its result summary and its files, an ordered list of
# (path, byte chunks) whose path is None where no file was asked for.

def _cmd_spectrum(params: dict) -> tuple[dict, list]:
    fam = _family_from(params)
    n_max = params["levels"]
    table = energy_levels(fam, n_max)
    grid = _grid_from(params) or suggested_grid(fam)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        e_fd, _ = fd_diagonalize(fam, grid, n_max + 1)
    errs = np.abs(table.levels - e_fd)
    worst = worst_residual("oracle", errs / np.maximum(1.0, table.levels))
    tol = TOLERANCES["oracle"]
    results = {"max_rel_err": worst, "tolerance": tol, "pass": worst <= tol,
               "levels": [float(v) for v in table.levels]}
    return results, [(params.get("out"), _csv(["n", "E_ladder", "E_fd", "abs_err"],
                                              np.arange(n_max + 1), table.levels, e_fd, errs))]


def _cmd_coeffs(params: dict) -> tuple[dict, list]:
    if "q" not in params:
        raise CliError("--q is required for coeffs")
    K = params["order"]
    grid = _grid_from(params)
    sc = series_coefficients(params["q"], params["c0"], K)
    out = params.get("out")
    files = [(out, _csv(["k", "c_k"], np.arange(K + 1), sc.coeffs))]
    if grid is not None:
        # companion x, W(x) table on the requested grid: built for every
        # gridded run, so the verdict does not depend on --out
        files.append((out and out.with_name(out.stem + ".table.csv"),
                      _csv(["x", "W"], grid.x, SelfSimilarW(sc).w(grid.x))))
    # an infinite radius (a polynomial, or too few nonzero coefficients to
    # estimate) has no strict-JSON number
    radius = None if sc.radius_estimate == np.inf else sc.radius_estimate
    results = {"radius_estimate": radius, "polynomial": not np.any(sc.coeffs[1:]),
               "remainder": sc.remainder}
    return results, files


def _cmd_eigenstates(params: dict) -> tuple[dict, list]:
    fam = _family_from(params)
    n_max = params["levels"]
    grid = _grid_from(params) or suggested_grid(fam)
    table = energy_levels(fam, n_max)
    expected = table.norms(n_max + 1).tolist()
    states, prenorm_errs = [], []
    for n in range(n_max + 1):
        psi, prenorm = eigenstate_with_prenorm(fam, table, n, grid)
        states.append(psi)
        prenorm_errs.append(abs(prenorm - expected[n]) / max(expected[n], 1e-300))
    worst = worst_residual("prenorm", prenorm_errs)
    tol = TOLERANCES["prenorm"]
    results = {"max_prenorm_rel_err": worst, "tolerance": tol, "pass": worst <= tol}
    header = ["x"] + [f"{part}_psi_{n}" for n in range(n_max + 1) for part in ("re", "im")]
    return results, [(params.get("out"),
                      _csv(header, grid.x, np.stack(states, axis=1).view(float)))]


def _gate(residual: float, key: str) -> dict:
    tol = TOLERANCES[key]
    return {"residual": residual, "tolerance": tol, "pass": residual <= tol}


def _verify_report(fam, suite: str, params: dict) -> dict:
    """{check: gate} for every check of the suite."""
    if suite == "matrix-identities":
        n_levels = params["levels"]
        deviations = matrix_identities(energy_levels(fam, n_levels), n_levels)
        return {key: _gate(dev, "matrix") for key, dev in deviations.items()}
    grid = _grid_from(params) or Grid(-15.0, 15.0, 3001)
    if suite == "shape-invariance":
        return {suite: _gate(shape_invariance_residual(fam, grid), "shape_invariance")}
    if suite == "dilation":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return {f"dilation-{which}": _gate(dilation_identity_residual(fam, grid, which),
                                               "dilation") for which in ("yy3", "yy6")}
    relations = applicable_relations(fam) if suite == "lattice-algebra" else [suite]
    return {rel: _gate(commutator_residual(rel, fam, grid=grid, window=12), "lattice")
            for rel in relations}


def _cmd_verify(params: dict) -> tuple[dict, list]:
    fam = _family_from(params)
    suite = params.get("suite")
    if suite not in VERIFY_SUITES:
        raise CliError(f"--suite is required (one of {', '.join(VERIFY_SUITES)})")
    report = _verify_report(fam, suite, params)
    failing = sorted(k for k, v in report.items() if not v["pass"])
    results = {"suite": suite, "relations": report, "failing": failing}
    return results, [(params.get("report"), [_json(report).encode()])]


def _cmd_coherent(params: dict) -> tuple[dict, list]:
    fam = _family_from(params)
    N = params["levels"]
    z = complex(params["z_re"], params["z_im"])
    table = energy_levels(fam, max(N - 1, 1))  # level 1 is the closed form's R1
    norms = table.norms(N)
    h = coherent_recursive(norms, z)
    eig_res, der_res = coherent_property_residuals(norms, z, h)
    eig_tol, der_tol = TOLERANCES["coherent_eigen"], TOLERANCES["coherent_derivative"]
    results = {"eigen_residual": eig_res, "eigen_tolerance": eig_tol,
               "derivative_residual": der_res, "derivative_tolerance": der_tol,
               "partial_norm": float(np.linalg.norm(h)),
               "pass": eig_res <= eig_tol and der_res <= der_tol}
    if fam.q is not None and fam.q < 1.0:
        closed = coherent_closed_scaling(fam.q, float(table.levels[1]), z, N)
        # relative where |h_n| > 0, absolute at the zeros (z = 0 gives h_n = 0, n >= 1)
        scale = np.abs(h)
        rel = np.abs(closed - h) / np.where(scale > 0, scale, 1.0)
        # both routes evaluate differences 1 - q^j ~ j(1-q), so the comparison
        # noise floor grows like eps/(1-q) toward the harmonic limit
        tol = max(CLOSED_FORM_FLOOR, 100 * np.finfo(float).eps / (1.0 - fam.q))
        results["closed_vs_recursive"] = worst_residual("closed_vs_recursive", rel)
        if results["closed_vs_recursive"] > tol:
            n = int(np.argmax(rel))
            raise ValueError(f"closed form disagrees with the recursive product by "
                             f"{rel[n]:.3g} relative at level {n}, above {tol:.3g}")
    return results, [(params.get("out"),
                      _csv(["n", "re_h_n", "im_h_n"], np.arange(N), h.real, h.imag))]


def _cmd_evolve(params: dict) -> tuple[dict, list]:
    fam = _family_from(params)
    N = params["levels"]
    drive = DriveProfile.parse(params["drive"])
    table = energy_levels(fam, N)
    ev = evolve_forced(table, drive, params["t_max"], params["dt"],
                       sign_convention=params["phase_sign"])
    # the best fit is a diagnostic: one whose coefficients leave the floats
    # is reported, and the finished run still writes its outputs
    try:
        z_fit, coh_overlap = ev.best_fit_coherent()
        best_fit = {"best_fit_z": [z_fit.real, z_fit.imag],
                    "best_fit_coherent_overlap": coh_overlap, "best_fit_error": None}
    except ValueError as exc:
        best_fit = {"best_fit_z": None, "best_fit_coherent_overlap": None,
                    "best_fit_error": str(exc)}
    results = {"final_overlap_closed": ev.final_overlap,
               "norm_drift": ev.norm_drift, **best_fit,
               "sign_convention": ev.sign_convention,
               "pass": ev.norm_drift <= TOLERANCES["norm_drift"]}
    header = ["t"] + [f"{part}_c_{n}" for n in range(ev.trajectory.shape[1])
                      for part in ("re", "im")] + ["norm", "overlap_closed"]
    return results, [(params.get("out"), _csv(header, ev.t_grid, ev.trajectory.view(float),
                                              ev.norms, ev.overlaps))]


class Command(NamedTuple):
    """One CLI command: what its parser, defaults and dispatch are built from."""

    summary: str
    run: Callable[[dict], tuple[dict, list]]  # params -> (results, files)
    output: str                               # the flag of its output file
    family: bool                              # takes --family and the family keys
    grid: bool                                # takes the three grid flags
    flags: dict                               # its own flags, as FAMILY_FLAGS

    @property
    def all_flags(self) -> dict:
        """Every flag it takes, in parser order: family, grid, config, output, its own."""
        return {**(FAMILY_FLAGS if self.family else {}), **(GRID_FLAGS if self.grid else {}),
                "config": PATH_FLAG, self.output: PATH_FLAG, **self.flags}


# the one declaration of each command, which builds the parser, the defaults and the
# dispatch; a row holds cli's own _cmd_* function, which calls the library through
# this module's attributes
COMMANDS = {
    "spectrum": Command("ladder levels vs diagonalization oracle", _cmd_spectrum, "out",
                        family=True, grid=True, flags={"levels": (INT, 6)}),
    "coeffs": Command("series coefficients of the superpotential", _cmd_coeffs, "out",
                      family=False, grid=True,
                      flags={"q": (FLOAT, None), "c0": (FLOAT, 1.0), "order": (INT, 40)}),
    "eigenstates": Command("ladder-built wavefunctions", _cmd_eigenstates, "out",
                           family=True, grid=True, flags={"levels": (INT, 3)}),
    # verify writes its JSON report to --report and takes no --out
    "verify": Command("operator-identity suites", _cmd_verify, "report", family=True, grid=True,
                      flags={"suite": ({"choices": VERIFY_SUITES}, None), "levels": (
                          {**INT, "help": "matrix-identities: from E = 8192 one ulp exceeds "
                           "the absolute 1e-12 of factorized-hamiltonian, so --family "
                           "harmonic --levels 5000 exits 2 on rounding alone"}, 20)}),
    "coherent": Command("coherent-state coefficients", _cmd_coherent, "out",
                        family=True, grid=False,
                        flags={"z_re": (FLOAT, 1.0), "z_im": (FLOAT, 0.0), "levels": (INT, 20)}),
    "evolve": Command("forced-oscillator evolution", _cmd_evolve, "out", family=True, grid=False,
                      flags={"drive": ({}, "const:0.1"), "t_max": (FLOAT, 5.0),
                             "dt": (FLOAT, 0.002),
                             "phase_sign": ({"choices": ("paper", "conjugate")}, "conjugate"),
                             "levels": (INT, 23)}),
}


def run_command(argv: list[str]) -> int:
    """Parse and execute one CLI invocation; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        params = _merge_params(parser, args)
        results, files = COMMANDS[args.command].run(params)
        files = [(path, chunks) for path, chunks in files if path]
        manifest = Path(f"{files[0][0] if files else args.command}.manifest.json")
        record = {
            "command": args.command,
            "params": {k: (str(v) if isinstance(v, Path) else v) for k, v in params.items()},
            "version": __version__,
            "tolerances": TOLERANCES,
            "results": results,
            "outputs": [str(path) for path, _ in files],
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        for path, chunks in [*files, (manifest, [_json(record).encode()])]:
            with open(path, "wb") as fh:
                fh.writelines(chunks)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # a gate failed: a false "pass", or checks that verify lists as "failing"
    failed = results.get("failing") or not results.get("pass", True)
    print(f"{args.command}: {'numerical failure' if failed else 'ok'}; manifest {manifest}")
    return EXIT_NUMERICAL if failed else EXIT_OK


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
