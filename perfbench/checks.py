"""Output checks and digests for one finished job.

The checks read what a job wrote (CSV, JSON report, manifest) and test it
two ways: the manifest's `pass` flags and exit code must agree with the
residuals and the tolerances the manifest itself reports, and a few results
are recomputed independently of `siqm` (closed-form levels, the series
recursion, coherent coefficients from closed-form levels, unit norms).
A check that fails is a wrong output, which the benchmark reports as
`correct: false`; a job that fails its own numerical gate (exit 2) with a
consistent manifest is a program failure, counted but not wrong.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# manifest tolerance key for each verify suite
SUITE_TOLERANCE = {"lattice-algebra": "lattice", "q-oscillator": "lattice",
                   "dilation": "dilation", "shape-invariance": "shape_invariance",
                   "matrix-identities": "matrix"}

LATTICE_SCALING_ONLY = 9     # relations skipped for translation families
LATTICE_SINGULAR_AT_1 = 3    # so21 and j3 relations, skipped at q = 1
LATTICE_ALL = 15


def _read_csv(path: Path) -> tuple[list, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def closed_levels(q: float, c: float, a1: float, n_max: int) -> np.ndarray:
    """E_n = c a1 (1 - q^n) / (1 - q), and c a1 n at q = 1."""
    n = np.arange(n_max + 1, dtype=float)
    if q == 1.0:
        return c * a1 * n
    return c * a1 * (1.0 - q ** n) / (1.0 - q)


def _close(a, b, rtol) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))))


class JobOutput:
    """What one job left in its directory, with the problems found in it."""

    def __init__(self, job, directory: Path, code: int):
        self.job = job
        self.dir = directory
        self.code = code
        self.problems: list[str] = []
        self.manifest = None
        files = sorted(p for p in directory.iterdir() if p.is_file())
        self.bytes_written = sum(p.stat().st_size for p in files)
        # manifests carry a timestamp, so only the data files enter the digest
        data = [p for p in files if not p.name.endswith(".manifest.json")]
        h = hashlib.sha256()
        for p in data:
            h.update(p.name.encode() + b"\0" + hashlib.sha256(p.read_bytes()).digest())
        self.digest = h.hexdigest() if data else None
        manifests = [p for p in files if p.name.endswith(".manifest.json")]
        if manifests:
            self.manifest = json.loads(manifests[0].read_text())

    def require(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)


def check(job, directory: Path, code: int) -> JobOutput:
    """Run every check that applies to the job's exit code and command."""
    out = JobOutput(job, directory, code)
    if code == 1:
        # validation failure: the CLI writes no manifest
        out.require(out.manifest is None, "manifest written on exit 1")
        return out
    out.require(out.manifest is not None, "no manifest")
    if out.manifest is None:
        return out
    man = out.manifest
    out.require(man["command"] == job.argv[0], "manifest names another command")
    for name in man["outputs"]:
        out.require((directory / Path(name).name).is_file(), f"listed output {name} missing")
    try:
        _CHECKS[job.argv[0]](out, job.params, man["results"], man["tolerances"])
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        out.problems.append(f"unreadable output: {exc!r}")
    return out


def _exit_matches(out: JobOutput, ok: bool):
    out.require(out.code == (0 if ok else 2), f"exit {out.code} but pass = {ok}")


def _check_spectrum(out, p, res, tols):
    n_max = p["levels"]
    expect = closed_levels(p["q"], p["c"], p["a1"], n_max)
    out.require(res["tolerance"] == tols["oracle"], "oracle tolerance differs from manifest")
    out.require(res["pass"] == (res["max_rel_err"] <= res["tolerance"]), "pass flag vs oracle error")
    _exit_matches(out, res["pass"])
    out.require(_close(res["levels"], expect, 1e-12), "ladder levels differ from closed form")
    header, rows = _read_csv(out.dir / "spectrum.csv")
    out.require(header == ["n", "E_ladder", "E_fd", "abs_err"], "spectrum header")
    out.require(rows.shape == (n_max + 1, 4), "spectrum row count")
    if rows.shape == (n_max + 1, 4):
        out.require(_close(rows[:, 1], expect, 1e-12), "CSV levels differ from closed form")
        out.require(np.array_equal(rows[:, 3], np.abs(rows[:, 1] - rows[:, 2])), "abs_err column")
        worst = float(np.max(rows[:, 3] / np.maximum(1.0, rows[:, 1])))
        out.require(worst == res["max_rel_err"], "max_rel_err differs from the CSV")


def _check_eigenstates(out, p, res, tols):
    out.require(res["pass"] == (res["max_prenorm_rel_err"] <= res["tolerance"]),
                "pass flag vs prenorm error")
    _exit_matches(out, res["pass"])
    header, rows = _read_csv(out.dir / "eigenstates.csv")
    n_states = p["levels"] + 1
    out.require(len(header) == 1 + 2 * n_states, "eigenstates column count")
    if len(header) != 1 + 2 * n_states:
        return
    x = rows[:, 0]
    h = (x[-1] - x[0]) / (len(x) - 1)
    w = np.full(len(x), h)
    w[0] = w[-1] = h / 2
    for n in range(n_states):
        norm = math.sqrt(float(w @ (rows[:, 1 + 2 * n] ** 2 + rows[:, 2 + 2 * n] ** 2)))
        out.require(abs(norm - 1.0) <= 1e-9, f"state {n} norm {norm!r}")


def _series_reference(q: float, c0: float, K: int) -> list:
    c = [c0]
    for k in range(K):
        conv = sum(c[i] * c[k - i] for i in range(k + 1))
        c.append(-(1.0 - q ** (k + 2)) / ((2 * k + 3) * (1.0 + q ** (k + 2))) * conv)
    return c


def _check_coeffs(out, p, res, tols):
    _exit_matches(out, True)
    q, c0, K = p["q"], p["c0"], p["order"]
    out.require(abs(res["remainder"] - (1 + q) * c0) <= 1e-15 * (1 + q) * c0, "remainder")
    header, rows = _read_csv(out.dir / "coeffs.csv")
    out.require(header == ["k", "c_k"] and rows.shape == (K + 1, 2), "coeffs shape")
    if rows.shape == (K + 1, 2):
        ref = np.array(_series_reference(q, c0, K))
        scale = np.maximum(np.abs(ref), 1e-300)
        out.require(bool(np.all(np.abs(rows[:, 1] - ref) <= 1e-12 * scale)),
                    "coefficients differ from the recursion")
    lo, hi, n = p["grid"]
    header, table = _read_csv(out.dir / "coeffs.table.csv")
    out.require(header == ["x", "W"] and table.shape == (n, 2), "W table shape")
    if table.shape == (n, 2):
        W = table[:, 1]
        out.require(bool(np.all(np.isfinite(W))), "W table not finite")
        out.require(np.array_equal(table[:, 0], np.linspace(lo, hi, n)), "W table abscissae")
        out.require(float(np.max(np.abs(W + W[::-1]))) <= 1e-12 * float(np.max(np.abs(W))),
                    "W table is not odd")


def _check_verify(out, p, res, tols):
    suite = res["suite"]
    tol = tols[SUITE_TOLERANCE[suite]]
    rels = res["relations"]
    for name, entry in rels.items():
        out.require(entry["tolerance"] == tol, f"{name} tolerance differs from manifest")
        out.require(entry["pass"] == (entry["residual"] <= entry["tolerance"]), f"{name} pass flag")
    failing = sorted(k for k, v in rels.items() if not v["pass"])
    out.require(res["failing"] == failing, "failing list")
    _exit_matches(out, not failing)
    report = json.loads((out.dir / "report.json").read_text())
    out.require(report == rels, "report differs from manifest")
    expected = {"shape-invariance": 1, "q-oscillator": 1, "dilation": 2,
                "matrix-identities": 6}.get(suite)
    if suite == "lattice-algebra":
        if p["family"] != "selfsimilar":
            expected = LATTICE_ALL - LATTICE_SCALING_ONLY
        elif p["q"] == 1.0:
            expected = LATTICE_ALL - LATTICE_SINGULAR_AT_1
        else:
            expected = LATTICE_ALL
    out.require(len(rels) == expected, f"{len(rels)} relations, expected {expected}")


def _check_coherent(out, p, res, tols):
    ok = res["eigen_residual"] <= res["eigen_tolerance"] and \
        res["derivative_residual"] <= res["derivative_tolerance"]
    out.require(res["pass"] == ok, "pass flag vs residuals")
    _exit_matches(out, ok)
    header, rows = _read_csv(out.dir / "coherent.csv")
    N = p["levels"]
    out.require(rows.shape == (N, 3), "coherent row count")
    if rows.shape != (N, 3):
        return
    E = closed_levels(p["q"], p["c"], p["a1"], N - 1)
    z = complex(*p["z"])
    ref = np.array([z ** n / math.sqrt(math.prod(E[n] - E[j] for j in range(n)))
                    for n in range(N)])
    got = rows[:, 1] + 1j * rows[:, 2]
    out.require(bool(np.all(np.abs(got - ref) <= 1e-9 * np.abs(ref))),
                "coefficients differ from closed-form levels")


def _check_evolve(out, p, res, tols):
    out.require(res["pass"] == (res["norm_drift"] <= tols["norm_drift"]), "pass flag vs norm drift")
    _exit_matches(out, res["pass"])
    header, rows = _read_csv(out.dir / "evolve.csv")
    n_steps = int(round(p["t_max"] / p["dt"]))
    dim = p["levels"] + 1
    out.require(rows.shape == (n_steps + 1, 1 + 2 * dim + 2), "evolve shape")
    if rows.shape != (n_steps + 1, 1 + 2 * dim + 2):
        return
    start = np.zeros(2 * dim)
    start[0] = 1.0
    out.require(np.array_equal(rows[0, 1:1 + 2 * dim], start), "not started in the ground state")
    norms = rows[:, -2]
    out.require(float(np.max(np.abs(norms - 1.0))) == res["norm_drift"], "norm drift differs from CSV")
    amp = rows[:, 1:1 + 2 * dim]
    out.require(_close(np.sqrt(np.sum(amp ** 2, axis=1)), norms, 1e-12), "norm column")


_CHECKS = {"spectrum": _check_spectrum, "eigenstates": _check_eigenstates,
           "coeffs": _check_coeffs, "verify": _check_verify,
           "coherent": _check_coherent, "evolve": _check_evolve}
