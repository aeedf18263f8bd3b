"""CLI surface: commands, config handling, manifests, exit codes."""

import importlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import siqm
from siqm.cli import VERIFY_SUITES, run_command
from siqm.dynamics import MAX_AMPLITUDES, MAX_STEPS
from siqm.grid import MAX_POINTS
from siqm.series import MAX_TABLE_POINTS
from siqm.spectra import MAX_LEVELS


def read_manifest(path):
    return json.loads(path.read_text())


def test_spectrum_csv_contains_the_level_values(tmp_path):
    out = tmp_path / "spec.csv"
    code = run_command(["spectrum", "--family", "selfsimilar", "--q", "0.5",
                        "--c", "1", "--a1", "1", "--levels", "6",
                        "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,E_ladder,E_fd,abs_err"
    row3 = lines[4].split(",")
    assert row3[0] == "3"
    assert float(row3[1]) == 1.75
    manifest = read_manifest(tmp_path / "spec.csv.manifest.json")
    assert manifest["command"] == "spectrum"
    assert str(out) in manifest["outputs"]
    assert manifest["params"]["q"] == 0.5
    assert "timestamp" in manifest and "tolerances" in manifest


def test_coeffs_match_tanh(tmp_path):
    out = tmp_path / "coeffs.csv"
    code = run_command(["coeffs", "--q", "0", "--c0", "1", "--order", "4",
                        "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    got = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(got - [1, -1 / 3, 2 / 15, -17 / 315, 62 / 2835])) < 1e-12


def read_strict_json(path):
    """json.loads that refuses the non-standard constants Infinity and NaN."""
    def refuse(name):
        raise ValueError(f"{name} in {path}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_coeffs_manifest_of_a_polynomial_series_is_strict_json(tmp_path):
    out = tmp_path / "coeffs.csv"
    assert run_command(["coeffs", "--q", "1", "--out", str(out)]) == 0
    results = read_strict_json(tmp_path / "coeffs.csv.manifest.json")["results"]
    assert results["radius_estimate"] is None and results["polynomial"] is True


def test_coeffs_manifest_of_a_short_series_is_not_a_polynomial(tmp_path):
    # five tanh coefficients are too few for the ratio test: no radius, and
    # no polynomial either (the series of tanh does not terminate)
    out = tmp_path / "coeffs.csv"
    assert run_command(["coeffs", "--q", "0", "--c0", "1", "--order", "4",
                        "--out", str(out)]) == 0
    results = read_strict_json(tmp_path / "coeffs.csv.manifest.json")["results"]
    assert results["radius_estimate"] is None and results["polynomial"] is False


def test_coeffs_manifest_keeps_a_finite_radius(tmp_path):
    out = tmp_path / "coeffs.csv"
    assert run_command(["coeffs", "--q", "0.5", "--out", str(out)]) == 0
    results = read_strict_json(tmp_path / "coeffs.csv.manifest.json")["results"]
    assert results["polynomial"] is False and 0 < results["radius_estimate"] < np.inf


def test_config_equivalent_to_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"family":"selfsimilar","q":0.5,"c":1.0,"a1":1.0}')
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_command(["spectrum", "--config", str(cfg), "--levels", "3",
                        "--out", str(out1)]) == 0
    assert run_command(["spectrum", "--family", "selfsimilar", "--q", "0.5",
                        "--c", "1", "--a1", "1", "--levels", "3",
                        "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"family":"selfsimilar","q":0.5,"c":1.0,"a1":1.0}')
    out = tmp_path / "c.csv"
    assert run_command(["spectrum", "--config", str(cfg), "--q", "0.8",
                        "--levels", "2", "--out", str(out)]) == 0
    manifest = read_manifest(tmp_path / "c.csv.manifest.json")
    assert manifest["params"]["q"] == 0.8
    # E_1 = c a1 = 1 regardless of q; E_2 = 1 + q distinguishes them
    assert manifest["results"]["levels"][2] == pytest.approx(1.8)


@pytest.mark.parametrize("argv, checks", [
    (["--suite", "lattice-algebra", "--q", "0.5"], sorted(siqm.lattice.RELATIONS)),
    (["--suite", "dilation", "--q", "0.5"], ["dilation-yy3", "dilation-yy6"]),
    # every relation is defined for a q < 1 scaling family
    (["--suite", "lattice-algebra", "--q", "0.6", "--grid-min", "-10", "--grid-max", "10",
      "--grid-points", "2001"], sorted(siqm.lattice.RELATIONS)),
])
def test_verify_suite_passes_every_check_of_its_suite(tmp_path, argv, checks):
    rep = tmp_path / "rep.json"
    assert run_command(["verify", *argv, "--report", str(rep)]) == 0
    report = read_strict_json(rep)
    assert sorted(report) == checks
    assert all(entry["pass"] for entry in report.values())


def test_verify_broken_w_table_exits_2(tmp_path):
    # a 6-term series, the shortest that places its break point, leaves a
    # visibly wrong W, so the x-space relations fail
    rep = tmp_path / "rep.json"
    code = run_command(["verify", "--suite", "lattice-algebra", "--q", "0.5",
                        "--order", "5", "--report", str(rep)])
    assert code == 2
    manifest = read_manifest(tmp_path / "rep.json.manifest.json")
    failing = manifest["results"]["failing"]
    assert "ladder-commutator" in failing


def test_verify_matrix_identities(tmp_path):
    rep = tmp_path / "mat.json"
    code = run_command(["verify", "--suite", "matrix-identities", "--q", "0.5",
                        "--c", "1", "--a1", "1", "--levels", "20",
                        "--report", str(rep)])
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["qqdag-identity"]["pass"]


def test_matrix_identities_at_5000_levels_pass(tmp_path):
    # no levels bound: the identities are vector arithmetic on 5000 weights
    rep = tmp_path / "mat.json"
    code = run_command(["verify", "--suite", "matrix-identities", "--family", "harmonic",
                        "--a1", "0.5", "--levels", "5000", "--report", str(rep)])
    assert code == 0
    report = read_strict_json(rep)
    assert len(report) == 6 and all(entry["pass"] for entry in report.values())


def test_matrix_identities_read_levels_up_to_n_only(tmp_path):
    # Morse a1 = 8 binds levels 0 .. 7, and dimension 7 reads no level above them
    rep = tmp_path / "mat.json"
    assert run_command(["verify", "--suite", "matrix-identities", "--family", "morse",
                        "--a1", "8", "--levels", "7", "--report", str(rep)]) == 0
    assert all(entry["pass"] for entry in read_strict_json(rep).values())


def test_coherent_command(tmp_path):
    out = tmp_path / "coh.csv"
    code = run_command(["coherent", "--family", "selfsimilar", "--q", "0.5",
                        "--c", "1", "--a1", "1", "--z-re", "1",
                        "--levels", "20", "--out", str(out)])
    assert code == 0
    manifest = read_manifest(tmp_path / "coh.csv.manifest.json")
    res = manifest["results"]
    assert res["eigen_residual"] <= 1e-10
    assert res["derivative_residual"] <= 1e-6
    assert res["closed_vs_recursive"] <= 1e-12
    rows = out.read_text().splitlines()
    assert float(rows[3].split(",")[1]) == pytest.approx(1.1547005383792517)


@pytest.mark.parametrize("z_re", ["1e6", "1e10", "1e12"])
def test_coherent_at_large_z_passes_its_derivative_gate(tmp_path, z_re):
    # the derivative residual stays at rounding however large z is
    out = tmp_path / "coh.csv"
    assert run_command(["coherent", "--q", "0.9", "--levels", "5", "--z-re", z_re,
                        "--out", str(out)]) == 0
    assert read_manifest(tmp_path / "coh.csv.manifest.json")["results"][
        "derivative_residual"] <= 1e-14


def test_coherent_at_z_zero_writes_a_strict_manifest(tmp_path):
    # h_n = 0 for n >= 1, so closed and recursive agree absolutely there
    out = tmp_path / "coh.csv"
    assert run_command(["coherent", "--q", "0.5", "--levels", "8", "--z-re", "0",
                        "--out", str(out)]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} in the manifest")

    text = (tmp_path / "coh.csv.manifest.json").read_text()
    assert json.loads(text, parse_constant=refuse)["results"]["closed_vs_recursive"] == 0.0


def test_coherent_refuses_exactly_where_closed_and_recursive_disagree(tmp_path, capsys):
    # c, a1 != 1: the gap is taken against the command's own level table
    rng = random.Random(1617)
    refused = []
    for i in range(16):
        q, c, a1 = rng.uniform(0.4, 0.95), rng.uniform(0.3, 3), rng.uniform(0.3, 3)
        N, z = rng.randint(10, 40), complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        table = siqm.energy_levels(siqm.SelfSimilar(q=q, c=c, a1=a1), N - 1)
        h = siqm.coherent_recursive(table.norms(N), z)
        gap = np.max(np.abs(siqm.coherent_closed_scaling(q, c * a1, z, N) - h) / np.abs(h))
        bound = max(1e-12, 100 * np.finfo(float).eps / (1 - q))
        out = tmp_path / f"job{i}" / "h.csv"
        out.parent.mkdir()
        code = run_command(["coherent", "--q", repr(q), "--c", repr(c), "--a1", repr(a1),
                            "--levels", str(N), "--z-re", repr(z.real), "--z-im", repr(z.imag),
                            "--out", str(out)])
        assert (code == 1) == (gap > bound), (q, c, a1, N, z)
        if code == 1:
            assert "closed form disagrees with the recursive product" in capsys.readouterr().err
            assert not list(out.parent.iterdir())
        else:
            res = read_strict_json(out.with_name("h.csv.manifest.json"))["results"]
            assert res["closed_vs_recursive"] == gap
        refused.append(code == 1)
    assert 4 <= sum(refused) <= 12


def test_eigenstates_command(tmp_path):
    out = tmp_path / "eig.csv"
    code = run_command(["eigenstates", "--family", "harmonic", "--levels", "3",
                        "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header == ["x"] + [f"{part}_psi_{n}" for n in range(4)
                              for part in ("re", "im")]
    manifest = read_manifest(tmp_path / "eig.csv.manifest.json")
    res = manifest["results"]
    assert res["pass"] and res["max_prenorm_rel_err"] <= 1e-3
    # the manifest lists the gate the command applies
    assert manifest["tolerances"]["prenorm"] == res["tolerance"] == 1e-3


def test_eigenstates_under_resolved_grid_exits_2(tmp_path):
    # 49 points on [-12, 12] cannot resolve the harmonic n = 6 state
    out = tmp_path / "eig.csv"
    code = run_command(["eigenstates", "--family", "harmonic", "--levels", "6",
                        "--grid-min", "-12", "--grid-max", "12",
                        "--grid-points", "49", "--out", str(out)])
    assert code == 2
    res = read_manifest(tmp_path / "eig.csv.manifest.json")["results"]
    assert not res["pass"] and res["max_prenorm_rel_err"] > 1e-3


def test_evolve_command(tmp_path):
    out = tmp_path / "evo.csv"
    code = run_command(["evolve", "--family", "selfsimilar", "--q", "1.0",
                        "--c", "1", "--a1", "1", "--drive", "const:0.1",
                        "--t-max", "5", "--dt", "0.002",
                        "--phase-sign", "conjugate", "--out", str(out)])
    assert code == 0
    res = read_manifest(tmp_path / "evo.csv.manifest.json")["results"]
    assert res["final_overlap_closed"] >= 1 - 1e-6
    assert res["norm_drift"] <= 1e-8
    header = out.read_text().splitlines()[0].split(",")
    assert header[0] == "t" and "norm" in header and "overlap_closed" in header


# The refusal table: every row exits 1 with one stderr line, "error: " and then
# a text that holds the row's text, and writes no file. A text that itself
# starts with "error: " is the whole line. A row is (argv, text) or, for a
# refused config, (argv, text, the config file's JSON text).
OUT, REPORT = ["--out", "o.csv"], ["--report", "r.json"]
EVOLVE_Q1 = ["evolve", "--q", "1.0", "--levels", "3"]
REFUSALS = [
    # a step or drive evolve cannot run
    ([*EVOLVE_Q1, "--dt", "0", *OUT], "dt = 0.0"),
    ([*EVOLVE_Q1, "--dt", "-0.002", *OUT], "dt = -0.002"),
    ([*EVOLVE_Q1, "--t-max", "-1", *OUT], "t_max = -1.0"),
    ([*EVOLVE_Q1, "--t-max", "inf", *OUT], "t_max = inf"),
    ([*EVOLVE_Q1, "--dt", "nan", *OUT], "dt = nan"),
    ([*EVOLVE_Q1, "--drive", "const:nan", *OUT], "f0 = nan"),
    ([*EVOLVE_Q1, "--drive", "pulse:0.1,-inf,1", *OUT], "t0 = -inf"),
    ([*EVOLVE_Q1, "--drive", "pulse:0.1,2,inf", *OUT], "sigma = inf"),
    ([*EVOLVE_Q1, "--dt", "1e-300", *OUT], "dt = 1e-300"),
    ([*EVOLVE_Q1, "--dt", "5e-324", *OUT], "inf steps"),  # t_max / dt overflows to inf
    # one step over the cap; the refusal comes before any array is allocated
    ([*EVOLVE_Q1, "--t-max", "1", "--dt", repr(1.0 / (MAX_STEPS + 1)), *OUT],
     f"{MAX_STEPS + 1} steps"),
    ([*EVOLVE_Q1, "--drive", "pulse:1,2", *OUT],
     "'pulse:1,2' is not const:<f0> or pulse:<f0>,<t0>,<sigma>"),
    ([*EVOLVE_Q1, "--drive", "pulse:1,2,3,4", *OUT], "'pulse:1,2,3,4' is not const:<f0> or pulse:"),
    ([*EVOLVE_Q1, "--drive", "const:", *OUT], "'const:' is not const:<f0> or pulse:"),
    ([*EVOLVE_Q1, "--drive", "const:0.1,2", *OUT], "'const:0.1,2' is not const:<f0> or pulse:"),
    # a float flag or config value that is not finite
    (["spectrum", "--family", "harmonic", "--grid-min", "-10", "--grid-max", "inf",
      "--grid-points", "100", *OUT], "--grid-max must be finite"),
    (["spectrum", "--c", "inf", "--levels", "2", *OUT], "--c must be finite"),
    (["coherent", "--z-re", "inf", "--levels", "5", *OUT], "--z-re must be finite"),
    (["coherent", "--z-re", "nan", "--levels", "5", *OUT], "--z-re must be finite"),
    (["coeffs", "--q", "0.5", "--c0", "nan", *OUT], "--c0 must be finite"),
    (["coeffs", "--q", "0.5", "--c0", "inf", *OUT], "--c0 must be finite"),
    (["coeffs", "--q", "0.5", *OUT], "--c0 must be finite", '{"c0": -Infinity}'),
    (["coherent", "--levels", "5", *OUT], "--z-im must be finite", '{"z_im": NaN}'),
    # finite values whose arithmetic leaves the floats, named by value
    (["coeffs", "--q", "0.5", "--c0", "1e200", *OUT], "c0 = 1e+200"),
    (["spectrum", "--c", "1e300", "--levels", "2", *OUT], "c0 = 6.666666666666667e+299"),
    (["coherent", "--z-re", "1e100", "--levels", "5", *OUT], "z = (1e+100+0j) at 5 levels"),
    (["coherent", "--family", "harmonic", "--levels", "200", *OUT], "N_151 = inf"),
    # f(t) divides by 2 sigma^2: inf raised OverflowError, 0 ran to a NaN norm drift
    (["evolve", "--q", "0.5", "--levels", "6", "--drive", "pulse:0.1,1,1e200", *OUT],
     "got sigma = 1e+200"),
    (["evolve", "--q", "0.5", "--levels", "6", "--drive", "pulse:0.1,1,1e-200", *OUT],
     "got sigma = 1e-200"),
    # every h_n is a float, but ||h|| was written to the manifest as Infinity
    (["coherent", "--q", "0.9", "--levels", "11", "--z-re", "1e16", *OUT],
     "norm of the coherent coefficients overflows for z = (1e+16+0j) at 11 levels"),
    (["coherent", "--q", "0.5", "--levels", "10", "--z-re", "1e30", *OUT],
     "norm of the coherent coefficients overflows for z = (1e+30+0j) at 10 levels"),
    # a NaN residual would pass every gate through max(worst, nan)
    (["verify", "--suite", "lattice-algebra", "--family", "harmonic", "--a1", "1e300", *REPORT],
     "ladder-commutator: residual nan"),
    (["verify", "--suite", "shape-invariance", "--family", "harmonic", "--a1", "1e160",
      *REPORT], "shape-invariance: residual nan"),
    # N_n = sqrt(E_n (E_n - E_{n-1}) ... (E_n - E_1)) over- or underflows
    (["coherent", "--family", "harmonic", "--a1", "1e300", "--levels", "4", *OUT], "N_2 = inf"),
    (["coherent", "--family", "harmonic", "--a1", "1e-300", "--levels", "4", *OUT], "N_2 = 0.0"),
    (["eigenstates", "--family", "harmonic", "--a1", "1e160", "--levels", "2", *OUT],
     "N_2 = inf"),
    # W^2 overflows the oracle's bands; Morse's R(a) squares a1
    (["spectrum", "--family", "harmonic", "--a1", "1e300", "--levels", "2", *OUT],
     "'a1': 1e+300"),
    (["spectrum", "--family", "morse", "--a1", "1e200", "--levels", "2", *OUT], "a1 = 1e+200"),
    # 1/E of subnormal levels is inf, so Q Q_dag carries inf on its diagonal
    (["verify", "--suite", "matrix-identities", "--family", "harmonic", "--a1", "1e-310",
      "--levels", "5", *REPORT], "qqdag-identity: residual inf"),
    # q^1075 rounds to 0, so a_1076 and R(a_1076) are float underflow, not physics
    (["verify", "--suite", "matrix-identities", "--q", "0.5", "--levels", "2000", *REPORT],
     "error: remainder R(a_1076) = 0 underflows the floats at level 1076: the chain value "
     "a_1076 rounds to 0"),
    # a drive the truncation cannot hold, and closed-form coherent coefficients
    # that disagree with the recursion
    (["evolve", "--q", "0.5", "--levels", "3", "--drive", "const:2", *OUT],
     "more levels or a weaker drive needed: top-level population"),
    (["coherent", "--q", "0.7", "--levels", "30", *OUT], "by 1.08e-12 relative at level 25"),
    (["coherent", "--q", "0.3", "--levels", "20", *OUT], "by 1.04e-07 relative at level 19"),
    # near q = 1 the closed form's q-Pochhammer product underflows
    (["coherent", "--q", "0.9999999999999999", "--levels", "23", "--z-re", "0", *OUT],
     "error: the closed form's (q; q)_22 at q = 0.9999999999999999 underflows the floats"),
    # float partial sums that drift from the closed levels, and an oracle asked
    # for as many levels as grid points
    (["verify", "--suite", "matrix-identities", "--family", "harmonic", "--a1", "0.7",
      "--levels", "100000", *REPORT], "by 2.61e-07 at level 100000, above 1.4e-07"),
    (["spectrum", "--family", "harmonic", "--levels", "15", "--grid-min", "-1",
      "--grid-max", "1", "--grid-points", "16", *OUT], "16 levels asked of a 16-point grid"),
    # a gridded coeffs run builds its W table with or without --out: a W
    # continuation that diverges, and a series too short to place its break point
    (["coeffs", "--q", "0.5", "--c0", "-1", "--grid-min", "-40", "--grid-max", "40",
      "--grid-points", "801", *OUT], "error: continuation diverged near x = 1.700"),
    (["coeffs", "--q", "0.5", "--c0", "-1", "--grid-min", "-40", "--grid-max", "40",
      "--grid-points", "801"], "error: continuation diverged near x = 1.700"),
    (["coeffs", "--q", "0.5", "--c0", "0.0", "--grid-min", "-1", "--grid-max", "1",
      "--grid-points", "20"], "needs at least 6 nonzero coefficients to place its break "
     "point; order 40 has 0"),
    # five coefficients give no radius estimate, so no break point between the
    # summed series and the march
    (["spectrum", "--q", "0.5", "--order", "4", "--levels", "2", *OUT],
     "needs at least 6 nonzero coefficients to place its break point; order 4 has 5"),
    (["coeffs", "--q", "0.5", "--c0", "0.6667", "--order", "4", "--grid-min", "-10",
      "--grid-max", "10", "--grid-points", "201", *OUT],
     "needs at least 6 nonzero coefficients to place its break point; order 4 has 5"),
    # a large c a1 leaves a W table shorter than the 6-point stencil, and a step
    # too coarse for the contracted argument
    (["coeffs", "--q", "0.5", "--c0", "1e6", "--grid-min", "-1", "--grid-max", "1",
      "--grid-points", "101", *OUT], "a W table of 6 points; at step 0.005 it holds 1"),
    (["coeffs", "--q", "0.3", "--c0", "1e4", "--order", "60", "--grid-min", "-0.5",
      "--grid-max", "1e3", "--grid-points", "101", *OUT], "at step 0.005 it holds 5"),
    (["spectrum", "--q", "0.3", "--c", "50", "--a1", "1e5", "--order", "8", "--levels", "1",
      "--grid-min", "-3", "--grid-max", "3", "--grid-points", "17", *OUT], "it holds 1"),
    (["verify", "--suite", "lattice-algebra", "--q", "0.5", "--c", "1e4", "--a1", "1e5",
      "--order", "5", *REPORT], "it holds 1"),
    (["coeffs", "--q", "0.5", "--c0", "1e4", "--grid-min", "-1", "--grid-max", "1",
      "--grid-points", "101", *OUT],
     "step too large for the contracted argument near the series edge"),
    # a W table past the point budget, refused before it is built: a grid past
    # x_break = 7.4e7 (q near 1) and 3.7e9 (tiny c0), and a long march at q = 0.999
    (["coeffs", "--q", "0.9999999999999999", "--grid-min", "0", "--grid-max", "2e8",
      "--grid-points", "16", *OUT], "a W table to x = 2e+08 needs 25159319152 points at step "
     f"0.005, more than MAX_TABLE_POINTS = {MAX_TABLE_POINTS}"),
    (["coeffs", "--q", "0.8774671631052722", "--c0", "3.9289148944944603e-19", "--order", "31",
      "--grid-min", "0", "--grid-max", "1e10", "--grid-points", "16", *OUT],
     "a W table to x = 1e+10 needs 1256578597113 points"),
    (["coeffs", "--q", "0.999", "--c0", "1", "--grid-min", "0", "--grid-max", "1e7",
      "--grid-points", "16", *OUT], "a W table to x = 1e+07 needs 1999995173 points"),
    # a grid, a level table or a trajectory past its budget, refused before it is
    # allocated; the padded work grid of eigenstates counts too
    (["spectrum", "--family", "harmonic", "--levels", "2", "--grid-min", "-10", "--grid-max",
      "10", "--grid-points", "300000000", *OUT],
     f"a grid of 300000000 points is more than MAX_POINTS = {MAX_POINTS}"),
    (["verify", "--suite", "shape-invariance", "--grid-min", "-10", "--grid-max", "10",
      "--grid-points", "200000000", *REPORT], "a grid of 200000000 points is more than MAX_POINTS"),
    (["spectrum", "--family", "harmonic", "--levels", "2", "--grid-min", "-10", "--grid-max",
      "10", "--grid-points", str(MAX_POINTS + 1), *OUT],
     f"error: a grid of {MAX_POINTS + 1} points is more than MAX_POINTS = {MAX_POINTS}"),
    (["eigenstates", "--family", "harmonic", "--levels", "1", "--grid-min", "-10", "--grid-max",
      "10", "--grid-points", str(MAX_POINTS), *OUT],
     f"a grid of 2200000 points is more than MAX_POINTS = {MAX_POINTS}"),
    (["verify", "--suite", "matrix-identities", "--family", "harmonic", "--levels", "100000000",
      *REPORT], f"need n_max <= MAX_LEVELS = {MAX_LEVELS}, got 100000000"),
    (["verify", "--suite", "matrix-identities", "--family", "harmonic", "--levels",
      str(MAX_LEVELS + 1), *REPORT],
     f"error: need n_max <= MAX_LEVELS = {MAX_LEVELS}, got {MAX_LEVELS + 1}"),
    (["evolve", "--family", "harmonic", "--a1", "0.0001", "--levels", "100000", "--drive",
      "const:0.000001", *OUT], "a trajectory of 2501 time points at 100001 levels holds "
     f"250102501 amplitudes, more than MAX_AMPLITUDES = {MAX_AMPLITUDES}"),
    # 137143 x 175 amplitudes, one over the budget
    (["evolve", "--family", "harmonic", "--a1", "0.01", "--levels", "174", "--t-max", "274.284",
      *OUT], f"holds {MAX_AMPLITUDES + 1} amplitudes, more than MAX_AMPLITUDES"),
    # the first refused normalization product ends the run, so the 200000 products
    # of all levels (an O(N^2) cost) are never formed
    (["coherent", "--family", "harmonic", "--levels", "200000", *OUT], "N_151 = inf"),
    # a scaling order below 1, also in commands that never build W
    (["coherent", "--order", "-5", "--levels", "3", *OUT],
     "error: scaling family needs series order >= 1, got -5"),
    (["coherent", "--order", "0", "--levels", "3", *OUT],
     "error: scaling family needs series order >= 1, got 0"),
    (["evolve", "--order", "-5", "--levels", "4", "--t-max", "0.1", *OUT],
     "error: scaling family needs series order >= 1, got -5"),
    (["evolve", "--order", "0", "--levels", "4", "--t-max", "0.1", *OUT],
     "error: scaling family needs series order >= 1, got 0"),
    (["verify", "--suite", "matrix-identities", "--order", "-5", "--levels", "4", *REPORT],
     "error: scaling family needs series order >= 1, got -5"),
    (["spectrum", "--order", "0", "--levels", "2", *OUT],
     "error: scaling family needs series order >= 1, got 0"),
    # levels no command can take, a Morse level above the tower, and a relation
    # outside its family's scope
    (["evolve", "--levels", "1", "--t-max", "0.1", *OUT], "need dimension >= 3"),
    (["spectrum", "--levels", "-1", *OUT], "need n_max >= 0, got -1"),
    (["coherent", "--levels", "1", *OUT],
     "coherent-state residuals need at least 2 levels, got 1"),
    (["spectrum", "--a1", "-1", "--levels", "2", *OUT], "scaling family needs a1 > 0"),
    (["spectrum", "--family", "morse", "--a1", "2.8", "--levels", "3", *OUT],
     "a_4 = -0.2 is outside the family's domain: level 3 is not bound"),
    (["verify", "--suite", "q-oscillator", "--family", "harmonic", *REPORT],
     "error: q-oscillator is defined for scaling families only"),
    # flags: missing, unknown, partial grid, and family keys the family does not take
    (["coeffs", "--c0", "1", *OUT], "--q is required for coeffs"),
    (["verify", "--q", "0.5"], "--suite is required (one of shape-invariance, lattice-algebra, "
     "q-oscillator, dilation, matrix-identities)"),
    (["spectrum", "--frobnicate", "3"], "unrecognized arguments: --frobnicate 3"),
    # verify writes its report to --report, so it takes no --out
    (["verify", "--suite", "shape-invariance", "--out", "x.csv"],
     "unrecognized arguments: --out x.csv"),
    (["coeffs", "--q", "0.5", "--grid-points", "100", *OUT],
     "provide all of --grid-min, --grid-max, --grid-points or none of them"),
    (["spectrum", "--family", "harmonic", "--order", "30", *OUT],
     "family 'harmonic' takes no order (its keys: a1)"),
    (["verify", "--suite", "shape-invariance", "--family", "harmonic", "--order", "5", *REPORT],
     "family 'harmonic' takes no order (its keys: a1)"),
    (["verify", "--suite", "shape-invariance", "--family", "harmonic", "--q", "0.5", *REPORT],
     "family 'harmonic' takes no q (its keys: a1)"),
    (["verify", "--suite", "shape-invariance", "--family", "harmonic", "--c", "2", *REPORT],
     "family 'harmonic' takes no c (its keys: a1)"),
    # config files: missing, malformed, not an object, with a key the command
    # does not take, or with a value its flag would refuse
    (["spectrum", "--config", "missing.json", *OUT], "cannot read config missing.json"),
    (["spectrum"], "config parse error at line 1, column 2", "{broken"),
    (["spectrum"], "config must be a JSON object", "3"),
    (["spectrum"], "config must be a JSON object", '["q"]'),
    (["spectrum"], "unknown config key 'qq' for spectrum", '{"family":"selfsimilar","qq":0.5}'),
    (["spectrum"], "unknown config key 'delta' for spectrum",
     '{"family":"morse","a1":2.5,"delta":-1.0}'),
    (["spectrum"], "family 'harmonic' takes no q (its keys: a1)",
     '{"family":"harmonic","q":0.5}'),
    (["spectrum", "--levels", "2", *OUT], "unknown config key 'drive' for spectrum",
     '{"drive": "const:0.1"}'),
    (["spectrum", "--levels", "2", *OUT], "unknown config key 'out' for spectrum",
     '{"out": "elsewhere.csv"}'),
    (["spectrum", *OUT], "argument --levels: invalid int value: '[1]'", '{"levels": [1]}'),
    (["spectrum", *OUT], "argument --levels: invalid int value: '3.7'", '{"levels": 3.7}'),
    (["evolve", *OUT], "argument --phase-sign: invalid choice: 'sideways'",
     '{"phase_sign": "sideways"}'),
]


@pytest.mark.parametrize("argv, text, config", [(*row, None)[:3] for row in REFUSALS],
                         ids=[" ".join([*row[0], *row[2:]]) for row in REFUSALS])
def test_refusal_exits_1_with_one_error_line_and_no_files(tmp_path, monkeypatch, capsys,
                                                          argv, text, config):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    # no numpy or library warning precedes the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_command(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    if text.startswith("error: "):
        assert err == text + "\n"
    else:
        assert text in err
    assert not list(run_dir.iterdir())


# every default of the COMMANDS table, as --help shows it on its flag's line
HELP_DEFAULTS = {
    "spectrum": {"--family": "selfsimilar", "--levels": "6"},
    "coeffs": {"--c0": "1.0", "--order": "40"},
    "eigenstates": {"--family": "selfsimilar", "--levels": "3"},
    "verify": {"--family": "selfsimilar", "--levels": "20"},
    "coherent": {"--family": "selfsimilar", "--z-re": "1.0", "--z-im": "0.0", "--levels": "20"},
    "evolve": {"--family": "selfsimilar", "--drive": "const:0.1", "--t-max": "5.0",
               "--dt": "0.002", "--phase-sign": "conjugate", "--levels": "23"},
}


@pytest.mark.parametrize("command", list(HELP_DEFAULTS))
def test_help_shows_every_default_and_a_run_uses_it(tmp_path, monkeypatch, capsys, command):
    with pytest.raises(SystemExit) as stop:
        run_command([command, "--help"])
    assert stop.value.code == 0
    # one entry per option: a line "  --flag ..." and its indented continuation lines
    entries = [" ".join(entry.split()) for entry in
               re.split(r"\n  (?=-)", capsys.readouterr().out.split("\n  -h, --help")[1])]
    shown = {entry.split()[0]: match[1] for entry in entries
             if (match := re.search(r"\(default: (\S+)\)$", entry))}
    assert shown == HELP_DEFAULTS[command]
    # a run that gives none of these flags records each default in its manifest
    monkeypatch.chdir(tmp_path)
    argv = {"coeffs": ["--q", "0.5"], "verify": ["--suite", "matrix-identities"]}.get(command, [])
    assert run_command([command, *argv]) == 0
    params = read_manifest(tmp_path / f"{command}.manifest.json")["params"]
    assert {flag: str(params[flag[2:].replace("-", "_")]) for flag in shown} == shown


def test_a_run_without_out_writes_only_its_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_command(["coherent", "--levels", "5"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["coherent.manifest.json"]
    assert read_strict_json(tmp_path / "coherent.manifest.json")["outputs"] == []


@pytest.mark.parametrize("argv, manifest, kept", [
    (["coherent", "--levels", "5", "--out", "o.csv"], "o.csv.manifest.json", ["o.csv"]),
    (["coherent", "--levels", "5"], "coherent.manifest.json", []),
])
def test_a_manifest_that_cannot_be_written_exits_1_keeping_the_files_before_it(
        tmp_path, monkeypatch, capsys, argv, manifest, kept):
    # a directory where the manifest goes: the write fails after the CSV's
    monkeypatch.chdir(tmp_path)
    (tmp_path / manifest).mkdir()
    assert run_command(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([manifest, *kept])
    assert not list((tmp_path / manifest).iterdir())
    for name in kept:
        assert len((tmp_path / name).read_text().splitlines()) == 6


@pytest.mark.parametrize("argv, key", [
    (["spectrum", "--family", "harmonic", "--levels", "2"], "oracle"),
    (["eigenstates", "--family", "harmonic", "--levels", "2"], "prenorm"),
    (["verify", "--suite", "matrix-identities", "--levels", "5"], "matrix"),
    (["coherent", "--levels", "5"], "coherent_eigen"),
    (["evolve", "--levels", "3", "--t-max", "0.1"], "norm_drift"),
])
def test_a_failed_gate_exits_2_and_writes_its_output_and_manifest(tmp_path, monkeypatch,
                                                                   capsys, argv, key):
    # no residual is at or below a negative tolerance
    monkeypatch.setitem(siqm.cli.TOLERANCES, key, -1.0)
    out = tmp_path / ("o.json" if argv[0] == "verify" else "o.csv")
    assert run_command([*argv, "--report" if argv[0] == "verify" else "--out", str(out)]) == 2
    manifest = read_strict_json(tmp_path / f"{out.name}.manifest.json")
    assert capsys.readouterr().out == \
        f"{argv[0]}: numerical failure; manifest {out}.manifest.json\n"
    assert manifest["outputs"] == [str(out)]
    assert manifest["tolerances"][key] == -1.0
    if argv[0] == "verify":
        report = read_strict_json(out)
        assert manifest["results"]["failing"] == sorted(report) and len(report) == 6
    else:
        assert manifest["results"]["pass"] is False
        assert len(out.read_text().splitlines()) > 1


def test_eigensolver_failure_exits_1_without_files(tmp_path, monkeypatch, capsys):
    # EigensolverError was a RuntimeError and escaped run_command as a traceback
    def failing_eigsh(*args, **kwargs):
        raise RuntimeError("ARPACK did not converge")

    monkeypatch.setattr(siqm.spectra, "eigsh", failing_eigsh)
    monkeypatch.chdir(tmp_path)
    assert run_command(["spectrum", "--family", "harmonic", "--levels", "2",
                        "--out", str(tmp_path / "o.csv")]) == 1
    assert "error: ARPACK did not converge" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_evolve_fits_a_run_whose_float_levels_are_not_increasing(tmp_path):
    # the float levels 20..27 of this small-q family are not increasing, which
    # N_n cannot carry; the fit needs only sqrt(E_n) > 0
    out = tmp_path / "evo.csv"
    code = run_command(["evolve", "--q", "0.1425", "--c", "0.7782", "--a1", "1.541",
                        "--levels", "27", "--drive", "pulse:-0.104,1,0.5",
                        "--t-max", "1", "--dt", "0.001", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1002
    res = read_strict_json(tmp_path / "evo.csv.manifest.json")["results"]
    assert res["pass"] and res["norm_drift"] <= 1e-8
    assert res["best_fit_error"] is None and all(map(np.isfinite, res["best_fit_z"]))
    assert res["best_fit_coherent_overlap"] == pytest.approx(0.999998, abs=1e-6)


def test_evolve_fits_a_run_whose_normalization_products_overflow(tmp_path):
    # E_n = 0.17 n: N_254 = sqrt(0.17^254 254!) leaves the floats, z^n / (sqrt(E_1) ...
    # sqrt(E_n)) does not
    out = tmp_path / "evo.csv"
    code = run_command(["evolve", "--family", "harmonic", "--a1", "0.085", "--levels", "270",
                        "--t-max", "0.01", "--dt", "0.001", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 12
    res = read_strict_json(tmp_path / "evo.csv.manifest.json")["results"]
    assert res["best_fit_error"] is None and all(map(np.isfinite, res["best_fit_z"]))
    assert res["best_fit_coherent_overlap"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("argv, least_overlap", [
    (["--q", "0.8", "--levels", "6", "--t-max", "0.1"], 0),
    # the defaults: the best fit is the eigenstate of the sqrt(E_n) B- that gives z
    (["--q", "0.5"], 0.99),
])
def test_evolve_manifest_records_the_best_fit(tmp_path, argv, least_overlap):
    out = tmp_path / "evo.csv"
    assert run_command(["evolve", *argv, "--out", str(out)]) == 0
    res = read_manifest(tmp_path / "evo.csv.manifest.json")["results"]
    assert res["best_fit_error"] is None
    assert len(res["best_fit_z"]) == 2 and least_overlap < res["best_fit_coherent_overlap"] <= 1


def test_evolve_reports_a_best_fit_that_fails_and_still_writes_its_outputs(tmp_path,
                                                                        monkeypatch):
    def failing_fit(self):
        raise ValueError("best fit left the floats")
    monkeypatch.setattr(siqm.dynamics.ForcedEvolution, "best_fit_coherent", failing_fit)
    out = tmp_path / "evo.csv"
    assert run_command(["evolve", "--q", "0.8", "--levels", "6", "--t-max", "0.1",
                        "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 52
    res = read_strict_json(tmp_path / "evo.csv.manifest.json")["results"]
    assert res["best_fit_error"] == "best fit left the floats"
    assert res["best_fit_z"] is None and res["best_fit_coherent_overlap"] is None


def repr_csv(header, *columns):
    """The per-row writer the CSVs were first written with: each value's repr."""
    blocks = [np.asarray(col).reshape(len(col), -1) for col in columns]
    lines = [",".join(header) + "\n"]
    for row in zip(*blocks):
        values = itertools.chain.from_iterable(part.tolist() for part in row)
        lines.append(",".join(map(repr, values)) + "\n")
    return "".join(lines).encode()


# each row with the (lines, columns) of the files it writes: its CSV, then a W table
@pytest.mark.parametrize("argv, shapes", [
    (["spectrum", "--q", "0.5", "--levels", "6"], [(8, 4)]),
    (["coeffs", "--q", "0.5", "--grid-min", "-5", "--grid-max", "5", "--grid-points", "1001"],
     [(42, 2), (1002, 2)]),
    # the default grid: 8001 points
    (["eigenstates", "--q", "0.7", "--levels", "2"], [(8002, 7)]),
    (["eigenstates", "--family", "harmonic", "--levels", "2", "--grid-min", "-8",
      "--grid-max", "8", "--grid-points", "801"], [(802, 7)]),
    (["coherent", "--q", "0.6", "--levels", "12", "--z-re", "0.5", "--z-im", "-0.25"],
     [(13, 3)]),
    (["coherent", "--q", "0.5", "--levels", "8", "--z-re", "0"], [(9, 3)]),
    (["evolve", "--q", "1", "--levels", "8", "--t-max", "1"], [(502, 21)]),
    (["evolve", "--q", "0.8", "--levels", "24", "--drive", "const:0.2"], [(2502, 53)]),
    (["evolve", "--q", "1", "--levels", "6", "--drive", "pulse:0.2,0.05,0.03", "--t-max", "1"],
     [(502, 17)]),
    (["evolve", "--q", "0.5", "--levels", "10", "--drive", "pulse:-0.3,1,0.5", "--t-max", "2"],
     [(1002, 25)]),
])
def test_every_csv_is_byte_identical_to_the_per_row_repr_writer(tmp_path, monkeypatch,
                                                                argv, shapes):
    # the evolve and eigenstates tables are not a whole number of formatter chunks
    expected = []
    csv = siqm.cli._csv

    def recording(header, *columns):
        expected.append(repr_csv(header, *columns))
        return csv(header, *columns)
    monkeypatch.setattr(siqm.cli, "_csv", recording)
    assert run_command([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    assert len(expected) == len(shapes)
    written = [tmp_path / "out.csv", tmp_path / "out.table.csv"][:len(shapes)]
    assert [path.read_bytes() for path in written] == expected
    lines = [path.read_text().splitlines() for path in written]
    assert [(len(rows), rows[0].count(",") + 1) for rows in lines] == shapes


def test_morse_evolve_uses_only_bound_levels(tmp_path):
    # A = 6.5 binds levels 0..6; a dimension-7 run needs no level above them
    out = tmp_path / "evo.csv"
    assert run_command(["evolve", "--family", "morse", "--a1", "6.5", "--levels", "6",
                        "--t-max", "0.1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 52


def test_morse_coherent_uses_only_bound_levels(tmp_path):
    # A = 2.5 binds levels 0..2 only; N = 3 coefficients need no level above them
    for levels in (2, 3):
        out = tmp_path / f"coh{levels}.csv"
        assert run_command(["coherent", "--family", "morse", "--levels", str(levels),
                            "--z-re", "0.7", "--out", str(out)]) == 0
    rows = np.loadtxt(tmp_path / "coh3.csv", delimiter=",", skiprows=1)
    E = 2.5 ** 2 - (2.5 - np.arange(3)) ** 2
    expect = [0.7 ** n / np.sqrt(np.prod(E[n] - E[:n])) for n in range(3)]
    assert rows[:, 0].tolist() == [0, 1, 2]
    assert rows[:, 1] == pytest.approx(expect, rel=1e-14)
    assert np.all(rows[:, 2] == 0.0)


def test_config_sets_defaulted_parameters(tmp_path):
    cfg = tmp_path / "coh.json"
    cfg.write_text('{"q": 0.9, "levels": 5, "z_re": 0.5}')
    out = tmp_path / "coh.csv"
    assert run_command(["coherent", "--config", str(cfg), "--out", str(out)]) == 0
    params = read_manifest(tmp_path / "coh.csv.manifest.json")["params"]
    assert (params["levels"], params["z_re"]) == (5, 0.5)
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (5, 3)
    assert rows[1, 1] == 0.5                       # h_1 = z / sqrt(E_1), E_1 = 1

    cfg = tmp_path / "evo.json"
    cfg.write_text('{"q": 1.0, "levels": 3, "drive": "const:0.2", "t_max": 0.1}')
    out = tmp_path / "evo.csv"
    assert run_command(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    params = read_manifest(tmp_path / "evo.csv.manifest.json")["params"]
    assert (params["drive"], params["t_max"]) == ("const:0.2", 0.1)
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 51                    # t = 0 .. 0.1 in steps of 0.002
    assert lines[-1].startswith("0.1")


def test_flag_beats_config_for_a_defaulted_parameter(tmp_path):
    cfg = tmp_path / "coh.json"
    cfg.write_text('{"levels": 5, "z_re": 0.5}')
    out = tmp_path / "coh.csv"
    assert run_command(["coherent", "--config", str(cfg), "--levels", "3",
                        "--out", str(out)]) == 0
    params = read_manifest(tmp_path / "coh.csv.manifest.json")["params"]
    assert (params["levels"], params["z_re"]) == (3, 0.5)
    assert len(out.read_text().splitlines()) == 1 + 3


def test_order_flag_equals_order_config_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"order": 30}')
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_command(["spectrum", "--order", "30", "--levels", "2",
                        "--out", str(out1)]) == 0
    assert run_command(["spectrum", "--config", str(cfg), "--levels", "2",
                        "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


GRID_801 = ["--grid-min", "-8", "--grid-max", "8", "--grid-points", "801"]


@pytest.mark.parametrize("argv, tables, norm_tables", [
    (["spectrum", "--family", "harmonic", "--levels", "2", *GRID_801], 1, 0),
    (["coeffs", "--q", "0.5", "--order", "20"], 0, 0),
    (["eigenstates", "--family", "harmonic", "--levels", "3", *GRID_801], 1, 1),
    (["verify", "--suite", "matrix-identities", "--levels", "5"], 1, 0),
    (["verify", "--suite", "shape-invariance", "--family", "harmonic"], 0, 0),
    (["coherent", "--levels", "5"], 1, 1),
    (["evolve", "--levels", "4", "--t-max", "0.1"], 1, 0),
])
def test_each_command_builds_its_level_table_once(tmp_path, monkeypatch, argv, tables,
                                                  norm_tables):
    # energy_levels counted at every module attribute that binds it, and the
    # O(N^2) normalization products N_n counted on the one method that makes them
    calls = []
    energy_levels, norms = siqm.spectra.energy_levels, siqm.SpectrumTable.norms

    def counted_levels(*args):
        calls.append("levels")
        return energy_levels(*args)

    def counted_norms(*args):
        calls.append("norms")
        return norms(*args)

    for name, module in list(sys.modules.items()):
        if name == "siqm" or name.startswith("siqm."):
            for attr, value in list(vars(module).items()):
                if value is energy_levels:
                    monkeypatch.setattr(module, attr, counted_levels)
    monkeypatch.setattr(siqm.SpectrumTable, "norms", counted_norms)
    monkeypatch.chdir(tmp_path)
    target = "--report" if argv[0] == "verify" else "--out"
    assert run_command([*argv, target, "o.csv"]) == 0
    assert (calls.count("levels"), calls.count("norms")) == (tables, norm_tables)


# the run contract, stated once as a property over drawn argv: nothing escapes
# run_command and every run exits 0, 1 or 2; exit 1 writes no file at all;
# exit 0 or 2 writes the same bytes on a rerun and a strict-JSON manifest whose
# results do not depend on the output flag, and it exits 2 exactly when a gate
# that those results record fails; the drawn flags given as a config file give
# the same exit code, error line, results and output bytes

def _flags(**values):
    """--name value for each keyword, underscores as dashes; a float as its repr."""
    return [text for key, value in values.items()
            for text in (f"--{key.replace('_', '-')}", str(value))]


def _argv(command, head, **draws):
    """The argv strategy of a command: the flags head draws, then one flag per keyword."""
    return st.builds(lambda head, **values: [command, *head, *_flags(**values)], head, **draws)


SCALE = st.floats(0.3, 3.0)
FORCE = st.floats(-2.0, 2.0)
# the family flags of the five family commands: the scaling family's --q, --c, --a1
# and --order, or --family harmonic or morse with its --a1 (Morse binds the levels
# below a1, so its a1 reaches past the levels drawn)
FAMILY = st.one_of(
    st.builds(lambda q, c, a1, order: _flags(q=q, c=c, a1=a1, order=order),
              st.floats(0.05, 1.0), SCALE, SCALE, st.integers(1, 80)),
    st.builds(lambda a1: _flags(family="harmonic", a1=a1), SCALE),
    st.builds(lambda a1: _flags(family="morse", a1=a1), st.floats(0.3, 45.0)))
DRIVE = st.one_of(st.builds("const:{}".format, FORCE),
                  st.builds("pulse:{},{},0.3".format, FORCE, st.floats(0.0, 1.0)))
GRID_201 = ["--grid-min", "-10", "--grid-max", "10", "--grid-points", "201"]
SMALL_GRID = ["--grid-min", "-10", "--grid-max", "10", "--grid-points", "16"]

ARGV = {
    "coeffs": _argv("coeffs", st.sampled_from([[], GRID_201]), q=st.floats(0.0, 1.0), c0=SCALE,
                    order=st.integers(1, 80)),
    "verify": _argv("verify", FAMILY, suite=st.sampled_from(VERIFY_SUITES)),
    "evolve": _argv("evolve", FAMILY, levels=st.integers(3, 30), drive=DRIVE, t_max=st.just(0.5),
                    dt=st.sampled_from([0.001, 0.004]),
                    phase_sign=st.sampled_from(["paper", "conjugate"])),
    "coherent": _argv("coherent", FAMILY, levels=st.integers(2, 40), z_re=FORCE, z_im=FORCE),
    "spectrum": _argv("spectrum", FAMILY, levels=st.integers(1, 8)),
    "eigenstates": _argv("eigenstates", FAMILY, levels=st.integers(0, 4)),
}
MAX_EXAMPLES = {"coeffs": 30, "verify": 20, "evolve": 16, "coherent": 24, "spectrum": 16,
                "eigenstates": 12}
# most draws succeed; evolve exits 1 for a drive the truncation cannot hold or a
# dt above the stability budget
LEAST_EXIT_0 = {"evolve": 8, "eigenstates": 8}

# argv that draws seldom reach: series too short for a break point, too few grid
# points for the levels asked, series regions of 1e8 and more that no grid
# reads (q = 1 - 2^-53, or a tiny c0), once tabulated whole into a MemoryError,
# and a flag value the parser once refused
Q_NEAR_1 = repr(1 - 2 ** -53)
EXAMPLES = {
    "coeffs": [["coeffs", "--q", "0.5", "--c0", "0.0", "--order", "40", *GRID_201],
               ["coeffs", "--q", "0.5", "--c0", "0.6667", "--order", "4", *GRID_201],
               ["coeffs", "--q", "0.8774671631052722", "--c0", "3.9289148944944603e-19",
                "--order", "31", "--grid-min", "0", "--grid-max", "2.5", "--grid-points", "208"]],
    "verify": [["verify", "--suite", "lattice-algebra", "--q", Q_NEAR_1, *GRID_801]],
    "spectrum": [["spectrum", "--q", "0.6", "--levels", "20", *SMALL_GRID],
                 ["spectrum", "--q", Q_NEAR_1, "--levels", "2"]],
    "eigenstates": [["eigenstates", "--q", "0.6", "--levels", "4", *SMALL_GRID]],
    "coherent": [["coherent", "--q", Q_NEAR_1, "--c", "1.0", "--a1", "1.0", "--levels", "23",
                  "--z-re", "0.0", "--z-im", "0.0"],
                 # a negative float in exponent form, once taken for an unknown option
                 ["coherent", "--family", "harmonic", "--a1", "1.0", "--levels", "2",
                  "--z-re", "0.0", "--z-im", "-4.55414049673679e-282"]],
}

# each gate in a command's results: its pass and its (residual, tolerance) pairs
GATES = {
    "coeffs": lambda r, tol: [],
    "verify": lambda r, tol: [(g["pass"], [(g["residual"], g["tolerance"])])
                              for g in r["relations"].values()],
    "evolve": lambda r, tol: [(r["pass"], [(r["norm_drift"], tol["norm_drift"])])],
    "coherent": lambda r, tol: [(r["pass"], [(r["eigen_residual"], r["eigen_tolerance"]),
                                             (r["derivative_residual"], r["derivative_tolerance"])])],
    "spectrum": lambda r, tol: [(r["pass"], [(r["max_rel_err"], r["tolerance"])])],
    "eigenstates": lambda r, tol: [(r["pass"], [(r["max_prenorm_rel_err"], r["tolerance"])])],
}


def _config(argv):
    """The JSON config of argv's flags: each value as JSON writes it, an int, a float
    (its repr, as the flag's text) or a string."""
    def value(text):
        for kind in (int, float):
            try:
                return kind(text)
            except ValueError:
                pass
        return text
    return json.dumps({flag[2:].replace("-", "_"): value(text)
                       for flag, text in zip(argv[1::2], argv[2::2])})


def _run_contract(root, monkeypatch, capsys, argv):
    """Run argv twice with its output flag, once without, and once with its flags
    in a config file, each in its own directory under root, and check the
    contract; the exit code and results."""
    out = ["--report", "rep.json"] if argv[0] == "verify" else ["--out", "out.csv"]
    config = root / "config.json"
    config.write_text(_config(argv))
    runs = {"a": [*argv, *out], "b": [*argv, *out], "bare": argv,
            "config": [argv[0], "--config", str(config), *out]}
    dirs = [root / name for name in runs]
    codes, errors = [], []
    for cwd, run in zip(dirs, runs.values()):
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        with warnings.catch_warnings():
            if argv[0] in ("spectrum", "eigenstates"):
                warnings.simplefilter("ignore")
            codes.append(run_command(run))
        # one error line on exit 1, none otherwise
        err = capsys.readouterr().err.splitlines()
        errors.append([line for line in err if line.startswith("error:")])
        assert len(errors[-1]) == (codes[-1] == 1), err
    code = codes[0]
    assert code in (0, 1, 2) and codes == [code] * 4
    assert errors[3] == errors[0]
    written = [sorted(path.name for path in cwd.iterdir()) for cwd in dirs]
    if code == 1:
        assert written == [[], [], [], []]
        return code, None
    a, b, _, by_config = dirs
    assert written[0] == written[1] == written[3] and written[2] == [f"{argv[0]}.manifest.json"]
    for name in written[0]:
        if not name.endswith(".manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes() == \
                (by_config / name).read_bytes(), name
    names = [f"{out[1]}.manifest.json"] * 2 + written[2] + [f"{out[1]}.manifest.json"]
    manifests = [read_strict_json(cwd / name) for cwd, name in zip(dirs, names)]
    results = manifests[0]["results"]
    assert [m["results"] for m in manifests] == [results] * 4
    assert manifests[3]["params"] == manifests[0]["params"]
    gates = GATES[argv[0]](results, manifests[0]["tolerances"])
    for ok, pairs in gates:
        assert ok == all(residual <= tol for residual, tol in pairs)
    assert (code == 2) == (not all(ok for ok, _ in gates))
    return code, results


def _value(argv, flag, default=None, kind=float):
    """The value argv gives a flag, or the default where it gives none."""
    return kind(argv[argv.index(flag) + 1]) if flag in argv else default


def _short(argv):
    """Whether argv builds a q < 1 series too short to place its break point: fewer
    than 6 nonzero coefficients."""
    if argv[0] == "coeffs":
        q, c0 = _value(argv, "--q"), _value(argv, "--c0", 1.0)
        order = _value(argv, "--order", 40, int)
    elif _value(argv, "--family", "selfsimilar", str) == "selfsimilar":
        q, order = _value(argv, "--q", 0.5), _value(argv, "--order", 60, int)
        c0 = _value(argv, "--c", 1.0) * _value(argv, "--a1", 1.0) / (1.0 + q)
    else:
        return False
    return q < 1 and np.count_nonzero(siqm.series_coefficients(q, c0, order).coeffs) < 6


def _command_contract(argv, code, results):
    """The command's own clauses of the contract."""
    command, family = argv[0], _value(argv, "--family", "selfsimilar", str)
    small = argv[-len(SMALL_GRID):] == SMALL_GRID
    if command == "coeffs":
        # exit 1 only where a gridded W table needs a break point the series cannot place
        assert (code == 1) == ("--grid-points" in argv and _short(argv))
    elif command == "spectrum":
        # exit 1 only for the grid the user can enlarge (21 oracle levels need more
        # than 16 points), a series too short for its break point, or a Morse level
        # at or above a1, which is not bound; exit 2 is the small-q oracle on the
        # fixed box (ROADMAP item 3)
        unbound = family == "morse" and _value(argv, "--levels", 6, int) >= _value(argv, "--a1")
        assert (code == 1) == (small or _short(argv) or unbound)
    elif command == "eigenstates" and small:
        # 16 points on [-10, 10] do not resolve level 4: the prenorm gate fails
        assert code == 2
    elif command == "evolve" and code == 0 and family == "selfsimilar" and \
            _value(argv, "--q") < 1:
        # a finished q < 1 run fits a coherent state to its end point
        assert results["best_fit_error"] is None
        assert all(map(np.isfinite, results["best_fit_z"]))
        assert 0 < results["best_fit_coherent_overlap"] <= 1


@pytest.mark.parametrize("command", list(MAX_EXAMPLES))
def test_run_contract(tmp_path, monkeypatch, capsys, command):
    codes = []

    @settings(max_examples=MAX_EXAMPLES[command], derandomize=True, database=None, deadline=None)
    @given(argv=ARGV[command])
    def run_contract(argv):
        code, results = _run_contract(Path(tempfile.mkdtemp(dir=tmp_path)), monkeypatch, capsys,
                                      argv)
        _command_contract(argv, code, results)
        codes.append(code)

    for argv in EXAMPLES.get(command, []):
        run_contract = example(argv=argv)(run_contract)
    run_contract()
    assert codes.count(0) >= LEAST_EXIT_0.get(command, 0)


@pytest.mark.parametrize("argv, code, stdout, stderr, files", [
    # without --report, verify writes only its manifest, in the working directory
    (["verify", "--suite", "matrix-identities", "--levels", "5"], 0,
     "verify: ok; manifest verify.manifest.json\n", "", ["verify.manifest.json"]),
    (["coeffs", "--q", "0.5", "--c0", "0.0", "--grid-min", "-1", "--grid-max", "1",
      "--grid-points", "20"], 1, "", "error: a q < 1 series needs at least 6 nonzero "
     "coefficients to place its break point; order 40 has 0\n", []),
    # the prenorm gate of the run contract's eigenstates example; its
    # BoundaryDecayWarning lines go to stderr, and no error line does
    (["eigenstates", "--q", "0.6", "--levels", "4", *SMALL_GRID, "--out", "e.csv"], 2,
     "eigenstates: numerical failure; manifest e.csv.manifest.json\n", None,
     ["e.csv", "e.csv.manifest.json"]),
], ids=["exit-0", "exit-1", "exit-2"])
def test_main_exits_with_the_code_of_its_run(tmp_path, argv, code, stdout, stderr, files):
    # main() is the console script: sys.exit(run_command(argv)) in a fresh process
    env = dict(os.environ, PYTHONPATH=str(Path(siqm.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "siqm.cli", *argv], env=env, cwd=tmp_path,
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (code, stdout)
    if stderr is None:
        assert "error" not in run.stderr
    else:
        assert run.stderr == stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    if files:
        manifest = read_strict_json(tmp_path / files[-1])
        assert manifest["outputs"] == files[:-1]


# scipy is imported where it is used: only the oracle (spectrum) and evolve need it

def _in_fresh_process(code):
    """The last line code prints, run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(siqm.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.splitlines()[-1]


SCIPY_LOADED = "any(m.partition('.')[0] == 'scipy' for m in sys.modules)"


@pytest.mark.parametrize("module", ["siqm", "siqm.cli"])
def test_import_leaves_out_scipy(module):
    assert _in_fresh_process(f"import sys, {module}; print({SCIPY_LOADED})") == "False"


@pytest.mark.parametrize("argv", [
    ["coeffs", "--q", "0.5", "--out", "{dir}/c.csv"],
    ["coherent", "--levels", "10", "--out", "{dir}/coh.csv"],
    ["verify", "--suite", "matrix-identities", "--report", "{dir}/m.json"],
])
def test_commands_without_oracle_or_evolution_leave_out_scipy(tmp_path, argv):
    argv = [a.format(dir=tmp_path) for a in argv]
    code = (f"import sys; from siqm.cli import run_command; "
            f"print(run_command({argv!r}), {SCIPY_LOADED})")
    assert _in_fresh_process(code) == "0 False"


def test_spectrum_loads_the_sparse_eigensolver(tmp_path):
    argv = ["spectrum", "--family", "harmonic", "--levels", "2",
            "--out", str(tmp_path / "s.csv")]
    code = (f"import sys; from siqm.cli import run_command; "
            f"print(run_command({argv!r}), 'scipy.sparse.linalg' in sys.modules)")
    assert _in_fresh_process(code) == "0 True"


# perfbench's tracer reads siqm.spectra.eigsh and siqm.dynamics.expm and wraps
# them in place, so the library must call them through those attributes

BINDINGS = [(siqm.spectra, "eigsh", "scipy.sparse.linalg"),
            (siqm.dynamics, "expm", "scipy.linalg")]


@pytest.mark.parametrize("module, name, source", BINDINGS)
def test_lazy_binding_is_the_scipy_function(module, name, source):
    assert getattr(module, name) is getattr(importlib.import_module(source), name)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


@pytest.mark.parametrize("module, name, source", BINDINGS)
def test_lazy_binding_keeps_a_wrapper_already_bound(monkeypatch, module, name, source):
    def wrapper(*args, **kwargs):
        raise AssertionError("not called")
    monkeypatch.setattr(module, name, wrapper)
    assert module.__getattr__(name) is wrapper
    assert getattr(module, name) is wrapper


def _counting(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_fd_diagonalize_calls_eigsh_through_the_module(monkeypatch):
    calls = _counting(monkeypatch, siqm.spectra, "eigsh")
    siqm.fd_diagonalize(siqm.Harmonic(a1=1.0), siqm.Grid(-10, 10, 2001), 3)
    assert len(calls) == 1


def test_evolve_forced_calls_expm_through_the_module(monkeypatch):
    calls = _counting(monkeypatch, siqm.dynamics, "expm")
    levels = siqm.energy_levels(siqm.SelfSimilar(q=0.8), 3)
    siqm.evolve_forced(levels, siqm.DriveProfile("pulse", 0.1, 0.05, 0.02), 0.1, 0.002)
    assert len(calls) == 50 + 1  # steps + 1 time points


def test_a_run_after_a_refused_config_writes_the_bytes_of_a_fresh_run(tmp_path):
    # the parser is built once per process: a refusal must leave nothing in it
    for name in ("after", "fresh"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "bad.json").write_text('{"order": 3.7}')
        (tmp_path / name / "good.json").write_text('{"q": 0.5, "order": 12}')
    valid = ["coeffs", "--config", "good.json", "--grid-min", "-5", "--grid-max", "5",
             "--grid-points", "201", "--out", "c.csv"]
    after = (f"import sys; from siqm.cli import _build_parser, run_command; "
             f"codes = (run_command(['coeffs', '--config', 'bad.json', '--out', 'c.csv']), "
             f"run_command(['spectrum', '--config', 'bad.json']), run_command({valid!r})); "
             f"print(*codes, _build_parser.cache_info().misses)")
    fresh = f"from siqm.cli import run_command; print(run_command({valid!r}))"
    env = dict(os.environ, PYTHONPATH=str(Path(siqm.__file__).parents[1]))
    runs = {name: subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path / name,
                                 check=True, capture_output=True, text=True)
            for name, code in (("after", after), ("fresh", fresh))}
    assert runs["after"].stdout.splitlines()[-1] == "1 1 0 1"
    assert runs["fresh"].stdout.splitlines()[-1] == "0"
    assert runs["after"].stdout.splitlines()[0] == runs["fresh"].stdout.splitlines()[0]
    for name in ("c.csv", "c.table.csv"):
        assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    manifests = [read_manifest(tmp_path / run / "c.csv.manifest.json") for run in runs]
    for manifest in manifests:
        del manifest["timestamp"]
    assert manifests[0] == manifests[1]
