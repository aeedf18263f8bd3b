"""CLI surface: commands, config handling, manifests, exit codes."""

import importlib
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import siqm
from siqm.cli import VERIFY_SUITES, run_command
from siqm.dynamics import MAX_STEPS


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


def test_malformed_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{broken")
    code = run_command(["spectrum", "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_unknown_config_key_exits_1(tmp_path):
    cfg = tmp_path / "bad.json"
    for text in ('{"family":"selfsimilar","qq":0.5}',
                 '{"family":"morse","a1":2.5,"delta":-1.0}',
                 '{"family":"harmonic","q":0.5}', '3', '["q"]'):
        cfg.write_text(text)
        assert run_command(["spectrum", "--config", str(cfg)]) == 1


def test_flag_the_family_does_not_take_exits_1(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    for flags in (["--order", "5"], ["--q", "0.5"], ["--c", "2"]):
        code = run_command(["verify", "--suite", "shape-invariance",
                            "--family", "harmonic", *flags, "--report", str(rep)])
        assert code == 1
        assert flags[0][2:] in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_morse_level_above_the_tower_exits_1(tmp_path, capsys):
    # a_4 = -0.2 is outside the domain, so level 3 of A = 2.8 is not bound
    out = tmp_path / "spec.csv"
    code = run_command(["spectrum", "--family", "morse", "--a1", "2.8",
                        "--levels", "3", "--out", str(out)])
    assert code == 1
    assert "not bound" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_coeffs_partial_grid_flags_exit_1(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code = run_command(["coeffs", "--q", "0.5", "--grid-points", "100",
                        "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert all(flag in err for flag in ("--grid-min", "--grid-max", "--grid-points"))
    assert not list(tmp_path.iterdir())


def test_unknown_flag_exits_1(tmp_path):
    # verify writes its report to --report, so it takes no --out
    for argv in (["spectrum", "--frobnicate", "3"],
                 ["verify", "--suite", "shape-invariance", "--out", str(tmp_path / "x.csv")]):
        assert run_command(argv) == 1
    assert not list(tmp_path.iterdir())


def test_missing_required_flag_exits_1():
    assert run_command(["verify", "--q", "0.5"]) == 1


def test_verify_lattice_suite_passes(tmp_path):
    rep = tmp_path / "rep.json"
    code = run_command(["verify", "--suite", "lattice-algebra", "--q", "0.5",
                        "--report", str(rep)])
    assert code == 0
    report = json.loads(rep.read_text())
    assert all(entry["pass"] for entry in report.values())
    assert "ladder-commutator" in report


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


@pytest.mark.parametrize("argv", [
    ["spectrum", "--q", "0.5", "--order", "4", "--levels", "2", "--out", "spec.csv"],
    ["coeffs", "--q", "0.5", "--c0", "0.6667", "--order", "4", "--grid-min", "-10",
     "--grid-max", "10", "--grid-points", "201", "--out", "w.csv"],
])
def test_series_too_short_for_its_break_point_exits_1(tmp_path, monkeypatch, capsys, argv):
    # five coefficients give no radius estimate, so no break point between
    # the summed series and the march: refused before anything is written
    monkeypatch.chdir(tmp_path)
    assert run_command(argv) == 1
    err = capsys.readouterr().err
    assert "order 4" in err and "6 nonzero coefficients" in err
    assert not list(tmp_path.iterdir())


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


def test_matrix_identities_whose_chain_value_underflows_exit_1(tmp_path, monkeypatch,
                                                               capsys):
    # q^1075 rounds to 0, so a_1076 and R(a_1076) are float underflow, not physics
    monkeypatch.chdir(tmp_path)
    code = run_command(["verify", "--suite", "matrix-identities", "--q", "0.5",
                        "--levels", "2000", "--report", "r.json"])
    assert code == 1
    err = capsys.readouterr().err
    assert "R(a_1076) = 0 underflows the floats at level 1076" in err
    assert "not bound" not in err
    assert not list(tmp_path.iterdir())


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


def test_single_level_coherent_exits_1_without_outputs(tmp_path, capsys):
    # one coefficient leaves no component window to check the properties on
    code = run_command(["coherent", "--levels", "1", "--out", str(tmp_path / "coh.csv")])
    assert code == 1
    assert "need at least 2 levels, got 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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



@pytest.mark.parametrize("flags, named", [
    (["--dt", "0"], "dt = 0.0"),
    (["--dt", "-0.002"], "dt = -0.002"),
    (["--t-max", "-1"], "t_max = -1.0"),
    (["--t-max", "inf"], "t_max = inf"),
    (["--dt", "nan"], "dt = nan"),
    (["--drive", "const:nan"], "f0 = nan"),
    (["--drive", "pulse:0.1,-inf,1"], "t0 = -inf"),
    (["--drive", "pulse:0.1,2,inf"], "sigma = inf"),
    (["--dt", "1e-300"], "dt = 1e-300"),
    (["--dt", "5e-324"], "inf steps"),     # t_max / dt overflows to inf
    # one step over the cap; the refusal comes before any array is allocated
    (["--t-max", "1", "--dt", repr(1.0 / (MAX_STEPS + 1))], f"{MAX_STEPS + 1} steps"),
    (["--drive", "pulse:1,2"], "'pulse:1,2' is not const:<f0> or pulse:<f0>,<t0>,<sigma>"),
    (["--drive", "pulse:1,2,3,4"], "'pulse:1,2,3,4' is not const:<f0> or pulse:"),
    (["--drive", "const:"], "'const:' is not const:<f0> or pulse:"),
    (["--drive", "const:0.1,2"], "'const:0.1,2' is not const:<f0> or pulse:"),
])
def test_evolve_step_or_drive_it_cannot_run_exits_1(tmp_path, capsys, flags, named):
    code = run_command(["evolve", "--q", "1.0", "--levels", "3", *flags,
                        "--out", str(tmp_path / "evo.csv")])
    assert code == 1
    assert named in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, config, flag", [
    (["spectrum", "--family", "harmonic", "--grid-min", "-10", "--grid-max", "inf",
      "--grid-points", "100"], None, "--grid-max"),
    (["spectrum", "--c", "inf", "--levels", "2"], None, "--c"),
    (["coherent", "--z-re", "inf", "--levels", "5"], None, "--z-re"),
    (["coherent", "--z-re", "nan", "--levels", "5"], None, "--z-re"),
    (["coeffs", "--q", "0.5", "--c0", "nan"], None, "--c0"),
    (["coeffs", "--q", "0.5", "--c0", "inf"], None, "--c0"),
    (["coeffs", "--q", "0.5"], '{"c0": -Infinity}', "--c0"),
    (["coherent", "--levels", "5"], '{"z_im": NaN}', "--z-im"),
])
def test_non_finite_float_exits_1_without_files(tmp_path, monkeypatch, capsys,
                                                argv, config, flag):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    assert run_command([*argv, "--out", str(run_dir / "o.csv")]) == 1
    assert f"{flag} must be finite" in capsys.readouterr().err
    assert not list(run_dir.iterdir())


@pytest.mark.parametrize("argv, named", [
    (["coeffs", "--q", "0.5", "--c0", "1e200"], "c0 = 1e+200"),
    (["spectrum", "--c", "1e300", "--levels", "2"], "c0 = 6.666666666666667e+299"),
    (["coherent", "--z-re", "1e100", "--levels", "5"], "z = (1e+100+0j) at 5 levels"),
    (["coherent", "--family", "harmonic", "--levels", "200"], "N_151 = inf"),
    # f(t) divides by 2 sigma^2: inf raised OverflowError, 0 ran to a NaN norm drift
    (["evolve", "--q", "0.5", "--levels", "6", "--drive", "pulse:0.1,1,1e200"],
     "got sigma = 1e+200"),
    (["evolve", "--q", "0.5", "--levels", "6", "--drive", "pulse:0.1,1,1e-200"],
     "got sigma = 1e-200"),
    # every h_n is a float, but ||h|| was written to the manifest as Infinity
    (["coherent", "--q", "0.9", "--levels", "11", "--z-re", "1e16"],
     "norm of the coherent coefficients overflows for z = (1e+16+0j) at 11 levels"),
])
def test_finite_overflow_exits_1_naming_the_value(tmp_path, monkeypatch, capsys,
                                                   argv, named):
    # the refusal is the one stderr line: numpy's overflow warnings used to precede it
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_command([*argv, "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and named in err[0]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, named", [
    # a NaN residual would pass every gate through max(worst, nan)
    (["verify", "--suite", "lattice-algebra", "--family", "harmonic", "--a1", "1e300"],
     "ladder-commutator: residual nan"),
    (["verify", "--suite", "shape-invariance", "--family", "harmonic", "--a1", "1e160"],
     "shape-invariance: residual nan"),
    # N_n = sqrt(E_n (E_n - E_{n-1}) ... (E_n - E_1)) over- or underflows
    (["coherent", "--family", "harmonic", "--a1", "1e300", "--levels", "4"], "N_2 = inf"),
    (["coherent", "--family", "harmonic", "--a1", "1e-300", "--levels", "4"], "N_2 = 0.0"),
    (["eigenstates", "--family", "harmonic", "--a1", "1e160", "--levels", "2"], "N_2 = inf"),
    # W^2 overflows the oracle's bands; Morse's R(a) squares a1
    (["spectrum", "--family", "harmonic", "--a1", "1e300", "--levels", "2"], "'a1': 1e+300"),
    (["spectrum", "--family", "morse", "--a1", "1e200", "--levels", "2"], "a1 = 1e+200"),
    # 1/E of subnormal levels is inf, so Q Q_dag carries inf on its diagonal
    (["verify", "--suite", "matrix-identities", "--family", "harmonic", "--a1", "1e-310",
      "--levels", "5"], "qqdag-identity: residual inf"),
    # the coefficients are floats, but the norm of |z> overflows: coherent_recursive
    # refuses it before the residuals
    (["coherent", "--q", "0.5", "--levels", "10", "--z-re", "1e30"],
     "norm of the coherent coefficients overflows for z = (1e+30+0j) at 10 levels"),
])
def test_arithmetic_outside_the_floats_exits_1_without_files(tmp_path, monkeypatch, capsys,
                                                             argv, named):
    monkeypatch.chdir(tmp_path)
    target = ["--report", "r.json"] if argv[0] == "verify" else ["--out", "o.csv"]
    # the refusal is the one stderr line: no numpy warning precedes it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_command([*argv, *target]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and named in err[0]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, named", [
    # a drive the truncation cannot hold, and closed-form coherent coefficients
    # that disagree with the recursion: each escaped run_command as a traceback
    (["evolve", "--q", "0.5", "--levels", "3", "--drive", "const:2"],
     "more levels or a weaker drive needed: top-level population"),
    (["coherent", "--q", "0.7", "--levels", "30"], "by 1.08e-12 relative at level 25"),
    (["coherent", "--q", "0.3", "--levels", "20"], "by 1.04e-07 relative at level 19"),
    # float partial sums that drift from the closed levels, a W continuation
    # that diverges, and an oracle asked for as many levels as grid points
    (["verify", "--suite", "matrix-identities", "--family", "harmonic", "--a1", "0.7",
      "--levels", "100000"], "by 2.61e-07 at level 100000, above 1.4e-07"),
    (["coeffs", "--q", "0.5", "--c0", "-1", "--grid-min", "-40", "--grid-max", "40",
      "--grid-points", "801"], "continuation diverged near x = 1.700"),
    (["spectrum", "--family", "harmonic", "--levels", "15", "--grid-min", "-1",
      "--grid-max", "1", "--grid-points", "16"], "16 levels asked of a 16-point grid"),
    # a large c a1 leaves a W table shorter than the 6-point stencil (an IndexError
    # escaped as a traceback), and a step too coarse for the contracted argument
    (["coeffs", "--q", "0.5", "--c0", "1e6", "--grid-min", "-1", "--grid-max", "1",
      "--grid-points", "101"], "a W table of 6 points; at step 0.005 it holds 1"),
    (["coeffs", "--q", "0.3", "--c0", "1e4", "--order", "60", "--grid-min", "-0.5",
      "--grid-max", "1e3", "--grid-points", "101"], "at step 0.005 it holds 5"),
    (["spectrum", "--q", "0.3", "--c", "50", "--a1", "1e5", "--order", "8", "--levels", "1",
      "--grid-min", "-3", "--grid-max", "3", "--grid-points", "17"], "it holds 1"),
    (["verify", "--suite", "lattice-algebra", "--q", "0.5", "--c", "1e4", "--a1", "1e5",
      "--order", "5"], "it holds 1"),
    (["coeffs", "--q", "0.5", "--c0", "1e4", "--grid-min", "-1", "--grid-max", "1",
      "--grid-points", "101"], "step too large for the contracted argument near the series edge"),
    # inputs refused before any arithmetic: a missing flag or config file, too few
    # levels to evolve, a negative scale and a negative level count
    (["coeffs", "--c0", "1"], "--q is required for coeffs"),
    (["spectrum", "--config", "missing.json"], "cannot read config missing.json"),
    (["evolve", "--levels", "1", "--t-max", "0.1"], "need dimension >= 3"),
    (["spectrum", "--a1", "-1", "--levels", "2"], "scaling family needs a1 > 0"),
    (["spectrum", "--levels", "-1"], "need n_max >= 0, got -1"),
])
def test_numerical_refusal_exits_1_without_files(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    target = "--report" if argv[0] == "verify" else "--out"
    assert run_command([*argv, target, str(tmp_path / "o.csv")]) == 1
    assert named in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_a_run_without_out_writes_only_its_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_command(["coherent", "--levels", "5"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["coherent.manifest.json"]
    assert read_strict_json(tmp_path / "coherent.manifest.json")["outputs"] == []


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


def test_evolve_manifest_records_the_best_fit(tmp_path):
    out = tmp_path / "evo.csv"
    assert run_command(["evolve", "--q", "0.8", "--levels", "6", "--t-max", "0.1",
                        "--out", str(out)]) == 0
    res = read_manifest(tmp_path / "evo.csv.manifest.json")["results"]
    assert res["best_fit_error"] is None
    assert len(res["best_fit_z"]) == 2 and 0 < res["best_fit_coherent_overlap"] <= 1


def test_morse_evolve_uses_only_bound_levels(tmp_path):
    # A = 6.5 binds levels 0..6; a dimension-7 run needs no level above them
    out = tmp_path / "evo.csv"
    assert run_command(["evolve", "--family", "morse", "--a1", "6.5", "--levels", "6",
                        "--t-max", "0.1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 52


def test_rerun_is_bitwise_identical(tmp_path):
    args = ["coeffs", "--q", "0.5", "--c0", "1", "--order", "30"]
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert run_command(args + ["--out", str(out1)]) == 0
    assert run_command(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_relation_outside_the_family_scope_exits_1_unquoted(tmp_path, capsys):
    code = run_command(["verify", "--suite", "q-oscillator", "--family", "harmonic",
                        "--report", str(tmp_path / "rep.json")])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: q-oscillator is defined for scaling families only\n"
    assert not list(tmp_path.iterdir())


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


def test_config_key_of_another_command_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for text in ('{"drive": "const:0.1"}', '{"out": "elsewhere.csv"}'):
        cfg.write_text(text)
        assert run_command(["spectrum", "--config", str(cfg), "--levels", "2",
                            "--out", str(tmp_path / "spec.csv")]) == 1
        assert "unknown config key" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


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


def test_order_flag_for_a_translation_family_exits_1(tmp_path, capsys):
    code = run_command(["spectrum", "--family", "harmonic", "--order", "30",
                        "--out", str(tmp_path / "spec.csv")])
    assert code == 1
    assert "order" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    # coherent, evolve and the matrix identities never build W, and ran with the order
    ["coherent", "--order", "-5", "--levels", "3", "--out", "o.csv"],
    ["coherent", "--order", "0", "--levels", "3", "--out", "o.csv"],
    ["evolve", "--order", "-5", "--levels", "4", "--t-max", "0.1", "--out", "o.csv"],
    ["verify", "--suite", "matrix-identities", "--order", "-5", "--levels", "4",
     "--report", "r.json"],
    # spectrum was refused by the series recursion, as "need K >= 1, got 0"
    ["spectrum", "--order", "0", "--levels", "2", "--out", "o.csv"],
])
def test_series_order_below_1_exits_1_without_files(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run_command(argv) == 1
    order = argv[argv.index("--order") + 1]
    assert capsys.readouterr().err == \
        f"error: scaling family needs series order >= 1, got {order}\n"
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("command, text, flag", [
    ("spectrum", '{"levels": [1]}', "--levels"),
    ("spectrum", '{"levels": 3.7}', "--levels"),
    ("evolve", '{"phase_sign": "sideways"}', "--phase-sign"),
])
def test_config_value_its_flag_would_refuse_exits_1(tmp_path, capsys, command, text, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run_command([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
    assert flag in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


# the sweep contract: over seeded random inputs nothing escapes run_command,
# exit 0 or 2 writes a strict-JSON manifest and exit 1 writes no file at all

def _sweep(tmp_path, jobs):
    """Run each (argv, output flag, file name) job in its own directory; the exit codes."""
    codes = []
    for i, (argv, flag, name) in enumerate(jobs):
        out = tmp_path / f"job{i}" / name
        out.parent.mkdir()
        code = run_command([*argv, flag, str(out)])
        assert code in (0, 1, 2), argv
        if code == 1:
            assert not list(out.parent.iterdir()), argv
        else:
            read_strict_json(out.with_name(name + ".manifest.json"))
        codes.append(code)
    return codes


def test_coeffs_sweep_contract(tmp_path):
    rng = random.Random(1611)
    jobs, short = [], []
    for i in range(30):
        q, c0, order = rng.uniform(0, 1), rng.uniform(0.3, 3), rng.randint(1, 80)
        grid = ["--grid-min", "-10", "--grid-max", "10", "--grid-points", "201"] if i % 2 else []
        jobs.append((["coeffs", "--q", repr(q), "--c0", repr(c0), "--order", str(order),
                      *grid], "--out", "c.csv"))
        short.append(bool(grid) and order < 5)
    # exit 1 only where a gridded W table needs a break point the series cannot place
    assert [code == 1 for code in _sweep(tmp_path, jobs)] == short


def test_verify_sweep_contract(tmp_path):
    rng = random.Random(1612)
    bands = [(0.05, 0.3), (0.3, 0.95), (0.95, 1.0)]
    jobs = []
    for i in range(20):
        q = rng.uniform(*bands[i % 3])
        c, a1 = rng.uniform(0.3, 3), rng.uniform(0.3, 3)
        jobs.append((["verify", "--suite", VERIFY_SUITES[i % 5], "--q", repr(q), "--c", repr(c),
                      "--a1", repr(a1)], "--report", "rep.json"))
    _sweep(tmp_path, jobs)


def test_evolve_sweep_contract(tmp_path):
    rng = random.Random(1613)
    bands = [(0.05, 0.3), (0.3, 0.95), (0.95, 1.0)]
    jobs = []
    for i in range(16):
        q = rng.uniform(*bands[i % 3])
        c, a1, f0 = rng.uniform(0.3, 3), rng.uniform(0.3, 3), rng.uniform(-2, 2)
        drive = f"const:{f0!r}" if i % 2 else f"pulse:{f0!r},{rng.uniform(0, 1)!r},0.3"
        jobs.append((["evolve", "--q", repr(q), "--c", repr(c), "--a1", repr(a1),
                      "--levels", str(rng.randint(3, 30)), "--drive", drive, "--t-max", "0.5",
                      "--dt", rng.choice(["0.001", "0.004"])], "--out", "e.csv"))
    # exit 1 here: a drive the truncation cannot hold, or a dt above the stability budget
    codes = _sweep(tmp_path, jobs)
    for i, code in enumerate(codes):
        if code == 0 and float(jobs[i][0][2]) < 1:
            res = read_strict_json(tmp_path / f"job{i}" / "e.csv.manifest.json")["results"]
            assert res["best_fit_error"] is None, jobs[i][0]
            assert all(map(np.isfinite, res["best_fit_z"])), jobs[i][0]
            assert 0 < res["best_fit_coherent_overlap"] <= 1, jobs[i][0]
    assert codes.count(0) >= 8


def test_coherent_sweep_contract(tmp_path):
    rng = random.Random(1614)
    bands = [(0.05, 0.3), (0.3, 0.95), (0.95, 1.0)]
    jobs = []
    for i in range(24):
        q = rng.uniform(*bands[i % 3])
        c, a1 = rng.uniform(0.3, 3), rng.uniform(0.3, 3)
        jobs.append((["coherent", "--q", repr(q), "--c", repr(c), "--a1", repr(a1),
                      "--levels", str(rng.randint(2, 40)), "--z-re", repr(rng.uniform(-2, 2)),
                      "--z-im", repr(rng.uniform(-2, 2))], "--out", "h.csv"))
    _sweep(tmp_path, jobs)


SMALL_GRID = ["--grid-min", "-10", "--grid-max", "10", "--grid-points", "16"]


def test_spectrum_sweep_contract(tmp_path):
    rng = random.Random(1615)
    bands = [(0.05, 0.3), (0.3, 0.95), (0.95, 1.0)]
    jobs = []
    for i in range(16):
        q = rng.uniform(*bands[i % 3])
        c, a1 = rng.uniform(0.3, 3), rng.uniform(0.3, 3)
        jobs.append((["spectrum", "--q", repr(q), "--c", repr(c), "--a1", repr(a1),
                      "--levels", str(rng.randint(1, 8))], "--out", "s.csv"))
    # 21 oracle levels cannot come from 16 grid points
    jobs.append((["spectrum", "--q", "0.6", "--levels", "20", *SMALL_GRID], "--out", "s.csv"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        codes = _sweep(tmp_path, jobs)
    # exit 1 only for the grid the user can enlarge; exit 2 is the small-q oracle
    # on the fixed box (ROADMAP item 3)
    assert [code == 1 for code in codes] == [False] * 16 + [True]


def test_eigenstates_sweep_contract(tmp_path):
    rng = random.Random(1616)
    bands = [(0.05, 0.3), (0.3, 0.95), (0.95, 1.0)]
    jobs = []
    for i in range(12):
        q = rng.uniform(*bands[i % 3])
        c, a1 = rng.uniform(0.3, 3), rng.uniform(0.3, 3)
        jobs.append((["eigenstates", "--q", repr(q), "--c", repr(c), "--a1", repr(a1),
                      "--levels", str(rng.randint(0, 4))], "--out", "e.csv"))
    # 16 points on [-10, 10] do not resolve level 4: the prenorm gate fails
    jobs.append((["eigenstates", "--q", "0.6", "--levels", "4", *SMALL_GRID], "--out", "e.csv"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        codes = _sweep(tmp_path, jobs)
    assert codes[-1] == 2 and codes.count(0) >= 8


def test_cli_import_leaves_out_scipy_interpolate():
    env = dict(os.environ, PYTHONPATH=str(Path(siqm.__file__).parents[1]))
    probe = "import sys, siqm.cli; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


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
