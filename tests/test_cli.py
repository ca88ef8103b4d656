"""Command-line interface: exit codes, CSV/JSON contracts, determinism."""
from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from pcspectra import cli
from pcspectra.chain import CentralBlock, build, pc_delta, random_spec, spec_to_json
from pcspectra.eig import spectrum
from pcspectra.nonortho import overlap_matrix


def run_cli(capsys, argv):
    """Invoke the CLI in-process; returns (exit_code, parsed summary or None)."""
    code = cli.main(argv)
    out = capsys.readouterr().out.strip()
    summary = json.loads(out.splitlines()[-1]) if code == 0 else None
    return code, summary


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_spectrum_writes_clustered_csv(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code, summary = run_cli(capsys, [
        "spectrum", "--family", "legacy", "--L", "10",
        "--alpha", "0", "--gamma", "2", "--out", str(out),
    ])
    assert code == 0
    assert summary["distinct"] == 5
    assert summary["L"] == 10
    header, rows = read_csv(out)
    assert header == ["index", "re_lambda", "im_lambda", "cluster_id", "multiplicity"]
    assert len(rows) == 10
    assert [r[0] for r in rows] == [str(i) for i in range(10)]
    assert all(r[4] == "2" for r in rows)
    assert sorted({r[3] for r in rows}) == ["0", "1", "2", "3", "4"]
    # RFC 4180: CRLF record separators
    assert b"\r\n" in out.read_bytes()


def test_spectrum_off_coalescence_all_singletons(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code, summary = run_cli(capsys, [
        "spectrum", "--family", "legacy", "--L", "10",
        "--alpha", "0", "--gamma", "1.5", "--out", str(out),
    ])
    assert code == 0
    assert summary["distinct"] == 10


def test_invalid_usage_exits_one(tmp_path, capsys):
    spec_file = tmp_path / "s.json"
    spec_file.write_text(spec_to_json(random_spec(3, seed=0)))
    bad_argvs = [
        ["spectrum", "--family", "legacy", "--L", "10", "--alpha", "0"],  # missing gamma
        ["spectrum", "--family", "legacy", "--L", "10", "--alpha", "0",
         "--gamma", "2", "--J1", "1"],  # stray parameter
        ["frobnicate"],  # unknown subcommand
        ["sweep", "--family", "legacy", "--L", "6", "--alpha", "0",
         "--grid", "1:2"],  # malformed grid
        ["sweep", "--family", "legacy", "--L", "6", "--alpha", "0",
         "--sweep-param", "J1", "--grid", "1:2:3"],  # legacy has no J1
        ["spectrum", "--family", "legacy", "--L", "10", "--alpha", "0",
         "--gamma", "2", "--spec", str(spec_file)],  # two input sources
        ["spectrum"],  # no input source at all
        ["nonortho", "--family", "b", "--L", "10", "--J1", "1.5", "--J2", "1",
         "--alpha", "0"],  # neither --gamma nor --gamma-grid
        ["nonortho", "--family", "b", "--L", "10", "--J1", "1.5", "--J2", "1",
         "--alpha", "0", "--gamma", "3", "--gamma-grid", "1:2:3"],  # both
        ["preset-run", "--name", "fig99"],  # unknown preset
        ["sweep", "--family", "legacy", "--L", "6", "--alpha", "0", "--gamma", "1",
         "--sweep-param", "L", "--grid", "1:2:3"],  # L is not sweepable
        # non-finite family parameters and grid endpoints
        ["dynamics", "--family", "b", "--L", "12", "--J1", "1", "--J2", "1.5",
         "--alpha", "0", "--gamma", "nan"],
        ["spectrum", "--family", "legacy", "--L", "10", "--alpha", "0", "--gamma", "inf"],
        ["verify", "--family", "legacy", "--L", "10", "--alpha", "0", "--gamma", "nan"],
        ["sweep", "--family", "legacy", "--L", "10", "--alpha", "nan", "--grid", "1:3:3"],
        ["nonortho", "--family", "b", "--L", "10", "--J1", "1.5", "--J2", "1",
         "--alpha", "0", "--gamma-grid", "1:nan:3"],
        # non-positive integrator step on a single-gamma trace
        ["dynamics", "--family", "b", "--L", "12", "--J1", "1", "--J2", "1.5",
         "--alpha", "0", "--gamma", "3", "--dt", "-0.01"],
        ["dynamics", "--family", "b", "--L", "12", "--J1", "1", "--J2", "1.5",
         "--alpha", "0", "--gamma", "3", "--dt", "0"],
        # non-finite integrator step and evolution time, single gamma and grid
        *(["dynamics", "--family", "b", "--L", "12", "--J1", "1", "--J2", "1.5",
           "--alpha", "0", *target, flag, bad]
          for target in (["--gamma", "3"], ["--gamma-grid", "2:4:3"])
          for flag in ("--dt", "--t-final") for bad in ("inf", "nan")),
        # non-finite tolerances
        ["spectrum", "--family", "legacy", "--L", "10", "--alpha", "0", "--gamma", "2",
         "--tol-distinct", "nan"],
        ["verify", "--family", "legacy", "--L", "10", "--alpha", "0", "--gamma", "2",
         "--tol-certify", "nan"],
        # non-finite wavepacket parameters
        ["dynamics", "--family", "b", "--L", "12", "--J1", "1", "--J2", "1.5",
         "--alpha", "0", "--gamma", "3", "--j0", "nan", "--t-final", "1"],
        ["dynamics", "--family", "b", "--L", "12", "--J1", "1", "--J2", "1.5",
         "--alpha", "0", "--gamma-grid", "2:4:3", "--sigma", "nan"],
        ["dynamics", "--family", "b", "--L", "12", "--J1", "1", "--J2", "1.5",
         "--alpha", "0", "--gamma", "3", "--p", "nan", "--t-final", "1"],
        # a fixed value for a swept parameter
        ["sweep", "--family", "d", "--L", "12", "--gamma1", "5", "--gamma2", "7",
         "--grid", "0.5:1.5:3"],
        ["sweep", "--family", "b", "--L", "10", "--J1", "9", "--J2", "1", "--alpha", "0",
         "--gamma", "2", "--sweep-param", "J1", "--grid", "0.5:2.5:3"],
    ]
    # worker counts are validated though no run uses them
    good = ["spectrum", "--family", "legacy", "--L", "6", "--alpha", "0", "--gamma", "2",
            "--out", str(tmp_path / "w.csv")]
    bad_argvs += [good + ["--workers", w] for w in ("0", "-1", "x", "1.5")]
    for argv in bad_argvs:
        assert cli.main(argv) == 1, argv
        capsys.readouterr()
    assert not (tmp_path / "w.csv").exists()


# one valid run per chain subcommand, before --out
VALID = {
    "spectrum": ["spectrum", "--family", "legacy", "--L", "6", "--alpha", "0", "--gamma", "2"],
    "verify": ["verify", "--family", "legacy", "--L", "6", "--alpha", "0", "--gamma", "2"],
    "nonortho": ["nonortho", "--family", "b", "--L", "10", "--J1", "1.5", "--J2", "1",
                 "--alpha", "0", "--gamma", "3"],
    "dynamics": ["dynamics", "--family", "legacy", "--L", "6", "--alpha", "0", "--gamma", "1",
                 "--t-final", "1"],
    "sweep": ["sweep", "--family", "legacy", "--L", "6", "--alpha", "0", "--grid", "1.5:2.5:3"],
}


@pytest.mark.parametrize("subcommand, flag", [
    *((sub, "--seed") for sub in ("spectrum", "verify", "nonortho", "dynamics", "sweep")),
    *((sub, "--tol-certify") for sub in ("spectrum", "nonortho", "dynamics")),
    ("dynamics", "--tol-distinct"),
])
def test_flag_the_subcommand_does_not_read_exits_one(tmp_path, capsys, subcommand, flag):
    out = tmp_path / "out"
    argv = VALID[subcommand] + ["--out", str(out)]
    assert cli.main(argv + [flag, "1"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(argv) == 0  # the same run without the flag is valid


@pytest.fixture
def spec_file(tmp_path):
    delta = pc_delta(-1.2, 1.0)
    spec = random_spec(5, seed=3, central=CentralBlock(-1.2, 1.0, delta, delta))
    path = tmp_path / "chain.json"
    path.write_text(spec_to_json(spec))
    return spec, path


@pytest.mark.parametrize("subcommand, flag", [
    *((sub, param) for sub in ("spectrum", "verify", "nonortho") for param in cli._PARAMS),
    ("nonortho", "gamma-grid"),
])
def test_spec_with_a_chain_flag_exits_one(tmp_path, capsys, spec_file, subcommand, flag):
    out = tmp_path / "out"
    value = "1:2:3" if flag == "gamma-grid" else "4"
    argv = [subcommand, "--spec", str(spec_file[1]), "--out", str(out)]
    assert cli.main(argv + ["--" + flag, value]) == 1
    assert "whole chain" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand, extra", [
    ("nonortho", dict(gamma=3.0)),
    ("nonortho", dict(grid=(1.0, 2.0, 3))),
    ("dynamics", dict(gamma=3.0)),
    ("dynamics", dict(grid=(1.0, 2.0, 3))),
    ("sweep", dict(grid=(1.0, 2.0, 3))),
    ("spectrum", dict(params={"L": 10})),
])
def test_spec_rule_holds_for_configs_built_in_python(spec_file, subcommand, extra):
    with pytest.raises(cli._CliError, match="whole chain"):
        cli.RunConfig(subcommand, spec_path=str(spec_file[1]), **extra)


def test_nonortho_spec_draws_the_file_chain_heatmap(tmp_path, capsys, spec_file):
    spec, path = spec_file
    out = tmp_path / "u.csv"
    code, summary = run_cli(capsys, ["nonortho", "--spec", str(path), "--out", str(out)])
    assert code == 0
    assert summary["gamma"] is None and summary["L"] == spec.L
    header, rows = read_csv(out)
    assert header == ["mu", "nu", "abs_U"]
    u = overlap_matrix(spectrum(build(spec))).entries
    assert [(int(mu), int(nu)) for mu, nu, _ in rows] == list(np.ndindex(u.shape))
    assert [float(r[2]) for r in rows] == [abs(z) for z in u.ravel()]


def test_numerical_failure_exits_two(tmp_path, capsys):
    # a grossly unstable step on a Hermitian chain trips the growth guard
    code = cli.main([
        "dynamics", "--family", "legacy", "--L", "6", "--alpha", "0",
        "--gamma", "0", "--state", "uniform-site", "--t-final", "10",
        "--dt", "2.0", "--out", str(tmp_path / "t.csv"),
    ])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", [["--gamma", "-0.2"], ["--gamma-grid=-0.4:-0.2:3"]])
def test_overflowing_dynamics_exits_two(tmp_path, capsys, gamma):
    # a gain chain at an unstable dt: the norms overflow instead of being written as nan
    out = tmp_path / "d.csv"
    code = cli.main([
        "dynamics", "--family", "legacy", "--L", "6", "--alpha", "0", *gamma,
        "--dt", "2", "--t-final", "4000", "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("numerical failure:") and "not finite" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_lapack_failure_exits_two(tmp_path, capsys, monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    code = cli.main([
        "spectrum", "--family", "legacy", "--L", "10", "--alpha", "0",
        "--gamma", "2", "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_verify_emits_certificate(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, summary = run_cli(capsys, [
        "verify", "--family", "legacy", "--L", "10", "--alpha", "0",
        "--gamma", "2", "--order", "2", "--out", str(cert),
    ])
    assert code == 0
    assert summary["mode"] == "symbolic"
    assert summary["certified"] is True
    assert summary["residual"] <= 1e-8
    assert summary["power_order"] == 2
    assert summary["power_certified"] is True
    on_disk = json.loads(cert.read_text())
    assert on_disk["certified"] is True
    assert on_disk["mode"] == "symbolic"


def test_verify_reads_spec_file(capsys, spec_file):
    code, summary = run_cli(capsys, ["verify", "--spec", str(spec_file[1])])
    assert code == 0
    assert summary["certified"] is True
    assert summary["mode"] == "symbolic"


def test_verify_numeric_uncertified_residual_is_null(capsys):
    code, summary = run_cli(capsys, [
        "verify", "--family", "d", "--L", "12",
        "--gamma1", "2", "--gamma2", "1", "--gamma3", "0.9",
    ])
    assert code == 0
    assert summary["mode"] == "numeric"
    assert summary["certified"] is False
    assert summary["residual"] is None  # NaN serialized as null


def test_nonortho_heatmap_csv(tmp_path, capsys):
    out = tmp_path / "u.csv"
    code, summary = run_cli(capsys, [
        "nonortho", "--family", "b", "--L", "10", "--J1", "1.5", "--J2", "1",
        "--alpha", "0", "--gamma", "3", "--out", str(out),
    ])
    assert code == 0
    assert summary["max_offdiag"] > 0.999
    header, rows = read_csv(out)
    assert header == ["mu", "nu", "abs_U"]
    assert len(rows) == 100
    diag = [r for r in rows if r[0] == r[1]]
    assert all(float(r[2]) == pytest.approx(1.0) for r in diag)


def test_nonortho_sweep_locates_coalescence(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, summary = run_cli(capsys, [
        "nonortho", "--family", "b", "--L", "10", "--J1", "1.5", "--J2", "1",
        "--alpha", "0", "--gamma-grid", "2:4:9", "--out", str(out),
    ])
    assert code == 0
    assert summary["argmax_f2"] == 3.0
    header, rows = read_csv(out)
    assert header == ["gamma", "f1", "f2", "distinct_count"]
    assert len(rows) == 9
    at_pc = next(r for r in rows if float(r[0]) == 3.0)
    assert at_pc[3] == "5"


def test_dynamics_single_gamma_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, summary = run_cli(capsys, [
        "dynamics", "--family", "legacy", "--L", "6", "--alpha", "0",
        "--gamma", "1", "--state", "uniform-site", "--t-final", "1",
        "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["gamma", "t", "norm"]
    assert len(rows) == 102  # 101 samples plus the summary row
    assert float(rows[0][2]) == 1.0
    assert rows[-1][1] == ""  # summary row: (gamma_star, , N_min)
    assert float(rows[-1][2]) == float(rows[-2][2])
    assert summary["n_min"] == float(rows[-1][2])


def test_dynamics_grid_worker_count_invariance(tmp_path, capsys):
    base = [
        "dynamics", "--family", "b", "--L", "10", "--J1", "1.5", "--J2", "1",
        "--alpha", "0", "--state", "wavepacket", "--gamma-grid", "2:4:5",
        "--t-final", "5",
    ]
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert cli.main(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert cli.main(base + ["--workers", "2", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_dynamics_grid_detunes_defective_point(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code, summary = run_cli(capsys, [
        "dynamics", "--family", "b", "--L", "10", "--J1", "1.5", "--J2", "1",
        "--alpha", "0", "--state", "uniform-eigen", "--gamma-grid", "2.5:3.5:3",
        "--t-final", "2", "--out", str(out),
    ])
    assert code == 0
    assert summary["detuned_points"] == [[3.0, 3.000001]]


def test_identical_configs_are_byte_identical(tmp_path, capsys):
    argv = [
        "sweep", "--family", "legacy", "--L", "10", "--alpha", "0",
        "--grid", "1.5:2.5:3",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_certification_column(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, summary = run_cli(capsys, [
        "sweep", "--family", "legacy", "--L", "10", "--alpha", "0",
        "--grid", "1.5:2.5:3", "--out", str(out),
    ])
    assert code == 0
    assert summary["certified_points"] == 1
    header, rows = read_csv(out)
    assert header == ["gamma", "distinct_count", "certified", "residual"]
    by_gamma = {float(r[0]): r for r in rows}
    assert by_gamma[2.0][1] == "5" and by_gamma[2.0][2] == "true"
    assert by_gamma[1.5][1] == "10" and by_gamma[1.5][2] == "false"
    assert by_gamma[2.5][2] == "false"


def test_sweep_single_point_grid_allowed(tmp_path, capsys):
    out = tmp_path / "one.csv"
    code, summary = run_cli(capsys, [
        "sweep", "--family", "legacy", "--L", "10", "--alpha", "0",
        "--grid", "2:2:1", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 1


def test_sweep_other_family_parameter(tmp_path, capsys):
    out = tmp_path / "j1.csv"
    code, summary = run_cli(capsys, [
        "sweep", "--family", "b", "--L", "12", "--J2", "1", "--alpha", "0",
        "--gamma", "2", "--sweep-param", "J1", "--grid", "0.5:1.5:3",
        "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header[0] == "J1"
    assert all(r[1] == "6" for r in rows)  # L/2 everywhere on this slice


def test_preset_run_writes_dataset(tmp_path, capsys):
    code, summary = run_cli(capsys, [
        "preset-run", "--name", "fig1", "--out", str(tmp_path),
    ])
    assert code == 0
    assert summary["name"] == "fig1"
    written = sorted(p.name for p in tmp_path.iterdir())
    assert len(written) == 4
    assert all(name.startswith("fig1_spectrum_") for name in written)
    assert summary["distinct"] == {
        "gamma_1.5": 10, "gamma_2": 5, "gamma_2.5": 10, "alpha_-1_gamma_1": 5,
    }


@pytest.mark.parametrize("name, headers, keys", [
    ("fig2", {"fig2_certificates.csv":
              ["seed", "gamma", "mode", "residual", "certified", "distinct"]},
     {"certified"}),
    ("fig4", {"fig4a.csv": ["L", "J1", "distinct_count"],
              "fig4b.csv": ["L", "J2", "distinct_count"]}, set()),
    ("fig5", {f"fig5_gamma_{g}.csv": ["mu", "nu", "abs_U"] for g in ("1", "3", "50")},
     set()),
    ("fig7", {"fig7_trajectories.csv": ["gamma", "index", "re_lambda", "im_lambda"]},
     set()),
], ids=["fig2", "fig4", "fig5", "fig7"])
def test_preset_files_headers_and_summary(tmp_path, capsys, name, headers, keys):
    code, summary = run_cli(capsys, ["preset-run", "--name", name, "--out", str(tmp_path)])
    assert code == 0
    assert set(summary) == {"command", "name", "files"} | keys
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(headers)
    assert summary["files"] == [str(tmp_path / f) for f in headers]
    for fname, header in headers.items():
        assert read_csv(tmp_path / fname)[0] == header
    if name == "fig2":
        assert summary["certified"] == {"1.0": 100, "1.3": 0}
