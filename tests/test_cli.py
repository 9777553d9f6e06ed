"""Command-line driver: scans, curve diffs, and FCIDUMP bridging."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import SlaterCondon, h4_chain_mol, sector_determinants
from vqse.cli import (
    CSV_COLUMNS,
    DEFAULT_GRID,
    CurveRow,
    ScanConfig,
    main,
    read_curve,
    run_scan,
)
from vqse.exceptions import VqseError
from vqse.integrals import read_fcidump, write_fcidump

FAST_SCAN = {
    "points_angstrom": [0.7414],
    "basis": "sto-3g",
    "full_fci": True,
}


def write_config(tmp_path, name="config.json", **overrides):
    data = dict(FAST_SCAN)
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# configuration


def test_default_grid_covers_the_scan_range():
    assert DEFAULT_GRID[0] == pytest.approx(0.3)
    assert DEFAULT_GRID[-1] == pytest.approx(2.5)
    assert len(DEFAULT_GRID) == 23


def test_config_validation():
    with pytest.raises(VqseError):
        ScanConfig(points_angstrom=[1.0, 0.5])
    with pytest.raises(VqseError):
        ScanConfig(points_angstrom=[])
    # the Givens sweep and Nelder-Mead modes are gone; one relaxation step
    # is oo "iterate" with one cycle
    for mode in ("downhill", "sweep", "joint"):
        with pytest.raises(VqseError, match='"iterate" with oo_cycles: 1'):
            ScanConfig(oo=mode)
    with pytest.raises(VqseError):
        ScanConfig(cumulant_rank=1)
    # rank 3 used to run the rank-2 reconstruction silently
    with pytest.raises(VqseError, match=r"2 .*4 .*omitted"):
        ScanConfig(cumulant_rank=3)
    for rank in (None, 2, 4):
        assert ScanConfig(cumulant_rank=rank).cumulant_rank == rank
    # eps 0 wrote e_vqse = -1.05e7 Ha and eps -1e-3 wrote nan, both as "ok";
    # eps true, read as 1, kept no direction and failed every row
    for eps in (0.0, -1e-3, math.nan, math.inf, True):
        with pytest.raises(VqseError, match="eps"):
            ScanConfig(eps=eps)
    # shots 0 gave exact RDMs under the noisy eps floor, shots true ran as
    # one shot; negative shots and oo_cycles 0 failed every row at run time
    for shots in (0, -1e4, math.nan, math.inf, True):
        with pytest.raises(VqseError, match="shots"):
            ScanConfig(shots=shots)
    for shots in (None, 1e4, 100):
        assert ScanConfig(shots=shots).shots == shots
    for cycles in (0, -1, 2.5):
        with pytest.raises(VqseError, match="oo_cycles"):
            ScanConfig(oo_cycles=cycles)
    assert ScanConfig(oo_cycles=1).oo_cycles == 1
    # n_electrons 0 wrote an "ok" row of bare nuclear repulsion with err_vqse 0;
    # an odd count, too many electrons or a non-integer active space failed
    # every row at run time
    for n_active in (0, -1, 2.5, True):
        with pytest.raises(VqseError, match="n_active_spatial"):
            ScanConfig(n_active_spatial=n_active)
    for n_electrons in (0, -2, 1, 3, 5, 6, 2.0, True):
        with pytest.raises(VqseError, match="n_electrons"):
            ScanConfig(n_electrons=n_electrons)
    assert ScanConfig(n_electrons=4).n_electrons == 4
    assert ScanConfig(n_active_spatial=1, n_electrons=2).n_active_spatial == 1
    with pytest.raises(VqseError, match="at most 2 \\* n_active_spatial = 2"):
        ScanConfig(n_active_spatial=1, n_electrons=4)
    # more active orbitals than H2 has in the basis wrote a failed
    # PartitionError row at every point
    for basis, n_orbitals in (("sto-3g", 2), ("6-31g", 4), ("cc-pvdz", 10)):
        assert ScanConfig(basis=basis, n_active_spatial=n_orbitals).n_active_spatial == n_orbitals
        with pytest.raises(VqseError, match=f"n_active_spatial must be at most {n_orbitals}"):
            ScanConfig(basis=basis, n_active_spatial=n_orbitals + 1)
    # "false" is truthy, so the scan ran VQSE (or the full FCI) anyway
    for key in ("vqse", "full_fci"):
        for value in ("false", 0, 1, None):
            with pytest.raises(VqseError, match=key):
                ScanConfig(**{key: value})
        assert getattr(ScanConfig(**{key: False}), key) is False
    # a fractional seed or an unknown basis wrote a failed row at every point
    for seed in (1.5, -1, True, "3"):
        with pytest.raises(VqseError, match="seed"):
            ScanConfig(seed=seed)
    for basis in ("cc-pvtz", "", None):
        with pytest.raises(VqseError, match="basis"):
            ScanConfig(basis=basis)
    assert ScanConfig(basis="CC-pVDZ").basis == "CC-pVDZ"


def test_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, extra_key=1)
    with pytest.raises(VqseError):
        ScanConfig.from_file(path)


def test_readme_configs_are_valid_scan_configs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        ScanConfig(**json.loads(block))


def test_config_round_trips_through_the_sidecar(tmp_path):
    config = ScanConfig(**FAST_SCAN)
    run_scan(config, tmp_path / "out")
    sidecar = json.loads((tmp_path / "out" / "report.json").read_text())
    resolved = tmp_path / "resolved.json"
    resolved.write_text(json.dumps(sidecar["config"]))
    again = ScanConfig.from_file(resolved)
    assert again == config


# ---------------------------------------------------------------------------
# scanning


def test_scan_methods_off_reports_only_references(tmp_path):
    config = ScanConfig(**{**FAST_SCAN, "vqse": False, "oo": "none"})
    failures = run_scan(config, tmp_path / "out")
    assert failures == 0
    names, rows = read_curve(tmp_path / "out" / "curve.csv")
    assert tuple(names) == CSV_COLUMNS
    (row,) = rows
    cells = dict(zip(names, row))
    assert cells["status"] == "ok"
    assert math.isfinite(float(cells["e_ref"]))
    assert math.isfinite(float(cells["e_fci_full"]))
    assert math.isnan(float(cells["e_vqse"]))
    assert math.isnan(float(cells["e_oo"]))


def test_scan_deterministic_replay(tmp_path):
    config_path = write_config(tmp_path, seed=11)
    assert main(["scan", "--config", str(config_path), "--output", str(tmp_path / "a")]) == 0
    assert main(["scan", "--config", str(config_path), "--output", str(tmp_path / "b")]) == 0
    csv_a = (tmp_path / "a" / "curve.csv").read_bytes()
    csv_b = (tmp_path / "b" / "curve.csv").read_bytes()
    assert csv_a == csv_b


def test_scan_is_serial_only(tmp_path, capsys):
    """The scan has no thread pool: the CLI has no ``--threads`` flag, and
    ``run_scan`` takes ``threads`` = 1 only."""
    args = ["scan", "--config", str(write_config(tmp_path)), "--output", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    with pytest.raises(VqseError):
        run_scan(ScanConfig(**FAST_SCAN), tmp_path / "direct", threads=2)
    assert not (tmp_path / "direct").exists()


def test_iterated_relaxation_reports_sweeps_and_evaluations(tmp_path):
    config = ScanConfig(
        points_angstrom=[0.7414], basis="6-31g", vqse=False, oo="iterate", oo_cycles=3
    )
    assert run_scan(config, tmp_path / "out") == 0
    (point,) = json.loads((tmp_path / "out" / "report.json").read_text())["points"]
    assert len(point["oo_cycle_energies"]) >= 1
    assert point["oo_sweeps"] >= len(point["oo_cycle_energies"])
    assert point["oo_evaluations"] > 0


def test_scan_fail_soft_keeps_grid_order(tmp_path):
    """At 1e-300 A the nuclei are at zero distance (the squared distance
    underflows), which ended in a ZeroDivisionError; at 1e-6 A the two 1s
    functions coincide and RHF refuses the singular AO overlap.  Each point
    is written as failed, in its place, and the next one still runs."""
    config = ScanConfig(**{**FAST_SCAN, "points_angstrom": [1e-300, 1e-6, 0.7414]})
    failures = run_scan(config, tmp_path / "out")
    assert failures == 2
    names, rows = read_curve(tmp_path / "out" / "curve.csv")
    status = [row[names.index("status")] for row in rows]
    assert status[0] == "failed: VqseError: nuclei 0 and 1 are at zero distance"
    assert status[1].startswith("failed: ValueError")
    assert status[2] == "ok"
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert ["error" in point for point in report["points"]] == [True, True, False]


def test_scan_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["scan", "--config", str(bad), "--output", str(tmp_path / "o")]) == 2
    missing = tmp_path / "missing.json"
    assert main(["scan", "--config", str(missing), "--output", str(tmp_path / "o")]) == 2
    # a value the config refuses, in the file or in the --seed override
    capsys.readouterr()
    for config, extra in (({"vqse": "false"}, []), ({}, ["--seed", "-1"])):
        path = write_config(tmp_path, **config)
        args = ["scan", "--config", str(path), "--output", str(tmp_path / "o")] + extra
        assert main(args) == 2
        assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "points",
    [["x"], "0.7", [0.0], [math.nan], [-0.7, 0.7]],
    ids=["string_entry", "string", "zero", "nan", "negative"],
)
def test_scan_cli_rejects_points_that_are_not_positive_lengths(tmp_path, capsys, points):
    """A string escaped as a ValueError traceback, 0.0 wrote a failed
    ZeroDivisionError row, NaN a failed row, and -0.7 ran as a bond length."""
    path = write_config(tmp_path, points_angstrom=points)
    out = tmp_path / "out"
    assert main(["scan", "--config", str(path), "--output", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "curve.csv").exists()


def test_scan_cli_output_naming_a_file_is_a_usage_error(tmp_path, capsys):
    """The FileExistsError of making the output directory escaped as a
    traceback with exit 1, which otherwise means failed points."""
    path = write_config(tmp_path)
    output = tmp_path / "taken"
    output.write_text("")
    assert main(["scan", "--config", str(path), "--output", str(output)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert output.read_text() == ""


def test_scan_seed_override(tmp_path):
    config_path = write_config(tmp_path, seed=0, shots=1e6)
    assert main([
        "scan", "--config", str(config_path), "--output", str(tmp_path / "a"),
        "--seed", "123",
    ]) == 0
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["config"]["seed"] == 123


# ---------------------------------------------------------------------------
# diff


def scan_once(tmp_path, name, **overrides):
    config = ScanConfig(**{**FAST_SCAN, **overrides})
    out = tmp_path / name
    run_scan(config, out)
    return out / "curve.csv"


def test_diff_file_with_itself_is_zero(tmp_path, capsys):
    curve = scan_once(tmp_path, "a")
    code = main(["diff", "--tol", "1e-12", str(curve), str(curve)])
    out = capsys.readouterr().out
    assert code == 0
    assert "max 0.000e+00" in out
    assert "TOLERANCE EXCEEDED" not in out


def test_diff_detects_perturbed_cell(tmp_path, capsys):
    curve = scan_once(tmp_path, "a")
    lines = curve.read_text().splitlines()
    names, rows = read_curve(curve)
    col = names.index("e_vqse")
    cells = rows[0]
    cells[col] = f"{float(cells[col]) + 1e-3:.12f}"
    perturbed = tmp_path / "perturbed.csv"
    perturbed.write_text(lines[0] + "\n" + ",".join(cells) + "\n")
    code = main(["diff", "--tol", "1e-6", str(curve), str(perturbed)])
    out = capsys.readouterr().out
    assert code == 1
    assert "TOLERANCE EXCEEDED" in out
    assert "e_vqse" in out and "0.7414" in out


def test_diff_flags_failed_point_against_ok_point(tmp_path, capsys):
    """A cell that is nan on one side only, and a differing status, are
    offences."""
    header = "# " + ",".join(CSV_COLUMNS)
    ok = "0.741400,-1.137270174658,-1.151688458349,nan,-1.151688458349,0.000000000000,nan,ok"
    failed = "0.741400,-1.137270174658,nan,nan,-1.151688458349,nan,nan,failed: VqseError: boom"
    paths = []
    for name, row in (("ok", ok), ("failed", failed)):
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_text(f"{header}\n{row}\n")
    code = main(["diff", "--tol", "1e-10", *map(str, paths)])
    out = capsys.readouterr().out
    assert code == 1
    assert "e_vqse  max inf" in out
    assert "'ok' vs 'failed: VqseError: boom'" in out
    assert "TOLERANCE EXCEEDED: column e_vqse at R=0.741400" in out
    # the same status on both sides with one nan cell is still an offence
    paths[1].write_text(f"{header}\n{failed.replace('failed: VqseError: boom', 'ok')}\n")
    assert main(["diff", "--tol", "1e-10", *map(str, paths)]) == 1
    capsys.readouterr()


def test_diff_of_header_only_curves_reports_no_differences(tmp_path, capsys):
    """Two curves without points agree: every column reads zero, exit 0."""
    path = tmp_path / "empty.csv"
    path.write_text("# " + ",".join(CSV_COLUMNS) + "\n")
    code = main(["diff", "--tol", "1e-12", str(path), str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "e_vqse  max 0.000e+00  mean 0.000e+00" in out
    assert "TOLERANCE EXCEEDED" not in out


def test_diff_rejects_mismatched_grids(tmp_path, capsys):
    a = scan_once(tmp_path, "a")
    b = scan_once(tmp_path, "b", points_angstrom=[0.8])
    assert main(["diff", "--tol", "1e-6", str(a), str(b)]) == 2
    assert "usage error" in capsys.readouterr().err
    # a missing file is a usage error too, not a traceback
    assert main(["diff", "--tol", "1e-6", str(a), str(tmp_path / "missing.csv")]) == 2
    assert "usage error" in capsys.readouterr().err
    # a non-numeric cell or a short row used to end in a traceback with
    # exit 1, the code for "tolerance exceeded"
    header = a.read_text().splitlines()[0]
    for name, row, message in (
        ("text.csv", "0.500000,abc,nan,nan,nan,nan,nan,ok", "line 2: e_ref 'abc'"),
        ("short.csv", "0.500000,abc,nan,nan", "line 2 has 4 cells, not 8"),
    ):
        bad = tmp_path / name
        bad.write_text(f"{header}\n{row}\n")
        assert main(["diff", "--tol", "1e-6", str(bad), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and name in err and message in err


def test_diff_rejects_tolerance_that_is_not_finite_and_non_negative(tmp_path, capsys):
    """--tol nan passed curves that differ (every comparison with nan is
    False) and --tol -1 failed a file against itself; both are usage
    errors now, like inf."""
    header = "# " + ",".join(CSV_COLUMNS)
    row = "0.741400,-1.137270174658,-1.151688458349,nan,-1.151688458349,0.000000000000,nan,ok"
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(f"{header}\n{row}\n")
    b.write_text(f"{header}\n{row.replace('-1.151688458349,nan', '-1.129688458349,nan')}\n")
    for tol, pair in (("nan", (a, b)), ("-1", (a, a)), ("inf", (a, b)), ("-inf", (a, a))):
        assert main(["diff", f"--tol={tol}", *map(str, pair)]) == 2, tol
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: "), tol
        assert "TOLERANCE EXCEEDED" not in captured.out
    assert main(["diff", "--tol", "0", str(a), str(a)]) == 0
    assert main(["diff", "--tol", "0", str(a), str(b)]) == 1
    capsys.readouterr()


def test_read_curve_requires_header(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("1.0,2.0\n")
    with pytest.raises(VqseError):
        read_curve(path)


def test_curve_row_formatting():
    row = CurveRow(r_angstrom=1.0, e_ref=-1.0, e_vqse=-1.1, e_oo=math.nan,
                   e_fci_full=-1.2)
    cells = row.csv_cells()
    assert cells[0] == "1.000000"
    assert cells[2] == "-1.100000000000"
    assert cells[3] == "nan"
    assert float(cells[5]) == pytest.approx(0.1, abs=1e-10)  # err_vqse


def test_curve_row_prints_no_signed_zero():
    """An error of rounding-noise size prints as 0.000000000000 whatever
    its sign, so the CSV bytes do not depend on the sign of the noise."""
    e = -1.163413933537313
    for noise in (-1e-16, 0.0, -0.0, 1e-16, -4.9e-13):
        row = CurveRow(r_angstrom=0.7, e_ref=-0.0, e_vqse=e + noise, e_oo=e - noise,
                       e_fci_full=e)
        cells = row.csv_cells()
        assert cells[1] == cells[5] == cells[6] == "0.000000000000", noise
    row = CurveRow(r_angstrom=0.7, e_vqse=e - 6e-13, e_oo=e + 6e-13, e_fci_full=e)
    assert row.csv_cells()[5:7] == ["-0.000000000001", "0.000000000001"]


# ---------------------------------------------------------------------------
# fcidump bridge


def test_fcidump_export_import_round_trip(tmp_path, capsys):
    path = tmp_path / "h2.fcidump"
    assert main([
        "fcidump", "export", str(path), "--basis", "sto-3g", "--r-angstrom", "0.7414",
    ]) == 0
    capsys.readouterr()
    mol, nelec, ms2 = read_fcidump(path)
    assert (mol.n_spatial, nelec, ms2) == (2, 2, 0)
    assert main(["fcidump", "import", str(path)]) == 0
    out = capsys.readouterr().out
    assert "E_fci=" in out
    e_fci = float(out.split("E_fci=")[1])
    assert e_fci == pytest.approx(-1.137, abs=2e-3)


def test_fcidump_import_h4_631g_matches_oracle(tmp_path, capsys):
    """Four electrons in 8 orbitals (784 Sz = 0 determinants) through the
    FCIDUMP reader and the production FCI, against the Slater-Condon
    oracle on the written integrals."""
    mol = h4_chain_mol("6-31g")
    path = tmp_path / "h4.fcidump"
    write_fcidump(mol, 4, 0, path)
    assert main(["fcidump", "import", str(path)]) == 0
    out = capsys.readouterr().out
    assert "norb=8 nelec=4 ms2=0" in out
    e_fci = float(out.split("E_fci=")[1])
    written, _, _ = read_fcidump(path)
    dets = sector_determinants(written.n_spin, 4, 0)
    e_oracle = np.linalg.eigvalsh(SlaterCondon(written).dense_matrix(dets))[0]
    assert e_fci == pytest.approx(e_oracle, abs=1e-8)


@pytest.mark.parametrize(
    "args, content",
    [
        (["import", "{file}"], None),
        (["import", "{file}"], " &FCI NORB=2,NELEC=2,MS2=0,\n &END\n0.5 1 x 1 1\n"),
        # a 71 PiB ERI array, beyond any address space
        (["import", "{file}"], " &FCI NORB=10000,NELEC=2,MS2=0,\n &END\n"),
        (["export", "{file}", "--basis", "cc-pvtz"], None),
        (["export", "{file}", "--n-electrons", "3"], None),
        (["export", "{file}", "--r-angstrom", "0"], None),
        (["export", "{file}", "--r-angstrom", "-0.7414"], None),
        # positive and finite, but its square underflows: the nuclei coincide
        (["export", "{file}", "--r-angstrom", "1e-300"], None),
    ],
    ids=[
        "missing_file",
        "malformed_file",
        "oversized_header",
        "unknown_basis",
        "odd_electrons",
        "zero_bond",
        "negative_bond",
        "coincident_nuclei",
    ],
)
def test_fcidump_usage_errors_exit_2(tmp_path, capsys, args, content):
    """Each of these ended in a traceback with exit 1, which elsewhere means
    a tolerance exceeded or failed points."""
    path = tmp_path / "h2.fcidump"
    if content is not None:
        path.write_text(content)
    assert main(["fcidump"] + [a.format(file=path) for a in args]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")
    if args[0] == "export":
        assert not path.exists()


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
