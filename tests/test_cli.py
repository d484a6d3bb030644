import contextlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import chiral_vacuum
from chiral_vacuum import Thermal, acceptance, bose_occupation, cli, config, pasteur
from chiral_vacuum.cli import main
from chiral_vacuum.config import parse_config
from chiral_vacuum.output import to_json


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def header_lines(text):
    return [line for line in text.splitlines() if line.startswith("#")]


def test_cavity_defaults_reproduce_headline_estimate(capsys):
    code, out, _ = run_cli(["cavity"], capsys)
    assert code == 0
    total_line = next(l for l in header_lines(out) if "london_total_T0_meV" in l)
    total = float(total_line.split("=")[1])
    assert total == pytest.approx(-0.06, rel=0.10)
    assert len(data_rows(out)) == 10


def test_selectivity_row_count(capsys):
    code, out, _ = run_cli(
        ["selectivity", "--sweep.delta_e_mev", "-100:5:100",
         "--thermal.temperatures", "200,300,400"], capsys)
    assert code == 0
    assert len(data_rows(out)) == 123  # 41 shifts x 3 temperatures


def test_output_deterministic(tmp_path):
    path = tmp_path / "out.csv"
    blobs = []
    for _ in range(2):
        code = main(["selectivity", "--sweep.delta_e_mev", "-20:10:20",
                     "--output.path", str(path)])
        assert code == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_every_column_declares_a_unit(capsys):
    for args in (["cavity"], ["selectivity", "--sweep.delta_e_mev", "0,5"],
                 ["debye"], ["tst", "--sweep.delta_e_mev", "0,5"]):
        _, out, _ = run_cli(args, capsys)
        cols = [l for l in header_lines(out) if l.startswith("# column")]
        assert cols
        assert all("[" in c and "]" in c for c in cols)


def test_header_echoes_full_config(capsys):
    _, out, _ = run_cli(["selectivity"], capsys)
    echo = [l for l in header_lines(out) if l.startswith("# config:")]
    keys = {l.split(":", 1)[1].split("=")[0].strip() for l in echo}
    assert {"sweep.delta_e_mev", "thermal.temperatures",
            "output.format", "output.path"} <= keys


def test_json_mirror(tmp_path):
    path = tmp_path / "out.json"
    code = main(["selectivity", "--sweep.delta_e_mev", "-10:10:10",
                 "--thermal.temperatures", "300",
                 "--output.format", "json", "--output.path", str(path)])
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["command"] == "selectivity"
    assert [c["name"] for c in payload["columns"]] == \
        ["delta_e_meV", "temperature_K", "p_chi"]
    assert len(payload["rows"]) == 3
    assert payload["config"]["thermal.temperatures"] == "300"


def test_unknown_key_exits_2(capsys):
    code, _, err = run_cli(["cavity", "--material.kappa", "0.4"], capsys)
    assert code == 2
    assert "material.kappa" in err


def test_invariant_violation_exits_2(capsys):
    code, _, err = run_cli(["pasteur", "--material.kappa", "1.5"], capsys)
    assert code == 2
    assert "Pasteur" in err or "pasteur" in err


def test_unparseable_value_exits_2(capsys):
    code, _, err = run_cli(["selectivity", "--thermal.temperatures", "cold"], capsys)
    assert code == 2


def test_partial_quadrature_failure_exits_1_with_error_column(monkeypatch, capsys):
    # a subdivision limit too small to converge at z = 1e-3 makes that point fail
    monkeypatch.setattr(pasteur, "MAX_SUBDIVISIONS", 10)
    code, out, err = run_cli(
        ["pasteur", "--material.kappa", "0.4", "--sweep.z_list", "0.001,0.5"], capsys)
    assert code == 1
    cols = [l for l in header_lines(out) if l.startswith("# column")]
    assert any("error_flag" in c for c in cols)
    rows = data_rows(out)
    assert [row.rsplit(",", 1)[1] for row in rows] == ["1", "0"]
    (failed,) = chiral_vacuum.halfspace_sweep(
        [0.001], chiral_vacuum.MoleculeSpectrum.two_level(2.0, 0.1),
        chiral_vacuum.PasteurMaterial(1.0, 1.0, 0.4))
    assert err == f"warning: z = 0.001: {failed.warning.splitlines()[0]}\n"


def test_quadrature_keys_are_not_settable(capsys):
    code, _, err = run_cli(["pasteur", "--quad.rel_tol", "1e-8"], capsys)
    assert code == 2
    assert "quad.rel_tol" in err
    _, out, _ = run_cli(["--help"], capsys)
    assert "quad." not in out


def test_pasteur_at_kappa_r_endpoint_exits_0(capsys):
    code, out, err = run_cli(
        ["pasteur", "--material.kappa", "1.0", "--sweep.z_list", "0.01,1.0"], capsys)
    assert code == 0, err
    rows = [[float(v) for v in row.split(",")] for row in data_rows(out)]
    assert len(rows) == 2
    assert all(math.isfinite(v) for row in rows for v in row)


def test_pasteur_sweep_output_shape(capsys):
    code, out, _ = run_cli(
        ["pasteur", "--material.kappa", "0.4", "--sweep.z_min", "0.2",
         "--sweep.z_max", "1.0", "--sweep.z_points", "5"], capsys)
    assert code == 0
    rows = data_rows(out)
    assert len(rows) == 5
    first = [float(v) for v in rows[0].split(",")]
    assert len(first) == 5
    assert first[0] == 0.2
    notes = [l for l in header_lines(out) if l.startswith("# note:")]
    assert any("energy_unit_meV" in n for n in notes)
    assert any("length_unit_nm" in n for n in notes)


def test_debye_scales_with_n(capsys):
    code, out, _ = run_cli(["debye", "--sweep.n_list", "1,10"], capsys)
    assert code == 0
    rows = [r.split(",") for r in data_rows(out)]
    assert len(rows) == 2
    per1, per10 = float(rows[0][1]), float(rows[1][1])
    assert per10 == pytest.approx(10.0 * per1, rel=1e-12)
    tot1, tot10 = float(rows[0][3]), float(rows[1][3])
    assert tot10 == pytest.approx(100.0 * tot1, rel=1e-12)  # N^2 overall


def test_debye_thermal_enhancement_bounded_at_400_k(capsys):
    code, out, _ = run_cli(["debye", "--thermal.temperature_k", "400"], capsys)
    assert code == 0
    rows = [[float(v) for v in r.split(",")] for r in data_rows(out)]
    assert len(rows) == 3
    for row in rows:
        assert 1.0 <= row[2] / row[1] <= 1.115  # per_molecule_meV / per_molecule_T0_meV


def test_debye_single_mode_enhancement_is_bose_ratio(capsys):
    code, out, _ = run_cli(
        ["debye", "--cavity.modes", "0.1", "--thermal.temperature_k", "300"], capsys)
    assert code == 0
    note = next(l for l in header_lines(out) if "thermal_enhancement" in l)
    expected = 1.0 + 2.0 * bose_occupation(0.1, Thermal(300.0))
    assert float(note.split("=")[1]) == pytest.approx(expected, rel=1e-12)


def test_debye_thermal_columns_equal_the_t0_columns_at_zero_temperature(capsys):
    code, out, _ = run_cli(["debye", "--thermal.temperature_k", "0"], capsys)
    assert code == 0
    rows = [r.split(",") for r in data_rows(out)]
    assert [r[0] for r in rows] == ["1", "10", "100"]
    for _, pm_t0, pm, total_t0, total in rows:
        assert (pm, total) == (pm_t0, total_t0)


def test_tst_adds_activation_columns(capsys):
    code, out, _ = run_cli(
        ["tst", "--sweep.delta_e_mev", "53", "--thermal.temperatures", "300"],
        capsys)
    assert code == 0
    cols = [l.split(":")[1].split("[")[0].strip() for l in header_lines(out)
            if l.startswith("# column")]
    assert cols == ["delta_e_meV", "temperature_K", "p_chi",
                    "e_a_eV", "delta_omega_eV", "p_chi_tst"]
    row = data_rows(out)[0].split(",")
    assert float(row[3]) == pytest.approx(1.0 - 0.05, rel=1e-12)  # barrier - w/2
    # on any grid and curvature, the first three columns are the selectivity table
    grids = ["--sweep.delta_e_mev", "-20:10:20", "--thermal.temperatures", "150,300"]
    code, plain, _ = run_cli(["selectivity", *grids], capsys)
    assert code == 0
    code, out, _ = run_cli(["tst", *grids, "--profile.curvature_b_ev3", "1e7"], capsys)
    assert code == 0
    columns = [l for l in header_lines(out) if l.startswith("# column")]
    assert columns[:3] == [l for l in header_lines(plain) if l.startswith("# column")]
    rows = [r.split(",") for r in data_rows(out)]
    assert [r[:3] for r in rows] == [r.split(",") for r in data_rows(plain)]
    assert len(rows) == 10 and all(r[5] != r[2] for r in rows)


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "pasteur" in out and "verify" in out
    assert run_cli(["cavity", "--help"], capsys) == (0, out, "")
    assert run_cli(["debye", "--sweep.n_list", "1", "-h"], capsys) == (0, out, "")


def test_no_arguments_exits_2(capsys):
    code, out, _ = run_cli([], capsys)
    assert code == 2


def test_verify_plumbing_all_pass(monkeypatch, capsys):
    fake = [acceptance.CriterionResult(1, "alpha", True, "ok"),
            acceptance.CriterionResult(2, "beta", True, "ok")]
    monkeypatch.setattr(acceptance, "run_all", lambda: fake)
    code, _, err = run_cli(["verify"], capsys)
    assert code == 0
    assert "PASS  1. alpha" in err
    assert "PASS  2. beta" in err


def test_verify_plumbing_failure_exits_1(monkeypatch, capsys):
    fake = [acceptance.CriterionResult(1, "alpha", True, "ok"),
            acceptance.CriterionResult(2, "beta", False, "off by 7")]
    monkeypatch.setattr(acceptance, "run_all", lambda: fake)
    code, _, err = run_cli(["verify"], capsys)
    assert code == 1
    assert "FAIL  2. beta" in err


def test_verify_json_stdout_is_valid_json(monkeypatch, capsys):
    fake = [acceptance.CriterionResult(1, "alpha", True, "ok")]
    monkeypatch.setattr(acceptance, "run_all", lambda: fake)
    code, out, _ = run_cli(["verify", "--output.format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["rows"] == [[1, 1]]


@pytest.mark.parametrize("argv,key", [
    (["selectivity", "--thermal.temperatures", "nan"], "thermal.temperatures"),
    (["selectivity", "--sweep.delta_e_mev", "nan,1"], "sweep.delta_e_mev"),
    (["cavity", "--thermal.temperature_k", "nan"], "thermal.temperature_k"),
    (["cavity", "--cavity.chirality_factor", "nan"], "cavity.chirality_factor"),
    (["cavity", "--molecule.im_rot_strength", "inf"], "molecule.im_rot_strength"),
    (["pasteur", "--material.kappa", "nan", "--sweep.z_list", "0.5"], "material.kappa"),
    (["tst", "--profile.curvature_b_ev3", "nan"], "profile.curvature_b_ev3"),
    (["debye", "--ensemble.d00", "nan,0,0"], "ensemble.d00"),
    (["debye", "--sweep.n_list", "1" + "0" * 320], "sweep.n_list"),
])
def test_non_finite_input_exits_2_naming_the_key(argv, key, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert key in err
    assert out == ""


_MODE = '[{{"omega_ev": {}, "veff_nm3": 0.2, "chirality_factor": -0.5}}]'


@pytest.mark.parametrize("value", ["null", "[1]", "true", '"2.0"', "1" + "0" * 400,
                                   "[" * 5000 + "]" * 5000])
def test_mode_field_that_is_not_a_finite_number_exits_2_naming_the_key(value, capsys):
    code, out, err = run_cli(["cavity", "--cavity.modes_detailed", _MODE.format(value)], capsys)
    assert code == 2
    assert "cavity.modes_detailed" in err
    assert out == ""


@pytest.mark.parametrize("argv,key", [
    (["cavity", "--thermal.temperature_k", "1e-320"], "thermal.temperature_k"),
    (["debye", "--thermal.temperature_k", "1e-320"], "thermal.temperature_k"),
    (["selectivity", "--thermal.temperatures", "300,1e-320"], "thermal.temperatures"),
    (["tst", "--thermal.temperatures", "1e-320"], "thermal.temperatures"),
])
def test_temperature_whose_kbt_underflows_exits_2(argv, key, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("config error:") and key in err
    assert out == ""


@pytest.mark.parametrize("argv,key", [
    (["cavity", "--thermal.temperature_k", "-1"], "thermal.temperature_k"),
    (["tst", "--profile.barrier_ev", "-1"], "profile.barrier_ev"),
    (["pasteur", "--material.kappa", "5"], "material.kappa"),
    (["cavity", "--cavity.veff_nm3", "-1"], "cavity.veff_nm3"),
    (["pasteur", "--molecule.gap_ev", "-2"], "molecule.gap_ev"),
    (["debye", "--sweep.n_list", "0"], "sweep.n_list"),
    (["cavity", "--cavity.chirality_factor", "0.6"], "cavity.chirality_factor"),
    (["debye", "--sweep.n_list", ","], "sweep.n_list"),
    (["cavity", "--cavity.modes_detailed", '[{"omega_ev": 0.1, "veff_nm3": 0.2}]'],
     "cavity.modes_detailed"),
    (["debye", "--cavity.modes_detailed", "[]"], "cavity.modes_detailed"),
    (["pasteur", "--sweep.z_min", "-1"], "sweep.z_min"),
    (["pasteur", "--sweep.z_scale", "log", "--sweep.z_max", "-1"], "sweep.z_max"),
    (["tst", "--profile.omega_nu_ev", "1e200"], "profile.omega_nu_ev"),  # omega**2 overflows
    (["tst", "--profile.omega_nu_ev", "1e-200"], "profile.omega_nu_ev"),  # omega**2 underflows
    (["cavity", "--output.format", "xml"], "output.format"),
    (["pasteur", "--sweep.z_scale", "cubic"], "sweep.z_scale"),
    (["cavity", "--molecule.gap_ev", "2,3"], "molecule.im_rot_strength"),  # lengths differ
    (["pasteur", "--sweep.z_points", "0", "--sweep.z_list", "1"], "sweep.z_points"),  # unused
    (["pasteur", "--sweep.z_list", "1,-1"], "sweep.z_list"),
    (["tst", "--profile.mass_amu", "1e-320", "--profile.curvature_b_ev3", "1"],
     "profile.mass_amu"),  # b/M overflows
    (["tst", "--profile.omega_nu_ev", "1e154", "--profile.curvature_b_ev3", "1e308",
      "--profile.mass_amu", "1e-9"], "profile.curvature_b_ev3"),  # omega**2 + b/M overflows
    (["debye", "--ensemble.d00", "0.2,0"], "ensemble.d00"),  # two components
    (["debye", "--ensemble.m00", "0,1"], "ensemble.m00"),
    (["selectivity", "--sweep.delta_e_mev", "1:2"], "sweep.delta_e_mev"),
    (["selectivity", "--sweep.delta_e_mev", "0:0:1"], "sweep.delta_e_mev"),  # zero step
    (["cavity", "--cavity.modes_detailed", "[0.1]"], "cavity.modes_detailed"),  # not an object
])
def test_rejected_value_exits_2_naming_its_key(argv, key, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:") and repr(key) in err
    assert len(err.splitlines()) == 1


_NEGATIVE_E_A = ["--profile.barrier_ev", "0.01", "--profile.omega_nu_ev", "0.1"]


@pytest.mark.parametrize("argv", [
    ["selectivity", "--thermal.temperatures", "300,0"],
    ["selectivity", "--thermal.temperatures", "-1"],
    ["selectivity", "--thermal.temperatures", "300,1e-320"],
    ["tst", "--thermal.temperatures", "0"],
    ["tst", "--thermal.temperatures", "-5"] + _NEGATIVE_E_A,  # rejected before the warning
    ["tst", "--thermal.temperatures", "1e-320"] + _NEGATIVE_E_A,
])
def test_rejected_temperature_names_only_its_key(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:") and err.endswith(" (key 'thermal.temperatures')\n")
    assert len(err.splitlines()) == 1


def test_negative_activation_energy_warns_on_one_line(capsys):
    code, out, err = run_cli(
        ["tst", "--profile.barrier_ev", "0.01", "--profile.omega_nu_ev", "0.1",
         "--sweep.delta_e_mev", "0", "--thermal.temperatures", "300"], capsys)
    assert code == 0
    assert err == "warning: negative activation energy -0.04 eV\n"
    assert data_rows(out) == ["0.0,300.0,0.0,-0.04,0.0,0.0"]


def test_non_finite_result_exits_1_without_output(tmp_path, capsys):
    # a finite Debye sum whose value in meV overflows
    path = tmp_path / "out.json"
    code, out, err = run_cli(
        ["debye", "--ensemble.d00", "1e154,0,0", "--ensemble.m00", "0,1e154,0",
         "--cavity.veff_nm3", "0.01", "--sweep.n_list", "1", "--output.format", "json",
         "--output.path", str(path)], capsys)
    assert code == 1
    assert "per_molecule_T0_meV" in err
    assert len(err.strip().splitlines()) == 1
    assert out == ""
    assert not path.exists()


def test_an_overflowing_debye_sum_exits_1_without_output(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, out, err = run_cli(
        ["debye", "--ensemble.d00", "1e150,0,0", "--ensemble.m00", "0,1e150,0",
         "--cavity.veff_nm3", "1e-12", "--output.path", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: modes and ensemble are out of range: the Debye sum overflows\n"
    assert not path.exists()


def test_an_arithmetic_error_of_a_runner_exits_1_without_output(tmp_path, monkeypatch, capsys):
    # no known input reaches this handler: it stays as the last guard
    def overflowing(config):
        raise OverflowError("math range error")

    monkeypatch.setitem(cli._RUNNERS, "debye", overflowing)
    path = tmp_path / "out.csv"
    code, out, err = run_cli(["debye", "--output.path", str(path)], capsys)
    assert (code, out, err) == (1, "", "error: OverflowError: math range error\n")
    assert not path.exists()


@pytest.mark.parametrize("site", ["runner", "render"])
def test_out_of_memory_exits_1_without_output(site, tmp_path, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError()

    if site == "runner":
        monkeypatch.setitem(cli._RUNNERS, "cavity", exhausted)
    else:
        monkeypatch.setattr(cli, "render", exhausted)
    path = tmp_path / "out.csv"
    code, out, err = run_cli(["cavity", "--output.path", str(path)], capsys)
    assert (code, out, err) == (1, "", "error: out of memory\n")
    assert not path.exists()


def test_none_cells_are_not_non_finite():
    out = cli.SweepOutput("cavity", [], (cli.Column("ratio", "dimensionless"),),
                          [(None,), (1.5,)], [("resonant_modes", 1)])
    assert cli._non_finite_field(out) is None
    out.rows.append((math.inf,))
    assert cli._non_finite_field(out) == "ratio"


@pytest.mark.parametrize("argv", [
    ["pasteur"], ["cavity"], ["debye"], ["selectivity"], ["tst"], ["verify"],
    ["cavity", "--cavity.modes", "1.0,2.5"],  # a resonant mode: no London ratio
], ids=" ".join)
def test_every_runner_writes_rows_of_int_float_or_none(argv, capsys):
    # The renderers serve only this traffic (tests/test_output.py): one or
    # more non-empty tuples of int (not bool), finite float or None, and
    # notes of int, finite float or str.
    out, code = cli.run(parse_config(argv))
    assert code == 0 and len(out.rows) >= 1
    assert all(type(row) is tuple and len(row) == len(out.columns) >= 1 for row in out.rows)
    cells = [v for row in out.rows for v in row]
    assert all(v is None or type(v) is int or type(v) is float and math.isfinite(v)
               for v in cells)
    assert all(type(v) in (int, str) or type(v) is float and math.isfinite(v)
               for _, v in out.notes)
    assert (None in cells) == (argv[-1] == "1.0,2.5")


@pytest.mark.parametrize("fmt, row", [
    ("csv", "1,0.5,-0.5,0.2,0.0,nan,0.00027771047985267704,0"),
    ("json", [1, 0.5, -0.5, 0.2, 0.0, None, 0.00027771047985267704, 0]),
])
def test_cavity_ratio_is_missing_where_only_the_t0_sum_cancels(fmt, row, capsys):
    # the two T = 0 terms cancel to 0 and the thermal sum does not: no ratio
    code, out, _ = run_cli(["cavity", "--cavity.modes", "0.5", "--molecule.gap_ev", "2,3",
                            "--molecule.im_rot_strength", "0.1,-0.13999999999999999",
                            "--thermal.temperature_k", "3000", "--output.format", fmt], capsys)
    assert code == 0
    assert (data_rows(out) if fmt == "csv" else json.loads(out)["rows"]) == [row]


def test_json_rejects_nan_cells_and_renders_none_as_null():
    out = cli.SweepOutput("cavity", [], (cli.Column("ratio", "dimensionless"),),
                          [(None,), (1.5,)])
    assert json.loads(to_json(out))["rows"] == [[None], [1.5]]
    out.rows.append((math.nan,))
    with pytest.raises(ValueError):
        to_json(out)


def test_commands_without_quadrature_do_not_import_scipy():
    # scipy.integrate is most of the package's import time; only a
    # half-space quadrature (pasteur, verify) may load it.  The acceptance
    # suite and its fixtures are loaded by verify alone.
    code = textwrap.dedent("""
        import sys
        import chiral_vacuum, chiral_vacuum.cli
        for command in ("cavity", "debye", "selectivity", "tst"):
            assert chiral_vacuum.cli.main([command, "--output.path", sys.argv[1]]) == 0
            assert "scipy.integrate" not in sys.modules, "loaded by " + command
        assert chiral_vacuum.cli.main(["pasteur", "--material.kappa", "0.4",
                                       "--sweep.z_list", "0.5",
                                       "--output.path", sys.argv[1]]) == 0
        assert "scipy.integrate" in sys.modules
        assert "chiral_vacuum.acceptance" not in sys.modules
    """)
    src_dir = os.path.dirname(os.path.dirname(chiral_vacuum.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src_dir, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code, os.devnull], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv,key", [
    (["selectivity", "--sweep.delta_e_mev", "0:1e-300:1"], "sweep.delta_e_mev"),
    (["selectivity", "--sweep.delta_e_mev", "0:1e-320:1e300"], "sweep.delta_e_mev"),
    (["selectivity", "--sweep.delta_e_mev", "1e308:1:-1e308"], "sweep.delta_e_mev"),
    (["cavity", "--cavity.modes", "0.1:1e-7:1.0"], "cavity.modes"),
    (["pasteur", "--sweep.z_points", "100000000000"], "sweep.z_points"),
])
def test_oversized_grid_exits_2_naming_the_key(argv, key, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert key in err
    assert out == ""


def _detailed(n):
    return json.dumps([{"omega_ev": 0.1 * k, "veff_nm3": 0.2, "chirality_factor": 0.5}
                       for k in range(1, n + 1)])


_TABLE = "table has more than 8 rows (keys 'sweep.delta_e_mev', 'thermal.temperatures')"
_LONDON = "mode sum has more than 8 terms (keys '{}', 'molecule.gap_ev')"


@pytest.mark.parametrize("at_cap,past_cap,rows,library,message", [
    pytest.param(["selectivity", "--sweep.delta_e_mev", "1:1:4", "--thermal.temperatures", "200,300"],
                 ["selectivity", "--sweep.delta_e_mev", "1:1:3",
                  "--thermal.temperatures", "200,300,400"],
                 8, "selectivity_sweep", _TABLE, id="selectivity"),
    pytest.param(["tst", "--sweep.delta_e_mev", "1:1:4", "--thermal.temperatures", "200,300"],
                 ["tst", "--sweep.delta_e_mev", "1:1:3", "--thermal.temperatures", "200,300,400"],
                 8, "selectivity_sweep", _TABLE, id="tst"),
    pytest.param(["cavity", "--cavity.modes", "0.1:0.1:0.4",
                  "--molecule.gap_ev", "2,3", "--molecule.im_rot_strength", "0.1,0.1"],
                 ["cavity", "--cavity.modes", "0.1:0.1:0.3",
                  "--molecule.gap_ev", "2,3,4", "--molecule.im_rot_strength", "0.1,0.1,0.1"],
                 4, "cavity_shift_report", _LONDON.format("cavity.modes"), id="cavity"),
    # one cavity.modes value, as the default 10-mode range is past the cap of 8
    pytest.param(["cavity", "--cavity.modes", "0.1", "--cavity.modes_detailed", _detailed(4),
                  "--molecule.gap_ev", "2,3", "--molecule.im_rot_strength", "0.1,0.1"],
                 ["cavity", "--cavity.modes", "0.1", "--cavity.modes_detailed", _detailed(3),
                  "--molecule.gap_ev", "2,3,4", "--molecule.im_rot_strength", "0.1,0.1,0.1"],
                 4, "cavity_shift_report", _LONDON.format("cavity.modes_detailed"),
                 id="cavity-detailed"),
    pytest.param(["debye", "--cavity.modes", "0.1,0.2", "--sweep.n_list", "1,2,3,4"],
                 ["debye", "--cavity.modes", "0.1,0.2,0.3", "--sweep.n_list", "1,2,3"],
                 4, "debye_shift_per_molecule",
                 "mode sums have more than 8 terms (keys 'cavity.modes', 'sweep.n_list')",
                 id="debye"),
])
def test_a_table_of_more_than_max_grid_points_rows_exits_2_naming_both_grids(
        at_cap, past_cap, rows, library, message, tmp_path, monkeypatch, capsys):
    # each grid is within its own cap; their product, the rows or the terms of
    # the mode sums, has the same cap
    monkeypatch.setattr(config, "MAX_GRID_POINTS", 8)
    code, out, err = run_cli(at_cap, capsys)
    assert (code, err, len(data_rows(out))) == (0, "", rows)
    monkeypatch.setattr(cli, library, pytest.fail)
    path = tmp_path / "out.csv"
    code, out, err = run_cli([*past_cap, "--output.path", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"config error: {message}\n"
    assert not path.exists()


def test_underflowing_material_product_exits_2(capsys):
    for eps_r, mu_r, key in [("1e-200", "1e-200", "eps_r * mu_r"),
                             ("1e-200", "1e200", "mu_r / eps_r"),  # overflows
                             ("1e200", "1e-200", "mu_r / eps_r")]:  # underflows
        code, out, err = run_cli(
            ["pasteur", "--material.eps_r", eps_r, "--material.mu_r", mu_r,
             "--material.kappa", "0.3", "--sweep.z_list", "0.5"], capsys)
        assert code == 2
        assert key in err
        assert out == ""


@pytest.mark.parametrize("flags,value", [
    (["--sweep.z_list", "1e-108"], "1e-108"),  # z**3 underflows to 0
    (["--sweep.z_list", "1e-200"], "1e-200"),  # z**2 underflows to 0
    (["--sweep.z_list", "1e300"], "1e+300"),  # z**3 overflows
    (["--molecule.gap_ev", "1e-300,2", "--molecule.im_rot_strength", "0.1,0.1",
      "--sweep.z_list", "1"], "1e-300"),  # the cube of the gap ratio overflows
    (["--molecule.gap_ev", "1e-300", "--sweep.z_list", "1"], "1e-300"),  # E_unit underflows
    (["--molecule.gap_ev", "1e150", "--sweep.z_list", "1"], "1e+150"),  # gap_j**3 overflows
    (["--molecule.gap_ev", "1e120", "--sweep.z_list", "1"], "1e+120"),  # E_unit overflows to inf
    (["--molecule.gap_ev", "1e100", "--molecule.im_rot_strength", "1", "--sweep.z_list",
      "1e-10"], "z = 1e-10 is out of range: a value in meV overflows"),  # shift x E_unit
    (["--sweep.z_min", "1e-300", "--sweep.z_max", "1", "--sweep.z_points", "2",
      "--sweep.z_scale", "log"], "z = 1e-300 "),  # a grid point, named as a Python float
    (["--molecule.gap_ev", "2,3", "--molecule.im_rot_strength", "0,0.1", "--sweep.z_list", "1"],
     "first transition has zero rotatory strength"),  # the energy unit is undefined
    (["--molecule.gap_ev", "5e-324", "--molecule.im_rot_strength", "0", "--sweep.z_list", "1"],
     "gap 5e-324 eV is out of range: the length unit overflows"),
    (["--molecule.gap_ev", "2,2", "--molecule.im_rot_strength", "1.7e308,1.7e308",
      "--sweep.z_list", "1"], "rotatory strengths are out of range: their sum overflows"),
])
def test_out_of_range_value_exits_1_naming_it(flags, value, tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, out, err = run_cli(["pasteur", "--material.kappa", "0.4", "--output.path", str(path)]
                             + flags, capsys)
    assert code == 1
    assert out == "" and not path.exists()
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and value in err
    assert "ZeroDivisionError" not in err and "OverflowError" not in err


def test_smallest_distances_compute_or_name_the_non_finite_column(capsys):
    code, out, err = run_cli(["pasteur", "--material.kappa", "0.4", "--sweep.z_list", "1e-103"],
                             capsys)
    assert code == 0, err
    assert len(data_rows(out)) == 1
    code, out, err = run_cli(["pasteur", "--material.kappa", "0.4", "--sweep.z_list", "1e-105"],
                             capsys)
    assert code == 1
    assert out == ""
    assert err == "error: z = 1e-105 is out of range: the non-retarded shift overflows\n"


@pytest.mark.parametrize("command", ["cavity", "debye"])
def test_mode_energy_whose_ratio_to_kbt_underflows_exits_1(command, tmp_path, capsys):
    # omega / k_B*T is 0.0, where the Bose occupation 1/expm1(0) divides by zero, or
    # subnormal, where it overflows
    path = tmp_path / "out.csv"
    for omega, temperature_k in [("1e-320", "1e300"), ("1e-310", "300")]:
        code, out, err = run_cli([command, "--cavity.modes", omega, "--thermal.temperature_k",
                                  temperature_k, "--output.path", str(path)], capsys)
        assert code == 1
        assert out == "" and not path.exists()
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: omega / k_B*T underflows at omega = {omega} eV")


@pytest.mark.parametrize("command", ["cavity", "debye"])
def test_detailed_modes_give_the_rows_of_the_same_uniform_modes(command, capsys):
    omegas = [0.3, 0.7, 2.5]  # 2.5 eV is resonant with the 2 eV gap
    detailed = json.dumps([{"omega_ev": w, "veff_nm3": 0.2, "chirality_factor": -0.5}
                           for w in omegas])
    code, out_detailed, err = run_cli([command, "--cavity.modes_detailed", detailed], capsys)
    assert code == 0, err
    code, out_uniform, err = run_cli([command, "--cavity.modes", "0.3,0.7,2.5"], capsys)
    assert code == 0, err
    assert data_rows(out_detailed) == data_rows(out_uniform) != []


def test_output_path_in_a_missing_directory_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(["cavity", "--output.path", str(path)], capsys)
    assert code == 2
    assert out == "" and not path.exists()
    assert err.startswith(f"config error: cannot write {str(path)!r}")
    assert len(err.splitlines()) == 1


def test_pasteur_with_zero_rotatory_strengths_writes_zeros(capsys):
    code, out, err = run_cli(["pasteur", "--material.kappa", "0.4", "--molecule.gap_ev", "2,3",
                              "--molecule.im_rot_strength", "0,0", "--sweep.z_list", "0.5,2"],
                             capsys)
    assert code == 0 and err == ""
    rows = [[float(v) for v in row.split(",")] for row in data_rows(out)]
    assert [row[0] for row in rows] == [0.5, 2.0]
    assert all(v == 0.0 for row in rows for v in row[1:])
    assert "# note: energy_unit_meV = 0.0" in header_lines(out)


def test_pasteur_row_of_finite_cells_exits_0_where_its_error_in_mev_would_overflow(capsys):
    # the two strengths cancel, so every cell is finite, but the error estimate times
    # the 8.1e290 meV energy unit is not; the row holds no error in meV
    code, out, err = run_cli(["pasteur", "--molecule.gap_ev", "1e100,1e100",
                              "--molecule.im_rot_strength", "1,-1", "--material.kappa", "0.4",
                              "--sweep.z_list", "1e-9"], capsys)
    assert code == 0 and err == ""
    assert data_rows(out) == ["1e-09,0.0,0.0,-0.0,8.074638686377518e+20"]


# ----------------------- the exit contract, and every cell its library value

# One edge-rich strategy per parse kind of config.REGISTRY: zeros of both
# signs, subnormals, the smallest normal, both sides of 0.5, values near
# overflow and past it, NaN, infinities, words, and ints of up to 4,000
# digits.  A key whose parse kind is not listed is a _choice.  A float is
# also drawn, first, from moderate values that most keys accept, and a word
# from those its key accepts, so that drawn runs reach the physics, a nonzero
# curvature or kappa included.
_EDGE_FLOATS = ["0", "-0.0", "5e-324", "-5e-324", "1e-320", "2.2e-308", "1e-200", "1e-10",
                "0.4999999999", "0.5", "0.5000000001", "1", "-1", "2", "2.5", "3", "-3", "12",
                "300", "-100", "1e150", "1e154", "-1e154", "1e300", "1.7e308", "-1.7e308",
                "1e309", "nan", "inf", "-inf", "abc", "1" + "0" * 400, "-" + "9" * 4000]
_EDGE_INTS = ["0", "1", "2", "3", "-1", "10", "1000000", "1000001", "1" + "0" * 320,
              "1.5", "abc", "9" * 4000]
_ACCEPTED_FLOATS = ["0.05", "0.1", "0.2", "0.5", "1.5", "5",
                    "-0.05", "-0.1", "-0.2", "-0.5", "-1.5", "-5"]
_floats = st.sampled_from(_ACCEPTED_FLOATS) | st.sampled_from(_EDGE_FLOATS)
_ints = st.sampled_from(_EDGE_INTS)


@st.composite
def _lists(draw, items):
    """1-3 items, or, at a small share of draws, an empty list."""
    if draw(st.sampled_from(range(10))) == 9:  # not 0, which hypothesis draws most
        return draw(st.sampled_from(["", ","]))
    return ",".join(draw(st.lists(items, min_size=1, max_size=3)))


_float_lists = _lists(_floats)
_modes_detailed = st.sampled_from(["", "[]", "null", "[0.1]", '[{"omega_ev": 0.1}]',
                                   "[" * 5000 + "]" * 5000]) | st.lists(
    st.tuples(_floats, _floats, _floats), min_size=1, max_size=2).map(lambda modes: "[" + ", ".join(
        f'{{"omega_ev": {w}, "veff_nm3": {v}, "chirality_factor": {c}}}' for w, v, c in modes) + "]")
_PARSE_KINDS = {
    config._parse_float: _floats,
    config._parse_positive_float: _floats,
    config._parse_int: _ints,
    config._parse_grid_points: _ints,
    config._parse_list: _float_lists,
    config._parse_optional_positive_list: _float_lists,
    config._parse_grid: _float_lists | st.tuples(_floats, _floats, _floats).map(":".join),
    config._parse_modes_detailed: _modes_detailed,
    config.REGISTRY["sweep.n_list"].parse: _lists(_ints),
}
_WORDS = ["linear", "log", "csv", "json", "xml", "LOG", ""]


def _accepts(parse, word):
    try:
        parse(word)
    except ValueError:
        return False
    return True


def _kind(key):
    parse = config.REGISTRY[key].parse
    if parse in _PARSE_KINDS:
        return _PARSE_KINDS[parse]
    accepted = [word for word in _WORDS if _accepts(parse, word)]
    return st.sampled_from(accepted) | st.sampled_from(
        [word for word in _WORDS if word not in accepted])


def _keys(command):
    return [key for key in parse_config([command]).values if key != "output.path"]


# the key of each command whose default 0 makes its chiral columns 0
_ZERO_AT_DEFAULT = {"pasteur": "material.kappa", "tst": "profile.curvature_b_ev3"}


@st.composite
def _argvs(draw, commands):
    """A command and a drawn value for each of a drawn subset of its keys, and of its
    key in _ZERO_AT_DEFAULT.  A pasteur run computes 1-3 z: a list of 1-3, or a grid
    of 1-3 points."""
    command = draw(st.sampled_from(commands))
    keys = draw(st.lists(st.sampled_from(_keys(command)), unique=True, max_size=3))
    if command in _ZERO_AT_DEFAULT and _ZERO_AT_DEFAULT[command] not in keys:
        keys.append(_ZERO_AT_DEFAULT[command])
    values = {key: draw(_kind(key)) for key in keys}
    if command == "pasteur":
        values["sweep.z_list"] = draw(st.lists(_floats, min_size=1, max_size=3).map(",".join)
                                      | st.just(""))
        if not values["sweep.z_list"]:
            values["sweep.z_points"] = draw(st.sampled_from(["1", "2", "3"]))
    return [command] + [f"--{key}={value}" for key, value in values.items()]


# the only cell README lets be nan: the London thermal ratio of a resonant mode, or
# of a mode whose T = 0 sum cancels to 0 while its thermal sum does not
_README_MISSING = {("cavity", "london_thermal_ratio")}


def _read_back(text, fmt):
    """(rows, notes) of an output as the runner wrote them: each cell an int, a
    float or None."""
    if fmt == "json":
        payload = json.loads(text)
        return [tuple(row) for row in payload["rows"]], payload["notes"]
    notes = [line[len("# note: "):].split(" = ", 1) for line in header_lines(text)
             if line.startswith("# note: ")]
    rows = [tuple(json.loads(f"[{row.replace('nan', 'null')}]")) for row in data_rows(text)]
    return rows, {key: json.loads(value) for key, value in notes}


def _library_modes(cfg):
    if cfg["cavity.modes_detailed"] is not None:
        return chiral_vacuum.CavityModeSet(chiral_vacuum.CavityMode(**entry)
                                           for entry in cfg["cavity.modes_detailed"])
    return chiral_vacuum.CavityModeSet.uniform(cfg["cavity.modes"], cfg["cavity.veff_nm3"],
                                               cfg["cavity.chirality_factor"])


def _library_output(cfg, rows):
    """(rows, notes) of ``cfg``'s command rebuilt through the public API alone, in
    the runner's order of operations; a pasteur sweep runs on the output's own z."""
    cv = chiral_vacuum
    if cfg.command in ("pasteur", "cavity"):
        mol = cv.MoleculeSpectrum.from_lists(cfg["molecule.gap_ev"], cfg["molecule.im_rot_strength"])
    if cfg.command in ("cavity", "debye"):
        modes, thermal = _library_modes(cfg), cv.Thermal(cfg["thermal.temperature_k"])
    if cfg.command == "pasteur":
        material = cv.PasteurMaterial(cfg["material.eps_r"], cfg["material.mu_r"],
                                      cfg["material.kappa"])
        results = cv.halfspace_sweep([row[0] for row in rows], mol, material)
        return ([(r.z_over_zunit, r.shift_eunit, r.shift_mev, r.nonretarded_eunit, r.error_eunit)
                 for r in results],
                {"energy_unit_meV": cv.energy_unit_mev(mol), "length_unit_nm": cv.length_unit_nm(mol)})
    if cfg.command == "cavity":
        rep = cv.cavity_shift_report(modes, mol, thermal=thermal)
        columns = zip(modes.modes, rep.london_t0_ev, rep.london_thermal_ratio, rep.london_ev,
                      rep.resonant)
        return ([(i, m.omega_ev, m.chirality_factor, m.veff_nm3, t0 * 1e3, ratio, london * 1e3,
                  1 if resonant else 0)
                 for i, (m, t0, ratio, london, resonant) in enumerate(columns, 1)],
                {"temperature_K": thermal.temperature_k,
                 "london_total_T0_meV": rep.london_total_t0_ev * 1e3,
                 "london_total_meV": rep.london_total_ev * 1e3,
                 "resonant_modes": sum(rep.resonant)})
    if cfg.command == "debye":
        def per_molecule(n):
            ens = cv.PolarizedEnsemble(cfg["ensemble.d00"], cfg["ensemble.m00"], n)
            return (cv.debye_shift_per_molecule(modes, ens),
                    cv.debye_shift_per_molecule(modes, ens, thermal=thermal))
        expected = []
        for n in cfg["sweep.n_list"]:
            t0, pm = per_molecule(n)
            expected.append((n, t0 * 1e3, pm * 1e3, t0 * n * 1e3, pm * n * 1e3))
        base_t0, base = per_molecule(1)
        return expected, {"temperature_K": thermal.temperature_k,
                          "thermal_enhancement": base / base_t0 if base_t0 != 0.0 else 1.0}
    plain = cv.selectivity_sweep(cfg["sweep.delta_e_mev"], cfg["thermal.temperatures"])
    if cfg.command == "selectivity":
        return plain, {}
    profile = cv.ReactionProfile(cfg["profile.barrier_ev"], cfg["profile.omega_nu_ev"],
                                 cfg["profile.curvature_b_ev3"], cfg["profile.mass_amu"])
    corrected = cv.selectivity_sweep(cfg["sweep.delta_e_mev"], cfg["thermal.temperatures"],
                                     profile)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a negative activation energy
        e_a = cv.tst_activation(profile)
    d_omega = cv.zero_point_frequency_shift(profile)
    return [(*row, e_a, d_omega, p_tst) for row, (_, _, p_tst) in zip(plain, corrected)], {}


def _check_run(argv, path):
    """``cli.main(argv)``, run once, exits 0, 1 or 2.  On 1 or 2 it prints one line that
    is not a ``warning:`` and writes nothing, and on 2 the line names a key; on 0 the
    output is strict JSON, or CSV with ``nan`` only where README allows it, and every
    cell and note equals the library value it reports.  A pasteur point failure is the
    one exit 1 with rows: an ``error_flag`` column and ``warning:`` lines."""
    path.unlink(missing_ok=True)  # from an earlier example
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--output.path", str(path)])
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if not line.startswith("warning:")]
    assert code in (0, 1, 2) and out.getvalue() == "", (code, lines)
    assert not any("Traceback" in line for line in lines), lines
    if code == 1 and not errors:  # a pasteur point failure
        assert argv[0] == "pasteur" and all(l.startswith("warning: z = ") for l in lines), lines
        assert "error_flag" in path.read_text()
        return
    if code:
        assert len(errors) == 1 and not path.exists(), lines
        if code == 2:
            assert errors[0].startswith("config error:"), errors
            assert any(repr(key) in errors[0] for key in config.REGISTRY), errors
        return
    assert not errors, lines
    text, cfg = path.read_text(), parse_config(argv)
    if cfg["output.format"] == "json":
        json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in JSON"))
    else:
        names = [line.split(":")[1].split()[0] for line in text.splitlines()
                 if line.startswith("# column ")]
        for row in data_rows(text):
            for name, cell in zip(names, row.split(",")):
                assert cell not in ("inf", "-inf"), (name, row)
                assert cell != "nan" or (argv[0], name) in _README_MISSING, (name, row)
    rows, notes = _read_back(text, cfg["output.format"])
    assert (rows, notes) == _library_output(cfg, rows), argv


_EXIT_CONTRACT = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


# One fixed example each of a nonzero curvature, a resonant mode and a nonzero kappa.
@settings(_EXIT_CONTRACT, max_examples=150)
@given(argv=_argvs(["cavity", "debye", "selectivity", "tst"]))
@example(argv=["tst", "--profile.curvature_b_ev3=9e5", "--thermal.temperatures=300"])
@example(argv=["cavity", "--cavity.modes=1.0,2.5"])
def test_every_drawn_argv_keeps_the_exit_contract(argv, tmp_path):
    # verify takes only output keys, and runs the whole suite, about 1 s
    _check_run(argv, tmp_path / "out")


@settings(_EXIT_CONTRACT, max_examples=10)
@given(argv=_argvs(["pasteur"]))
@example(argv=["pasteur", "--material.kappa=0.4", "--sweep.z_list=0.5,2"])
def test_every_drawn_pasteur_argv_keeps_the_exit_contract(argv, tmp_path):
    # a computed point costs 0.1-1 s of quadrature, so few examples
    _check_run(argv, tmp_path / "out")
