import json
import math
import os
import subprocess
import sys
import textwrap

import pytest

import chiral_vacuum
from chiral_vacuum import Thermal, acceptance, bose_occupation, cli, pasteur
from chiral_vacuum.cli import main
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


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "pasteur" in out and "verify" in out


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
    (["pasteur", "--sweep.z_min", "-1"], "sweep.z_min"),
    (["pasteur", "--sweep.z_scale", "log", "--sweep.z_max", "-1"], "sweep.z_max"),
    (["tst", "--profile.omega_nu_ev", "1e200"], "profile.omega_nu_ev"),  # omega**2 overflows
    (["tst", "--profile.omega_nu_ev", "1e-200"], "profile.omega_nu_ev"),  # omega**2 underflows
    (["cavity", "--output.format", "xml"], "output.format"),
    (["pasteur", "--sweep.z_scale", "cubic"], "sweep.z_scale"),
    (["cavity", "--molecule.gap_ev", "2,3"], "molecule.im_rot_strength"),  # lengths differ
    (["pasteur", "--sweep.z_points", "0", "--sweep.z_list", "1"], "sweep.z_points"),  # unused
    (["pasteur", "--sweep.z_list", "1,-1"], "sweep.z_list"),
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
    path = tmp_path / "out.json"
    code, out, err = run_cli(
        ["debye", "--ensemble.d00", "1e200,0,0", "--ensemble.m00", "0,1e200,0",
         "--sweep.n_list", "1", "--output.format", "json",
         "--output.path", str(path)], capsys)
    assert code == 1
    assert "per_molecule_T0_meV" in err
    assert len(err.strip().splitlines()) == 1
    assert out == ""
    assert not path.exists()


def test_none_cells_are_not_non_finite():
    out = cli.SweepOutput("cavity", [], (cli.Column("ratio", "dimensionless"),),
                          [(None,), (1.5,)], [("resonant_modes", 1)])
    assert cli._non_finite_field(out) is None
    out.rows.append((math.inf,))
    assert cli._non_finite_field(out) == "ratio"


def test_json_rejects_nan_cells_and_renders_none_as_null():
    out = cli.SweepOutput("cavity", [], (cli.Column("ratio", "dimensionless"),),
                          [(None,), (1.5,)])
    assert json.loads(to_json(out))["rows"] == [[None], [1.5]]
    out.rows.append((math.nan,))
    with pytest.raises(ValueError):
        to_json(out)


def test_commands_without_quadrature_do_not_import_scipy():
    # scipy.integrate is most of the package's import time; only a
    # half-space quadrature (pasteur, verify) may load it.
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
    assert err == "error: non-finite result in 'shift_over_Eunit'\n"
