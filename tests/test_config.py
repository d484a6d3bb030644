import json

import numpy as np
import pytest

from chiral_vacuum import cli, config
from chiral_vacuum.config import ConfigError, parse_config


def test_empty_cavity_config_resolves_canonical_defaults():
    cfg = parse_config(["cavity"])
    assert cfg.command == "cavity"
    assert cfg["cavity.modes"] == pytest.approx([0.1 * n for n in range(1, 11)])
    assert cfg["cavity.veff_nm3"] == 0.2
    assert cfg["cavity.chirality_factor"] == -0.5
    assert cfg["molecule.gap_ev"] == [2.0]
    assert cfg["molecule.im_rot_strength"] == [0.1]
    assert cfg["thermal.temperature_k"] == 300.0


def test_pasteur_kappa_defaults_to_zero_and_overrides():
    cfg = parse_config(["pasteur"])
    assert cfg["material.kappa"] == 0.0
    cfg = parse_config(["pasteur", "--material.kappa", "0.4"])
    assert cfg["material.kappa"] == 0.4


@pytest.mark.parametrize("flags,grid", [
    (["--sweep.z_list", "2,0.5,2", "--sweep.z_points", "7"], [2.0, 0.5, 2.0]),
    ([], np.linspace(0.1, 2.0, 50).tolist()),
    (["--sweep.z_min", "3", "--sweep.z_points", "1"], [3.0]),
    (["--sweep.z_scale", "log", "--sweep.z_min", "1e-3", "--sweep.z_max", "1e2",
      "--sweep.z_points", "6"], [1e-3, *(pytest.approx(z, rel=1e-14) for z in (1e-2, 0.1, 1.0, 10.0)), 1e2]),
    (["--sweep.z_scale", "log", "--sweep.z_points", "1"], [0.1]),
], ids=["list", "linear", "one-point", "log", "one-point-log"])
def test_pasteur_z_grid_is_resolved_at_parse_time(flags, grid):
    cfg = parse_config(["pasteur", *flags])
    assert cfg["sweep.z_list"] == grid
    assert all(type(z) is float for z in cfg["sweep.z_list"])  # no numpy scalar reprs
    assert cfg.raw["sweep.z_list"] == ("2,0.5,2" if flags[:1] == ["--sweep.z_list"] else "")


def test_flag_beats_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("material.kappa = 0.4\n")
    cfg = parse_config(["pasteur", "--config", str(path), "--material.kappa", "0.2"])
    assert cfg["material.kappa"] == 0.2


def test_file_beats_default(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment line\nmaterial.kappa = 0.3  # trailing comment\n\n")
    cfg = parse_config(["pasteur", "--config", str(path)])
    assert cfg["material.kappa"] == 0.3


def test_unknown_key_named():
    with pytest.raises(ConfigError) as err:
        parse_config(["pasteur", "--material.chirality", "1"])
    assert "material.chirality" in str(err.value)


def test_unknown_key_in_file_reports_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("material.kappa = 0.1\nbogus.key = 3\n")
    with pytest.raises(ConfigError) as err:
        parse_config(["pasteur", "--config", str(path)])
    assert "bogus.key" in str(err.value)
    assert "line 2" in str(err.value)


def test_key_not_applicable_to_command():
    with pytest.raises(ConfigError) as err:
        parse_config(["selectivity", "--material.kappa", "0.4"])
    assert "material.kappa" in str(err.value)


def test_unparseable_value_names_key():
    with pytest.raises(ConfigError) as err:
        parse_config(["pasteur", "--material.kappa", "often"])
    assert "material.kappa" in str(err.value)


def test_malformed_file_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("material.kappa 0.4\n")
    with pytest.raises(ConfigError) as err:
        parse_config(["pasteur", "--config", str(path)])
    assert "line 1" in str(err.value)


def test_unknown_command():
    with pytest.raises(ConfigError):
        parse_config(["transmute"])


def test_missing_flag_value():
    with pytest.raises(ConfigError):
        parse_config(["pasteur", "--material.kappa"])


def test_range_grid_arithmetic():
    cfg = parse_config(["selectivity", "--sweep.delta_e_mev", "-100:5:100"])
    grid = cfg["sweep.delta_e_mev"]
    assert len(grid) == 41
    assert grid[0] == -100.0
    assert grid[-1] == pytest.approx(100.0)


def test_mode_ladder_syntax():
    cfg = parse_config(["cavity", "--cavity.modes", "0.1:0.1:1.0"])
    assert len(cfg["cavity.modes"]) == 10


def test_explicit_comma_list():
    cfg = parse_config(["cavity", "--cavity.modes", "0.15,0.4,0.9"])
    assert cfg["cavity.modes"] == [0.15, 0.4, 0.9]


def test_unreachable_range_stop_rejected():
    with pytest.raises(ConfigError):
        parse_config(["selectivity", "--sweep.delta_e_mev", "0:3:10"])


def test_modes_detailed_json():
    cfg = parse_config([
        "cavity", "--cavity.modes_detailed",
        '[{"omega_ev": 0.1, "veff_nm3": 0.2, "chirality_factor": -0.5}]'])
    assert cfg["cavity.modes_detailed"] == [
        {"omega_ev": 0.1, "veff_nm3": 0.2, "chirality_factor": -0.5}]


def test_modes_detailed_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        parse_config(["cavity", "--cavity.modes_detailed",
                      '[{"omega_ev": 0.1, "q_factor": 3}]'])


@pytest.mark.parametrize("argv,key", [
    (["cavity", "--cavity.modes_detailed", '[{"omega_ev": 0.1, "veff_nm3": 0.2}]'],
     "cavity.modes_detailed"),
    (["debye", "--sweep.n_list", ","], "sweep.n_list"),
    (["debye", "--sweep.n_list", ""], "sweep.n_list"),
])
def test_incomplete_value_names_the_key(argv, key):
    with pytest.raises(ConfigError) as err:
        parse_config(argv)
    assert repr(key) in str(err.value)


SMALL_CAP = 50  # the largest default grid, sweep.z_points = 50, fits under it


@pytest.mark.parametrize("command,key,item,other", [  # every key parsed as a comma list
    ("pasteur", "molecule.gap_ev", "2", []),
    ("pasteur", "molecule.im_rot_strength", "0.1", []),
    ("pasteur", "sweep.z_list", "1", []),
    ("cavity", "cavity.modes", "0.1", []),
    # one mode, temperature or shift keeps the run's work within the cap too
    ("debye", "sweep.n_list", "10", ["--cavity.modes", "0.1"]),
    ("selectivity", "sweep.delta_e_mev", "0", ["--thermal.temperatures", "300"]),
    ("selectivity", "thermal.temperatures", "300", ["--sweep.delta_e_mev", "0"]),
])
def test_a_list_longer_than_max_grid_points_exits_2_naming_its_key(
        command, key, item, other, monkeypatch, capsys):
    monkeypatch.setattr(config, "MAX_GRID_POINTS", SMALL_CAP)
    at_cap = parse_config([command, *other, f"--{key}", ",".join([item] * SMALL_CAP)])
    assert len(at_cap[key]) == SMALL_CAP
    assert cli.main([command, *other, f"--{key}", ",".join([item] * (SMALL_CAP + 1))]) == 2
    err = capsys.readouterr().err
    assert f"list has more than {SMALL_CAP} values" in err and repr(key) in err


@pytest.mark.parametrize("key,command,other", [
    ("cavity.modes", "cavity", []),
    ("sweep.delta_e_mev", "selectivity", ["--thermal.temperatures", "300"])])
def test_a_range_and_a_list_of_one_key_share_the_size_cap(key, command, other, monkeypatch):
    monkeypatch.setattr(config, "MAX_GRID_POINTS", SMALL_CAP)
    values = [float(k) for k in range(1, SMALL_CAP + 1)]
    for at_cap, over_cap in [(f"1:1:{SMALL_CAP}", f"1:1:{SMALL_CAP + 1}"),
                             (",".join(map(str, values)), ",".join(map(str, values + [0.0])))]:
        assert parse_config([command, *other, f"--{key}", at_cap])[key] == values
        with pytest.raises(ConfigError, match=f"more than {SMALL_CAP}") as err:
            parse_config([command, *other, f"--{key}", over_cap])
        assert err.value.key == key


def _detailed(n):
    return json.dumps([{"omega_ev": 0.1 * k, "veff_nm3": 0.2, "chirality_factor": 0.5}
                       for k in range(1, n + 1)])


_TABLE = "table has more than 8 rows (keys 'sweep.delta_e_mev', 'thermal.temperatures')"


@pytest.mark.parametrize("at_cap,past_cap,message", [  # 8 = 4 x 2 work units, 9 = 3 x 3
    (["selectivity", "--sweep.delta_e_mev", "1:1:4", "--thermal.temperatures", "200,300"],
     ["selectivity", "--sweep.delta_e_mev", "1:1:3", "--thermal.temperatures", "1,2,3"], _TABLE),
    (["tst", "--sweep.delta_e_mev", "1,2,3,4", "--thermal.temperatures", "200,300"],
     ["tst", "--sweep.delta_e_mev", "1,2,3", "--thermal.temperatures", "1,2,3"], _TABLE),
    (["cavity", "--cavity.modes", "0.1:0.1:0.4", "--molecule.gap_ev", "2,3"],
     ["cavity", "--cavity.modes", "0.1:0.1:0.3", "--molecule.gap_ev", "2,3,4"],
     "mode sum has more than 8 terms (keys 'cavity.modes', 'molecule.gap_ev')"),
    (["cavity", "--cavity.modes", "0.1", "--cavity.modes_detailed", _detailed(4),
      "--molecule.gap_ev", "2,3"],
     ["cavity", "--cavity.modes", "0.1", "--cavity.modes_detailed", _detailed(3),
      "--molecule.gap_ev", "2,3,4"],
     "mode sum has more than 8 terms (keys 'cavity.modes_detailed', 'molecule.gap_ev')"),
    (["debye", "--cavity.modes", "0.1,0.2", "--sweep.n_list", "1,2,3,4"],
     ["debye", "--cavity.modes", "0.1,0.2,0.3", "--sweep.n_list", "1,2,3"],
     "mode sums have more than 8 terms (keys 'cavity.modes', 'sweep.n_list')"),
    (["debye", "--cavity.modes", "0.1", "--cavity.modes_detailed", _detailed(2),
      "--sweep.n_list", "1,2,3,4"],
     ["debye", "--cavity.modes", "0.1", "--cavity.modes_detailed", _detailed(3),
      "--sweep.n_list", "1,2,3"],
     "mode sums have more than 8 terms (keys 'cavity.modes_detailed', 'sweep.n_list')"),
])
def test_parse_config_refuses_a_run_whose_work_exceeds_the_cap(
        at_cap, past_cap, message, monkeypatch):
    # each list is within its own cap; their product, the run's work, has the same cap
    monkeypatch.setattr(config, "MAX_GRID_POINTS", 8)
    parse_config(at_cap)
    with pytest.raises(ConfigError) as err:
        parse_config(past_cap)
    assert str(err.value) == message
    assert err.value.key == tuple(message.split("'")[1::2])


def test_tst_reports_an_over_cap_table_before_a_bad_profile(monkeypatch, capsys):
    # the work refusal is a parse-time check; the profile is built by the runner
    argv = ["tst", "--profile.mass_amu", "-1"]
    assert cli.main(argv) == 2
    assert "'profile.mass_amu'" in capsys.readouterr().err
    monkeypatch.setattr(config, "MAX_GRID_POINTS", 8)
    assert cli.main([*argv, "--sweep.delta_e_mev", "1:1:3"]) == 2
    assert capsys.readouterr().err == f"config error: {_TABLE}\n"


@pytest.mark.parametrize("command", list(config.COMMANDS))
def test_each_commands_work_keys_are_among_its_keys(command):
    _, _, work, refusal = config.COMMANDS[command]
    assert set(work) <= set(parse_config([command]).values)
    assert bool(work) == ("more than {}" in refusal)


@pytest.mark.parametrize("argv,message", [
    ([], "missing command"),
    (["cavity", "0.3"], "unexpected argument '0.3'"),
    (["cavity", "--config", "{missing}"], "cannot read config file"),
])
def test_argv_rejected_before_any_key_is_parsed(argv, message, tmp_path):
    argv = [arg.format(missing=tmp_path / "missing.cfg") for arg in argv]
    with pytest.raises(ConfigError, match=message) as err:
        parse_config(argv)
    assert err.value.key is None


def test_a_long_rejected_value_is_echoed_in_part(capsys):
    # float() and int() repeat a bad item in their own reasons; the value
    # is echoed once, clipped, with a fixed reason that names the item
    word = "x" * 100_000
    for command, key, value, reason in [
        ("selectivity", "sweep.delta_e_mev", ",".join(["1"] * (config.MAX_GRID_POINTS + 1)),
         f"list has more than {config.MAX_GRID_POINTS} values"),
        ("pasteur", "material.kappa", word, "not a number"),
        ("selectivity", "sweep.delta_e_mev", "1,2," + word, "item 3: not a number"),
        ("debye", "sweep.n_list", "1,2," + word, "item 3: not an integer"),
        ("pasteur", "sweep.z_points", word, "not an integer"),
    ]:
        assert cli.main([command, f"--{key}", value]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert len(line) < 300 and line.endswith(f" (key {key!r})")
        assert f"{value[:80]!r}... ({len(value)} characters): {reason} (key" in line
    for short in ("x" * 80, "often"):  # up to 80 characters, the value is echoed whole
        with pytest.raises(ConfigError, match=f"cannot parse value {short!r}:"):
            parse_config(["pasteur", "--material.kappa", short])


def test_equals_form_flags():
    cfg = parse_config(["pasteur", "--material.kappa=0.25"])
    assert cfg["material.kappa"] == 0.25


@pytest.mark.parametrize("joined", [False, True])
def test_config_file_flag_takes_both_forms_and_the_last_wins(joined, tmp_path):
    first, last = tmp_path / "first.cfg", tmp_path / "last.cfg"
    first.write_text("material.kappa = 0.1\n")
    last.write_text("material.kappa = 0.3\n")
    argv = ["pasteur"]
    for path in (first, last):
        argv += [f"--config={path}"] if joined else ["--config", str(path)]
    assert parse_config(argv)["material.kappa"] == 0.3


def test_bad_output_format_rejected():
    with pytest.raises(ConfigError):
        parse_config(["cavity", "--output.format", "yaml"])


def test_raw_echo_reflects_resolution(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("material.kappa = 0.4\n")
    cfg = parse_config(["pasteur", "--config", str(path), "--material.eps_r", "2.0"])
    assert cfg.raw["material.kappa"] == "0.4"
    assert cfg.raw["material.eps_r"] == "2.0"
    assert cfg.raw["material.mu_r"] == "1.0"  # default


# Each command's keys, in the order parse_config resolves them.
_COMMAND_KEYS = {
    "pasteur": ("material.eps_r", "material.mu_r", "material.kappa",
                "molecule.gap_ev", "molecule.im_rot_strength",
                "sweep.z_min", "sweep.z_max", "sweep.z_points", "sweep.z_scale",
                "sweep.z_list", "output.path", "output.format"),
    "cavity": ("cavity.modes", "cavity.veff_nm3", "cavity.chirality_factor",
               "cavity.modes_detailed", "molecule.gap_ev", "molecule.im_rot_strength",
               "thermal.temperature_k", "output.path", "output.format"),
    "debye": ("cavity.modes", "cavity.veff_nm3", "cavity.chirality_factor",
              "cavity.modes_detailed", "ensemble.d00", "ensemble.m00",
              "ensemble.n_molecules", "thermal.temperature_k", "sweep.n_list",
              "output.path", "output.format"),
    "selectivity": ("sweep.delta_e_mev", "thermal.temperatures",
                    "output.path", "output.format"),
    "tst": ("sweep.delta_e_mev", "thermal.temperatures", "profile.barrier_ev",
            "profile.omega_nu_ev", "profile.curvature_b_ev3", "profile.mass_amu",
            "output.path", "output.format"),
    "verify": ("output.path", "output.format"),
}


@pytest.mark.parametrize("command", list(_COMMAND_KEYS))
def test_each_command_resolves_its_keys_in_order(command):
    assert tuple(parse_config([command]).values) == _COMMAND_KEYS[command]


def test_commands_are_the_runners_in_order():
    assert tuple(config.COMMANDS) == tuple(_COMMAND_KEYS)
    assert set(cli._RUNNERS) == set(config.COMMANDS)


_USAGE = """\
usage: chiral-vacuum COMMAND [--config FILE] [--dotted.key value ...]

commands:
  pasteur      distance sweep of the half-space chiral shift
  cavity       per-mode and total London shifts with thermal ratios
               refused if its mode sum has more than 1000000 terms (cavity.modes x molecule.gap_ev)
  debye        collective Debye shift of a polarized ensemble
               refused if its mode sums have more than 1000000 terms (cavity.modes x sweep.n_list)
  selectivity  chirality-selective rate over shift and temperature grids
               refused if its table has more than 1000000 rows (sweep.delta_e_mev x thermal.temperatures)
  tst          selectivity with the transition-state zero-point correction
               refused if its table has more than 1000000 rows (sweep.delta_e_mev x thermal.temperatures)
  verify       run the built-in acceptance suite

keys (defaults in parentheses):
  --cavity.chirality_factor ('-0.5'): e_k.(e_R x e_I); -1/2 left-handed circular
  --cavity.modes ('0.1:0.1:1.0'): mode frequencies in eV (start:step:stop or list)
  --cavity.modes_detailed (''): per-mode override, JSON list of {"omega_ev","veff_nm3","chirality_factor"}
  --cavity.veff_nm3 ('0.2'): effective mode volume in nm^3
  --ensemble.d00 ('0.2,0,0'): permanent electric dipole in e*a0
  --ensemble.m00 ('0,1,0'): permanent magnetic dipole in mu_B
  --ensemble.n_molecules ('100'): ignored: debye takes N from sweep.n_list
  --material.eps_r ('1.0'): relative permittivity
  --material.kappa ('0.0'): Pasteur parameter
  --material.mu_r ('1.0'): relative permeability
  --molecule.gap_ev ('2.0'): transition gaps in eV (comma list)
  --molecule.im_rot_strength ('0.1'): imaginary rotatory strengths in e*a0*mu_B (comma list)
  --output.format ('csv'): output format: csv or json
  --output.path ('-'): output file, - for stdout
  --profile.barrier_ev ('1.0'): barrier height in eV
  --profile.curvature_b_ev3 ('0.0'): curvature perturbation b in eV^3
  --profile.mass_amu ('12.0'): effective mass in amu
  --profile.omega_nu_ev ('0.1'): reactant vibrational quantum in eV
  --sweep.delta_e_mev ('-100:5:100'): energy-shift grid in meV
  --sweep.n_list ('1,10,100'): molecule counts for the collective sweep
  --sweep.z_list (''): explicit z list (overrides min/max)
  --sweep.z_max ('2.0'): sweep end, multiples of z_unit
  --sweep.z_min ('0.1'): sweep start, multiples of z_unit
  --sweep.z_points ('50'): number of sweep points
  --sweep.z_scale ('linear'): z spacing: linear or log
  --thermal.temperature_k ('300'): temperature in K
  --thermal.temperatures ('200,300,400'): temperature list in K for sweeps
"""


def test_help_text_is_pinned(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out == _USAGE
