import pytest

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


def test_mismatched_molecule_lists_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(["cavity", "--molecule.gap_ev", "2.0,3.0"])
    assert "molecule.im_rot_strength" in str(err.value)


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
