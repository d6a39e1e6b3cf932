"""Configuration parsing: defaults, validation, and line-numbered errors."""

import pytest

from modwave import ConfigError, load_config, parse_config


def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg.params.lam == 1
    assert cfg.params.delta == 0.2
    assert cfg.params.alpha == 0.1
    assert cfg.params.eps0 == 0.05
    assert cfg.params.T == 10.0
    assert cfg.params.t_max == 1000.0
    assert cfg.params.grid.num_points == 4096
    assert cfg.params.grid.box_length == 200.0
    assert cfg.params.time_grid_points == 129
    assert cfg.data_kind == "gaussian"
    assert cfg.seed == 0
    assert cfg.bandwidth == 1.0
    assert cfg.tol == 1e-9
    assert cfg.max_iter == 15
    assert cfg.fit_window == (10.0, 1000.0)
    assert cfg.eps0_values == (0.05, 0.025)
    assert cfg.T_values == (10.0, 20.0)


def test_full_config_parsed():
    text = """
    # experiment setup
    lam = -1
    eps0 = 0.02   # small data
    T = 20
    t_max = 5000
    num_points = 1024
    box_length = 400
    data_kind = bump
    seed = 7
    bandwidth = 0.5
    fit_t_min = 50
    fit_t_max = 2000
    eps0_values = 0.05, 0.025, 0.0125
    """
    cfg = parse_config(text)
    assert cfg.params.lam == -1
    assert cfg.params.eps0 == 0.02
    assert cfg.params.T == 20.0
    assert cfg.params.grid.num_points == 1024
    assert cfg.data_kind == "bump"
    assert cfg.seed == 7
    assert cfg.bandwidth == 0.5
    assert cfg.fit_window == (50.0, 2000.0)
    assert cfg.eps0_values == (0.05, 0.025, 0.0125)


def test_unknown_key_has_line_number():
    with pytest.raises(ConfigError, match="line 2.*unknown key"):
        parse_config("lam = 1\nepsilon = 0.1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="line 2.*duplicate"):
        parse_config("lam = 1\nlam = -1\n")


def test_unparsable_value_has_line_number():
    with pytest.raises(ConfigError, match="line 1.*cannot parse"):
        parse_config("eps0 = small\n")


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match="line 1.*key = value"):
        parse_config("just some words\n")


def test_constraint_violations_become_config_errors():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config("alpha = 0.3\n")
    with pytest.raises(ConfigError, match="power of two"):
        parse_config("num_points = 1000\n")
    with pytest.raises(ConfigError, match="t_max"):
        parse_config("t_max = 50\n")


def test_fit_window_must_lie_inside_horizon():
    with pytest.raises(ConfigError, match="fit window"):
        parse_config("fit_t_min = 5\n")
    with pytest.raises(ConfigError, match="fit window"):
        parse_config("fit_t_max = 5000\n")


def test_bad_data_kind():
    with pytest.raises(ConfigError, match="data_kind"):
        parse_config("data_kind = soliton\n")


def test_bad_tol_and_max_iter():
    with pytest.raises(ConfigError, match="tol"):
        parse_config("tol = 0\n")
    with pytest.raises(ConfigError, match="max_iter"):
        parse_config("max_iter = 0\n")


@pytest.mark.parametrize("text, key", [
    ("eps0 = nan\n", "eps0"),
    ("tol = nan\n", "tol"),
    ("t_max = inf\n", "t_max"),
    ("T_values = 10, nan\n", "T_values"),
    ("eps0_values = 0.05, inf\n", "eps0_values"),
], ids=["eps0-nan", "tol-nan", "t_max-inf", "T_values-nan", "eps0_values-inf"])
def test_non_finite_value_rejected(text, key):
    with pytest.raises(ConfigError, match=f"line 1: cannot parse {key} = .*not a finite number"):
        parse_config(text)


def test_empty_list_rejected():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("eps0_values = ,\n")


@pytest.mark.parametrize("text, match", [
    ("T_values = 10, 1.0\n", r"T_values: T must be at least 2, got 1\.0"),
    ("eps0_values = -0.05\n", r"eps0_values x T_values: eps0 must be nonnegative, got -0\.05"),
], ids=["T", "eps0"])
def test_invalid_sweep_cell_rejected(text, match):
    # the sweep builds these cells only after parsing; refuse them at parse time
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


@pytest.mark.parametrize("text, match", [
    ("bandwidth = 0\n", "bandwidth = 0.0: bandwidth must be positive"),
    ("bandwidth = -1\n", "bandwidth = -1.0: bandwidth must be positive"),
    ("bandwidth = 20\n", "bandwidth = 20.0: final-data band .* does not fit"),
    ("num_points = 64\nbox_length = 1000\nbandwidth = 0.2\n", "bandwidth = 0.2: .*does not fit"),
], ids=["zero", "negative", "too-wide", "coarse-grid"])
def test_invalid_bandwidth_rejected(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


def test_sweep_params_are_the_cells():
    cfg = parse_config("t_max = 150\nT_values = 10, 20\neps0_values = 0.05\n")
    cells = cfg.sweep_params()
    assert [(p.eps0, p.T, p.lam, p.t_max) for p in cells] == [
        (0.05, 10.0, 1, 150.0), (0.05, 10.0, -1, 150.0),
        (0.05, 20.0, 1, 200.0), (0.05, 20.0, -1, 200.0),
    ]


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("eps0 = 0.01\nseed = 3\n")
    cfg = load_config(path)
    assert cfg.params.eps0 == 0.01
    assert cfg.seed == 3
