"""Config parsing: strictness, defaults, hashing, overrides."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from adiabatic_continuum import ConfigError, load_config

from conftest import DEFAULT_CFG_TEXT, SRC, run_cli


EXPECTED_RESOLVED = {
    "grid": {"k_min": 1.0, "k_max": 2.0, "N": 16},
    "dispersion": {"family": "linear", "params": [1.0, 1.0]},
    "rotation": {"builder": "nearest_neighbor", "theta_max": 0.4, "schedule": "cubic_ramp"},
    "bands": {"m": 2},
    "run": {"steps": 4000, "scheme": "midpoint_exponential", "variant": "kato_state", "T": 100.0},
    "analysis": {"j0": 1, "s_samples": 129, "margin": 1.0, "threshold": 0.1},
    "output": {"directory": "out", "formats": ["json", "csv"]},
}


def test_default_config_resolves_exactly(write_config):
    cfg = load_config(write_config())
    assert cfg.resolved == EXPECTED_RESOLVED
    assert len(cfg.config_hash) == 64
    int(cfg.config_hash, 16)


def test_empty_sections_materialize_defaults(tmp_path):
    path = tmp_path / "minimal.cfg"
    path.write_text(
        "[grid]\n[dispersion]\n[rotation]\n[bands]\n[run]\n[analysis]\n[output]\n"
    )
    cfg = load_config(path)
    resolved = dict(EXPECTED_RESOLVED)
    resolved["analysis"] = {"j0": 1, "s_samples": 129, "margin": 100.0, "threshold": 0.1}
    assert cfg.resolved == resolved


def test_hash_ignores_formatting_but_not_values(write_config, tmp_path):
    base = load_config(write_config())
    # same values, different file layout: reorder sections and add comments
    lines = DEFAULT_CFG_TEXT.splitlines()
    head = "\n".join(lines[lines.index("[bands]") :])
    tail = "\n".join(lines[: lines.index("[bands]")])
    shuffled = tmp_path / "shuffled.cfg"
    shuffled.write_text("# reordered\n" + head + "\n" + tail + "\n")
    assert load_config(shuffled).config_hash == base.config_hash

    other = load_config(write_config({"run": {"steps": 4001}}))
    assert other.config_hash != base.config_hash


def test_missing_section_named(write_config):
    for section in ("grid", "output"):
        with pytest.raises(ConfigError, match=section):
            load_config(write_config({section: None}))


@pytest.mark.parametrize(
    "section, override",
    [
        ("run", {("run", "steps"): "100"}),
        ("analysis", {("analysis", "threshold"): "0.2"}),
        ("output", {("output", "directory"): "elsewhere"}),
    ],
)
def test_override_does_not_stand_in_for_a_missing_section(write_config, section, override):
    with pytest.raises(ConfigError, match=rf"missing section \[{section}\]"):
        load_config(write_config({section: None}), override)


def test_cli_override_into_a_missing_section_exits_2(write_config):
    proc = run_cli("simulate", "--config", str(write_config({"run": None})), "--steps", "100")
    assert proc.returncode == 2
    assert "missing section [run]" in proc.stderr


def test_unknown_section_and_key_rejected(write_config):
    with pytest.raises(ConfigError, match="extra"):
        load_config(write_config({"extra": {"x": 1}}))
    with pytest.raises(ConfigError, match="spacing"):
        load_config(write_config({"grid": {"spacing": 0.1}}))


def _exactly(message: str) -> str:
    return f"^{re.escape(message)}$"


@pytest.mark.parametrize(
    "overrides, needle",
    [
        ({"grid": {"N": "abc"}}, "integer"),
        ({"grid": {"N": "1"}}, "N >= 2"),
        ({"grid": {"k_max": "0.5"}}, "k_max"),
        ({"grid": {"k_min": "nan"}}, "finite"),
        ({"bands": {"m": "17"}}, "m"),
        ({"run": {"T_list": "50, 100"}}, "not both"),
        ({"run": {"T": "-5"}}, ">= 0"),
        ({"run": {"steps": "0"}}, "steps"),
        ({"run": {"scheme": "euler"}}, "euler"),
        ({"run": {"variant": "other"}}, "other"),
        ({"dispersion": {"family": "cubic"}}, "cubic"),
        ({"dispersion": {"params": "1.0"}}, "2 params"),
        ({"rotation": {"builder": "dense"}}, "dense"),
        ({"rotation": {"width": "1"}}, "width"),
        ({"rotation": {"builder": "random_banded", "width": "2"}}, "seed"),
        ({"rotation": {"seed": "7"}}, "seed"),
        ({"analysis": {"j0": "16"}}, "j0"),
        ({"analysis": {"s_samples": "1"}}, "s_samples"),
        ({"analysis": {"margin": "0"}}, "margin"),
        ({"analysis": {"threshold": "-0.1"}}, "threshold"),
        ({"output": {"formats": "yaml"}}, "yaml"),
        ({"output": {"directory": ""}}, "directory"),
        ({"rotation": {"builder": "banded", "width": "16"}}, "width must be in"),
        ({"run": {"T": None, "T_list": "50, -1, 100"}}, ">= 0"),
        ({"dispersion": {"params": ""}}, "empty list"),
        ({"output": {"formats": ","}}, "at least one"),
        ({"dispersion": {"family": "tabulated", "params": "1.0"}}, "at least 2"),
        ({"rotation": {"builder": "random_banded", "seed": "x"}}, "integer"),
        ({"rotation": {"theta_max": "inf"}}, "finite"),
        # the messages read from the family and builder declarations, in full
        ({"dispersion": {"params": "1.0"}}, _exactly("[dispersion] linear family takes 2 params, got 1")),
        ({"dispersion": {"family": "tabulated", "params": "1.0"}},
         _exactly("[dispersion] tabulated family needs at least 2 params")),
        ({"rotation": {"builder": "banded", "width": "16"}},
         _exactly("[rotation] width must be in [1, N-1], got 16")),
        ({"rotation": {"width": "1"}}, _exactly("[rotation] width only applies to the banded builders")),
        ({"rotation": {"builder": "random_banded"}}, _exactly("[rotation] random_banded builder needs a seed")),
        ({"rotation": {"seed": "7"}}, _exactly("[rotation] seed only applies to the random_banded builder")),
        ({"dispersion": {"family": "cubic"}},
         _exactly("[dispersion] family = 'cubic' is not one of linear, quadratic, tabulated")),
        ({"rotation": {"builder": "dense"}},
         _exactly("[rotation] builder = 'dense' is not one of nearest_neighbor, banded, random_banded")),
        ({"rotation": {"schedule": "quartic"}},
         _exactly("[rotation] schedule = 'quartic' is not one of cubic_ramp, quadratic_ramp, smoothstep, linear_ramp")),
        # an empty entry next to non-empty ones is a fault, not skipped
        ({"dispersion": {"params": "1.0,,1.3, 2.0"}},
         _exactly("[dispersion] params = '1.0,,1.3, 2.0' has an empty entry")),
        ({"run": {"T": None, "T_list": "50, , 100, 200,"}},
         _exactly("[run] T_list = '50, , 100, 200,' has an empty entry")),
        ({"output": {"formats": "json,,csv"}}, _exactly("[output] formats = 'json,,csv' has an empty entry")),
    ],
)
def test_validation_messages_name_the_constraint(write_config, overrides, needle):
    with pytest.raises(ConfigError, match=needle):
        load_config(write_config(overrides))


def test_t_list_rules(write_config):
    path = write_config({"run": {"T": None, "T_list": "50, 100, 200"}})
    cfg = load_config(path)
    assert cfg.duration is None
    assert cfg.duration_list == (50.0, 100.0, 200.0)
    assert cfg.sweep_durations() == (50.0, 100.0, 200.0)
    assert cfg.planning_duration() == 50.0
    with pytest.raises(ConfigError):
        cfg.scalar_duration()

    with pytest.raises(ConfigError, match="distinct"):
        load_config(write_config({"run": {"T": None, "T_list": "50, 50, 100"}}))
    short = load_config(write_config({"run": {"T": None, "T_list": "50, 100"}}))
    with pytest.raises(ConfigError, match="3"):
        short.sweep_durations()


def test_scalar_duration_rules(write_config):
    cfg = load_config(write_config())
    assert cfg.scalar_duration() == 100.0
    assert cfg.planning_duration() == 100.0
    with pytest.raises(ConfigError):
        cfg.sweep_durations()


def test_overrides_change_resolution(write_config):
    path = write_config()
    base = load_config(path)
    cfg = load_config(
        path,
        {("run", "steps"): "512", ("analysis", "threshold"): "0.2", ("output", "directory"): "elsewhere"},
    )
    assert cfg.steps == 512
    assert cfg.threshold == 0.2
    assert cfg.out_dir == "elsewhere"
    assert cfg.config_hash != base.config_hash


def test_random_banded_builder_round_trip(write_config):
    path = write_config(
        {"rotation": {"builder": "random_banded", "width": "2", "seed": "99"}}
    )
    cfg = load_config(path)
    assert cfg.resolved["rotation"]["seed"] == 99
    assert cfg.resolved["rotation"]["width"] == 2
    g1 = cfg.build_model().rotation.generator
    g2 = load_config(path).build_model().rotation.generator
    assert np.array_equal(g1, g2)


def test_inline_comments_allowed(write_config, tmp_path):
    text = DEFAULT_CFG_TEXT.replace("N = 16", "N = 16  # grid labels")
    path = tmp_path / "c.cfg"
    path.write_text(text)
    assert load_config(path).grid_size == 16


def test_parse_failures(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.cfg")
    bad = tmp_path / "bad.cfg"
    bad.write_text("k_min = 1.0\n[grid]\n")
    with pytest.raises(ConfigError, match="parse"):
        load_config(bad)


def test_resolved_is_json_stable(write_config):
    cfg = load_config(write_config())
    text1 = json.dumps(cfg.resolved, sort_keys=True)
    text2 = json.dumps(load_config(write_config()).resolved, sort_keys=True)
    assert text1 == text2


def _ini_text(resolved: dict) -> str:
    """`resolved` written back as an experiment file; lists become comma lists."""
    lines = []
    for section, keys in resolved.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            text = ", ".join(map(str, value)) if isinstance(value, list) else str(value)
            lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "source",
    [
        SRC.parent / "configs" / "default.cfg",
        SRC.parent / "configs" / "sweep.cfg",
        {
            "rotation": {"builder": "random_banded", "width": "3", "seed": "11"},
            "dispersion": {"family": "tabulated", "params": "1.0, 1.25, 0.75, 1.5"},
        },
    ],
    ids=["default", "sweep", "random_banded_tabulated"],
)
def test_resolved_round_trips_through_an_experiment_file(write_config, tmp_path, source):
    cfg = load_config(source if isinstance(source, Path) else write_config(source))
    echo = tmp_path / "echo.cfg"
    echo.write_text(_ini_text(cfg.resolved))
    again = load_config(echo)
    assert again.config_hash == cfg.config_hash
    assert again == cfg
