"""Runner-level behavior: records, plans, persistence, verify battery."""

from __future__ import annotations

import ast
import dataclasses
import json

import pytest

from adiabatic_continuum import (
    ANGLE_SCHEDULES,
    DISPERSION_FAMILIES,
    ROTATION_BUILDERS,
    ConfigError,
    load_config,
)
from adiabatic_continuum.runner import (
    COMMANDS,
    cmd_bands,
    cmd_criterion,
    cmd_simulate,
    cmd_sweep,
    cmd_verify,
    write_outputs,
)
from adiabatic_continuum.verify import _CHECKS, CHECK_NAMES

from conftest import SRC


@pytest.fixture
def fast_config(write_config, tmp_path):
    def _load(overrides=None):
        merged = {"output": {"directory": str(tmp_path / "out")}}
        for section, keys in (overrides or {}).items():
            if section in merged and keys is not None:
                merged[section].update(keys)
            else:
                merged[section] = keys
        return load_config(write_config(merged))

    return _load


def _plain(value) -> bool:
    """True when value is built only from dict, list, str, int, float, bool and None."""
    if isinstance(value, dict):
        return all(isinstance(k, str) and _plain(v) for k, v in value.items())
    if isinstance(value, list):
        return all(_plain(v) for v in value)
    return value is None or type(value) in (str, int, float, bool)


@pytest.mark.parametrize(
    "command, run",
    [
        ("simulate", {"T": "20.0", "steps": "512"}),
        ("sweep", {"T": None, "T_list": "20, 30, 40", "steps": "256"}),
        ("criterion", {}),
        ("bands", {}),
        ("verify", {"steps": "10"}),  # a failing battery: its rows carry both verdicts
    ],
)
def test_every_record_is_plain_json(fast_config, command, run):
    # records go to json.dumps as they are: no numpy scalar, tuple or other type may hide in them
    cfg = fast_config({"run": run})
    _, record, _, _ = COMMANDS[command](cfg)
    assert _plain(record)
    assert json.loads(json.dumps(record)) == record
    assert (record["command"], record["config_hash"], record["resolved_config"]) == (
        command, cfg.config_hash, cfg.resolved
    )
    assert ("timestamp" in record) == (command == "simulate")


def test_simulate_record_shape(fast_config):
    cfg = fast_config({"run": {"T": "20.0", "steps": "512"}})
    code, record, csv_text, lines = cmd_simulate(cfg)
    assert code == 0
    assert csv_text is None
    assert record["command"] == "simulate"
    assert record["config_hash"] == cfg.config_hash
    assert "timestamp" in record
    assert record["resolved_config"] == cfg.resolved
    assert set(record["leakage"]) == {"T", "j0", "band", "eta_exact", "eta_first_order", "w_deviation"}
    assert record["leakage"]["eta_exact"] >= 0.0
    diag = record["diagnostics"]
    assert diag["propagator_steps"]["used"] == 512
    assert diag["propagator_steps"]["required"] == 102
    assert diag["unitarity"]["U"] < 1e-9
    json.dumps(record)  # every value already a plain Python scalar
    assert any(line.startswith("eta_exact") for line in lines)


def test_sweep_record_is_timestamp_free(fast_config):
    cfg = fast_config({"run": {"T": None, "T_list": "20, 30, 40", "steps": "256"}})
    code, record, csv_text, lines = cmd_sweep(cfg)
    assert code == 0
    assert "timestamp" not in record
    assert [row["T"] for row in record["rows"]] == [20.0, 30.0, 40.0]
    header, *rows = csv_text.strip().split("\n")
    assert header == "T,eta_exact,eta_first_order,w_deviation"
    assert len(rows) == 3
    assert rows[0].startswith("20,")
    assert {"slope", "intercept", "r_squared", "excluded"} == set(record["fit"])
    json.dumps(record)


def test_sweep_rejects_margin_violation(fast_config):
    cfg = fast_config(
        {"run": {"T": None, "T_list": "20, 30, 40", "steps": "256"},
         "analysis": {"margin": "100.0"}}
    )
    with pytest.raises(ConfigError, match="margin"):
        cmd_sweep(cfg)


def test_criterion_exit_codes(fast_config):
    code, record, _, _ = cmd_criterion(fast_config())
    assert code == 4
    assert record["criterion"]["satisfied"] is False
    code_ok, record_ok, _, _ = cmd_criterion(fast_config({"analysis": {"threshold": "19.0"}}))
    assert code_ok == 0
    assert record_ok["criterion"]["satisfied"] is True


def test_criterion_coupling_maximum_ignores_s_samples():
    # smoothstep's theta' vanishes at s = 0 and 1 and peaks at s = 1/2: two
    # uniform samples would see a zero coupling, the exact maximum is
    # 1.5 * theta_max, and s_samples changes nothing but the resolved config
    records = []
    for s_samples in ("2", "129"):
        overrides = {("rotation", "schedule"): "smoothstep", ("analysis", "s_samples"): s_samples}
        code, record, _, _ = cmd_criterion(load_config(SRC.parent / "configs" / "default.cfg", overrides))
        assert code == 4
        assert record["criterion"]["max_coupling"] == 0.6000000000000001
        assert record.pop("resolved_config")["analysis"]["s_samples"] == int(s_samples)
        record.pop("config_hash")
        records.append(record)
    assert records[0] == records[1]


def test_sweep_accepts_the_exact_gap_margin():
    # gap*T = 1 = margin at T = 15: the sweep takes the duration that
    # bands reports as minimal_T, under the same rule
    overrides = {("run", "T_list"): "15, 30, 60"}
    code, record, _, _ = cmd_sweep(load_config(SRC.parent / "configs" / "sweep.cfg", overrides))
    assert code == 0
    assert [row["T"] for row in record["rows"]] == [15.0, 30.0, 60.0]


def test_bands_plan_selects_smallest_feasible(fast_config):
    cfg = fast_config({"run": {"T": "1500.0"}, "analysis": {"margin": "100.0"}})
    code, record, _, lines = cmd_bands(cfg)
    assert code == 0
    plan = record["plan"]
    assert plan["selected_m"] == 1
    assert plan["target_T"] == 1500.0
    assert len(plan["candidates"]) == 16
    assert plan["candidates"][0]["minimal_T"] == pytest.approx(1500.0)
    # band sizes that collapse to a single band carry no gap data
    assert plan["candidates"][-1]["virtual_gap"] is None
    assert any("smallest feasible" in line for line in lines)


def test_bands_plan_infeasible(fast_config):
    cfg = fast_config({"run": {"T": "15.0"}, "analysis": {"margin": "100.0"}})
    code, record, _, _ = cmd_bands(cfg)
    assert code == 6
    assert record["plan"]["selected_m"] is None
    assert 0.0 < record["plan"]["best_margin_ratio"] < 1.0


def test_bands_plan_uses_shortest_duration(fast_config):
    cfg = fast_config({"run": {"T": None, "T_list": "20, 1500, 3000", "steps": "256"}})
    code, record, _, _ = cmd_bands(cfg)
    assert record["plan"]["target_T"] == 20.0


def test_verify_passes_on_default(fast_config):
    cfg = fast_config({"run": {"steps": "1024"}})
    code, record, _, lines = cmd_verify(cfg)
    assert code == 0
    assert record["all_passed"] is True
    assert [row["name"] for row in record["checks"]] == list(CHECK_NAMES)
    assert all(row["passed"] for row in record["checks"])
    assert any(line.startswith("[PASS] projector_algebra") for line in lines)
    assert any("window" in note for note in record["annotations"])


def test_verify_passes_with_the_cf4_scheme(fast_config):
    # the CF4 propagator and stepped CF4 transport stay unitary to near
    # roundoff at 1024 steps; the bound was fixed before measuring
    cfg = fast_config({"run": {"steps": "1024", "scheme": "fourth_order_commutator_free"}})
    code, record, _, _ = cmd_verify(cfg)
    assert code == 0
    assert record["all_passed"] is True
    rows = {row["name"]: row for row in record["checks"]}
    assert "fourth_order_commutator_free" in rows["intertwining"]["detail"]
    assert rows["unitarity"]["measured"] < 1e-13


def test_verify_sabotage_names_intertwining(fast_config):
    cfg = fast_config({"run": {"steps": "10"}})
    code, record, _, lines = cmd_verify(cfg)
    assert code == 1
    failed = {row["name"] for row in record["checks"] if not row["passed"]}
    assert "intertwining" in failed
    assert any(line.startswith("[FAIL] intertwining") for line in lines)


def test_verify_isolates_crashed_checks(fast_config):
    # steps below the propagator budget: unitarity and frozen_frame crash,
    # projector algebra still reports on its own
    cfg = fast_config({"run": {"steps": "10"}})
    _, record, _, _ = cmd_verify(cfg)
    rows = {row["name"]: row for row in record["checks"]}
    assert rows["projector_algebra"]["passed"]
    assert not rows["unitarity"]["passed"]
    assert "StepBudgetError" in rows["unitarity"]["detail"]


def test_verify_frozen_annotation(fast_config):
    cfg = fast_config({"rotation": {"theta_max": "0.0"}, "run": {"steps": "1024"}})
    code, record, _, _ = cmd_verify(cfg)
    assert code == 0
    assert any("theta_max = 0" in note for note in record["annotations"])


@pytest.mark.parametrize("m, single", [(8, False), (9, True), (16, True)])
def test_verify_single_band_annotation(fast_config, m, single):
    # the last band absorbs the remainder, so every m > N/2 leaves one band
    cfg = fast_config({"bands": {"m": str(m)}, "run": {"steps": "1024"}})
    _, record, _, _ = cmd_verify(cfg)
    notes = record["annotations"]
    assert any("single band covers the grid" in note for note in notes) == single


def test_simulate_and_verify_store_no_family(fast_config, monkeypatch):
    # both stream their families chunk by chunk; a stored family would be a
    # UnitaryFamily of steps+1 matrices
    from adiabatic_continuum import UnitaryFamily

    built = []
    original = UnitaryFamily.__post_init__

    def recorder(self):
        built.append((self.kind, len(self.s_nodes)))
        original(self)

    monkeypatch.setattr(UnitaryFamily, "__post_init__", recorder)
    cfg = fast_config({"run": {"T": "20.0", "steps": "512"}})
    assert cmd_simulate(cfg)[0] == 0
    assert cmd_verify(cfg)[0] == 0
    assert built == []


def test_verify_streamed_checks_equal_stored_families(fast_config):
    # the frozen-frame and intertwining checks stream their families; they
    # must measure what the stored families give
    import numpy as np

    from adiabatic_continuum import (
        PropagationConfig,
        evolve_intertwiner,
        evolve_propagator,
        intertwine_residual,
        kato_state,
        phase_family,
    )

    cfg = fast_config({"run": {"steps": "1024"}})
    rows = {row["name"]: row for row in cmd_verify(cfg)[1]["checks"]}
    fmodel = dataclasses.replace(cfg, theta_max=0.0).build_model()
    u = evolve_propagator(fmodel, PropagationConfig(cfg.duration, 1024))
    phi = phase_family(fmodel, cfg.duration, 1024)
    assert rows["frozen_frame"]["measured"] == float(np.abs(u.matrices - phi.matrices).max())
    a = evolve_intertwiner(cfg.build_model(), kato_state(), 1024)
    expected = intertwine_residual(a, cfg.build_model(), cfg.build_partition())
    assert rows["intertwining"]["measured"] == expected


def test_write_outputs_respects_formats(fast_config, tmp_path):
    cfg = fast_config({"run": {"T": "20.0", "steps": "512"}})
    _, record, _, _ = cmd_simulate(cfg)
    out = write_outputs(cfg, record)
    assert (out / "report.json").is_file()
    assert (out / "resolved_config.json").is_file()
    assert not (out / "sweep.csv").exists()
    assert not list(out.glob("*.tmp"))
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk["leakage"]["eta_exact"] == record["leakage"]["eta_exact"]

    cfg_json_only = dataclasses.replace(cfg, formats=("json",))
    out2 = write_outputs(cfg_json_only, record, "T,eta\n")
    assert not (out2 / "sweep.csv").exists()
    cfg_csv = dataclasses.replace(cfg, formats=("csv",))
    write_outputs(cfg_csv, record, "T,eta\n")
    assert (out2 / "sweep.csv").read_text() == "T,eta\n"


def test_record_numbers_equal_library_results(fast_config):
    # CLI/API equivalence: the persisted record holds exactly the numbers
    # the library produces for the same inputs
    from adiabatic_continuum import (
        BandPartition,
        PropagationConfig,
        final_propagator,
        leakage_exact,
    )

    cfg = fast_config({"run": {"T": "20.0", "steps": "512"}})
    _, record, _, _ = cmd_simulate(cfg)
    model = cfg.build_model()
    part = BandPartition(16, 2)
    u1 = final_propagator(model, PropagationConfig(20.0, 512))
    eta = leakage_exact(model, u1, part, 1)
    assert record["leakage"]["eta_exact"] == eta


def test_verify_by_parts_passes_on_a_kinked_profile():
    # the tabulated profile has kinks at s = 1/3 and 2/3, inside midpoint
    # steps at the shipped 4000; the default switched to it must pass the
    # by-parts check, and the frozen-frame check, whose midpoint phases are
    # exact increments of the profile's integral even on a step with a kink
    overrides = {
        ("dispersion", "family"): "tabulated",
        ("dispersion", "params"): "1.0, 1.3, 1.9, 2.0",
        ("rotation", "schedule"): "smoothstep",
    }
    cfg = load_config(SRC.parent / "configs" / "default.cfg", overrides)
    for check in ("by_parts", "frozen_frame"):
        row = dict(_CHECKS)[check](cfg, cfg.build_model(), cfg.build_partition())
        assert row["passed"], row
        assert row["measured"] <= row["tolerance"]


@pytest.mark.xfail(strict=True, reason="CF4 stages read the profile at the Gauss nodes, across its kinks")
def test_verify_frozen_frame_passes_on_a_kinked_profile_with_cf4():
    # the kinks at s = 1/3 and 2/3 fall inside CF4 steps at the shipped
    # 4000 steps; today max|U - Phi| reads 6.13e-08 against 1e-10.  The
    # mend must hold at this step count, so remove the marker with it
    overrides = {
        ("dispersion", "family"): "tabulated",
        ("dispersion", "params"): "1.0, 1.3, 1.9, 2.0",
        ("rotation", "schedule"): "smoothstep",
        ("run", "scheme"): "fourth_order_commutator_free",
        ("run", "steps"): "4000",
    }
    cfg = load_config(SRC.parent / "configs" / "default.cfg", overrides)
    row = dict(_CHECKS)["frozen_frame"](cfg, cfg.build_model(), cfg.build_partition())
    assert row["passed"], row


def test_verify_by_parts_takes_the_longest_duration_of_a_sweep():
    # as unitarity and frozen_frame do: the largest T has the fastest phases
    cfg = load_config(SRC.parent / "configs" / "sweep.cfg")
    row = dict(_CHECKS)["by_parts"](cfg, cfg.build_model(), cfg.build_partition())
    assert row["passed"], row
    assert "at T=800;" in row["detail"]


def test_pipeline_modules_import_no_private_sibling_name():
    # analysis, runner, verify and config reach their sibling modules only
    # through public names, so a private helper stays its module's own
    offenders = []
    for name in ("analysis", "runner", "verify", "config"):
        tree = ast.parse((SRC / "adiabatic_continuum" / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert offenders == []


def test_no_module_compares_against_a_declared_name():
    # each angle schedule, dispersion family and rotation builder is declared
    # once in spectral; code reads that declaration instead of testing the name
    names = {*ANGLE_SCHEDULES, *DISPERSION_FAMILIES, *ROTATION_BUILDERS}
    offenders = []
    for path in sorted((SRC / "adiabatic_continuum").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            items = [e for o in operands for e in (o.elts if isinstance(o, (ast.Tuple, ast.List, ast.Set)) else [o])]
            if any(isinstance(e, ast.Constant) and e.value in names for e in items):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_propagation_names_the_stored_families():
    # the stored node families serve the tests and the benchmark's span hooks;
    # every other module reads the streamed or s=1 forms, so deleting the
    # family layer touches propagation and the package's re-export alone
    names = {
        "UnitaryFamily", "evolve_propagator", "evolve_intertwiner", "phase_family",
        "phase_operator", "wave_operator", "intertwine_residual",
    }
    offenders = []
    for path in sorted((SRC / "adiabatic_continuum").glob("*.py")):
        if path.name in ("propagation.py", "__init__.py"):
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            # a Name's id, an Attribute's attr, an import alias's or a def's name
            found = {getattr(node, key, None) for key in ("id", "attr", "name")} & names
            offenders += [f"{path.name}: {name}" for name in sorted(found)]
    assert offenders == []
