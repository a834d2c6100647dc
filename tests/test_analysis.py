"""Transition integrals, leakage measures, criterion, and fits."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from adiabatic_continuum import (
    CF4,
    MIDPOINT,
    AnalysisError,
    AngleSchedule,
    BandPartition,
    ConfigError,
    CrossingError,
    HBAR,
    NoExteriorError,
    SCHEMES,
    PropagationConfig,
    StepBudgetError,
    adiabatic_criterion,
    final_propagator,
    final_propagators,
    final_stage,
    fit_power_law,
    kato_state,
    leakage_exact,
    leakage_first_order,
    leakage_wave_form,
    load_config,
    planned_substeps,
    quadratic_dispersion,
    UnitaryFamily,
    intertwine_residual,
    sweep_leakage,
    tabulated_dispersion,
    transition_integral,
    transition_integral_parts,
    weyl_band,
)
from adiabatic_continuum.analysis import leakage_reports
from adiabatic_continuum.bands import check_gap_margin, minimal_time, virtual_gap
from adiabatic_continuum.propagation import _unitarity_defect
from adiabatic_continuum.runner import cmd_simulate

from conftest import J0, SRC, THETA_MAX, constant_rate_model, make_model, stored_families


# ---- coupling and substep planning ------------------------------------------


def test_coupling_closed_form(default_model):
    # theta'(s) * G[1, 2] with G[1, 2] = +1
    def coupling(j0, j):
        return complex(default_model.frame_coupling_profile(j0, j, 0.5)[0])

    assert coupling(1, 2) == pytest.approx(1.2 * 0.25, rel=1e-12)
    assert coupling(2, 1) == pytest.approx(-1.2 * 0.25, rel=1e-12)
    # structurally uncoupled pair: zero up to eigensolver roundoff
    assert abs(coupling(1, 5)) < 1e-15


def test_planned_substeps_default(default_model, default_part):
    # the only coupled exterior pair is (1, 2): max |dE| = 1 spacing * 2 =
    # 2/15 at s=1, so T=100 needs ceil(13.33) = 14 panels of 20 nodes and
    # T=20 needs ceil(2.67) = 3; both use the 64-panel floor
    assert planned_substeps(default_model, default_part, 1, 100.0) == (280, 1280)
    assert planned_substeps(default_model, default_part, 1, 20.0) == (60, 1280)


def test_planned_substeps_without_coupled_pairs():
    # the nearest-neighbour generator couples j0 = 1 only to 0 and 2; with
    # bands of 3 both share its band, so no exterior pair is integrated
    model = make_model(n=6)
    assert planned_substeps(model, BandPartition(6, 3), 1, 100.0) == (0, 0)


# ---- transition integral ------------------------------------------------------


def test_masked_and_silent_pairs_are_exactly_zero(default_model, default_part):
    wb = weyl_band(default_part)
    assert transition_integral(default_model, wb, 0, 1, 200.0) == 0.0 + 0.0j
    assert transition_integral(default_model, kato_state(), 1, 5, 200.0) == 0.0 + 0.0j
    for variant, j in ((wb, 0), (kato_state(), 5)):
        parts = transition_integral_parts(default_model, variant, 1, j, 200.0)
        assert (parts.total, parts.boundary, parts.tail, parts.bound) == (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("duration", [100.0, 800.0])
@pytest.mark.parametrize("j", [J0 - 1, J0 + 1])
def test_transition_integral_matches_the_constant_rate_closed_form(j, duration):
    # theta' = theta_max and alpha_j0 - alpha_j = (kappa_j0 - kappa_j) a s, so the
    # integral is i hbar theta_max G[j0, j] (e^{i omega a} - 1) / (i omega a)
    a = 1.5
    model = constant_rate_model(a=a)
    kappa = model.dispersion.kappa(model.grid.nodes)
    omega = duration * (kappa[J0] - kappa[j]) / HBAR
    exact = 1j * HBAR * THETA_MAX * model.rotation.generator[J0, j] * (np.exp(1j * omega * a) - 1) / (1j * omega * a)
    assert abs(transition_integral(model, kato_state(), J0, j, duration) - exact) <= 1e-13 * abs(exact)


def test_transition_integral_leading_order(default_model):
    # boundary term of the by-parts form dominates:
    # |F| ~ hbar * theta'(1) * |G| / (dE(1) * T) = 1.2 / ((2/15) * T)
    f = transition_integral(default_model, kato_state(), 1, 2, 200.0)
    assert abs(f) == pytest.approx(9.0 / 200.0, rel=5e-3)
    f2 = transition_integral(default_model, kato_state(), 1, 2, 400.0)
    assert abs(f2) / abs(f) == pytest.approx(0.5, abs=0.05)


def test_by_parts_agreement(default_model):
    direct = transition_integral(default_model, kato_state(), 1, 2, 100.0)
    parts = transition_integral_parts(default_model, kato_state(), 1, 2, 100.0)
    assert abs(direct - parts.total) < 1e-8
    assert parts.total == pytest.approx(parts.boundary + parts.tail)
    assert abs(parts.boundary) > abs(parts.tail)
    assert parts.bound >= abs(parts.total)


def test_by_parts_probes_schedule_only_inside_interval(monkeypatch):
    # every coupling and coupling derivative comes from the schedule's
    # angle/rate/acceleration; record where they are evaluated
    probed = []
    for name in ("angle", "angle_rate", "angle_accel"):
        original = getattr(AngleSchedule, name)

        def recorder(self, s, _original=original):
            probed.append(np.atleast_1d(np.asarray(s, dtype=float)))
            return _original(self, s)

        monkeypatch.setattr(AngleSchedule, name, recorder)
    model = make_model()
    parts = transition_integral_parts(model, kato_state(), 1, 2, 100.0)
    assert parts.total != 0.0
    points = np.concatenate(probed)
    assert points.min() == 0.0 and points.max() == 1.0


def test_by_parts_bound_scales_inversely_with_duration(default_model):
    # both durations use the floor's panels, so only the hbar/T prefactor differs
    b1 = transition_integral_parts(default_model, kato_state(), 1, 2, 200.0).bound
    b2 = transition_integral_parts(default_model, kato_state(), 1, 2, 400.0).bound
    assert b2 / b1 == pytest.approx(0.5, rel=1e-12)


def test_by_parts_validation(default_model):
    with pytest.raises(ConfigError):
        transition_integral_parts(default_model, kato_state(), 1, 2, 0.0)


def test_by_parts_rejects_vanishing_gap(default_model):
    # profile crosses zero between samples: every pair's mismatch flips sign.
    # Swapping it into a built model re-runs the construction check, so no
    # model with a vanishing gap reaches the by-parts rule.
    flip = tabulated_dispersion([1.0, -0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(CrossingError):
        dataclasses.replace(default_model, dispersion=flip)
    for j in (2, 5):  # a coupled and an uncoupled pair of the valid model
        assert np.isfinite(transition_integral_parts(default_model, kato_state(), 1, j, 100.0).bound)


# A smooth linear, a smooth quadratic and a kinked tabulated profile, each
# with the coupled pair (1, 2).
RULE_MODELS = {
    "linear": dict(),
    "quadratic": dict(dispersion=quadratic_dispersion()),
    "tabulated": dict(kind="smoothstep", dispersion=tabulated_dispersion([1.0, 1.3, 1.9, 2.0])),
}


def gauss_legendre_amplitude(model, j0, j, duration, panels):
    """i hbar <phi_j0|dphi_j> against exp(i T (alpha_j0 - alpha_j)), 20 Gauss-Legendre nodes on each of `panels`."""
    x, wx = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    s = edges[:-1, None] + half * (1.0 + x)
    # E(k, s) = kappa(k) f(s) with kappa(k) = k^2 or k, so kappa(1) = 1 and
    # phase(1, s) is the integral of f
    k = model.grid.nodes
    dk = k[j0] ** 2 - k[j] ** 2 if model.dispersion.family == "quadratic" else k[j0] - k[j]
    phase = duration * dk * model.dispersion.phase(1.0, s)
    return complex(np.sum(half * wx * np.exp(1j * phase) * 1j * model.frame_coupling_profile(j0, j, s)))


@pytest.mark.parametrize("duration", [50.0, 800.0, 3200.0, 12800.0])
@pytest.mark.parametrize("name", list(RULE_MODELS))
def test_transition_integral_converged_and_equal_to_by_parts(name, duration):
    # against the same rule at four times the panels: at least 64, one per
    # radian of phase and a multiple of the table's three segments
    model = make_model(**RULE_MODELS[name])
    s = np.linspace(0.0, 1.0, 129)
    swing = duration * float(np.abs(model.energy(1, s) - model.energy(2, s)).max())
    segments = 3 if name == "tabulated" else 1
    panels = 4 * segments * math.ceil(max(64, math.ceil(swing)) / segments)
    reference = gauss_legendre_amplitude(model, 1, 2, duration, panels)
    direct = transition_integral(model, kato_state(), 1, 2, duration)
    assert abs(direct - reference) <= 1e-10 * abs(reference)
    # the direct sum's terms total theta_max * |G[1, 2]| = 0.4 in modulus, so
    # it resolves the gap only to a few ulps of 0.4; the kinked smoothstep
    # model's |F| is 3e-6 at T=12800
    parts = transition_integral_parts(model, kato_state(), 1, 2, duration)
    assert abs(direct - parts.total) <= 1e-12 * abs(direct) + 8 * np.finfo(float).eps * 0.4


# ---- leakage measures ----------------------------------------------------------


def test_leakage_zero_for_perfect_transport(default_model, default_part):
    u1 = default_model.frame_matrix(1.0)
    assert leakage_exact(default_model, u1, default_part, 1) == 0.0


def test_leakage_nonzero_in_sudden_limit(default_model, default_part):
    u1 = np.eye(16, dtype=complex)
    eta = leakage_exact(default_model, u1, default_part, 1)
    assert 0.0 < eta < 1.0


def test_leakage_wave_form_counts_exterior_weight(default_model, default_part):
    w = np.eye(16, dtype=complex)
    assert leakage_wave_form(default_model, w, default_part, 1) == 0.0
    w[:, 1] = 0.0
    w[5, 1] = 0.6  # exterior
    w[0, 1] = 0.8  # same band
    assert leakage_wave_form(default_model, w, default_part, 1) == pytest.approx(0.36)


def test_leakages_take_the_final_matrix_only(default_model, default_part):
    # a stack of nodes would make [:, j0] pick a row of every node and
    # leakage_wave_form sum over nodes; a family object is no matrix at all
    fam = UnitaryFamily("W", np.linspace(0.0, 1.0, 3), np.stack([np.eye(16, dtype=complex)] * 3))
    for leakage in (leakage_exact, leakage_wave_form):
        for bad in (fam, fam.matrices):
            with pytest.raises(ConfigError, match="N x N matrix at s=1"):
                leakage(default_model, bad, default_part, 1)
    assert leakage_wave_form(default_model, fam.final, default_part, 1) == 0.0


def test_first_order_leakage_is_sum_of_weights(default_model, default_part):
    total = leakage_first_order(default_model, default_part, 1, 100.0)
    by_pairs = sum(
        abs(transition_integral(default_model, kato_state(), 1, j, 100.0)) ** 2
        for j in default_part.exterior(0)
    )
    assert total == pytest.approx(by_pairs, rel=1e-12)
    assert total == pytest.approx(8.0058e-3, rel=1e-3)


def test_first_order_on_several_coupled_pairs():
    # default.cfg with a quadratic family and a random width-3 generator:
    # j0 = 4, in the band {3, 4, 5}, couples to the exterior states 1, 2, 6
    # and 7, with four distinct mismatches kappa_4 - kappa_j
    overrides = {("dispersion", "family"): "quadratic", ("rotation", "builder"): "random_banded",
                 ("rotation", "width"): "3", ("rotation", "seed"): "11", ("run", "variant"): "weyl_band",
                 ("bands", "m"): "3", ("analysis", "j0"): "4"}
    config = load_config(SRC.parent / "configs" / "default.cfg", overrides)
    model, part = config.build_model(), config.build_partition()
    exterior = list(part.exterior(part.band_of(4)))
    amplitudes = {j: transition_integral(model, kato_state(), 4, j, 100.0) for j in exterior}
    coupled = [j for j, f in amplitudes.items() if f != 0.0]
    assert coupled == [1, 2, 6, 7]
    kappa = model.dispersion.kappa(model.grid.nodes)
    assert len({kappa[4] - kappa[j] for j in coupled}) == 4
    total = leakage_first_order(model, part, 4, 100.0)
    assert total == sum(abs(f) ** 2 for f in amplitudes.values()) / HBAR**2
    assert total == 0.00046141782137028124
    assert planned_substeps(model, part, 4, 100.0) == (2200, 2200)
    for j in coupled:
        parts = transition_integral_parts(model, kato_state(), 4, j, 100.0)
        assert abs(amplitudes[j] - parts.total) <= 1e-12 * abs(amplitudes[j]) + 8 * np.finfo(float).eps
        assert parts.bound >= abs(parts.total)


def test_no_exterior_raises(default_model):
    part = BandPartition(16, 16)
    with pytest.raises(NoExteriorError):
        leakage_first_order(default_model, part, 1, 100.0)


# ---- criterion ------------------------------------------------------------------


def test_criterion_default_margin(default_model, default_part):
    crit = adiabatic_criterion(default_model, default_part, 1)
    assert crit.max_coupling == pytest.approx(1.2, rel=1e-12)
    assert crit.min_gap == pytest.approx(1.0 / 15.0, rel=1e-12, abs=0.0)
    assert crit.margin == pytest.approx(18.0, rel=1e-12)
    assert not crit.satisfied
    assert adiabatic_criterion(default_model, default_part, 1, threshold=19.0).satisfied


def test_criterion_trivial_when_frozen(frozen_model, default_part):
    crit = adiabatic_criterion(frozen_model, default_part, 1)
    assert crit.max_coupling == 0.0
    assert crit.margin == 0.0
    assert crit.satisfied


def test_criterion_validation(default_model, default_part):
    with pytest.raises(NoExteriorError):
        adiabatic_criterion(default_model, BandPartition(16, 16), 1)
    with pytest.raises(ConfigError):
        adiabatic_criterion(default_model, default_part, 1, threshold=0.0)


# ---- sweeps and fits ---------------------------------------------------------------


def test_sweep_one_row_per_distinct_duration(default_model, default_part):
    for scheme in SCHEMES:
        once = sweep_leakage(default_model, default_part, 1, [20.0, 30.0], 256, scheme)
        repeated = sweep_leakage(default_model, default_part, 1, [30.0, 20.0, 30.0, 20.0], 256, scheme)
        assert repeated == once
        # and a row does not depend on the durations that share its sweep
        assert [sweep_leakage(default_model, default_part, 1, [t], 256, scheme)[0] for t in (20.0, 30.0)] == once


def test_leakage_reports_rejects_unpaired_sequences(default_model, default_part):
    # a zip would drop the rows past the shortest sequence without a word
    durations = [20.0, 30.0]
    u1s = final_propagators(default_model, durations, 256)
    w1s, _, _ = final_stage(default_model, kato_state(), default_part, durations, u1s)
    assert len(leakage_reports(default_model, default_part, 1, durations, u1s, w1s)) == 2
    with pytest.raises(ConfigError, match=r"2 durations, 1 finals U\(1\) and 2 W\(1\)"):
        leakage_reports(default_model, default_part, 1, durations, u1s[:1], w1s)
    with pytest.raises(ConfigError, match=r"1 durations, 2 finals U\(1\) and 1 W\(1\)"):
        leakage_reports(default_model, default_part, 1, durations[:1], u1s, w1s[:1])


def _simulate_config(scheme, band_variant):
    overrides = {("run", "T"): "20.0", ("run", "steps"): "256", ("run", "scheme"): scheme,
                 ("run", "variant"): "weyl_band" if band_variant else "kato_state"}
    return load_config(SRC.parent / "configs" / "default.cfg", overrides)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("band_variant", [False, True], ids=["kato_state", "weyl_band"])
def test_sweep_residual_operator_equals_streamed_w_final(monkeypatch, scheme, band_variant):
    # simulate and the sweep take W(1) from final_stage, the stored
    # family's last node, and both rows from one builder, so simulate's
    # whole leakage row is the sweep's at the same model, T, steps, scheme
    # and variant, bit for bit
    from adiabatic_continuum import analysis

    config = _simulate_config(scheme, band_variant)
    model, part = config.build_model(), config.build_partition()
    variant = config.build_variant(part)
    seen = []
    original = analysis.deviation_from_identity

    def recorder(matrix):
        seen.append(matrix)
        return original(matrix)

    monkeypatch.setattr(analysis, "deviation_from_identity", recorder)
    (report,) = sweep_leakage(model, part, config.j0, [20.0], 256, scheme, variant)
    w = stored_families(model, variant, PropagationConfig(20.0, 256, scheme))[3]
    assert np.array_equal(seen[0], w.final)
    assert report.w_deviation == original(w.final)
    _, record, _, _ = cmd_simulate(config)
    assert record["leakage"] == {
        "T": report.duration,
        "j0": report.j0,
        "band": report.band,
        "eta_exact": report.eta_exact,
        "eta_first_order": report.eta_first_order,
        "w_deviation": report.w_deviation,
    }


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("band_variant", [False, True], ids=["kato_state", "weyl_band"])
def test_simulate_diagnostics_are_the_stored_families_at_s1(scheme, band_variant):
    # simulate reports the unitarity defects and the residual at s=1, the
    # node every reported number is read from
    config = _simulate_config(scheme, band_variant)
    model, part = config.build_model(), config.build_partition()
    families = stored_families(model, config.build_variant(part), PropagationConfig(20.0, 256, scheme))
    a = families[1]
    last = UnitaryFamily("A", a.s_nodes[-1:], a.matrices[-1:])
    _, record, _, _ = cmd_simulate(config)
    unitarity = dict(record["diagnostics"]["unitarity"])
    # Phi's defect is elementwise in simulate and a matmul on the stored family
    assert abs(unitarity.pop("Phi") - _unitarity_defect(families[2].matrices[-1:])) <= 1e-15
    assert unitarity == {fam.kind: _unitarity_defect(fam.matrices[-1:]) for fam in families if fam.kind != "Phi"}
    assert record["diagnostics"]["intertwine_residual"] == intertwine_residual(last, model, part)


def test_simulate_builds_the_s1_stage_once(monkeypatch):
    # W(1), the unitarity defects and the residual come from one s=1 stage,
    # so simulate builds the closed-form A(1) once
    from adiabatic_continuum import propagation

    nodes = []
    original = propagation._exact_transport

    def recorder(model, variant, s, q):
        nodes.append(s)
        return original(model, variant, s, q)

    monkeypatch.setattr(propagation, "_exact_transport", recorder)
    cmd_simulate(load_config(SRC.parent / "configs" / "default.cfg"))
    assert len(nodes) == 1
    assert np.array_equal(nodes[0], np.ones(1))


def test_midpoint_sweep_runs_one_stacked_pass(monkeypatch, default_model, default_part):
    # a midpoint sweep propagates every duration in one stacked pass; a CF4
    # sweep takes one chunked evolution per duration
    from adiabatic_continuum import propagation

    calls = []
    for name in ("_midpoint_chunks", "_propagator_chunks"):
        original = getattr(propagation, name)

        def recorder(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(propagation, name, recorder)
    for scheme, expected in ((MIDPOINT, ["_midpoint_chunks"]), (CF4, ["_propagator_chunks"] * 3)):
        calls.clear()
        sweep_leakage(default_model, default_part, 1, [20.0, 30.0, 40.0], 256, scheme)
        assert calls == expected


def test_sweep_failure_reduced_to_smallest_duration(default_model, default_part):
    for scheme in SCHEMES:
        with pytest.raises(StepBudgetError) as err:
            sweep_leakage(default_model, default_part, 1, [9000.0, 20.0, 5000.0], 256, scheme)
        assert "5000" in str(err.value)


def test_sweep_validation(default_model, default_part):
    with pytest.raises(ConfigError):
        sweep_leakage(default_model, default_part, 1, [], steps=100)


def test_fit_power_law_recovers_exact_power():
    t = np.array([10.0, 20.0, 40.0, 80.0])
    fit = fit_power_law(t, 3.7 * t**-2.13)
    assert fit.slope == pytest.approx(-2.13, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.7), abs=1e-12)
    assert fit.r_squared > 1.0 - 1e-12
    assert fit.excluded == ()


def test_fit_power_law_excludes_exact_zeros():
    fit = fit_power_law([1.0, 2.0, 4.0, 8.0], [1.0, 0.25, 0.0, 0.015625])
    assert fit.excluded == (4.0,)
    assert len(fit.durations) == 3


def test_fit_power_law_errors():
    with pytest.raises(AnalysisError, match="trivially adiabatic"):
        fit_power_law([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    with pytest.raises(AnalysisError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, -1.0, 0.5])
    with pytest.raises(AnalysisError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, 0.5, 0.0])
    with pytest.raises(ConfigError):
        fit_power_law([1.0, 2.0], [1.0])
    for bad in (0.0, -10.0):
        with pytest.raises(AnalysisError, match=f"T={bad:g} is not positive"):
            fit_power_law([bad, 100.0, 200.0], [0.5, 0.1, 0.02])


def test_check_gap_margin_names_the_smallest_violating_duration(default_model, default_part):
    with pytest.raises(ConfigError, match="T=50 violates the gap margin"):
        check_gap_margin(default_model, default_part, 1, [200.0, 50.0, 100.0], 100.0)
    check_gap_margin(default_model, default_part, 1, [50.0, 100.0, 200.0], 1.0)


def test_check_gap_margin_message_states_a_true_inequality(default_model):
    # gap 1/15: T = 14.999 misses margin 1 by less than 1e-4, so both sides
    # must print in full for the printed inequality to hold
    part = BandPartition(16, 2)
    gap = virtual_gap(default_model, part, part.band_of(1))
    with pytest.raises(ConfigError) as info:
        check_gap_margin(default_model, part, 1, [14.999], 1.0)
    message = str(info.value)
    assert message == f"duration T=14.999 violates the gap margin: gap*T = {gap * 14.999!r} < 1.0"
    lhs, rhs = message.split("gap*T = ")[1].split(" < ")
    assert float(lhs) < float(rhs)


def test_check_gap_margin_accepts_minimal_time(default_model):
    # minimal_time's T meets its margin by the one rule band_plan uses,
    # however the rounding of margin / gap falls
    for m in (1, 2, 3, 4):
        part = BandPartition(16, m)
        for j0 in range(16):
            gap = virtual_gap(default_model, part, part.band_of(j0))
            for margin in np.linspace(0.01, 40.0, 400):
                check_gap_margin(default_model, part, j0, [minimal_time(gap, margin)], margin)


def test_check_gap_margin_validation(default_model, default_part):
    with pytest.raises(ConfigError, match="margin must be positive"):
        check_gap_margin(default_model, default_part, 1, [100.0], 0.0)


def test_first_order_tracks_exact_leakage(default_model, default_part):
    # at T=200 the first-order sum sits within a percent of the exact value
    u1 = final_propagator(default_model, PropagationConfig(200.0, 2048))
    eta = leakage_exact(default_model, u1, default_part, 1)
    eta_hat = leakage_first_order(default_model, default_part, 1, 200.0)
    assert abs(eta_hat - eta) / eta < 0.01
