"""Transition integrals, leakage measures, criterion, and fits."""

from __future__ import annotations

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
    NoExteriorError,
    SCHEMES,
    PropagationConfig,
    StepBudgetError,
    adiabatic_criterion,
    coupling,
    final_propagator,
    fit_power_law,
    kato_state,
    leakage_exact,
    leakage_first_order,
    leakage_wave_form,
    linear_dispersion,
    planned_substeps,
    quadratic_dispersion,
    stream_families,
    sweep_leakage,
    tabulated_dispersion,
    transition_integral,
    transition_integral_parts,
    transition_weight_max_estimate,
    weyl_band,
)
from adiabatic_continuum.analysis import check_gap_margin

from conftest import flip_model, make_model


@pytest.fixture(scope="module")
def flat_model():
    """Frozen dispersion (no s drift): gaps constant, closed forms exact."""
    return make_model(dispersion=linear_dispersion(1.0, 0.0))


# ---- coupling and substep planning ------------------------------------------


def test_coupling_closed_form(default_model):
    # theta'(s) * G[1, 2] with G[1, 2] = +1
    assert coupling(default_model, 1, 2, 0.5) == pytest.approx(1.2 * 0.25, rel=1e-12)
    assert coupling(default_model, 2, 1, 0.5) == pytest.approx(-1.2 * 0.25, rel=1e-12)
    # structurally uncoupled pair: zero up to eigensolver roundoff
    assert abs(coupling(default_model, 1, 5, 0.5)) < 1e-15


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


def test_by_parts_rejects_vanishing_gap():
    # profile crosses zero between samples: every pair's mismatch flips sign
    model = flip_model()
    with pytest.raises(CrossingError):
        transition_integral_parts(model, kato_state(), 1, 2, 100.0)
    with pytest.raises(CrossingError):  # an uncoupled pair is still checked
        transition_integral_parts(model, kato_state(), 1, 5, 100.0)


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


def test_first_order_leakage_is_sum_of_weights(default_model, default_part):
    total = leakage_first_order(default_model, default_part, 1, 100.0)
    by_pairs = sum(
        abs(transition_integral(default_model, kato_state(), 1, j, 100.0)) ** 2
        for j in default_part.exterior(0)
    )
    assert total == pytest.approx(by_pairs, rel=1e-12)
    assert total == pytest.approx(8.0058e-3, rel=1e-3)


def test_no_exterior_raises(default_model):
    part = BandPartition(16, 16)
    with pytest.raises(NoExteriorError):
        leakage_first_order(default_model, part, 1, 100.0)


# ---- a-priori estimate ----------------------------------------------------------


def test_estimate_peak_closed_form(default_model):
    # ratio 1.2 s^2 / (spacing (1+s)) grows in s; at s=1 it is 9
    est = transition_weight_max_estimate(default_model, 1, 2)
    assert est == pytest.approx(81.0, rel=1e-9)
    est_t = transition_weight_max_estimate(default_model, 1, 2, duration=800.0)
    assert est_t == pytest.approx(81.0 / 800.0**2, rel=1e-9)


def test_estimate_peak_at_schedule_midpoint(flat_model):
    # smoothstep rate peaks at s = 1/2 and the flat dispersion keeps the
    # gap constant, so the peak ratio is 6*theta_max/4 / spacing = 9
    model = make_model(kind="smoothstep", dispersion=linear_dispersion(1.0, 0.0))
    s = np.linspace(0.0, 1.0, 1001)
    ratios = np.abs(model.frame_coupling_profile(1, 2, s)) * 15.0
    assert int(np.argmax(ratios)) == 500
    est = transition_weight_max_estimate(model, 1, 2)
    assert est == pytest.approx(81.0, rel=1e-9)


def test_estimate_quarters_when_duration_doubles(default_model):
    e1 = transition_weight_max_estimate(default_model, 1, 2, duration=400.0)
    e2 = transition_weight_max_estimate(default_model, 1, 2, duration=800.0)
    assert e1 / e2 == pytest.approx(4.0, rel=1e-12)


def test_estimate_bounds_transition_weight(default_model, default_part):
    weight = abs(transition_integral(default_model, kato_state(), 1, 2, 800.0)) ** 2
    est = transition_weight_max_estimate(default_model, 1, 2, duration=800.0)
    assert weight <= 4.0 * est
    assert est <= 4.0 * weight


def test_estimate_rejects_crossing():
    model = flip_model()
    with pytest.raises(CrossingError):
        transition_weight_max_estimate(model, 1, 2)


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
        adiabatic_criterion(default_model, default_part, 1, s_samples=1)
    with pytest.raises(ConfigError):
        adiabatic_criterion(default_model, default_part, 1, threshold=0.0)


# ---- sweeps and fits ---------------------------------------------------------------


def test_sweep_independent_of_jobs(default_model, default_part):
    kwargs = dict(durations=[20.0, 30.0, 40.0], steps=256)
    serial = sweep_leakage(default_model, default_part, 1, **kwargs, jobs=1)
    threaded = sweep_leakage(default_model, default_part, 1, **kwargs, jobs=3)
    assert [r.duration for r in serial] == [20.0, 30.0, 40.0]
    for a, b in zip(serial, threaded):
        assert a == b  # exact float equality, field by field


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("band_variant", [False, True], ids=["kato_state", "weyl_band"])
def test_sweep_residual_operator_equals_streamed_w_final(monkeypatch, default_model, default_part,
                                                         scheme, band_variant):
    # the sweep's W(1) and simulate's streamed W(1) come from one helper, so
    # they are the same bits at the same model, T, steps and scheme
    from adiabatic_continuum import analysis

    variant = weyl_band(default_part) if band_variant else kato_state()
    seen = []
    original = analysis.deviation_from_identity

    def recorder(matrix):
        seen.append(matrix)
        return original(matrix)

    monkeypatch.setattr(analysis, "deviation_from_identity", recorder)
    (report,) = sweep_leakage(default_model, default_part, 1, [20.0], 256, scheme, variant)
    streamed = stream_families(default_model, variant, PropagationConfig(20.0, 256, scheme))
    assert np.array_equal(seen[0], streamed.w_final)
    assert report.w_deviation == original(streamed.w_final)


def test_midpoint_sweep_runs_one_stacked_pass(monkeypatch, default_model, default_part):
    # whatever jobs says, a midpoint sweep propagates every duration in one
    # stacked pass; a CF4 sweep takes one final per duration
    from adiabatic_continuum import analysis

    calls = []
    for name in ("final_propagator", "final_propagators"):
        original = getattr(analysis, name)

        def recorder(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(analysis, name, recorder)
    for scheme, expected in ((MIDPOINT, ["final_propagators"]), (CF4, ["final_propagator"] * 3)):
        for jobs in (1, 2):
            calls.clear()
            sweep_leakage(default_model, default_part, 1, [20.0, 30.0, 40.0], 256, scheme, jobs=jobs)
            assert calls == expected


def test_sweep_failure_reduced_to_smallest_duration(default_model, default_part):
    for scheme in SCHEMES:
        for jobs in (1, 2):
            with pytest.raises(StepBudgetError) as err:
                sweep_leakage(default_model, default_part, 1, [9000.0, 20.0, 5000.0], 256, scheme, jobs=jobs)
            assert "5000" in str(err.value)


def test_sweep_validation(default_model, default_part):
    with pytest.raises(ConfigError):
        sweep_leakage(default_model, default_part, 1, [], steps=100)
    with pytest.raises(ConfigError):
        sweep_leakage(default_model, default_part, 1, [10.0], steps=100, jobs=0)


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


def test_first_order_tracks_exact_leakage(default_model, default_part):
    # at T=200 the first-order sum sits within a percent of the exact value
    u1 = final_propagator(default_model, PropagationConfig(200.0, 2048))
    eta = leakage_exact(default_model, u1, default_part, 1)
    eta_hat = leakage_first_order(default_model, default_part, 1, 200.0)
    assert abs(eta_hat - eta) / eta < 0.01
