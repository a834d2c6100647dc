"""Propagator, transport, phase, and wave-operator families, stored and streamed.

Oracles: a Taylor-series matrix exponential for the closed-form transport
solutions (the state-wise generator commutes at all s, so A(s) is exactly
the frame rotation; the band variant factorizes as exp(theta*G) times
exp(-theta*G_in)), and an independent RK4 integration of the Schrodinger
equation for the propagator.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from adiabatic_continuum import (
    CF4,
    MIDPOINT,
    SCHEMES,
    AngleSchedule,
    BandPartition,
    ConfigError,
    ContinuumModel,
    FrameRotation,
    GeneratorVariant,
    KGrid,
    PropagationConfig,
    StepBudgetError,
    UnitaryFamily,
    banded_rotation,
    build_model,
    deviation_from_identity,
    evolve_intertwiner,
    evolve_propagator,
    final_intertwiner,
    final_propagator,
    final_propagators,
    final_stage,
    generator,
    generator_norm,
    intertwine_residual,
    intertwiner_step_budget,
    kato_state,
    linear_dispersion,
    literal_window_hermiticity,
    load_config,
    phase_family,
    phase_operator,
    propagator_step_budget,
    quadratic_dispersion,
    random_banded_rotation,
    tabulated_dispersion,
    wave_operator,
    weyl_band,
)
from adiabatic_continuum import propagation
from adiabatic_continuum.propagation import _CHUNK, _CHUNK_BYTES

from conftest import (
    M,
    SRC,
    closed_form_family,
    constant_rate_model,
    eigh_expm,
    exact_final_propagator,
    exact_final_residual,
    intertwiner_loop,
    make_model,
    midpoint_loop,
    projector_residual_loop,
    richardson,
    richardson_loop,
    stored_families,
    stream_families,
    taylor_expm,
)


def rk4_propagator(model, duration: float, steps: int) -> np.ndarray:
    """Independent reference integration of i dU/ds = T H(s) U."""
    u = np.eye(model.size, dtype=complex)
    h = 1.0 / steps

    def f(s, u):
        return -1j * duration * model.hamiltonian(s) @ u

    for i in range(steps):
        s = i * h
        k1 = f(s, u)
        k2 = f(s + h / 2, u + h / 2 * k1)
        k3 = f(s + h / 2, u + h / 2 * k2)
        k4 = f(s + h, u + h * k3)
        u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def in_band_generator(part: BandPartition, g: np.ndarray) -> np.ndarray:
    keep = np.zeros(g.shape, dtype=bool)
    for b in range(len(part)):
        members = list(part.members(b))
        keep[np.ix_(members, members)] = True
    return np.where(keep, g, 0.0)


# ---- config and variants ----------------------------------------------------


def test_propagation_config_validation():
    with pytest.raises(ConfigError):
        PropagationConfig(-1.0, 100)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError, match="finite"):
            PropagationConfig(bad, 100)
    with pytest.raises(ConfigError):
        PropagationConfig(1.0, 0)
    with pytest.raises(ConfigError):
        PropagationConfig(1.0, 100, scheme="euler")


def test_variant_masks(default_part):
    kato = kato_state()
    mask = kato.keep_mask(4)
    assert not mask.diagonal().any()
    assert mask.sum() == 12

    wb = weyl_band(default_part)
    wmask = wb.keep_mask(16)
    assert not wmask[0, 1] and not wmask[1, 0]
    assert wmask[1, 2] and wmask[2, 1]
    # a variant is its partition alone: none is the state-wise one
    assert GeneratorVariant() == kato_state()
    assert GeneratorVariant(default_part) == wb
    with pytest.raises(ConfigError):
        wb.keep_mask(8)


@pytest.mark.parametrize("n", [2, 5, 16])
def test_state_wise_variant_is_the_one_state_band(n):
    # Kato's state-wise generator is the band generator with one state per
    # band: the same mask, so the same generators, closed-form transports
    # and s=1 stage, bitwise
    model = make_model(n=n)
    state, band = GeneratorVariant(), weyl_band(BandPartition(n, 1))
    assert state == kato_state()
    assert np.array_equal(state.keep_mask(n), band.keep_mask(n))
    assert np.array_equal(state.keep_mask(n), ~np.eye(n, dtype=bool))
    s = np.linspace(0.0, 1.0, 9)
    for x in s:
        assert np.array_equal(generator(model, state, x), generator(model, band, x))
    q = model.frame_matrix(s)
    assert np.array_equal(
        propagation._exact_transport(model, state, s, q), propagation._exact_transport(model, band, s, q)
    )
    part = BandPartition(n, min(2, n - 1))
    durations = [20.0, 40.0]
    w_state, defects_state, residual_state = final_stage(model, state, part, durations, 512)
    w_band, defects_band, residual_band = final_stage(model, band, part, durations, 512)
    assert np.array_equal(w_state, w_band)
    assert defects_state == defects_band
    assert residual_state == residual_band


def test_generator_hermitian_and_masked(default_model, default_part):
    for variant in (kato_state(), weyl_band(default_part)):
        k = generator(default_model, variant, 0.6)
        assert np.abs(k - k.conj().T).max() < 1e-15
    k_wb = generator(default_model, weyl_band(default_part), 0.6)
    # same-band elements vanish identically in the frame basis; after the
    # frame conjugation they stay zero only through the projector algebra,
    # so check the frame-basis statement directly
    from adiabatic_continuum import generator_in_frame

    kf = generator_in_frame(default_model, weyl_band(default_part), 0.6)
    for b in range(len(default_part)):
        members = list(default_part.members(b))
        assert np.abs(kf[np.ix_(members, members)]).max() == 0.0
    assert np.abs(k_wb).max() > 0.0


def test_frame_velocity_overlaps_match_fd(default_model):
    # the overlaps Q^dag dQ/ds behind every coupling and generator are theta'(s) G
    s, h = 0.53, 1e-6
    qdot = (default_model.frame_matrix(s + h) - default_model.frame_matrix(s - h)) / (2 * h)
    fd = default_model.frame_matrix(s).conj().T @ qdot
    closed = default_model.rotation.schedule.angle_rate(s) * default_model.rotation.generator
    assert np.abs(closed - fd).max() < 1e-8


def test_literal_window_breaks_hermiticity(default_model):
    diag = literal_window_hermiticity(default_model, 2, 0.5)
    assert diag.hermiticity_defect > 0.1
    assert diag.relative_defect > 0.5


# ---- step budgets ------------------------------------------------------------


def test_propagator_step_budget(default_model):
    assert propagator_step_budget(default_model, 100.0) == 510
    assert propagator_step_budget(default_model, 800.0) == 4075
    assert propagator_step_budget(default_model, 0.0) == 1


def test_budget_enforced(default_model):
    with pytest.raises(StepBudgetError) as err:
        evolve_propagator(default_model, PropagationConfig(100.0, 100))
    assert err.value.required == 510
    assert "510" in str(err.value)


def test_intertwiner_budget(default_model, default_part):
    assert intertwiner_step_budget(default_model, kato_state()) == 4
    assert generator_norm(default_model, kato_state()) == pytest.approx(2.36, abs=0.05)


def test_budget_and_run_check_messages_in_full(default_model, default_part):
    # the propagator and the transport share one budget check and one
    # steps/scheme check; their messages are pinned byte for byte
    with pytest.raises(StepBudgetError) as err:
        final_propagator(default_model, PropagationConfig(100.0, 100))
    assert str(err.value) == "steps=100 cannot resolve duration T=100.0 (required >= 510)"
    assert err.value.required == 510
    transports = (
        lambda steps, scheme: final_intertwiner(default_model, kato_state(), steps, scheme),
        lambda steps, scheme: evolve_intertwiner(default_model, kato_state(), steps, scheme),
        lambda steps, scheme: propagation.transport_residual(default_model, kato_state(), default_part, steps, scheme),
    )
    for transport in transports:
        with pytest.raises(StepBudgetError) as err:
            transport(3, MIDPOINT)
        assert str(err.value) == "steps=3 cannot resolve the transport generator (required >= 4)"
        assert err.value.required == 4
    for check in (*transports, lambda steps, scheme: PropagationConfig(1.0, steps, scheme)):
        with pytest.raises(ConfigError) as err:
            check(16, "exact")
        assert str(err.value) == (
            "unknown scheme 'exact'; pick one of ('midpoint_exponential', 'fourth_order_commutator_free')"
        )
        with pytest.raises(ConfigError) as err:
            check(0, MIDPOINT)
        assert str(err.value) == "steps must be >= 1, got 0"


# ---- propagator ---------------------------------------------------------------


def test_propagator_against_rk4(default_model):
    ref = rk4_propagator(default_model, 2.0, 4000)
    u_mid = evolve_propagator(default_model, PropagationConfig(2.0, 2000))
    assert np.abs(u_mid.final - ref).max() < 2e-8
    u_cf4 = evolve_propagator(default_model, PropagationConfig(2.0, 200, CF4))
    assert np.abs(u_cf4.final - ref).max() < 1e-10


def test_propagator_midpoint_is_order_two(default_model):
    ref = rk4_propagator(default_model, 2.0, 4000)
    e1 = np.abs(evolve_propagator(default_model, PropagationConfig(2.0, 500)).final - ref).max()
    e2 = np.abs(evolve_propagator(default_model, PropagationConfig(2.0, 1000)).final - ref).max()
    assert e1 / e2 == pytest.approx(4.0, rel=0.15)


def test_propagator_family_structure(default_model):
    fam = evolve_propagator(default_model, PropagationConfig(2.0, 64))
    assert fam.kind == "U"
    assert len(fam) == 65
    assert np.array_equal(fam.matrices[0], np.eye(16))
    assert fam.unitarity_defect() < 1e-12
    # the final is the family's last node bitwise, also across a chunk boundary
    for scheme in SCHEMES:
        for steps in (64, _CHUNK + 3):
            config = PropagationConfig(2.0, steps, scheme)
            final = final_propagator(default_model, config)
            assert np.array_equal(final, evolve_propagator(default_model, config).final)


# The chunked kernels and the step loop are one scheme rounded
# differently; their max-abs difference is roundoff, which this bound caps.
KERNEL_TOL = 1e-11


def _kernel_models():
    grid = KGrid(1.0, 2.0, 12)
    cubic = AngleSchedule("cubic_ramp", 0.4)
    return {
        "nearest_neighbor": make_model(),
        "random_banded": build_model(
            grid, linear_dispersion(), random_banded_rotation(12, 3, 7, cubic)
        ),
        "tabulated": make_model(
            kind="smoothstep", dispersion=tabulated_dispersion([1.0, 1.6, 0.7, 1.2])
        ),
        "quadratic": make_model(dispersion=quadratic_dispersion()),
        "frozen": make_model(theta_max=0.0),
    }


KERNEL_STEPS = [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]
KERNEL_MODELS = ["nearest_neighbor", "random_banded", "tabulated", "quadratic", "frozen"]


@pytest.mark.parametrize("steps", KERNEL_STEPS)
@pytest.mark.parametrize("name", KERNEL_MODELS)
def test_midpoint_kernel_matches_step_loop(name, steps):
    model = _kernel_models()[name]
    duration = 0.1 * steps  # a phase swing of at most 0.4 rad per step
    fam = evolve_propagator(model, PropagationConfig(duration, steps))
    reference = midpoint_loop(model, duration, steps)
    assert np.array_equal(fam.matrices[0], np.eye(model.size))
    assert np.abs(fam.matrices - reference).max() < KERNEL_TOL


@pytest.mark.parametrize("steps", KERNEL_STEPS)
@pytest.mark.parametrize("name", KERNEL_MODELS)
def test_cf4_kernel_matches_step_loop(name, steps):
    # the CF4 key's U pairs node k of the kernel's n-step stream with node
    # 2k of its 2n-step one, across their chunk boundaries
    model = _kernel_models()[name]
    duration = 0.1 * steps
    fam = evolve_propagator(model, PropagationConfig(duration, steps, CF4))
    assert np.array_equal(fam.matrices[0], np.eye(model.size))
    assert np.abs(fam.matrices - richardson_loop(model, duration, steps)).max() < KERNEL_TOL


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("band_variant", [False, True], ids=["kato_state", "weyl_band"])
@pytest.mark.parametrize("steps", KERNEL_STEPS)
@pytest.mark.parametrize("name", KERNEL_MODELS)
def test_transport_kernel_matches_step_loop(name, steps, band_variant, scheme):
    model = _kernel_models()[name]
    variant = weyl_band(BandPartition(model.size, 2)) if band_variant else kato_state()
    # a moving frame needs a few steps; below its budget the transport is refused
    steps = max(steps, intertwiner_step_budget(model, variant))
    fam = evolve_intertwiner(model, variant, steps, scheme)
    reference = intertwiner_loop(model, variant, steps, scheme)
    assert np.array_equal(fam.matrices[0], np.eye(model.size))
    assert np.abs(fam.matrices - reference).max() < KERNEL_TOL


# At its step budget a step has the largest phase swing the budget admits.
# The transport runs at its budget in the kernel test above (steps = 1 is
# raised to it), where the midpoint transport's stages need a squaring.
@pytest.mark.parametrize("name", KERNEL_MODELS)
def test_cf4_kernel_matches_step_loop_at_the_budget(name):
    model = _kernel_models()[name]
    steps = 3 * _CHUNK + 5
    duration = steps * math.pi / (4.0 * model.max_energy()) * (1.0 - 1e-9)
    assert propagator_step_budget(model, duration) == steps
    fam = evolve_propagator(model, PropagationConfig(duration, steps, CF4))
    assert np.abs(fam.matrices - richardson_loop(model, duration, steps)).max() < KERNEL_TOL


def test_frozen_frame_propagator_stays_diagonal(frozen_model):
    # the frame never moves, so every step is diag(p) exactly, at any step count
    steps = 3 * _CHUNK + 5
    fam = evolve_propagator(frozen_model, PropagationConfig(0.1 * steps, steps))
    assert not fam.matrices[:, ~np.eye(16, dtype=bool)].any()


def test_frozen_frame_eigh_kernel_families_stay_exact(frozen_model):
    # the CF4 key's U combines two diagonal midpoint families, and every
    # transport step is the identity, exactly
    steps = 3 * _CHUNK + 5
    fam = evolve_propagator(frozen_model, PropagationConfig(0.1 * steps, steps, CF4))
    assert not fam.matrices[:, ~np.eye(16, dtype=bool)].any()
    for scheme in SCHEMES:
        a = evolve_intertwiner(frozen_model, kato_state(), steps, scheme)
        assert (a.matrices == np.eye(16)).all()


# Every transport steps its stages by Taylor exponentials in the lab frame,
# a frozen frame's included, so the kernel tests above check the one path;
# the CF4 key's U takes the midpoint kernel and no Taylor stage.
@pytest.mark.parametrize(
    "name, path",
    [("nearest_neighbor", "_lab_chunks"), ("random_banded", "_lab_chunks"),
     ("tabulated", "_lab_chunks"), ("quadratic", "_lab_chunks")],
)
def test_cf4_kernel_path_follows_the_stages(monkeypatch, name, path):
    taken = []
    original = propagation._lab_chunks

    def recorder(*args):
        taken.append("_lab_chunks")
        return original(*args)

    monkeypatch.setattr(propagation, "_lab_chunks", recorder)
    model = _kernel_models()[name]
    evolve_propagator(model, PropagationConfig(0.1 * _CHUNK, _CHUNK, CF4))
    assert taken == []
    for scheme in SCHEMES:
        evolve_intertwiner(model, kato_state(), max(_CHUNK, intertwiner_step_budget(model, kato_state())), scheme)
    assert taken == [path, path]


@pytest.mark.parametrize("steps", [*KERNEL_STEPS, 4000])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_frozen_phases_are_the_kernels_frozen_diagonals(frozen_model, scheme, steps):
    # the general kernels step a frozen frame with identity rotations and an
    # exact Q, so their nodes are diagonal, off-diagonals exactly 0;
    # frozen_phases steps the diagonals alone, in the midpoint kernel's
    # order (bitwise, sign bits included) and within 1e-13 of the CF4 key's
    # matrix combination.  The bound was fixed before measuring.
    config = PropagationConfig(100.0 if steps == 4000 else 0.1 * steps, steps, scheme)
    fam = evolve_propagator(frozen_model, config)
    assert not fam.matrices[:, ~np.eye(16, dtype=bool)].any()
    chunks = list(propagation.frozen_phases(frozen_model, config))
    assert max(len(d) for _, d in chunks) <= _CHUNK
    s = np.concatenate([s for s, _ in chunks])
    diagonals = np.concatenate([d for _, d in chunks])
    assert np.array_equal(s, fam.s_nodes)
    nodes = np.ascontiguousarray(np.diagonal(fam.matrices, axis1=1, axis2=2))
    if scheme == MIDPOINT:
        assert diagonals.tobytes() == nodes.tobytes()
    else:
        assert np.abs(diagonals - nodes).max() <= 1e-13


@pytest.mark.parametrize("scheme", SCHEMES)
def test_frozen_phases_reject_a_moving_frame_and_a_short_budget(default_model, frozen_model, scheme):
    # both raise on the call, before any chunk is asked for
    with pytest.raises(ConfigError, match="frozen frame"):
        propagation.frozen_phases(default_model, PropagationConfig(1.0, 8, scheme))
    with pytest.raises(StepBudgetError):
        propagation.frozen_phases(frozen_model, PropagationConfig(100.0, 10, scheme))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_final_intertwiner_is_last_node_bitwise(default_model, default_part, scheme):
    for variant in (kato_state(), weyl_band(default_part)):
        for steps in (64, _CHUNK + 3):
            final = final_intertwiner(default_model, variant, steps, scheme)
            assert np.array_equal(final, evolve_intertwiner(default_model, variant, steps, scheme).final)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stepped_families_rebuild_no_frame_per_step(monkeypatch, default_part, scheme):
    # the stepped kernels take the frame from its cached eigensystem, their
    # stages from one constant core and their step exponentials from Taylor
    # polynomials, so the frame, Hamiltonian and generator builds and the
    # eigh calls they make do not grow with steps; the one eigh left is the
    # frame's eigensystem, and no per-node energy matrix is built
    calls = {"frame_matrix": 0, "hamiltonian": 0, "energies": 0, "generator": 0, "eigh": 0}
    for name in ("frame_matrix", "hamiltonian", "energies"):
        original = getattr(ContinuumModel, name)

        def recorder(self, s, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, s)

        monkeypatch.setattr(ContinuumModel, name, recorder)
    original_generator = propagation.generator

    def generator_recorder(*args, **kwargs):
        calls["generator"] += 1
        return original_generator(*args, **kwargs)

    monkeypatch.setattr(propagation, "generator", generator_recorder)
    original_eigh = np.linalg.eigh

    def eigh_recorder(*args, **kwargs):
        calls["eigh"] += 1
        return original_eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh_recorder)
    counts = []
    for steps in (_CHUNK, 4 * _CHUNK):
        model = make_model()
        calls.update(dict.fromkeys(calls, 0))
        final_propagator(model, PropagationConfig(0.1 * steps, steps, CF4))
        evolve_intertwiner(model, weyl_band(default_part), steps, scheme)
        final_intertwiner(model, kato_state(), steps, scheme)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["eigh"] == 1
    assert counts[0]["energies"] == 0


def test_midpoint_kernel_shrinks_chunks_on_large_grids():
    n = 128
    chunk = _CHUNK_BYTES // (16 * n * n)  # steps per chunk that fit the byte cap
    assert 1 <= chunk < _CHUNK
    model = make_model(n=n)
    steps = 2 * chunk + 1
    duration = 0.1 * steps
    fam = evolve_propagator(model, PropagationConfig(duration, steps))
    assert np.abs(fam.matrices - midpoint_loop(model, duration, steps)).max() < KERNEL_TOL
    final = final_propagator(model, PropagationConfig(duration, steps))
    assert np.array_equal(final, fam.final)


def test_midpoint_final_memory_stays_within_chunk_budget():
    # a 128-step chunk at N=128 would take 32 MiB per temporary
    model = make_model(n=128)
    model.frame_eigensystem  # cached before measuring
    tracemalloc.start()
    try:
        final_propagator(model, PropagationConfig(12.8, _CHUNK))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _CHUNK_BYTES


# ---- exact U(1): the constant-rate model ---------------------------------------

# (kappa family, N, T, rotation); each runs at _oracle_steps.  The
# random_banded cases (a complex G) take the kernel's complex products, the
# others its real ones.
ORACLE_CASES = [
    ("linear", 16, 100.0, "nearest_neighbor"),
    ("linear", 16, 800.0, "nearest_neighbor"),
    ("quadratic", 16, 100.0, "nearest_neighbor"),
    ("quadratic", 16, 800.0, "nearest_neighbor"),
    ("linear", 16, 100.0, "random_banded"),
    ("linear", 16, 800.0, "random_banded"),
]


def _oracle_ids(cases) -> list[str]:
    """family-N-T, with the rotation appended unless it is nearest_neighbor."""
    return ["-".join(map(str, case if case[-1] != "nearest_neighbor" else case[:-1])) for case in cases]


def _oracle_steps(model, duration: float) -> int:
    """4000, or the smallest multiple of 1000 at or above the step budget."""
    return max(4000, -(-propagator_step_budget(model, duration) // 1000) * 1000)


def _oracle_errors(model, duration: float, steps: int, scheme: str) -> np.ndarray:
    """max|U(1) - exact| and max|W(1) - exact| for kato_state and weyl_band."""
    part = BandPartition(model.size, M)
    u1s = final_propagators(model, [duration], steps, scheme)
    errors = [np.abs(u1s[0] - exact_final_propagator(model, duration)).max()]
    for variant in (kato_state(), weyl_band(part)):
        w1 = final_stage(model, variant, part, [duration], steps, scheme)[0][0]
        errors.append(np.abs(w1 - exact_final_residual(model, variant, duration)).max())
    return np.array(errors)


MIDPOINT_ORACLE_CASES = [*ORACLE_CASES, ("linear", 64, 800.0, "nearest_neighbor")]


@pytest.mark.parametrize("family, n, duration, rotation", MIDPOINT_ORACLE_CASES, ids=_oracle_ids(MIDPOINT_ORACLE_CASES))
def test_midpoint_final_converges_to_the_exact_one_at_order_two(family, n, duration, rotation):
    # four times the steps must cut every error by 15 to 17 (16 at order two)
    model = constant_rate_model(family, n, rotation=rotation)
    steps = _oracle_steps(model, duration)
    ratios = _oracle_errors(model, duration, steps, MIDPOINT) / _oracle_errors(model, duration, 4 * steps, MIDPOINT)
    assert np.all((ratios >= 15.0) & (ratios <= 17.0)), ratios


@pytest.mark.parametrize("family, n, duration, rotation", ORACLE_CASES, ids=_oracle_ids(ORACLE_CASES))
def test_cf4_final_meets_the_exact_one(family, n, duration, rotation):
    model = constant_rate_model(family, n, rotation=rotation)
    errors = _oracle_errors(model, duration, _oracle_steps(model, duration), CF4)
    assert errors.max() < 1e-11, errors


# At T = 800 the step budget already puts the CF4 key's U at its roundoff
# floor (1.5e-12 at the 3056-step budget and at twice it, where the
# midpoint reads 4e-7), so only the T = 100 cases can show the order.
ORDER_FOUR_CASES = [case for case in ORACLE_CASES if case[2] == 100.0]


@pytest.mark.parametrize("family, n, duration, rotation", ORDER_FOUR_CASES, ids=_oracle_ids(ORDER_FOUR_CASES))
def test_cf4_final_converges_to_the_exact_one_at_order_four(family, n, duration, rotation):
    # at the step budget, where truncation still dominates roundoff, twice
    # the steps must cut every error by 12 to 20 (16 at order four, 4 at the
    # midpoint's order two); the bounds were fixed before measuring
    model = constant_rate_model(family, n, rotation=rotation)
    steps = propagator_step_budget(model, duration)
    ratios = _oracle_errors(model, duration, steps, CF4) / _oracle_errors(model, duration, 2 * steps, CF4)
    assert np.all((ratios >= 12.0) & (ratios <= 20.0)), ratios


# ---- the stacked midpoint pass ---------------------------------------------------

# Durations within the midpoint step budget at 2 _CHUNK + 5 steps, whose
# last chunk is partial on every grid below.
STACKED_STEPS = 2 * _CHUNK + 5
STACKED_DURATIONS = [0.0, 3.0, 10.0, 25.0, 40.0]


def _stacked_models():
    return {
        "n7": make_model(n=7),
        "n12_random_banded": _kernel_models()["random_banded"],
        "n16": make_model(),
        "n33": make_model(n=33),
        "frozen": make_model(theta_max=0.0),
    }


@pytest.mark.parametrize(
    "durations",
    [STACKED_DURATIONS[3:4], STACKED_DURATIONS, [40.0, 0.0, 10.0]],
    ids=["one", "all", "shuffled_subset"],
)
@pytest.mark.parametrize("name", ["n7", "n12_random_banded", "n16", "n33", "frozen"])
def test_stacked_finals_equal_final_propagator_bitwise(name, durations):
    model = _stacked_models()[name]
    stacked = final_propagators(model, durations, STACKED_STEPS)
    assert stacked.shape == (len(durations), model.size, model.size)
    for duration, u in zip(durations, stacked):
        assert np.array_equal(u, final_propagator(model, PropagationConfig(duration, STACKED_STEPS)))


@pytest.mark.parametrize("shift", [1, 2, 3])
def test_cf4_finals_equal_final_propagator_bitwise(default_model, shift):
    # two stacked passes for all durations: slice d is the final and the
    # stored family's last node at durations[d], in call order, whichever
    # duration the call starts from
    durations = [25.0, 3.0, 40.0, 10.0]
    durations = durations[shift:] + durations[:shift]
    stacked = final_propagators(default_model, durations, STACKED_STEPS, CF4)
    assert stacked.shape == (len(durations), 16, 16)
    for duration, u in zip(durations, stacked):
        config = PropagationConfig(duration, STACKED_STEPS, CF4)
        assert np.array_equal(u, final_propagator(default_model, config))
        assert np.array_equal(u, evolve_propagator(default_model, config).final)


@pytest.mark.parametrize("name", ["n7", "n12_random_banded", "n16", "n33", "frozen"])
def test_cf4_finals_are_the_richardson_combination_bitwise(name):
    # two ordinary stacked midpoint passes, at 2n and n steps, combined
    model = _stacked_models()[name]
    fine, coarse = (final_propagators(model, STACKED_DURATIONS, k * STACKED_STEPS) for k in (2, 1))
    u = final_propagators(model, STACKED_DURATIONS, STACKED_STEPS, CF4)
    assert u.tobytes() == richardson(fine, coarse).tobytes()


@pytest.mark.parametrize("steps", [_CHUNK - 1, STACKED_STEPS])
def test_cf4_family_is_the_richardson_combination_of_its_nodes_bitwise(default_model, steps):
    # node k of the n-step family with node 2k of the 2n-step one, across
    # both families' chunk boundaries; the last node is the final
    config = PropagationConfig(20.0, steps, CF4)
    coarse = evolve_propagator(default_model, PropagationConfig(20.0, steps)).matrices
    fine = evolve_propagator(default_model, PropagationConfig(20.0, 2 * steps)).matrices[::2]
    fam = evolve_propagator(default_model, config)
    assert np.array_equal(fam.matrices[0], np.eye(16))
    assert fam.matrices[1:].tobytes() == richardson(fine[1:], coarse[1:]).tobytes()
    assert fam.final.tobytes() == final_propagator(default_model, config).tobytes()


@pytest.mark.parametrize("steps", [_CHUNK - 1, STACKED_STEPS, 4000])
def test_cf4_frozen_phases_are_the_richardson_combination_bitwise(frozen_model, steps):
    # the same combination of the two midpoint frozen streams' diagonals
    duration = 100.0 if steps == 4000 else 0.1 * steps

    def diagonals(n: int, scheme: str) -> np.ndarray:
        chunks = propagation.frozen_phases(frozen_model, PropagationConfig(duration, n, scheme))
        return np.concatenate([d for _, d in chunks])

    coarse, fine = diagonals(steps, MIDPOINT), diagonals(2 * steps, MIDPOINT)[::2]
    combined = diagonals(steps, CF4)
    assert np.array_equal(combined[0], np.ones(16))
    assert combined[1:].tobytes() == richardson(fine[1:], coarse[1:], diagonal=True).tobytes()


def test_stacked_frozen_frame_steps_stay_diagonal(frozen_model):
    # every step rotation of a frozen frame is the identity, so each
    # duration's final is the product of its diag(p_k), off-diagonals exactly 0
    stacked = final_propagators(frozen_model, STACKED_DURATIONS, STACKED_STEPS)
    assert not stacked[:, ~np.eye(16, dtype=bool)].any()
    assert (stacked[0] == np.eye(16)).all()


def _gauge_twins():
    """random_banded's complex chain G, its real twin G' = D^dag G D and D.

    D = diag(e^{i phi}) makes G'[j, j+1] = |G[j, j+1]|, and D commutes with
    the diagonal energies, so D^dag U D = U' for either scheme.
    """
    model = make_model(rotation="random_banded")
    g = model.rotation.generator
    upper = np.diagonal(g, 1)
    phi = np.concatenate(([0.0], -np.cumsum(np.angle(upper))))
    d = np.exp(1j * phi)
    twin = d.conj()[:, None] * g * d[None, :]
    assert np.abs(twin.imag).max() < 1e-15 and np.allclose(np.diagonal(twin, 1), np.abs(upper), rtol=0, atol=1e-15)
    twin_model = build_model(model.grid, model.dispersion, FrameRotation(twin.real, model.rotation.schedule))
    assert g.imag.any() and not twin_model.rotation.generator.imag.any()
    return model, twin_model, d


def test_real_and_complex_kernels_agree_on_gauge_twins():
    # U runs the midpoint kernel's complex products and U' its real ones.
    # The roundoff of the kernel's rotations grows with the step count, to
    # 1.0e-13 at 20000 steps (4e-12 from the full V diag(exp(i phi lam))
    # V^dag, 2.3e-11 with eigh's V unpolished).
    model, twin_model, d = _gauge_twins()
    durations, steps = [50.0, 100.0, 800.0], 20000
    u = final_propagators(model, durations, steps)
    u_twin = final_propagators(twin_model, durations, steps)
    assert np.abs(d.conj()[:, None] * u * d[None, :] - u_twin).max() < 1e-10


def test_real_and_complex_cf4_kernels_agree_on_gauge_twins():
    # the CF4 twin: U combines two passes of the midpoint kernel's complex
    # products and U' of its real ones, one scheme in exact arithmetic;
    # their difference, 4.7e-14 at T = 400 and 4000 steps, is roundoff
    model, twin_model, d = _gauge_twins()
    durations, steps = [50.0, 100.0, 400.0], 4000
    u = final_propagators(model, durations, steps, CF4)
    u_twin = final_propagators(twin_model, durations, steps, CF4)
    assert np.abs(d.conj()[:, None] * u * d[None, :] - u_twin).max() < 1e-11


@pytest.mark.parametrize("scheme", SCHEMES)
def test_real_and_complex_transports_agree_on_gauge_twins(scheme):
    # D commutes with the masks, so D^dag G_masked D = G'_masked and
    # D^dag A D = A': A steps the lab-frame kernel in complex arithmetic and
    # A' in real arithmetic, at the budget and at many steps
    model, twin_model, d = _gauge_twins()
    for variant in (kato_state(), weyl_band(BandPartition(model.size, 2))):
        for steps in (intertwiner_step_budget(model, variant), 1000):
            a = final_intertwiner(model, variant, steps, scheme)
            a_twin = final_intertwiner(twin_model, variant, steps, scheme)
            assert np.abs(d.conj()[:, None] * a * d[None, :] - a_twin).max() < 1e-11


@pytest.mark.parametrize("name", ["verify-cf4", "kinked_cf4"])
def test_cf4_unitarity_defect_stays_at_roundoff(name):
    # the s = 1 defect of the CF4 key's U on the corpus's CF4 inputs reads
    # 6.7e-14 and 4.6e-14
    config = load_config(SRC.parent / "tests" / "corpus" / name / "input.ini")
    u = final_propagators(config.build_model(), [config.duration], config.steps, config.scheme)
    assert propagation._unitarity_defect(u) <= 2e-13


def test_midpoint_unitarity_defect_at_many_steps():
    # the kernel's two Newton-Schulz steps take |V^dag V - I| from eigh's
    # 1.3e-15 to 2.2e-16, and each R_k is I + E with E from the polished
    # modes, so U's defect reads 1.1e-13 on sweep.cfg's longest T at 20000
    # steps (6.2e-12 from the full V diag(exp(i phi lam)) V^dag, 4.5e-11
    # unpolished)
    model = load_config(SRC.parent / "configs" / "sweep.cfg").build_model()
    u = final_propagators(model, [800.0], 20000)
    assert propagation._unitarity_defect(u) <= 1.5e-11


@pytest.mark.parametrize("rotation, bound", [("nearest_neighbor", 5e-13), ("random_banded", 1e-12)])
def test_midpoint_unitarity_defect_of_i_plus_e_rotations(rotation, bound):
    # sweep.cfg's model on its real chain (1.1e-13 at T = 800 and 20000
    # steps) and on the complex chain of random_banded, width 1, seed 11
    # (9.7e-14), whose R_k = I + E take a complex GEMM
    model = load_config(SRC.parent / "configs" / "sweep.cfg").build_model()
    if rotation == "random_banded":
        model = build_model(model.grid, model.dispersion, random_banded_rotation(16, 1, 11, model.rotation.schedule))
    assert model.rotation.generator.imag.any() == (rotation == "random_banded")
    u = final_propagators(model, [800.0], 20000)
    assert propagation._unitarity_defect(u) <= bound


@pytest.mark.parametrize(
    "n, width", [(15, 1), (16, 1), (33, 1), (16, 3), (17, 16), (24, 5)],
    ids=["nn15", "nn16", "nn33", "banded16w3", "banded17w16", "banded24w5"],
)
def test_half_spectrum_rotations_match_the_full_eigenbasis(n, width):
    # R = I + Re(W diag(exp(i phi) - 1) W^dag) from the lam > 0 modes alone
    # against V diag(exp(i phi lam)) V^dag from the polished full V, at a
    # chunk of midpoint step angles and at frame angles of either sign; odd
    # N and banded24w5 (four zero modes) take the kernel projector
    # implicitly; width 1 is the nearest_neighbor generator
    rotation = banded_rotation(n, width, AngleSchedule("cubic_ramp", 0.4))
    model = build_model(KGrid(1.0, 2.0, n), linear_dispersion(), rotation)
    lam, w, wh = propagation._polished(model)
    full_lam, v = model.frame_eigensystem
    zero_modes = n - 2 * len(lam)
    assert zero_modes == (4 if (n, width) == (24, 5) else n % 2)
    assert (np.sort(np.abs(full_lam))[:zero_modes] < 1e-14).all()
    for _ in range(2):
        v = v @ (3.0 * np.eye(n) - v.conj().T @ v) / 2.0
    theta = model.rotation.schedule.angle((np.arange(_CHUNK) + 0.5) / 20000)
    phi = np.concatenate((np.diff(theta, prepend=0.0), [0.4, -0.4, 1.3]))
    r = propagation._rotations(w, wh, np.multiply.outer(phi, lam))
    reference = (v * np.exp(1j * np.multiply.outer(phi, full_lam))[:, None, :]) @ v.conj().T
    assert r.dtype == float
    assert np.abs(r - reference).max() <= 1e-14
    assert propagation._identity_defect(np.matmul(r.swapaxes(-1, -2), r)) <= 1e-15 * n


def test_frozen_frame_rotations_are_the_identity(frozen_model):
    # (0, I) has no moving mode: W is empty and every R = I exactly
    lam, w, wh = propagation._polished(frozen_model)
    assert lam.size == 0 and w.shape == (16, 0)
    r = propagation._rotations(w, wh, np.zeros((5, 0)))
    assert (r == np.eye(16)).all()


def test_stacked_finals_name_the_smallest_unresolved_duration(monkeypatch, default_model, default_part):
    steps = 256  # resolves T up to about 50 on the default model
    with pytest.raises(StepBudgetError) as err:
        final_propagators(default_model, [9000.0, 20.0, 5000.0], steps)
    assert "T=5000" in str(err.value)

    def no_step(*args, **kwargs):
        raise AssertionError("a step was taken")

    # the stage takes its finals the same way, before any step
    monkeypatch.setattr(propagation, "_midpoint_chunks", no_step)
    with pytest.raises(StepBudgetError) as err:
        final_stage(default_model, kato_state(), default_part, [9000.0, 20.0, 5000.0], steps)
    assert "T=5000" in str(err.value)
    with pytest.raises(ConfigError):
        final_propagators(default_model, [20.0], 0)
    with pytest.raises(ConfigError):
        final_propagators(default_model, [], 256)


def test_stacked_finals_memory_stays_within_chunk_budget():
    # four durations at N=128 take one (chunk, N, N) rotation stack and two
    # (4, N, N) states per pass, not a (chunk, N, N) stack per duration
    model = make_model(n=128)
    model.frame_eigensystem  # cached before measuring
    tracemalloc.start()
    try:
        final_propagators(model, [1.0, 3.0, 6.0, 12.8], _CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _CHUNK_BYTES


def test_cf4_final_memory_stays_within_chunk_budget():
    # the CF4 key's passes at 32 and 64 steps; unchunked, the 64 nodes of
    # the second at N=128 would take 16 MiB
    model = make_model(n=128)
    model.frame_eigensystem  # cached before measuring
    tracemalloc.start()
    try:
        final_propagator(model, PropagationConfig(3.2, 32, CF4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _CHUNK_BYTES


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stepped_final_intertwiner_memory_stays_within_chunk_budget(scheme):
    model = make_model(n=128)
    model.frame_eigensystem
    tracemalloc.start()
    try:
        final_intertwiner(model, kato_state(), 32, scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _CHUNK_BYTES


def test_zero_duration_propagator_is_identity(default_model):
    # each step is Q(s) Q(s)^dag up to roundoff, so identity to ~1e-13
    fam = evolve_propagator(default_model, PropagationConfig(0.0, 8))
    assert np.abs(fam.final - np.eye(16)).max() < 1e-12


# ---- the step exponential -------------------------------------------------------

# One bound, fixed before measuring, on the max-abs distance of a Taylor
# step exponential from the eigh reference and of X^dag X from identity:
# a few unit roundoffs per matrix product, and up to ten products.
def expm_tol(norm: float) -> float:
    return 1e-14 * (1.0 + norm)


def hermitian_stack(rng, count: int, n: int = 8) -> np.ndarray:
    x = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    return x + x.conj().swapaxes(-1, -2)


def one_norms(h: np.ndarray) -> np.ndarray:
    return np.abs(h).sum(axis=-2).max(axis=-1)


def eigh_reference(h: np.ndarray, factor) -> np.ndarray:
    return np.stack([eigh_expm(m, f) for m, f in zip(h, np.broadcast_to(factor, len(h)))])


EXPM_NORMS = sorted(
    {theta * f for _, theta in propagation._TAYLOR_DEGREES for f in (1 - 1e-6, 1 + 1e-6)} | {2.0, 5.0, 10.0}
)


def taylor_backward_error_bound(degree: int, theta: float, terms: int = 60) -> float:
    """sum_{k > degree} |f_k| theta^(k-1) for f = log(exp(-x) T_degree(x)), exact coefficients.

    The relative backward error of the degree-`degree` Taylor polynomial
    at 1-norm theta (Al-Mohy & Higham 2009).  (1 + r) f' = r' with
    1 + r = exp(-x) T_degree(x) gives f term by term.
    """
    from fractions import Fraction

    fact = [math.factorial(k) for k in range(terms)]
    r = [sum(Fraction((-1) ** (k - j), fact[k - j] * fact[j]) for j in range(min(k, degree) + 1))
         for k in range(terms)]
    r[0] = Fraction(0)
    f = [Fraction(0)] * terms
    for k in range(1, terms):
        f[k] = r[k] - sum(r[j] * (k - j) * f[k - j] for j in range(1, k)) / k
    return sum(abs(float(c)) * theta ** (k - 1) for k, c in enumerate(f) if k > degree)


@pytest.mark.parametrize("degree, theta", propagation._TAYLOR_DEGREES)
def test_taylor_thresholds_are_the_double_precision_bounds(degree, theta):
    # each theta is where the backward error reaches 2^-53; the constants
    # carry three digits, which moves the bound by under 2% at degree 16
    assert taylor_backward_error_bound(degree, theta) == pytest.approx(2.0**-53, rel=0.05)


@pytest.mark.parametrize("norm", EXPM_NORMS, ids=lambda x: f"{x:.3g}")
def test_expm_matches_eigh_around_each_threshold(monkeypatch, norm):
    h = hermitian_stack(np.random.default_rng(11), 6)
    factor = norm / one_norms(h).max()  # the stack's largest 1-norm is `norm`
    degrees = []
    original = propagation._taylor

    def recorder(a, degree, *omega):
        degrees.append(degree)
        return original(a, degree, *omega)

    monkeypatch.setattr(propagation, "_taylor", recorder)
    x = propagation._expm(-1j * factor * h)
    assert np.abs(x - eigh_reference(h, factor)).max() < expm_tol(norm)
    # the smallest degree whose threshold covers the norm, else the top one
    fits = [m for m, theta in propagation._TAYLOR_DEGREES if norm <= theta]
    assert degrees == [fits[0] if fits else propagation._TAYLOR_DEGREES[-1][0]]
    # the transports' stages: exp(a) of a real antisymmetric a at omega = 1
    # is real, and exp(a) = exp(-i (i a)) with i a Hermitian
    r = np.random.default_rng(15).normal(size=(6, 8, 8))
    a = r - r.swapaxes(-1, -2)
    factor = norm / one_norms(a).max()
    x = propagation._expm(factor * a)
    assert x.dtype == np.float64
    assert np.abs(x - eigh_reference(1j * a, factor)).max() < expm_tol(norm)
    assert degrees[1:] == degrees[:1]


def test_expm_of_a_mixed_norm_stack():
    # one degree and one squaring count serve the whole stack, set by its
    # largest norm; the small members stay as accurate
    rng = np.random.default_rng(12)
    h = hermitian_stack(rng, 8)
    targets = np.array([0.0, 1e-12, 1e-6, 3e-3, 0.05, 0.5, 2.0, 9.0])
    factors = targets / one_norms(h)
    x = propagation._expm(-1j * factors[:, None, None] * h)
    assert np.array_equal(x[0], np.eye(8))
    assert np.abs(x - eigh_reference(h, factors)).max() < expm_tol(targets.max())


def test_expm_of_zero_is_the_identity_bitwise():
    x = propagation._expm(np.zeros((5, 7, 7), dtype=complex))
    assert np.array_equal(x, np.broadcast_to(np.eye(7), x.shape))


@pytest.mark.parametrize("norm", [1e-3, 0.5, 10.0])
def test_expm_of_a_diagonal_stack_stays_diagonal(norm):
    d = np.random.default_rng(13).uniform(-1.0, 1.0, size=(4, 9))
    d *= norm / np.abs(d).max()
    x = propagation._expm(-1j * np.apply_along_axis(np.diag, -1, d).astype(complex))
    assert not x[:, ~np.eye(9, dtype=bool)].any()
    assert np.abs(np.diagonal(x, axis1=1, axis2=2) - np.exp(-1j * d)).max() < expm_tol(norm)


@pytest.mark.parametrize("norm", [0.026, 0.7, 3.0, 10.0])
def test_expm_unitarity_defect_is_bounded(norm):
    h = hermitian_stack(np.random.default_rng(14), 16, n=16)
    x = propagation._expm(-1j * (norm / one_norms(h).max()) * h)
    assert propagation._unitarity_defect(x) < expm_tol(norm)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_expm_rejects_a_non_finite_stage(bad):
    a = np.zeros((3, 4, 4), dtype=complex)
    a[1, 2, 3] = bad
    with pytest.raises(ConfigError, match="non-finite"):
        propagation._expm(a)


# ---- transport ----------------------------------------------------------------


def test_cf4_transport_matches_exact_solution(default_model):
    # polynomial ramp rate of degree two: the two-point Gauss nodes inside
    # the commutator-free step integrate it exactly, so even 16 steps land
    # on the closed-form transport
    fam = evolve_intertwiner(default_model, kato_state(), 16, CF4)
    oracle = taylor_expm(0.4 * default_model.rotation.generator)
    assert np.abs(fam.final - oracle).max() < 1e-13
    mid = taylor_expm(default_model.rotation.schedule.angle(0.5) * default_model.rotation.generator)
    assert fam.s_nodes[8] == 0.5
    assert np.abs(fam.matrices[8] - mid).max() < 1e-13


def test_midpoint_transport_is_order_two(default_model):
    oracle = taylor_expm(0.4 * default_model.rotation.generator)
    e1 = np.abs(evolve_intertwiner(default_model, kato_state(), 500).final - oracle).max()
    e2 = np.abs(evolve_intertwiner(default_model, kato_state(), 1000).final - oracle).max()
    assert e1 == pytest.approx(3.38e-7, rel=0.05)
    assert e1 / e2 == pytest.approx(4.0, rel=0.05)


def test_band_transport_matches_factorized_solution(default_model, default_part):
    g = default_model.rotation.generator
    g_in = in_band_generator(default_part, g)
    oracle = taylor_expm(0.4 * g) @ taylor_expm(-0.4 * g_in)
    fam = evolve_intertwiner(default_model, weyl_band(default_part), 500, CF4)
    assert np.abs(fam.final - oracle).max() < 1e-11
    fam_mid = evolve_intertwiner(default_model, weyl_band(default_part), 1000, MIDPOINT)
    assert np.abs(fam_mid.final - oracle).max() < 1e-6


@pytest.mark.parametrize("band_variant", [False, True], ids=["kato_state", "weyl_band"])
def test_closed_form_transport_matches_cf4(default_model, default_part, band_variant):
    variant = weyl_band(default_part) if band_variant else kato_state()
    stepped = evolve_intertwiner(default_model, variant, 500, CF4)
    exact = closed_form_family(default_model, variant, stepped.s_nodes)
    assert np.abs(exact.matrices - stepped.matrices).max() < 1e-11
    assert np.array_equal(exact.matrices[0], np.eye(16))
    assert exact.unitarity_defect() < 1e-14
    # the closed form is no scheme of any family
    with pytest.raises(ConfigError):
        PropagationConfig(100.0, 500, "exact")
    with pytest.raises(ConfigError):
        final_intertwiner(default_model, variant, 500, "exact")


def test_transport_is_duration_free(default_model):
    a = final_intertwiner(default_model, kato_state(), 200)
    b = final_intertwiner(default_model, kato_state(), 200)
    assert np.array_equal(a, b)


def test_intertwiner_budget_enforced(default_model):
    with pytest.raises(StepBudgetError):
        evolve_intertwiner(default_model, kato_state(), 1)


def test_intertwine_residual_metric(default_model, default_part):
    # the residual of the exact transport is pure roundoff; the midpoint
    # one at 1000 steps sits at its O(h^2) level
    s_nodes = np.linspace(0.0, 1.0, 101)
    g = default_model.rotation.generator
    mats = np.stack(
        [taylor_expm(default_model.rotation.schedule.angle(s) * g) for s in s_nodes]
    )
    exact = UnitaryFamily("A", s_nodes, mats)
    assert intertwine_residual(exact, default_model, default_part) < 1e-13
    fam = evolve_intertwiner(default_model, kato_state(), 1000)
    assert intertwine_residual(fam, default_model, default_part) == pytest.approx(1.0e-7, rel=0.1)


def test_principal_angle_residual_equals_projector_difference_norm(default_model, default_part):
    fam = evolve_intertwiner(default_model, kato_state(), 200)
    worst = 0.0
    for s, a in zip(fam.s_nodes, fam.matrices):
        q = default_model.frame_matrix(s)
        for members in default_part.bands:
            idx = list(members)
            transported = a[:, idx] @ a[:, idx].conj().T
            target = q[:, idx] @ q[:, idx].conj().T
            worst = max(worst, np.linalg.norm(transported - target, 2))
    assert worst > 1e-7
    assert abs(intertwine_residual(fam, default_model, default_part) - worst) < 1e-11


# ---- phases and the wave operator ---------------------------------------------


def test_dynamical_phase_matches_quadrature(default_model):
    s = np.linspace(0.0, 0.8, 20001)
    quad = np.trapezoid(default_model.energy(5, s), s)
    assert default_model.phase(5, 0.8) == pytest.approx(quad, rel=1e-9)


def test_phase_operator_is_diagonal(default_model):
    phi = phase_operator(default_model, 100.0, 0.7)
    off = phi - np.diag(np.diag(phi))
    assert np.abs(off).max() == 0.0
    expected = np.exp(-1j * 100.0 * np.array([default_model.phase(j, 0.7) for j in range(16)]))
    assert np.abs(np.diag(phi) - expected).max() < 1e-12


def test_phase_family_nodes(default_model):
    fam = phase_family(default_model, 100.0, 50)
    assert fam.kind == "Phi"
    # one vectorised phase call gives the per-state phases bitwise
    per_state = np.stack([default_model.phase(j, fam.s_nodes) for j in range(16)], axis=1)
    assert np.array_equal(np.diagonal(fam.matrices, axis1=1, axis2=2), np.exp(-1j * 100.0 * per_state))
    assert not fam.matrices[:, ~np.eye(16, dtype=bool)].any()
    assert fam.s_nodes[25] == 0.5
    assert np.abs(fam.matrices[25] - phase_operator(default_model, 100.0, 0.5)).max() < 1e-14
    assert fam.unitarity_defect() < 1e-12


def test_wave_operator_structure(default_model):
    steps = 512
    u = evolve_propagator(default_model, PropagationConfig(100.0, steps))
    a = evolve_intertwiner(default_model, kato_state(), steps)
    phi = phase_family(default_model, 100.0, steps)
    w = wave_operator(u, a, phi)
    assert w.kind == "W"
    assert np.abs(w.matrices[0] - np.eye(16)).max() < 1e-14
    # residual evolution stays within O(1/T) of the identity
    dev = deviation_from_identity(w.final)
    assert 0.1 < dev * 100.0 < 25.0
    bad_phi = phase_family(default_model, 100.0, 2 * steps)
    with pytest.raises(ConfigError):
        wave_operator(u, a, bad_phi)
    with pytest.raises(ConfigError):
        wave_operator(a, a, phi)


def test_deviation_from_identity():
    assert deviation_from_identity(np.eye(5)) == 0.0
    m = np.eye(5)
    m[0, 0] = 0.5
    assert deviation_from_identity(m) == pytest.approx(0.5)


# ---- the s=1 stage and its all-node reference ------------------------------


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("band_variant", [False, True], ids=["kato_state", "weyl_band"])
@pytest.mark.parametrize("steps", KERNEL_STEPS)
@pytest.mark.parametrize("name", KERNEL_MODELS)
def test_stream_families_matches_stored_families(name, steps, band_variant, scheme):
    model = _kernel_models()[name]
    part = BandPartition(model.size, 5)  # the last band absorbs the remainder
    variant = weyl_band(part) if band_variant else kato_state()
    config = PropagationConfig(0.1 * steps, steps, scheme)
    u, a, phi, w = stored_families(model, variant, config)
    u1s = final_propagators(model, [config.duration], steps, scheme)
    assert np.array_equal(u1s[0], u.final)
    w1s, _, residual = final_stage(model, variant, part, [config.duration], steps, scheme)
    assert np.array_equal(w1s[0], w.final)
    last_a = UnitaryFamily("A", a.s_nodes[-1:], a.matrices[-1:])
    assert residual == intertwine_residual(last_a, model, part)
    # the all-node reference pass (conftest) reads every node as stored
    streamed = stream_families(model, variant, config)
    for fam in (u, a, w):
        assert streamed[fam.kind] == fam.unitarity_defect()
    # Phi's defect is elementwise in the pass and a matmul on the stored family
    assert abs(streamed["Phi"] - phi.unitarity_defect()) <= 1e-15


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("band_variant", [False, True], ids=["kato_state", "weyl_band"])
def test_s1_defects_carry_the_all_node_maxima(default_model, default_part, band_variant, scheme):
    # verify's unitarity check reads the s=1 stage: s=1 is one of the nodes,
    # so its U and W defects are at most the all-node maxima, and a defect
    # any step adds carries to s=1, so the maxima are at most twice them;
    # A and Phi are closed forms at roundoff on both sides.  The bounds
    # were fixed before measuring.
    variant = weyl_band(default_part) if band_variant else kato_state()
    config = PropagationConfig(100.0, 512, scheme)
    _, at_s1, _ = final_stage(default_model, variant, default_part, [config.duration], config.steps, scheme)
    every_node = stream_families(default_model, variant, config)
    for kind in ("U", "W"):
        assert 0.0 < at_s1[kind] <= every_node[kind] <= 2.0 * at_s1[kind], kind
    for kind in ("A", "Phi"):
        assert max(at_s1[kind], every_node[kind]) <= 1e-14, kind


@pytest.mark.parametrize(
    "n, theta_max", [(7, 0.4), (16, 0.4), (64, 0.4), (128, 0.4), (16, 0.0)],
    ids=["n7", "n16", "n64", "n128", "frozen"],
)
def test_frame_matrix_is_independent_of_the_node_count(n, theta_max):
    model = make_model(theta_max=theta_max, n=n)
    s = np.linspace(0.0, 1.0, 65)
    whole = model.frame_matrix(s)
    for lo, hi in ((0, 1), (64, 65), (5, 7), (10, 26), (0, 17), (30, 64)):
        assert np.array_equal(model.frame_matrix(s[lo:hi]), whole[lo:hi])
    for k, x in enumerate(s):
        assert np.array_equal(model.frame_matrix(x), whole[k])
    assert np.array_equal(whole[0], np.eye(n))
    if theta_max == 0.0:
        assert np.array_equal(whole, np.broadcast_to(np.eye(n), whole.shape))


@pytest.mark.parametrize(
    "scheme, steps", [(None, 300), (MIDPOINT, 1000), (CF4, 200)], ids=["exact", "midpoint", "cf4"]
)
@pytest.mark.parametrize("band_variant", [False, True], ids=["kato_state", "weyl_band"])
def test_off_block_residual_matches_projector_formula(default_model, scheme, steps, band_variant):
    # scheme None is the closed-form A on the same steps+1 nodes
    part = BandPartition(16, 3)  # ragged: the last band has four states
    variant = weyl_band(part) if band_variant else kato_state()
    if scheme is None:
        fam = closed_form_family(default_model, variant, np.linspace(0.0, 1.0, steps + 1))
    else:
        fam = evolve_intertwiner(default_model, variant, steps, scheme)
    residual = intertwine_residual(fam, default_model, part)
    assert abs(residual - projector_residual_loop(fam, default_model, part)) <= 1e-14
    if scheme is not None:
        streamed = propagation.transport_residual(default_model, variant, part, steps, scheme)
        assert streamed == residual


@pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3_uneven"])
@pytest.mark.parametrize("band_variant", [False, True], ids=["kato_state", "weyl_band"])
def test_chunk_residual_equals_a_per_node_svd_of_each_off_block(default_model, m, band_variant):
    # sigma_max(X[ext(b), b]) of X = Q^dag A at every node of a stored CF4
    # transport, by one SVD per node and band; at m = 3 the last band has
    # four states
    part = BandPartition(16, m)
    variant = weyl_band(part) if band_variant else kato_state()
    fam = evolve_intertwiner(default_model, variant, 200, CF4)
    x = np.matmul(default_model.frame_matrix(fam.s_nodes).conj().swapaxes(-1, -2), fam.matrices)
    worst = 0.0
    for node in x:
        for members in part.bands:
            ext = [j for j in range(16) if j not in members]
            worst = max(worst, float(np.linalg.svd(node[np.ix_(ext, members)], compute_uv=False)[0]))
    assert worst > 0.0
    assert abs(propagation._chunk_residual(part, x) - worst) <= 1e-15 * worst


def test_transport_residual_validation(default_model, default_part):
    with pytest.raises(ConfigError):
        propagation.transport_residual(default_model, kato_state(), default_part, 300, "exact")
    with pytest.raises(StepBudgetError):
        propagation.transport_residual(default_model, kato_state(), default_part, 1, MIDPOINT)


def test_final_stage_rejects_a_foreign_partition(default_model):
    # the residual is read against the model's own partition
    with pytest.raises(ConfigError, match="grid sizes disagree"):
        final_stage(default_model, kato_state(), BandPartition(8, 2), [50.0, 60.0], 512)
