"""Grid, dispersion, schedule, rotation, and frame-bundle unit tests."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiabatic_continuum import (
    ANGLE_SCHEDULES,
    ROTATION_BUILDERS,
    AngleSchedule,
    ConfigError,
    ContinuumModel,
    DegenerateSpectrumError,
    FrameRotation,
    KGrid,
    banded_rotation,
    build_model,
    linear_dispersion,
    nearest_neighbor_rotation,
    quadratic_dispersion,
    random_banded_rotation,
    tabulated_dispersion,
)
from adiabatic_continuum.spectral import _splitmix64

from conftest import make_model, taylor_expm


# ---- grid ----------------------------------------------------------------


def test_grid_nodes_and_spacing():
    grid = KGrid(1.0, 2.0, 16)
    assert grid.nodes[0] == 1.0
    assert grid.nodes[-1] == 2.0
    assert grid.spacing == pytest.approx(1.0 / 15.0, rel=1e-15)
    assert len(grid.nodes) == 16
    assert not grid.nodes.flags.writeable


def test_grid_validation():
    with pytest.raises(ConfigError):
        KGrid(1.0, 2.0, 1)
    with pytest.raises(ConfigError):
        KGrid(2.0, 1.0, 8)
    with pytest.raises(ConfigError):
        KGrid(1.0, 1.0, 8)
    for k_min, k_max in [(1.0, np.inf), (-np.inf, 1.0), (-np.inf, np.inf)]:
        with pytest.raises(ConfigError, match="finite"):
            KGrid(k_min, k_max, 16)


# ---- dispersion families ---------------------------------------------------


def _fd(fn, s, h=1e-6):
    return (fn(s + h) - fn(s - h)) / (2.0 * h)


@pytest.mark.parametrize(
    "disp",
    [linear_dispersion(1.0, 1.0), quadratic_dispersion(1.0, 0.5),
     tabulated_dispersion([1.0, 1.3, 1.1, 2.0])],
    ids=["linear", "quadratic", "tabulated"],
)
def test_phase_is_antiderivative_of_energy(disp):
    k = 1.4
    for s in (0.11, 0.5, 0.77):
        fd = _fd(lambda x: disp.phase(k, x), s)
        assert fd == pytest.approx(disp.energy(k, s), rel=1e-7, abs=1e-9)
        fd_rate = _fd(lambda x: disp.energy(k, x), s)
        assert fd_rate == pytest.approx(disp.kappa(k) * disp.profile_rate(s), rel=1e-6, abs=1e-7)


def test_linear_dispersion_values():
    disp = linear_dispersion(1.0, 1.0)
    assert disp.energy(1.5, 0.0) == 1.5
    assert disp.energy(1.5, 1.0) == 3.0
    assert disp.phase(2.0, 1.0) == pytest.approx(3.0)  # 2 * (1 + 1/2)


def test_quadratic_dispersion_scales_with_k_squared():
    disp = quadratic_dispersion(1.0, 0.5)
    assert disp.energy(2.0, 0.4) == pytest.approx(4.0 * disp.energy(1.0, 0.4))


def test_tabulated_dispersion_hits_breakpoints():
    values = [1.0, 2.0, 1.5]
    disp = tabulated_dispersion(values)
    for i, f in enumerate(values):
        s = i / (len(values) - 1)
        assert disp.energy(1.0, s) == pytest.approx(f)
    # piecewise linear between breakpoints
    assert disp.energy(1.0, 0.25) == pytest.approx(1.5)


def test_tabulated_phase_matches_trapezoid():
    disp = tabulated_dispersion([1.0, 1.7, 1.2, 2.2, 1.9])
    s = np.linspace(0.0, 0.83, 20001)
    quad = np.trapezoid(disp.energy(1.3, s), s)
    assert disp.phase(1.3, 0.83) == pytest.approx(quad, rel=1e-8)


@given(
    a=st.floats(0.1, 5.0, allow_nan=False),
    b=st.floats(0.0, 5.0, allow_nan=False),
    s=st.floats(0.0, 1.0, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_linear_phase_closed_form(a, b, s):
    disp = linear_dispersion(a, b)
    assert disp.phase(1.0, s) == pytest.approx(a * s + b * s * s / 2.0, abs=1e-12)


@pytest.mark.parametrize("make", [linear_dispersion, quadratic_dispersion], ids=["linear", "quadratic"])
def test_affine_profiles_keep_their_closed_forms(make):
    # a one-segment table with the declared slope b reproduces a + b*s, its
    # integral a*s + b*s^2/2 and its rate b bitwise, not only to roundoff
    s = np.concatenate([np.linspace(0.0, 1.0, 101), [1e-300, 0.3, 1.0 - 2.0**-53]])
    params = [(1.0, 1.0), (1.0, 0.5), (1.0, 1e-10), (1.0, 0.3), (0.7, 1.9), (2.0, -1.5)]
    params += [tuple(p) for p in np.random.default_rng(7).uniform(-3.0, 3.0, (20, 2))]
    for a, b in params:
        disp = make(a, b)
        assert np.array_equal(disp.profile(s), a + b * s)
        assert np.array_equal(disp.profile_integral(s), a * s + 0.5 * b * s * s)
        assert np.array_equal(disp.profile_rate(s), np.full(s.shape, b))
        assert [disp.profile(x) for x in (0.0, 0.3, 1.0)] == [a, a + b * 0.3, a + b]
        assert disp.profile_rate(0.3) == b


@pytest.mark.parametrize(
    "disp",
    [linear_dispersion(1.0, 1.0), linear_dispersion(2.0, -1.5), quadratic_dispersion(0.7, 1.9),
     tabulated_dispersion([1.0, 1.3, 1.9, 2.0]), tabulated_dispersion([1.0, 1.7, 1.2, 2.2, 1.9]),
     tabulated_dispersion([-0.5, 0.8, -1.1])],
    ids=["linear", "linear_falling", "quadratic", "tabulated_kinked", "tabulated_wavy", "tabulated_signed"],
)
def test_profile_range_bounds_a_dense_scan(disp):
    # f is linear between its knots, so its range on [0, 1] is the range of
    # the knot values: a dense scan through every knot reaches both ends
    # exactly and never leaves them
    f = disp.profile(np.concatenate([np.linspace(0.0, 1.0, 100001), disp.knots]))
    lo, hi = disp.profile_range()
    assert (lo, hi) == (f.min(), f.max())


def test_dispersion_rejects_unknown_family():
    with pytest.raises(ConfigError):
        from adiabatic_continuum import DispersionSchedule

        DispersionSchedule("cubic", (1.0, 1.0))


# ---- angle schedules -------------------------------------------------------


@pytest.mark.parametrize("kind", ANGLE_SCHEDULES)
def test_schedule_endpoints(kind):
    sched = AngleSchedule(kind, 0.4)
    assert sched.angle(0.0) == 0.0
    assert sched.angle(1.0) == pytest.approx(0.4, rel=1e-15)


@pytest.mark.parametrize("kind", ANGLE_SCHEDULES)
def test_schedule_rate_is_derivative(kind):
    sched = AngleSchedule(kind, 0.4)
    for s in (0.2, 0.5, 0.9):
        fd = _fd(lambda x: sched.angle(x), s)
        assert fd == pytest.approx(sched.angle_rate(s), rel=1e-7, abs=1e-9)
        fd_rate = _fd(lambda x: sched.angle_rate(x), s)
        assert fd_rate == pytest.approx(sched.angle_accel(s), rel=1e-7, abs=1e-9)
    grid = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(sched.angle_accel(grid), [sched.angle_accel(x) for x in grid])


def test_cubic_ramp_boundary_rates():
    sched = AngleSchedule("cubic_ramp", 0.4)
    assert sched.angle_rate(0.0) == 0.0
    assert sched.angle_rate(1.0) == pytest.approx(1.2)


def test_smoothstep_kills_both_boundary_rates():
    sched = AngleSchedule("smoothstep", 0.4)
    assert sched.angle_rate(0.0) == 0.0
    assert sched.angle_rate(1.0) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("theta_max", [0.4, -0.3, 0.0])
@pytest.mark.parametrize("kind", ANGLE_SCHEDULES)
def test_max_rate_is_the_exact_maximum(kind, theta_max):
    # the uniform scans of 65 and 129 points hold the peak node (1/2 or 1),
    # so they agree bitwise; a finer scan can only approach it from below
    sched = AngleSchedule(kind, theta_max)
    peak = sched.max_rate()
    assert isinstance(peak, float)
    for n in (65, 129):
        assert peak == np.abs(sched.angle_rate(np.linspace(0.0, 1.0, n))).max()
    assert peak >= np.abs(sched.angle_rate(np.linspace(0.0, 1.0, 10001))).max()


def test_schedule_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        AngleSchedule("quartic", 0.4)


# ---- rotation builders -----------------------------------------------------


def test_nearest_neighbor_structure():
    rot = nearest_neighbor_rotation(6, AngleSchedule("cubic_ramp", 0.4))
    g = rot.generator
    assert g[0, 1] == 1.0
    assert g[1, 0] == -1.0
    assert np.all(np.diag(g) == 0.0)
    assert np.array_equal(g, np.triu(g, 1) + np.tril(g, -1))
    off = np.abs(g) != 0
    assert np.array_equal(off, np.eye(6, k=1, dtype=bool) | np.eye(6, k=-1, dtype=bool))


def test_banded_rotation_width():
    rot = banded_rotation(8, 2, AngleSchedule("cubic_ramp", 0.4))
    g = rot.generator
    assert g[0, 2] != 0.0
    assert g[0, 3] == 0.0
    assert np.allclose(g, -g.conj().T)


def test_random_banded_rotation_deterministic():
    sched = AngleSchedule("cubic_ramp", 0.4)
    g1 = random_banded_rotation(8, 2, 1234, sched).generator
    g2 = random_banded_rotation(8, 2, 1234, sched).generator
    g3 = random_banded_rotation(8, 2, 1235, sched).generator
    assert np.array_equal(g1, g2)
    assert not np.array_equal(g1, g3)
    assert np.allclose(g1, -g1.conj().T)
    assert np.all(np.diag(g1) == 0.0)
    # the stated stream order: offsets outward, rows down, real part first
    stream = _splitmix64(1234)
    ref = np.zeros((8, 8), dtype=complex)
    for w in (1, 2):
        for j in range(8 - w):
            re = 2.0 * next(stream) - 1.0
            im = 2.0 * next(stream) - 1.0
            ref[j, j + w] = re + 1j * im
            ref[j + w, j] = -(re - 1j * im)
    assert np.array_equal(g1, ref)


def test_splitmix_stream_is_stable():
    it = _splitmix64(42)
    first = [next(it) for _ in range(4)]
    it2 = _splitmix64(42)
    assert first == [next(it2) for _ in range(4)]
    assert all(0.0 <= x < 1.0 for x in first)


def test_frame_rotation_rejects_bad_generators():
    sched = AngleSchedule("cubic_ramp", 0.4)
    sym = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ConfigError):
        FrameRotation(sym, sched)
    diag = np.array([[1.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ConfigError):
        FrameRotation(diag, sched)
    # |G + G^dag| of a NaN entry is NaN, which no tolerance comparison rejects
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="finite"):
            FrameRotation(np.array([[0.0, bad], [-bad, 0.0]]), sched)


# ---- frame bundle ----------------------------------------------------------


def test_frame_matrix_is_identity_at_start(default_model):
    q0 = default_model.frame_matrix(0.0)
    assert np.array_equal(q0, np.eye(16))


def test_frame_matrix_matches_series_exponential(default_model):
    for s in (0.3, 0.7, 1.0):
        theta = default_model.rotation.schedule.angle(s)
        oracle = taylor_expm(theta * default_model.rotation.generator)
        assert np.abs(default_model.frame_matrix(s) - oracle).max() < 1e-13


def test_frame_matrix_unitary(default_model):
    q = default_model.frame_matrix(0.63)
    assert np.abs(q.conj().T @ q - np.eye(16)).max() < 1e-14


def test_frame_vector_is_column(default_model):
    # phi_3(s) = exp(theta(s) G) e_3 is column 3 of Q(s) at every stacked node
    s = np.array([0.2, 0.5, 0.9])
    q = default_model.frame_matrix(s)
    for x, col in zip(s, q[:, :, 3]):
        theta = default_model.rotation.schedule.angle(x)
        assert np.allclose(col, taylor_expm(theta * default_model.rotation.generator)[:, 3])


def test_frame_coupling_closed_form(default_model):
    # <phi_a | d/ds phi_b> = theta'(s) * G[a, b] for a single-generator frame
    for s in (0.2, 0.9):
        rate = default_model.rotation.schedule.angle_rate(s)
        got = complex(default_model.frame_coupling_profile(1, 2, s)[0])
        assert got == pytest.approx(rate * 1.0, rel=1e-12)
        got_rev = complex(default_model.frame_coupling_profile(2, 1, s)[0])
        assert got_rev == pytest.approx(-rate * 1.0, rel=1e-12)


@pytest.mark.parametrize("builder", ROTATION_BUILDERS)
def test_frame_coupling_matches_frame_matrix_oracle(builder):
    # theta' * phi_a^dag G phi_b and theta'' * phi_a^dag G phi_b, with the
    # frame vectors taken from frame_matrix instead of assuming [Q, G] = 0
    sched = AngleSchedule("smoothstep", 0.7)
    rotation = {
        "nearest_neighbor": lambda: nearest_neighbor_rotation(8, sched),
        "banded": lambda: banded_rotation(8, 3, sched),
        "random_banded": lambda: random_banded_rotation(8, 2, 7, sched),
    }[builder]()
    model = build_model(KGrid(1.0, 2.0, 8), linear_dispersion(), rotation)
    g = rotation.generator
    s = np.array([0.0, 0.3, 0.75, 1.0])
    for a, b in [(0, 1), (2, 4), (3, 3), (6, 5), (1, 7)]:
        overlap = np.array([
            model.frame_matrix(x)[:, a].conj() @ g @ model.frame_matrix(x)[:, b] for x in s
        ])
        got = model.frame_coupling_profile(a, b, s)
        assert np.abs(got - sched.angle_rate(s) * overlap).max() < 1e-13
        got_rate = model.frame_coupling_rate_profile(a, b, s)
        assert np.abs(got_rate - sched.angle_accel(s) * overlap).max() < 1e-13


def test_frame_coupling_against_finite_difference(default_model):
    s, h = 0.47, 1e-6
    qp = default_model.frame_matrix(s + h)
    qm = default_model.frame_matrix(s - h)
    qdot = (qp - qm) / (2.0 * h)
    fd = default_model.frame_matrix(s)[:, 4].conj() @ qdot[:, 5]
    got = complex(default_model.frame_coupling_profile(4, 5, s)[0])
    assert got == pytest.approx(fd, rel=1e-7)


def test_frame_matrix_stacks_over_s(default_model):
    s = np.array([0.0, 0.5, 1.0])
    sl = default_model.frame_matrix(s)[..., [0, 1]]
    assert sl.shape == (3, 16, 2)
    assert np.allclose(sl[1], default_model.frame_matrix(0.5)[:, [0, 1]])
    assert default_model.frame_matrix(s.reshape(3, 1)).shape == (3, 1, 16, 16)


def test_hamiltonian_spectrum_matches_dispersion(default_model):
    s = 0.6
    h = default_model.hamiltonian(s)
    assert np.abs(h - h.conj().T).max() < 1e-14
    evals = np.linalg.eigvalsh(h)
    expected = np.sort(np.asarray(default_model.energies(s)))
    assert np.abs(evals - expected).max() < 1e-12


def test_energies_vectorized_shape(default_model):
    s = np.linspace(0.0, 1.0, 7)
    assert np.asarray(default_model.energies(s)).shape == (7, 16)
    assert default_model.max_energy() == pytest.approx(4.0)


def test_build_model_rejects_degenerate_spectrum():
    # profile vanishes at a knot: all grid energies coincide
    with pytest.raises(DegenerateSpectrumError, match=r"min adjacent separation 0\.000e\+00"):
        make_model(dispersion=tabulated_dispersion([1.0, 0.0, 1.0, 1.0, 1.0]))
    # profile dips to 1e-10: adjacent energies 1/15 * 1e-10 apart, below EPS_CROSS
    with pytest.raises(DegenerateSpectrumError, match=r"\[0\.0000, 1\.0000\]: min adjacent separation 6\.667e-12"):
        make_model(dispersion=tabulated_dispersion([1.0, 1e-10, 1.0]))
    # profile crosses 0 between knots, off every uniform sample grid
    flip = tabulated_dispersion([1.0, -0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(DegenerateSpectrumError, match=r"s-interval \[0\.0000, 0\.1250\]"):
        make_model(dispersion=flip)


def test_bare_model_rejects_crossing_between_knots():
    # the profile dips below 0 between the knots s = 0 and 0.125, off every
    # uniform sample grid: every pair's mismatch vanishes twice there, so the
    # model cannot be built, with or without build_model, nor a built one
    # switched to it
    flip = tabulated_dispersion([1.0, -0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    rotation = nearest_neighbor_rotation(16, AngleSchedule("cubic_ramp", 0.4))
    with pytest.raises(DegenerateSpectrumError, match=r"s-interval \[0\.0000, 0\.1250\]"):
        ContinuumModel(KGrid(1.0, 2.0, 16), flip, rotation)
    with pytest.raises(dataclasses.FrozenInstanceError):
        make_model().dispersion = flip


def test_max_energy_exact_on_kinked_table():
    # max |E| = k_max * f(1/3) = 2 * 1.6, at a knot no uniform sample hits
    model = make_model(dispersion=tabulated_dispersion([1.0, 1.6, 0.7, 1.2]))
    assert model.max_energy() == pytest.approx(3.2, rel=1e-15, abs=0.0)


def test_frozen_frame_is_constant(frozen_model):
    assert np.array_equal(frozen_model.frame_matrix(0.8), np.eye(16))
    assert np.array_equal(frozen_model.frame_coupling_profile(1, 2, [0.3, 0.8]), np.zeros(2))
    slices = frozen_model.frame_matrix([0.3, 0.8])
    assert np.array_equal(slices, np.broadcast_to(np.eye(16), (2, 16, 16)))
