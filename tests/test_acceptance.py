"""Acceptance battery: one test and one printed verdict line per criterion.

Every tolerance is stated literally at the assertion site.  The expensive
artifacts (the four operator families at the default settings and the
five-duration sweep) are built once per module and shared.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from adiabatic_continuum import (
    CF4,
    BandPartition,
    PropagationConfig,
    adiabatic_criterion,
    band_projector,
    evolve_intertwiner,
    evolve_propagator,
    final_propagator,
    fit_power_law,
    generator,
    generator_in_frame,
    intertwine_residual,
    kato_state,
    leakage_exact,
    leakage_wave_form,
    phase_family,
    sweep_leakage,
    transition_integral,
    transition_integral_parts,
    wave_operator,
    weyl_band,
)
from conftest import J0, M, N, make_model, run_cli

REPO = Path(__file__).resolve().parents[1]


def verdict(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {num:02d} {label}: {detail}")
    assert ok, f"{num:02d} {label}: {detail}"


@pytest.fixture(scope="module")
def model():
    return make_model()


@pytest.fixture(scope="module")
def part():
    return BandPartition(N, M)


@pytest.fixture(scope="module")
def families(model):
    """Default-settings families at T=100, steps=4000, plus a half-step
    transport and a higher-order transport for the exact-frame checks."""
    out = {}
    t0 = time.perf_counter()
    out["a_mid"] = evolve_intertwiner(model, kato_state(), 4000)
    out["a_half"] = evolve_intertwiner(model, kato_state(), 2000)
    out["transport_seconds"] = time.perf_counter() - t0
    out["u"] = evolve_propagator(model, PropagationConfig(100.0, 4000))
    out["phi"] = phase_family(model, 100.0, 4000)
    out["w_mid"] = wave_operator(out["u"], out["a_mid"], out["phi"])
    out["a_cf4"] = evolve_intertwiner(model, kato_state(), 4000, CF4)
    out["w_cf4"] = wave_operator(out["u"], out["a_cf4"], out["phi"])
    return out


@pytest.fixture(scope="module")
def sweep(model, part):
    t0 = time.perf_counter()
    rows = sweep_leakage(model, part, J0, [50.0, 100.0, 200.0, 400.0, 800.0], steps=20000)
    return rows, time.perf_counter() - t0


def test_01_frozen_frame_is_trivial(capsys):
    t0 = time.perf_counter()
    frozen = make_model(theta_max=0.0)
    fpart = BandPartition(N, M)
    k_max = max(
        float(np.abs(generator(frozen, kato_state(), s)).max())
        for s in np.linspace(0.0, 1.0, 9)
    )
    a = evolve_intertwiner(frozen, kato_state(), 16)
    a_dev = float(np.abs(a.matrices - np.eye(N)).max())
    eta_worst = 0.0
    u_phi_worst = 0.0
    for duration, steps in ((0.0, 16), (100.0, 512)):
        u = evolve_propagator(frozen, PropagationConfig(duration, steps))
        phi = phase_family(frozen, duration, steps)
        u_phi_worst = max(u_phi_worst, float(np.abs(u.matrices - phi.matrices).max()))
        eta_worst = max(eta_worst, leakage_exact(frozen, u.final, fpart, J0))
    elapsed = time.perf_counter() - t0
    ok = (eta_worst <= 1e-12 and k_max <= 1e-15 and a_dev <= 1e-12
          and u_phi_worst <= 1e-10 and elapsed < 1.0)
    verdict(capsys, 1, "frozen frame is trivial", ok,
            f"eta={eta_worst:.1e} K={k_max:.1e} A-I={a_dev:.1e} "
            f"U-Phi={u_phi_worst:.1e} t={elapsed:.2f}s")


def test_02_projector_algebra(capsys, model, part):
    idem = herm = trace = res = 0.0
    for s in (0.0, 0.5, 1.0):
        total = np.zeros((N, N), dtype=complex)
        for b in range(len(part.bands)):
            p = band_projector(model, part, b, s).matrix
            idem = max(idem, float(np.abs(p @ p - p).max()))
            herm = max(herm, float(np.abs(p - p.conj().T).max()))
            trace = max(trace, abs(complex(np.trace(p)) - len(part.members(b))))
            total += p
        res = max(res, float(np.abs(total - np.eye(N)).max()))
    ok = idem <= 1e-12 and herm <= 1e-13 and trace <= 1e-10 and res <= 1e-12
    verdict(capsys, 2, "projectors are an orthogonal resolution", ok,
            f"idem={idem:.1e} herm={herm:.1e} trace={trace:.1e} sum-I={res:.1e}")


def test_03_every_family_stays_unitary(capsys, families):
    defects = {
        kind: families[key].unitarity_defect()
        for kind, key in (("U", "u"), ("A", "a_mid"), ("Phi", "phi"), ("W", "w_mid"))
    }
    worst = max(defects.values())
    ok = worst <= 1e-9
    verdict(capsys, 3, "unitarity at every node", ok,
            " ".join(f"{kind}={val:.1e}" for kind, val in defects.items()))


def test_04_transport_intertwines_projectors(capsys, model, part, families):
    t0 = time.perf_counter()
    r_full = intertwine_residual(families["a_mid"], model, part)
    r_half = intertwine_residual(families["a_half"], model, part)
    elapsed = time.perf_counter() - t0 + families["transport_seconds"]
    factor = r_half / r_full
    ok = r_full <= 1e-6 and 3.0 <= factor <= 5.0 and elapsed < 30.0
    verdict(capsys, 4, "intertwining residual and its halving factor", ok,
            f"residual={r_full:.2e} factor={factor:.2f} t={elapsed:.1f}s")


def test_05_band_variant_degeneracies(capsys, model, part):
    same_band = 0.0
    for s in (0.1, 0.5, 0.9):
        kf = generator_in_frame(model, weyl_band(part), s)
        for b in range(len(part.bands)):
            members = list(part.members(b))
            same_band = max(same_band, float(np.abs(kf[np.ix_(members, members)]).max()))
    trivial = BandPartition(N, 1)
    collapse = max(
        float(np.abs(generator(model, weyl_band(trivial), s)
                     - generator(model, kato_state(), s)).max())
        for s in np.linspace(0.0, 1.0, 5)
    )
    ok = same_band <= 1e-15 and collapse <= 1e-14
    verdict(capsys, 5, "band mask zeros in-band rows; width one collapses", ok,
            f"in-band={same_band:.1e} width-one-diff={collapse:.1e}")


def test_06_transition_integral_structure(capsys, model, part):
    in_band = transition_integral(model, weyl_band(part), J0, 0, 100.0)
    # the rotation only couples consecutive states, so the pairs with
    # nonzero F are the five band-boundary neighbors
    pairs = ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10))
    parts_gap = 0.0
    ratios = []
    for j0, j in pairs:
        direct = transition_integral(model, kato_state(), j0, j, 200.0)
        parts = transition_integral_parts(model, kato_state(), j0, j, 200.0)
        parts_gap = max(parts_gap, abs(direct - parts.total))
        f_400 = abs(transition_integral(model, kato_state(), j0, j, 400.0))
        ratios.append(f_400 / abs(direct))
    ok = (in_band == 0j and parts_gap <= 1e-8
          and all(0.3 <= r <= 0.7 for r in ratios))
    verdict(capsys, 6, "transition integrals: mask, by-parts, 1/T decay", ok,
            f"in-band={abs(in_band):.1e} by-parts-gap={parts_gap:.1e} "
            f"ratios={min(ratios):.2f}..{max(ratios):.2f}")


def test_07_leakage_decays_quadratically(capsys, sweep):
    rows, elapsed = sweep
    fit = fit_power_law([r.duration for r in rows], [r.eta_exact for r in rows])
    ok = -2.5 <= fit.slope <= -1.5 and fit.r_squared >= 0.95 and elapsed < 300.0
    verdict(capsys, 7, "leakage decay exponent over five durations", ok,
            f"slope={fit.slope:.3f} r2={fit.r_squared:.4f} t={elapsed:.1f}s")


def test_08_first_order_tracks_exact_leakage(capsys, sweep):
    rows, _ = sweep
    slowest = rows[-1]
    rel = abs(slowest.eta_first_order - slowest.eta_exact) / slowest.eta_exact
    ok = slowest.duration == 800.0 and rel <= 0.30
    verdict(capsys, 8, "first-order estimate at the slowest ramp", ok,
            f"T={slowest.duration:g} rel-dev={rel:.2e}")


def test_09_wave_form_equals_projector_form(capsys, model, part, families):
    eta_u = leakage_exact(model, families["u"].final, part, J0)
    eta_w = leakage_wave_form(model, families["w_cf4"].final, part, J0)
    gap = abs(eta_w - eta_u)
    ok = gap <= 1e-10
    verdict(capsys, 9, "residual-operator and projector leakage agree", ok,
            f"|eta_w-eta_u|={gap:.1e} eta={eta_u:.3e}")


def test_10_rotation_angle_scaling(capsys, part):
    strong = adiabatic_criterion(make_model(0.4), part, J0)
    weak = adiabatic_criterion(make_model(0.04), part, J0)
    lin_dev = abs(strong.margin / (10.0 * weak.margin) - 1.0)
    cfg = PropagationConfig(400.0, 4096)
    eta_strong = leakage_exact(make_model(0.4), final_propagator(make_model(0.4), cfg),
                               part, J0)
    eta_weak = leakage_exact(make_model(0.04), final_propagator(make_model(0.04), cfg),
                             part, J0)
    ratio = eta_strong / eta_weak
    ok = lin_dev <= 1e-12 and 50.0 <= ratio <= 200.0
    verdict(capsys, 10, "margin linear, leakage quadratic in the angle", ok,
            f"margin-lin-dev={lin_dev:.1e} eta-ratio={ratio:.1f}")


def test_11_cli_determinism_and_self_check(capsys, tmp_path):
    out = tmp_path / "sweep_out"
    sweep_cfg = str(REPO / "configs" / "sweep.cfg")
    names = ("report.json", "sweep.csv", "resolved_config.json")

    serial = run_cli("sweep", "--config", sweep_cfg, "--out", str(out), "--jobs", "1")
    first = {name: (out / name).read_bytes() for name in names}
    threaded = run_cli("sweep", "--config", sweep_cfg, "--out", str(out), "--jobs", "8")
    identical = all((out / name).read_bytes() == first[name] for name in names)

    check = run_cli("verify", "--config", str(REPO / "configs" / "default.cfg"),
                    "--out", str(tmp_path / "verify_out"))

    ok = (serial.returncode == 0 and threaded.returncode == 0 and identical
          and check.returncode == 0)
    report = json.loads(first["report.json"])
    verdict(capsys, 11, "job-count invariance and shipped-config self-check", ok,
            f"identical={identical} slope={report['fit']['slope']:.3f} "
            f"verify-exit={check.returncode}")
