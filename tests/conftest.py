"""Shared fixtures and independent oracles.

The matrix exponential oracle below uses scaling-and-squaring with a
plain 40-term Taylor series, so it shares no code path with the closed
forms inside the package.  eigh_expm exponentiates a Hermitian matrix
through its eigendecomposition, independently of the package's
Paterson-Stockmeyer Taylor step exponentials.  The midpoint and
transport loops below are the step-by-step lab-frame forms of the
stepped schemes, built from frame_matrix() and the closed-form phases,
or from generator() and eigh_expm at every stage, kept as the references
for the package's chunked kernels; richardson_loop combines two midpoint
loops into the CF4 key's U.  stored_families and
projector_residual_loop are the stored-family path and the per-band
residual formula that the streamed pass and its off-block residual
replaced, kept as their references.  stream_families is the all-node
unitarity pass that verify's s = 1 check replaced, kept as its
reference.  exact_final_propagator and
exact_final_residual are closed forms of U(1) and W(1) on the
constant-rate model (constant_rate_model), exact at any T and N.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adiabatic_continuum import (
    CF4,
    HBAR,
    AngleSchedule,
    BandPartition,
    DispersionSchedule,
    KGrid,
    build_model,
    evolve_propagator,
    generator,
    linear_dispersion,
    nearest_neighbor_rotation,
    phase_family,
    random_banded_rotation,
    wave_operator,
)
from adiabatic_continuum.propagation import (
    UnitaryFamily,
    _exact_transport,
    _residual_operator,
    _unitarity_defect,
    phase_factors,
    propagator_nodes,
)

N = 16
THETA_MAX = 0.4
J0 = 1
M = 2

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args, cwd=None):
    """`python ARGS` in a child that imports this checkout's package."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
    )


def run_cli(*args):
    """`python -m adiabatic_continuum ARGS` in a child that imports this checkout."""
    return run_python("-m", "adiabatic_continuum", *args)


def taylor_expm(a: np.ndarray, terms: int = 40) -> np.ndarray:
    """exp(a) by scaling-and-squaring over a truncated Taylor series."""
    a = np.asarray(a, dtype=complex)
    norm = float(np.abs(a).sum(axis=1).max())
    squarings = max(0, int(np.ceil(np.log2(norm / 0.25))) if norm > 0.25 else 0)
    b = a / (2.0**squarings)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def midpoint_loop(model, duration: float, steps: int) -> np.ndarray:
    """U at all steps+1 nodes from Q(s_m) diag(p) Q(s_m)^dag u, one step at a time.

    p is exp(-i T (alpha(s_1) - alpha(s_0))), the exact dynamical phase over
    the step [s_0, s_1] from the closed-form phases alpha.
    """
    ds = 1.0 / steps
    k = model.grid.nodes
    u = np.eye(model.size, dtype=complex)
    out = [u]
    for step in range(steps):
        sm = step * ds + 0.5 * ds
        q = model.frame_matrix(sm)
        alpha = model.dispersion.phase(k, step * ds), model.dispersion.phase(k, (step + 1) * ds)
        phases = np.exp(-1j * duration * (alpha[1] - alpha[0]))
        u = q @ (phases[:, None] * (q.conj().T @ u))
        out.append(u)
    return np.array(out)


# Two-point Gauss nodes on [0, 1] and the commutator-free order-4 weights
# (Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)).
CF4_NODES = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
CF4_WEIGHTS = (0.25 + np.sqrt(3.0) / 6.0, 0.25 - np.sqrt(3.0) / 6.0)


def eigh_expm(h: np.ndarray, factor: float) -> np.ndarray:
    """exp(-1j * factor * h) for Hermitian h, from one eigh."""
    w, p = np.linalg.eigh(h)
    return (p * np.exp(-1j * factor * w)) @ p.conj().T


def richardson(fine: np.ndarray, coarse: np.ndarray, diagonal: bool = False) -> np.ndarray:
    """The CF4 key's U from stacks of midpoint U_2n and U_n, or with diagonal of their diagonals.

    R (I - (2/9) X^dag X), with R = (4 U_2n - U_n) / 3 and X = U_n - U_2n.
    """
    r = (4 * fine - coarse) / 3
    x = coarse - fine
    if diagonal:
        return r - (2 / 9) * (r * (x.conj() * x))
    return r - (2 / 9) * (r @ (x.conj().swapaxes(-1, -2) @ x))


def richardson_loop(model, duration: float, steps: int) -> np.ndarray:
    """The CF4 key's U at all steps+1 nodes: richardson of midpoint_loop at 2 steps and steps, node 2k with node k."""
    return richardson(midpoint_loop(model, duration, 2 * steps)[::2], midpoint_loop(model, duration, steps))


def intertwiner_loop(model, variant, steps: int, scheme: str) -> np.ndarray:
    """Stepped transport A at all steps+1 nodes from generator() and eigh per stage."""
    ds = 1.0 / steps
    y = np.eye(model.size, dtype=complex)
    out = [y]
    for step in range(steps):
        s0 = step * ds
        if scheme == CF4:
            (c1, c2), (a1, a2) = CF4_NODES, CF4_WEIGHTS
            h1, h2 = generator(model, variant, s0 + c1 * ds), generator(model, variant, s0 + c2 * ds)
            y = eigh_expm(a2 * h1 + a1 * h2, ds) @ (eigh_expm(a1 * h1 + a2 * h2, ds) @ y)
        else:
            y = eigh_expm(generator(model, variant, s0 + 0.5 * ds), ds) @ y
        out.append(y)
    return np.array(out)


def closed_form_family(model, variant, s) -> UnitaryFamily:
    """The closed-form transport A stored on the nodes s."""
    return UnitaryFamily("A", s, _exact_transport(model, variant, s, model.frame_matrix(s)))


def stored_families(model, variant, config):
    """(U, A, Phi, W) stored on all steps+1 nodes, A in closed form."""
    u = evolve_propagator(model, config)
    a = closed_form_family(model, variant, u.s_nodes)
    phi = phase_family(model, config.duration, config.steps)
    return u, a, phi, wave_operator(u, a, phi)


def stream_families(model, variant, config) -> dict[str, float]:
    """Max over all steps+1 nodes of the unitarity defects of U, the closed-form A, Phi and W.

    One pass over the chunks of propagator_nodes, with the package's
    defect formulas at every node, so memory is O(chunk N^2) at any steps.
    """
    defects = dict.fromkeys(("U", "A", "Phi", "W"), 0.0)
    for s, u in propagator_nodes(model, config):
        a = _exact_transport(model, variant, s, model.frame_matrix(s))
        p = phase_factors(model, config.duration, s)
        chunk = {
            "U": _unitarity_defect(u),
            "A": _unitarity_defect(a),
            "Phi": float(np.abs(p.conj() * p - 1.0).max()),  # Phi is diagonal
            "W": _unitarity_defect(_residual_operator(u, a.conj().swapaxes(-1, -2), p)),
        }
        defects = {kind: max(worst, chunk[kind]) for kind, worst in defects.items()}
    return defects


def projector_residual_loop(a_family, model, part) -> float:
    """max over bands and nodes of sigma_max(A_b - Q_b Q_b^dag A_b), one band at a time."""
    worst = 0.0
    for members in part.bands:
        idx = list(members)
        ab = a_family.matrices[:, :, idx]
        qb = model.frame_matrix(a_family.s_nodes)[:, :, idx]
        off = ab - np.matmul(qb, np.matmul(qb.conj().swapaxes(-1, -2), ab))
        worst = max(worst, float(np.linalg.svd(off, compute_uv=False)[..., 0].max()))
    return worst


# name -> build(n, schedule): the real nearest-neighbour generator, and a
# complex one on the same couplings (random_banded of width 1, seed 11), so
# the midpoint kernel's real and complex branches both run
ROTATIONS = {
    "nearest_neighbor": nearest_neighbor_rotation,
    "random_banded": lambda n, schedule: random_banded_rotation(n, 1, 11, schedule),
}


def make_model(theta_max: float = THETA_MAX, kind: str = "cubic_ramp", n: int = N,
               dispersion=None, rotation: str = "nearest_neighbor"):
    grid = KGrid(1.0, 2.0, n)
    schedule = AngleSchedule(kind, theta_max)
    dispersion = dispersion if dispersion is not None else linear_dispersion()
    return build_model(grid, dispersion, ROTATIONS[rotation](n, schedule))


def constant_rate_model(family: str = "linear", n: int = N, a: float = 1.5, rotation: str = "nearest_neighbor"):
    """linear_ramp at THETA_MAX and E = kappa(k) * a: both rates of the Q-frame equation are constant."""
    return make_model(kind="linear_ramp", n=n, dispersion=DispersionSchedule(family, (a, 0.0)), rotation=rotation)


def _constant_rates(model):
    """(theta_max, a) of a constant_rate_model."""
    schedule, (a, b) = model.rotation.schedule, model.dispersion.params
    assert schedule.kind == "linear_ramp" and b == 0.0, "not the constant-rate model"
    return schedule.theta_max, a


def exact_final_propagator(model, duration: float) -> np.ndarray:
    """U(1) = Q(1) exp(M) of the constant-rate model, M = -theta_max G - i (T a / hbar) diag kappa.

    In the frame basis x = Q^dag U the equation is
    x' = -(theta'(s) G + i (T f(s) / hbar) diag kappa) x, and with theta' =
    theta_max and f = a both rates are constant, so x(1) = exp(M).  M is
    anti-Hermitian: one eigh of iM gives exp(M), one of iG gives
    Q(1) = exp(theta_max G).
    """
    theta_max, a = _constant_rates(model)
    g = model.rotation.generator
    kappa = model.dispersion.kappa(model.grid.nodes)
    im = -1j * theta_max * g + np.diag(duration * a / HBAR * kappa)
    return eigh_expm(1j * g, theta_max) @ eigh_expm(im, 1.0)


def exact_final_residual(model, variant, duration: float) -> np.ndarray:
    """W(1) = Phi(1)^dag A(1)^dag U(1) of the constant-rate model, every factor closed form.

    A(1) = exp(theta_max G) exp(-theta_max G_in), with G_in the couplings
    the variant removes, from one eigh each; Phi(1) = diag exp(-i T a kappa / hbar).
    """
    theta_max, a = _constant_rates(model)
    g = model.rotation.generator
    g_in = np.where(variant.keep_mask(model.size), 0.0, g)
    a1 = eigh_expm(1j * g, theta_max) @ eigh_expm(1j * g_in, -theta_max)
    phases = np.exp(-1j * duration * a * model.dispersion.kappa(model.grid.nodes) / HBAR)
    return phases.conj()[:, None] * (a1.conj().T @ exact_final_propagator(model, duration))


@pytest.fixture(scope="session")
def default_model():
    return make_model()


@pytest.fixture(scope="session")
def default_part():
    return BandPartition(N, M)


@pytest.fixture(scope="session")
def frozen_model():
    return make_model(theta_max=0.0)


DEFAULT_CFG_TEXT = """\
[grid]
k_min = 1.0
k_max = 2.0
N = 16

[dispersion]
family = linear
params = 1.0, 1.0

[rotation]
builder = nearest_neighbor
theta_max = 0.4
schedule = cubic_ramp

[bands]
m = 2

[run]
T = 100.0
steps = 4000
scheme = midpoint_exponential
variant = kato_state

[analysis]
j0 = 1
s_samples = 129
margin = 1.0
threshold = 0.1

[output]
directory = out
formats = json,csv
"""


@pytest.fixture
def write_config(tmp_path):
    """Write DEFAULT_CFG_TEXT with per-section key overrides; returns the path.

    Overrides map section -> {key: value}; a value of None deletes the key,
    a section value of None deletes the whole section.
    """

    def _write(overrides=None, name="exp.cfg"):
        import configparser

        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        parser.read_string(DEFAULT_CFG_TEXT)
        for section, keys in (overrides or {}).items():
            if keys is None:
                parser.remove_section(section)
                continue
            if not parser.has_section(section):
                parser.add_section(section)
            for key, value in keys.items():
                if value is None:
                    parser.remove_option(section, key)
                else:
                    parser.set(section, key, str(value))
        path = tmp_path / name
        with open(path, "w", encoding="utf-8") as handle:
            parser.write(handle)
        return path

    return _write
