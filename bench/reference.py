"""Converged reference values for eta and w_deviation, independent of the package.

The program integrates the lab-frame equation i dU/ds = T H(s) U with
H(s) = Q(s) diag(E(s)) Q(s)^dag and Q(s) = exp(theta(s) G).  Because Q
commutes with G, the substitution U = Q V turns it into

    i dV/ds = (T diag(E(s)) - i theta'(s) G) V,

whose large diagonal part is linear in s.  The fourth-order
commutator-free scheme integrates that part exactly at its Gauss nodes,
so V(1) converges to roundoff within a few thousand steps.  Nothing here
imports the package: the model is rebuilt from the parameters the
benchmark wrote into its INI files.

With the kato_state variant the closed-form transport is
A(1) = exp(theta G) exp(-theta G_in) = Q(1), because G_in (G on the
rank-1 windows, i.e. its diagonal) is zero.  Hence A(1)^dag U(1) = V(1)
and W(1) = Phi(1)^dag V(1), with Phi(1) = diag(exp(-i T alpha_j(1))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_C1 = 0.5 - math.sqrt(3.0) / 6.0
_C2 = 0.5 + math.sqrt(3.0) / 6.0
_A1 = 0.25 + math.sqrt(3.0) / 6.0
_A2 = 0.25 - math.sqrt(3.0) / 6.0

# Step doubling stops once two successive answers agree to this relative
# size.  The midpoint scheme's own eta error is ~1e-7..1e-5 relative.
REF_TOL = 1e-9
START_STEPS = 500
MAX_STEPS = 64_000
_CHUNK = 500


@dataclass(frozen=True)
class Physics:
    """The subset of the model the benchmark generates.

    Linear dispersion E = k (a + b s) on a uniform k-grid, nearest-neighbour
    generator, cubic ramp theta = theta_max s^3, kato_state transport.
    """

    k_min: float
    k_max: float
    n: int
    a: float
    b: float
    theta_max: float
    m: int

    @property
    def k(self) -> np.ndarray:
        return np.linspace(self.k_min, self.k_max, self.n)

    def band_members(self, j0: int) -> list[int]:
        # BandPartition: consecutive blocks of m; the last absorbs the remainder.
        bands = max(1, self.n // self.m)
        band = min(j0 // self.m, bands - 1)
        hi = self.n if band == bands - 1 else (band + 1) * self.m
        return list(range(band * self.m, hi))


@dataclass(frozen=True)
class Reference:
    eta: float
    w_deviation: float
    rel_err_estimate: float
    steps: int


def _hermitian_generator(n: int) -> np.ndarray:
    """-i G for the nearest-neighbour generator G[j, j+1] = 1 = -G[j+1, j]."""
    g = np.zeros((n, n), dtype=complex)
    idx = np.arange(n - 1)
    g[idx, idx + 1] = -1j
    g[idx + 1, idx] = 1j
    return g


def rotating_frame_v1(phys: Physics, duration: float, steps: int) -> np.ndarray:
    """V(1) by the commutator-free order-4 scheme, step unitaries batched."""
    n = phys.n
    k = phys.k
    mg = _hermitian_generator(n)
    diag = np.arange(n)
    h = 1.0 / steps

    def ham(s: np.ndarray) -> np.ndarray:
        out = (3.0 * phys.theta_max * s * s)[:, None, None] * mg
        out[:, diag, diag] += duration * np.outer(phys.a + phys.b * s, k)
        return out

    def expm(x: np.ndarray) -> np.ndarray:
        w, p = np.linalg.eigh(x)
        return (p * np.exp(-1j * h * w)[:, None, :]) @ p.conj().swapaxes(-1, -2)

    v = np.eye(n, dtype=complex)
    for lo in range(0, steps, _CHUNK):
        s0 = np.arange(lo, min(lo + _CHUNK, steps)) * h
        h1 = ham(s0 + _C1 * h)
        h2 = ham(s0 + _C2 * h)
        block = expm(_A2 * h1 + _A1 * h2) @ expm(_A1 * h1 + _A2 * h2)
        # Ordered product, later steps on the left, by pairwise reduction.
        while len(block) > 1:
            if len(block) % 2:
                block = np.concatenate([block, np.eye(n, dtype=complex)[None]])
            block = block[1::2] @ block[0::2]
        v = block[0] @ v
    return v


def observables(phys: Physics, duration: float, j0: int, v1: np.ndarray) -> tuple[float, float]:
    """(eta, w_deviation) from V(1).

    eta sums the exterior weight directly rather than 1 - interior weight,
    which keeps its relative accuracy when the leakage is small.
    """
    members = set(phys.band_members(j0))
    exterior = [j for j in range(phys.n) if j not in members]
    eta = float(np.sum(np.abs(v1[exterior, j0]) ** 2))
    alpha1 = phys.k * (phys.a + 0.5 * phys.b)
    w1 = np.exp(1j * duration * alpha1)[:, None] * v1
    wdev = float(np.linalg.norm(w1 - np.eye(phys.n), 2))
    return eta, wdev


def reference(phys: Physics, duration: float, j0: int) -> Reference:
    """Converged (eta, w_deviation) with a step-doubling error estimate."""
    steps = START_STEPS
    prev = observables(phys, duration, j0, rotating_frame_v1(phys, duration, steps))
    while True:
        steps *= 2
        cur = observables(phys, duration, j0, rotating_frame_v1(phys, duration, steps))
        est = max(abs(c - p) / abs(c) for c, p in zip(cur, prev))
        if est <= REF_TOL:
            return Reference(cur[0], cur[1], est, steps)
        if steps >= MAX_STEPS:
            raise RuntimeError(
                f"reference did not converge at T={duration}: estimate {est:.2e} at {steps} steps"
            )
        prev = cur
