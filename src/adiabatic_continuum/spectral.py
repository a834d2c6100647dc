"""Synthetic quasi-continuous spectral models.

A model is a uniform grid of momentum-like labels k_j, a dispersion schedule
E(k, s) on scaled time s in [0, 1], and a rotating orthonormal frame
phi_j(s) = exp(theta(s) G) e_j generated by an anti-Hermitian G with zero
diagonal.  Zero diagonal pins the parallel-transport gauge
<phi_j | d/ds phi_j> = 0, which later makes the state-level intertwining
transport exact.

All matrix exponentials go through the Hermitian eigendecomposition of iG,
so frames stay unitary to roundoff for any angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import ConfigError, DegenerateSpectrumError

# Units: hbar = 1 throughout, and no function takes it as a parameter; kept
# symbolic in formulas for traceability.
HBAR = 1.0

# Two energies closer than this anywhere in s in [0, 1] count as degenerate.
EPS_CROSS = 1e-9

DISPERSION_FAMILIES = ("linear", "quadratic", "tabulated")
ANGLE_SCHEDULES = ("cubic_ramp", "quadratic_ramp", "smoothstep", "linear_ramp")
ROTATION_BUILDERS = ("nearest_neighbor", "banded", "random_banded")


def _splitmix64(seed: int) -> Iterator[float]:
    """SplitMix64 stream mapped to floats in [0, 1).

    Stated algorithm (not numpy's generator) so that seeded models are
    bit-reproducible across platforms and numpy versions.
    """
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
        yield (z >> 11) / float(1 << 53)


@dataclass(frozen=True)
class KGrid:
    """Uniform grid of N momentum labels on [k_min, k_max]."""

    k_min: float
    k_max: float
    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ConfigError(f"grid needs at least 2 nodes, got size={self.size}")
        if not self.k_max > self.k_min:
            raise ConfigError(f"grid needs k_max > k_min, got [{self.k_min}, {self.k_max}]")

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(self.k_min, self.k_max, self.size)
        nodes.setflags(write=False)
        return nodes

    @property
    def spacing(self) -> float:
        return (self.k_max - self.k_min) / (self.size - 1)


@dataclass(frozen=True)
class DispersionSchedule:
    """Dispersion E(k, s) with its profile's s-derivative and exact s-antiderivative.

    Families
    --------
    linear:     E = k * (a + b*s),   params = (a, b)
    quadratic:  E = k^2 * (a + b*s), params = (a, b)
    tabulated:  E = k * f(s) with f piecewise-linear through params sampled
                uniformly on s in [0, 1]

    Every family is separable, E(k, s) = kappa(k) * profile(s).  The
    accumulated phase integral(0..s) E ds' is closed form in every family
    (polynomial or piecewise quadratic), so dynamical phases carry no
    quadrature error.  The profile is linear between knots (the table's
    sample points, or just 0 and 1 for the affine families), so its range
    on any interval is exact from the ends and the knots inside.
    """

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in DISPERSION_FAMILIES:
            raise ConfigError(f"unknown dispersion family {self.family!r}")
        if self.family in ("linear", "quadratic") and len(self.params) != 2:
            raise ConfigError(f"{self.family} dispersion takes 2 params, got {len(self.params)}")
        if self.family == "tabulated" and len(self.params) < 2:
            raise ConfigError("tabulated dispersion needs at least 2 samples")
        if not all(np.isfinite(self.params)):
            raise ConfigError("dispersion params must be finite")

    def profile(self, s):
        """Scalar factor f(s) multiplying kappa(k)."""
        if self.family == "tabulated":
            return np.interp(s, self.knots, self._table_f)
        a, b = self.params
        return a + b * np.asarray(s, dtype=float)

    def profile_rate(self, s):
        """f'(s) (one-sided at tabulated kinks)."""
        if self.family == "tabulated":
            s = np.asarray(s, dtype=float)
            seg = np.clip((s * (len(self.params) - 1)).astype(int), 0, len(self.params) - 2)
            return self._table_slopes[seg]
        return np.broadcast_to(float(self.params[1]), np.shape(s)).copy() if np.ndim(s) else float(self.params[1])

    def profile_integral(self, s):
        """integral(0..s) of the profile; exact for each family."""
        s = np.asarray(s, dtype=float)
        if self.family != "tabulated":
            a, b = self.params
            return a * s + 0.5 * b * s * s
        n_seg = len(self.params) - 1
        x = s * n_seg
        seg = np.clip(x.astype(int), 0, n_seg - 1)
        frac = x - seg
        f0 = self._table_f[seg]
        slope = self._table_slopes[seg] / n_seg  # slope per unit frac
        partial = (f0 * frac + 0.5 * slope * frac * frac) / n_seg
        return self._cumulative[seg] + partial

    def profile_range(self, s0: float = 0.0, s1: float = 1.0) -> tuple[float, float]:
        """(min, max) of the profile on [s0, s1], exact: its ends and the knots inside."""
        knots = self.knots[(self.knots > s0) & (self.knots < s1)]
        f = self.profile(np.concatenate(([s0], knots, [s1])))
        return float(f.min()), float(f.max())

    def zero_interval(self) -> tuple[float, float] | None:
        """First knot interval of [0, 1] on which the profile reaches 0, or None."""
        f = self.profile(self.knots)
        hits = np.flatnonzero(f[:-1] * f[1:] <= 0.0)
        return (float(self.knots[hits[0]]), float(self.knots[hits[0] + 1])) if hits.size else None

    @cached_property
    def knots(self) -> np.ndarray:
        """The profile's knots on [0, 1]: a table's sample points, or [0, 1] for an affine family."""
        return np.linspace(0.0, 1.0, len(self.params))

    @cached_property
    def _table_f(self) -> np.ndarray:
        return np.asarray(self.params, dtype=float)

    @cached_property
    def _table_slopes(self) -> np.ndarray:
        return np.diff(self._table_f) * (len(self.params) - 1)

    @cached_property
    def _cumulative(self) -> np.ndarray:
        # integral of f over whole segments, prepended with 0
        seg_areas = 0.5 * (self._table_f[:-1] + self._table_f[1:]) / (len(self.params) - 1)
        return np.concatenate([[0.0], np.cumsum(seg_areas)])[:-1]

    def kappa(self, k):
        """Label factor: k, or k^2 for the quadratic family."""
        k = np.asarray(k, dtype=float)
        return k * k if self.family == "quadratic" else k

    def energy(self, k, s):
        """E(k, s); broadcasts over k and s."""
        return self.kappa(k) * self.profile(s)

    def phase(self, k, s):
        """Accumulated phase integral(0..s) E(k, s') ds', closed form."""
        return self.kappa(k) * self.profile_integral(s)


def linear_dispersion(a: float = 1.0, b: float = 1.0) -> DispersionSchedule:
    return DispersionSchedule("linear", (float(a), float(b)))


def quadratic_dispersion(a: float = 1.0, b: float = 0.5) -> DispersionSchedule:
    return DispersionSchedule("quadratic", (float(a), float(b)))


def tabulated_dispersion(values) -> DispersionSchedule:
    return DispersionSchedule("tabulated", tuple(float(v) for v in values))


@dataclass(frozen=True)
class AngleSchedule:
    """Rotation angle theta(s) with theta(0) = 0 and derivative theta'(s).

    Kinds
    -----
    cubic_ramp:     theta_max * s^3          (default; theta' = 0 only at s=0,
                    giving a single-endpoint 1/T transition asymptote)
    quadratic_ramp: theta_max * s^2
    smoothstep:     theta_max * s^2 (3-2s)   (theta' = 0 at both ends)
    linear_ramp:    theta_max * s
    """

    kind: str
    theta_max: float

    def __post_init__(self):
        if self.kind not in ANGLE_SCHEDULES:
            raise ConfigError(f"unknown angle schedule {self.kind!r}")
        if not np.isfinite(self.theta_max):
            raise ConfigError("theta_max must be finite")

    def angle(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "cubic_ramp":
            return self.theta_max * s ** 3
        if self.kind == "quadratic_ramp":
            return self.theta_max * s ** 2
        if self.kind == "smoothstep":
            return self.theta_max * s * s * (3.0 - 2.0 * s)
        return self.theta_max * s

    def angle_rate(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "cubic_ramp":
            return 3.0 * self.theta_max * s ** 2
        if self.kind == "quadratic_ramp":
            return 2.0 * self.theta_max * s
        if self.kind == "smoothstep":
            return 6.0 * self.theta_max * s * (1.0 - s)
        return np.broadcast_to(self.theta_max, s.shape).copy() if s.ndim else self.theta_max

    def max_rate(self) -> float:
        """max |theta'(s)| over s in [0, 1], exact: |theta'(1/2)| for smoothstep, else |theta'(1)|.

        |theta'| grows monotonically on [0, 1] for every ramp and peaks
        mid-sweep for smoothstep, so one evaluation is the maximum.
        """
        return float(abs(self.angle_rate(0.5 if self.kind == "smoothstep" else 1.0)))

    def angle_accel(self, s):
        """theta''(s), closed form; never probes outside the given s."""
        s = np.asarray(s, dtype=float)
        if self.kind == "cubic_ramp":
            return 6.0 * self.theta_max * s
        if self.kind == "smoothstep":
            return 6.0 * self.theta_max * (1.0 - 2.0 * s)
        accel = 2.0 * self.theta_max if self.kind == "quadratic_ramp" else 0.0
        return np.full(s.shape, accel) if s.ndim else accel


@dataclass(frozen=True)
class FrameRotation:
    """Anti-Hermitian generator plus the angle schedule driving it."""

    generator: np.ndarray
    schedule: AngleSchedule
    builder: str = "custom"

    def __post_init__(self):
        g = np.asarray(self.generator, dtype=complex)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ConfigError(f"rotation generator must be square, got shape {g.shape}")
        if np.abs(g + g.conj().T).max() > 1e-14:
            raise ConfigError("rotation generator must be anti-Hermitian (|G + G^dag| <= 1e-14)")
        if np.abs(np.diag(g)).max() != 0.0:
            raise ConfigError("rotation generator must have exactly zero diagonal")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "generator", g)


def nearest_neighbor_rotation(n: int, schedule: AngleSchedule) -> FrameRotation:
    """Adjacent-plane rotation generator: G[j, j+1] = 1 = -G[j+1, j]."""
    g = np.zeros((n, n), dtype=complex)
    idx = np.arange(n - 1)
    g[idx, idx + 1] = 1.0
    g[idx + 1, idx] = -1.0
    return FrameRotation(g, schedule, builder="nearest_neighbor")


def banded_rotation(n: int, width: int, schedule: AngleSchedule) -> FrameRotation:
    """Unit couplings on all offsets 1..width."""
    if width < 1 or width >= n:
        raise ConfigError(f"band width must be in [1, n-1], got {width}")
    g = np.zeros((n, n), dtype=complex)
    for w in range(1, width + 1):
        idx = np.arange(n - w)
        g[idx, idx + w] = 1.0
        g[idx + w, idx] = -1.0
    return FrameRotation(g, schedule, builder="banded")


def random_banded_rotation(n: int, width: int, seed: int, schedule: AngleSchedule) -> FrameRotation:
    """Seeded complex banded generator; entries from a SplitMix64 stream."""
    if width < 1 or width >= n:
        raise ConfigError(f"band width must be in [1, n-1], got {width}")
    stream = _splitmix64(int(seed))
    g = np.zeros((n, n), dtype=complex)
    for w in range(1, width + 1):
        for j in range(n - w):
            re = 2.0 * next(stream) - 1.0
            im = 2.0 * next(stream) - 1.0
            g[j, j + w] = re + 1j * im
            g[j + w, j] = -(re - 1j * im)
    return FrameRotation(g, schedule, builder="random_banded")


@dataclass(eq=False, frozen=True)
class ContinuumModel:
    """Grid + dispersion + rotating frame, with cached spectral machinery.

    Frame columns are phi_j(s) = exp(theta(s) G) e_j.  The exponential is
    evaluated through iG = V diag(lam) V^dag, exact up to roundoff and
    exactly unitary, and a node with theta(s) == 0 is set to the identity so
    phi_j(0) = e_j holds bitwise.

    Construction rejects a spectrum that degenerates anywhere in s in
    [0, 1] with DegenerateSpectrumError, naming the first knot interval on
    which the profile reaches 0.  The model is frozen, so no later
    assignment can bypass that check.
    """

    grid: KGrid
    dispersion: DispersionSchedule
    rotation: FrameRotation

    def __post_init__(self):
        if self.rotation.generator.shape[0] != self.grid.size:
            raise ConfigError(
                f"rotation generator is {self.rotation.generator.shape[0]}x... "
                f"but the grid has {self.grid.size} nodes"
            )
        # kappa strictly monotone (either direction) and every adjacent gap
        # above EPS_CROSS: the adjacent pairs then hold the smallest gap, so
        # every pair_gap of disjoint index sets exceeds EPS_CROSS too.
        dk = np.diff(self.dispersion.kappa(self.grid.nodes))
        gap = min(pair_gap(self, [j], [j + 1]) for j in range(self.size - 1))
        if gap <= EPS_CROSS or not (np.all(dk > 0) or np.all(dk < 0)):
            lo, hi = self.dispersion.zero_interval() or (0.0, 1.0)
            raise DegenerateSpectrumError(
                f"grid energies are not strictly monotone in k in s-interval [{lo:.4f}, {hi:.4f}]: "
                f"min adjacent separation {gap:.3e}"
            )

    @property
    def size(self) -> int:
        return self.grid.size

    @cached_property
    def frame_eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(lam, V) with Q(s) = V diag(exp(-i theta(s) lam)) V^dag.

        The eigensystem iG = V diag(lam) V^dag, or (0, I) when theta_max = 0:
        a frozen frame is the identity, and the trivial pair keeps everything
        built from it exact, as frame_matrix is at theta = 0.
        """
        n = self.size
        if self.rotation.schedule.theta_max == 0.0:
            return np.zeros(n), np.eye(n, dtype=complex)
        lam, v = np.linalg.eigh(1j * self.rotation.generator)
        return lam, v

    # ---- energies and phases -------------------------------------------

    def energies(self, s):
        """E(k_j, s) for all j; shape (..., N) when s is an array."""
        k = self.grid.nodes
        s = np.asarray(s, dtype=float)
        return self.dispersion.energy(k, s[..., None]) if s.ndim else self.dispersion.energy(k, s)

    def energy(self, j: int, s):
        return self.dispersion.energy(self.grid.nodes[j], s)

    def phase(self, j: int, s):
        """Dynamical phase integral(0..s) E(k_j, s') ds'."""
        return self.dispersion.phase(self.grid.nodes[j], s)

    def max_energy(self) -> float:
        """max |E(k_j, s)| over s in [0, 1], exact: max |kappa| * max |f|."""
        lo, hi = self.dispersion.profile_range()
        return float(np.abs(self.dispersion.kappa(self.grid.nodes)).max()) * max(-lo, hi)

    # ---- frame machinery -----------------------------------------------

    def frame_matrix(self, s) -> np.ndarray:
        """Unitary Q(s) whose columns are phi_j(s); shape (..., N, N) over an array of s.

        Each node is one N x N product (V E(theta)) @ V^dag, so its Q does
        not depend on how many nodes a call takes; theta = 0 gives the
        identity exactly.
        """
        theta = np.asarray(self.rotation.schedule.angle(s), dtype=float)
        lam, v = self.frame_eigensystem
        q = np.matmul(v * np.exp(-1j * theta[..., None, None] * lam), v.conj().T)
        q[theta == 0.0] = np.eye(self.size)
        return q

    def frame_coupling_profile(self, a: int, b: int, s) -> np.ndarray:
        """<phi_a(s) | d/ds phi_b(s)> = theta'(s) * G[a, b] for an array of s.

        Exact because exp(theta G) commutes with G:
        Q^dag dQ/ds = theta' Q^dag G Q = theta' G.
        """
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.atleast_1d(self.rotation.schedule.angle_rate(s)) * self.rotation.generator[a, b]

    def frame_coupling_rate_profile(self, a: int, b: int, s) -> np.ndarray:
        """d/ds <phi_a(s) | d/ds phi_b(s)> = theta''(s) * G[a, b] for an array of s."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.atleast_1d(self.rotation.schedule.angle_accel(s)) * self.rotation.generator[a, b]

    def hamiltonian(self, s: float) -> np.ndarray:
        """H(s) = Q(s) diag(E(k, s)) Q(s)^dag."""
        q = self.frame_matrix(s)
        return (q * self.energies(s)) @ q.conj().T


def pair_gap(model: ContinuumModel, inside, outside) -> float:
    """Smallest |E_in - E_out| over s in [0, 1] for explicit index sets, exact.

    E_in - E_out = (kappa_in - kappa_out) f(s), so the gap is
    min |kappa_in - kappa_out| * min |f|, and min |f| = max(lo, -hi, 0)
    over the profile's exact range [lo, hi]: 0 when f reaches 0.
    """
    inside = list(inside)
    outside = list(outside)
    if not inside or not outside:
        raise ConfigError("pair_gap needs nonempty index sets on both sides")
    kappa = model.dispersion.kappa(model.grid.nodes)
    lo, hi = model.dispersion.profile_range()
    return float(np.abs(kappa[inside, None] - kappa[None, outside]).min()) * max(lo, -hi, 0.0)


def build_model(grid: KGrid, dispersion: DispersionSchedule, rotation: FrameRotation) -> ContinuumModel:
    """The model of a grid, dispersion and rotation; construction does the validation."""
    return ContinuumModel(grid, dispersion, rotation)
