"""Synthetic quasi-continuous spectral models.

A model is a uniform grid of momentum-like labels k_j, a dispersion schedule
E(k, s) on scaled time s in [0, 1], and a rotating orthonormal frame
phi_j(s) = exp(theta(s) G) e_j generated by an anti-Hermitian G with zero
diagonal.  Zero diagonal pins the parallel-transport gauge
<phi_j | d/ds phi_j> = 0, which later makes the state-level intertwining
transport exact.

All matrix exponentials go through the Hermitian eigendecomposition of iG,
so frames stay unitary to roundoff for any angle.

Each dispersion family, angle schedule and rotation builder is declared
once, in FAMILIES, _SCHEDULES and BUILDERS; every behaviour reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateSpectrumError

# Units: hbar = 1 throughout, and no function takes it as a parameter; kept
# symbolic in formulas for traceability.
HBAR = 1.0

# Two energies closer than this anywhere in s in [0, 1] count as degenerate.
EPS_CROSS = 1e-9

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
        if not (np.isfinite(self.k_min) and np.isfinite(self.k_max) and self.k_max > self.k_min):
            raise ConfigError(f"grid needs finite k_min < k_max, got [{self.k_min}, {self.k_max}]")

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(self.k_min, self.k_max, self.size)
        nodes.setflags(write=False)
        return nodes

    @property
    def spacing(self) -> float:
        return (self.k_max - self.k_min) / (self.size - 1)


class DispersionFamily(NamedTuple):
    """One dispersion family: kappa(k), its profile table and its params count.

    table(params) gives f at uniform knots on [0, 1] and each segment's
    slope; fixed_params is the exact count, or None for a table of at
    least 2 samples.
    """

    kappa: Callable
    table: Callable
    fixed_params: int | None

    def params_fault(self, count: int) -> str | None:
        """What is wrong with `count` params, or None."""
        if self.fixed_params is not None and count != self.fixed_params:
            return f"takes {self.fixed_params} params, got {count}"
        return "needs at least 2 params" if count < 2 else None


def _affine_table(params):
    # one segment from a to a + b, with the declared slope b, not the rounded (a + b) - a
    a, b = params
    return np.array([a, a + b]), np.array([b])


def _sampled_table(params):
    return np.asarray(params, dtype=float), np.diff(params) * (len(params) - 1)


# linear: E = k*(a + b*s), quadratic: E = k^2*(a + b*s), params = (a, b);
# tabulated: E = k*f(s), f piecewise linear through params
FAMILIES = {
    "linear": DispersionFamily(lambda k: k, _affine_table, 2),
    "quadratic": DispersionFamily(lambda k: k * k, _affine_table, 2),
    "tabulated": DispersionFamily(lambda k: k, _sampled_table, None),
}
DISPERSION_FAMILIES = tuple(FAMILIES)


@dataclass(frozen=True)
class DispersionSchedule:
    """Dispersion E(k, s) = kappa(k) * f(s) with f's s-derivative and exact s-antiderivative.

    The family's declaration in FAMILIES gives kappa and turns params into
    the one table every method reads: f at uniform knots on [0, 1] and each
    segment's slope.  f is linear between knots, so the phase
    integral(0..s) E ds' is closed form and f's range on [0, 1] is the
    range of its knot values.
    """

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown dispersion family {self.family!r}")
        if fault := FAMILIES[self.family].params_fault(len(self.params)):
            raise ConfigError(f"{self.family} family {fault}")
        if not all(np.isfinite(self.params)):
            raise ConfigError("dispersion params must be finite")

    def profile(self, s):
        """Scalar factor f(s) multiplying kappa(k); exactly the table's value at a knot."""
        s = np.asarray(s, dtype=float)
        values, slopes, _ = self._table
        # the segment starting at or below s; past the last knot, slope 0
        seg = np.clip(np.searchsorted(self.knots, s, side="right") - 1, 0, len(values) - 1)
        return values[seg] + np.append(slopes, 0.0)[seg] * (s - self.knots[seg])

    def profile_rate(self, s):
        """f'(s) (one-sided at tabulated kinks)."""
        return self._table[1][self._segment(s)[0]]

    def profile_integral(self, s):
        """integral(0..s) of the profile; exact for each family."""
        values, slopes, before = self._table
        seg, frac = self._segment(s)
        n_seg = len(slopes)
        return before[seg] + (values[seg] * frac + 0.5 * (slopes[seg] / n_seg) * frac * frac) / n_seg

    def _segment(self, s):
        """(segment index, position within it in [0, 1]) of each s."""
        x = np.asarray(s, dtype=float) * len(self._table[1])
        seg = np.clip(x.astype(int), 0, len(self._table[1]) - 1)
        return seg, x - seg

    def profile_range(self) -> tuple[float, float]:
        """(min, max) of the profile on [0, 1], exact: f is linear between knots, so its knot values bound it."""
        values = self._table[0]
        return float(values.min()), float(values.max())

    def zero_interval(self) -> tuple[float, float] | None:
        """First knot interval of [0, 1] on which the profile reaches 0, or None."""
        f = self._table[0]
        hits = np.flatnonzero(f[:-1] * f[1:] <= 0.0)
        return (float(self.knots[hits[0]]), float(self.knots[hits[0] + 1])) if hits.size else None

    @cached_property
    def knots(self) -> np.ndarray:
        """The profile's knots on [0, 1]: a table's sample points, or [0, 1] for an affine family."""
        return np.linspace(0.0, 1.0, len(self._table[0]))

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values at the knots, slope of each segment, integral of f before each segment)."""
        values, slopes = FAMILIES[self.family].table(self.params)
        areas = 0.5 * (values[:-1] + values[1:]) / len(slopes)
        return values, slopes, np.concatenate([[0.0], np.cumsum(areas)])[:-1]

    def kappa(self, k):
        """Label factor kappa(k) of the family."""
        return FAMILIES[self.family].kappa(np.asarray(k, dtype=float))

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


class _Schedule(NamedTuple):
    """theta, theta' and theta'' as functions of (theta_max, s), and the s where |theta'| peaks."""

    angle: Callable
    rate: Callable
    accel: Callable
    peak_s: float


# theta(0) = 0 and theta(1) = theta_max for each; a constant derivative is
# written with s ** 0, so it takes s's shape like the others
_SCHEDULES = {
    # theta_max s^3, the default: theta' = 0 only at s = 0, giving a
    # single-endpoint 1/T transition asymptote
    "cubic_ramp": _Schedule(
        lambda t, s: t * s ** 3, lambda t, s: 3.0 * t * s ** 2, lambda t, s: 6.0 * t * s, 1.0
    ),
    "quadratic_ramp": _Schedule(
        lambda t, s: t * s ** 2, lambda t, s: 2.0 * t * s, lambda t, s: 2.0 * t * s ** 0, 1.0
    ),
    # theta_max s^2 (3 - 2s): theta' = 0 at both ends, peaking mid-sweep
    "smoothstep": _Schedule(
        lambda t, s: t * s * s * (3.0 - 2.0 * s),
        lambda t, s: 6.0 * t * s * (1.0 - s),
        lambda t, s: 6.0 * t * (1.0 - 2.0 * s),
        0.5,
    ),
    "linear_ramp": _Schedule(lambda t, s: t * s, lambda t, s: t * s ** 0, lambda t, s: 0.0 * s, 1.0),
}
ANGLE_SCHEDULES = tuple(_SCHEDULES)


@dataclass(frozen=True)
class AngleSchedule:
    """Rotation angle theta(s) and its derivatives, read from the kind's declaration in _SCHEDULES."""

    kind: str
    theta_max: float

    def __post_init__(self):
        if self.kind not in _SCHEDULES:
            raise ConfigError(f"unknown angle schedule {self.kind!r}")
        if not np.isfinite(self.theta_max):
            raise ConfigError("theta_max must be finite")

    def angle(self, s):
        return _SCHEDULES[self.kind].angle(self.theta_max, np.asarray(s, dtype=float))

    def angle_rate(self, s):
        return _SCHEDULES[self.kind].rate(self.theta_max, np.asarray(s, dtype=float))

    def max_rate(self) -> float:
        """max |theta'(s)| over s in [0, 1], exact: one evaluation at the schedule's declared peak."""
        return float(abs(self.angle_rate(_SCHEDULES[self.kind].peak_s)))

    def angle_accel(self, s):
        """theta''(s), closed form; never probes outside the given s."""
        return _SCHEDULES[self.kind].accel(self.theta_max, np.asarray(s, dtype=float))


@dataclass(frozen=True)
class FrameRotation:
    """Anti-Hermitian generator plus the angle schedule driving it."""

    generator: np.ndarray
    schedule: AngleSchedule

    def __post_init__(self):
        g = np.asarray(self.generator, dtype=complex)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ConfigError(f"rotation generator must be square, got shape {g.shape}")
        if not np.isfinite(g).all():
            raise ConfigError("rotation generator entries must be finite")
        if np.abs(g + g.conj().T).max() > 1e-14:
            raise ConfigError("rotation generator must be anti-Hermitian (|G + G^dag| <= 1e-14)")
        if np.abs(np.diag(g)).max() != 0.0:
            raise ConfigError("rotation generator must have exactly zero diagonal")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "generator", g)


def width_fault(n: int, width: int) -> str | None:
    """What is wrong with a band width for an n x n generator, or None."""
    return None if 1 <= width < n else f"width must be in [1, N-1], got {width}"


def _band_rotation(n: int, width: int, schedule: AngleSchedule, draw) -> FrameRotation:
    """G[j, j+w] = draw(n - w) on each offset w = 1..width, and G[j+w, j] = -conj(G[j, j+w])."""
    if fault := width_fault(n, width):
        raise ConfigError(f"band {fault}")
    g = np.zeros((n, n), dtype=complex)
    for w in range(1, width + 1):
        idx = np.arange(n - w)
        g[idx, idx + w] = draw(n - w)
        g[idx + w, idx] = -g[idx, idx + w].conj()
    return FrameRotation(g, schedule)


def nearest_neighbor_rotation(n: int, schedule: AngleSchedule) -> FrameRotation:
    """Adjacent-plane rotation generator G[j, j+1] = 1 = -G[j+1, j]: the band of width 1."""
    return banded_rotation(n, 1, schedule)


def banded_rotation(n: int, width: int, schedule: AngleSchedule) -> FrameRotation:
    """Unit couplings on all offsets 1..width."""
    return _band_rotation(n, width, schedule, lambda count: 1.0)


def random_banded_rotation(n: int, width: int, seed: int, schedule: AngleSchedule) -> FrameRotation:
    """Seeded complex banded generator; entries from a SplitMix64 stream, real part first."""
    stream = _splitmix64(int(seed))

    def draw(count):
        return [complex(2.0 * next(stream) - 1.0, 2.0 * next(stream) - 1.0) for _ in range(count)]

    return _band_rotation(n, width, schedule, draw)


# name -> (build, options): build(n, *options, schedule) takes the named options in order
BUILDERS = {
    "nearest_neighbor": (nearest_neighbor_rotation, ()),
    "banded": (banded_rotation, ("width",)),
    "random_banded": (random_banded_rotation, ("width", "seed")),
}
ROTATION_BUILDERS = tuple(BUILDERS)


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
        # every pair_gap of disjoint index sets exceeds EPS_CROSS too.  The
        # least adjacent pair_gap is min |dk| * min |f|, bitwise (min |f| >= 0).
        dk = np.diff(self.dispersion.kappa(self.grid.nodes))
        lo, hi = self.dispersion.profile_range()
        gap = float(np.abs(dk).min()) * max(lo, -hi, 0.0)
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
