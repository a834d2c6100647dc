"""Band partitions and differential projectors over the grid.

A band is a contiguous run of grid indices standing in for a small spectral
window.  Projectors onto the rotating frame vectors of a band are exact
rank-m orthogonal projectors, and each band carries a virtual gap: the
smallest distance between in-band and exterior energies over the sweep,
exact from the separable factors (pair_gap).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import ConfigError, CrossingError, NoExteriorError, NoFeasibleBandError
from .spectral import ContinuumModel, pair_gap


@dataclass(frozen=True)
class BandPartition:
    """Contiguous bands of nominal size m; the last band absorbs any remainder.

    All bands have exactly m indices except possibly the last, whose size
    lies in [m, 2m-1].  This keeps every band at least m wide so gap
    planning stays conservative.
    """

    grid_size: int
    band_size: int

    def __post_init__(self):
        if not 1 <= self.band_size <= self.grid_size:
            raise ConfigError(
                f"band size must be in [1, {self.grid_size}], got {self.band_size}"
            )

    @cached_property
    def bands(self) -> tuple[tuple[int, ...], ...]:
        n_full = self.grid_size // self.band_size
        edges = [i * self.band_size for i in range(n_full)] + [self.grid_size]
        return tuple(tuple(range(a, b)) for a, b in zip(edges[:-1], edges[1:]))

    @cached_property
    def labels(self) -> np.ndarray:
        """Band index of every grid node, read-only."""
        labels = np.repeat(np.arange(len(self.bands)), [len(members) for members in self.bands])
        labels.setflags(write=False)
        return labels

    def __len__(self) -> int:
        return len(self.bands)

    def band_of(self, j: int) -> int:
        """Index of the band containing grid node j: its label."""
        if not 0 <= j < self.grid_size:
            raise ConfigError(f"grid index {j} outside [0, {self.grid_size})")
        return int(self.labels[j])

    def members(self, band: int) -> tuple[int, ...]:
        if not 0 <= band < len(self.bands):
            raise ConfigError(f"band index {band} outside [0, {len(self.bands)})")
        return self.bands[band]

    def exterior(self, band: int) -> tuple[int, ...]:
        inside = set(self.members(band))
        out = tuple(j for j in range(self.grid_size) if j not in inside)
        if not out:
            raise NoExteriorError(
                f"band {band} covers the whole grid ({self.grid_size} nodes); "
                "no exterior states exist"
            )
        return out


@dataclass(frozen=True)
class DifferentialProjector:
    """Snapshot projector onto an index window of frame vectors at one s.

    Carries the N x m frame slice; the full projector matrix is derived,
    which keeps idempotency exact up to a single matrix product.
    """

    indices: tuple[int, ...]
    s: float
    frame_slice: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.indices)

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.frame_slice @ self.frame_slice.conj().T


def projector(model: ContinuumModel, indices, s: float) -> DifferentialProjector:
    """Projector onto an arbitrary nonempty set of frame vectors at s.

    Accepts any index window (bands or the sliding windows of the
    generator construction); duplicates are rejected.
    """
    idx = tuple(int(j) for j in indices)
    if not idx:
        raise ConfigError("projector needs at least one index")
    if len(set(idx)) != len(idx):
        raise ConfigError(f"duplicate indices in projector window: {idx}")
    if min(idx) < 0 or max(idx) >= model.size:
        raise ConfigError(f"projector indices {idx} outside [0, {model.size})")
    frame_slice = model.frame_matrix(s)[:, list(idx)]
    return DifferentialProjector(idx, float(s), frame_slice)


def band_projector(model: ContinuumModel, part: BandPartition, band: int, s: float) -> DifferentialProjector:
    return projector(model, part.members(band), s)


def virtual_gap(model: ContinuumModel, part: BandPartition, band: int) -> float:
    """Smallest in-band to exterior energy distance over s in [0, 1]."""
    return pair_gap(model, part.members(band), part.exterior(band))


def minimal_time(gap: float, margin: float) -> float:
    """Shortest duration T with gap * T >= margin; band_plan and check_gap_margin accept it."""
    if gap <= 0.0:
        raise CrossingError(f"virtual gap {gap:.3e} is not positive")
    if margin <= 0.0:
        raise ConfigError(f"margin must be positive, got {margin}")
    return margin / gap


# Feasibility at the exact gap*T = margin boundary must not flip on the
# few ulps the grid spacing loses to rounding; compare with relative slack.
FEASIBLE_SLACK = 1e-9


def _reaches_margin(ratio: float) -> bool:
    """The one gap-margin rule: ratio = gap*T/margin is at least 1 - FEASIBLE_SLACK."""
    return ratio >= 1.0 - FEASIBLE_SLACK


def band_plan(model: ContinuumModel, duration: float, margin: float) -> Iterator[tuple]:
    """(m, gap, ratio, feasible) for every band size m = 1..N in order.

    gap is the worst virtual gap over the partition's bands
    (validate_noncrossing) and ratio = gap * duration / margin; a size
    is feasible when _reaches_margin(ratio).  The tail band absorbs the
    remainder, so every m > N/2 is a single band with no exterior to be
    adiabatic against: its gap and ratio are None.
    """
    if duration <= 0.0:
        raise ConfigError(f"duration must be positive, got {duration}")
    if margin <= 0.0:
        raise ConfigError(f"margin must be positive, got {margin}")
    for m in range(1, model.size + 1):
        part = BandPartition(model.size, m)
        if len(part) < 2:
            yield m, None, None, False
            continue
        gap = validate_noncrossing(model, part)
        ratio = gap * duration / margin
        yield m, gap, ratio, _reaches_margin(ratio)


def feasible_band_size(model: ContinuumModel, duration: float, margin: float = 1.0) -> int:
    """Smallest band size whose worst band satisfies gap * duration >= margin."""
    for m, _gap, _ratio, feasible in band_plan(model, duration, margin):
        if feasible:
            return m
    raise NoFeasibleBandError(
        f"no band size in [1, {model.size - 1}] reaches gap*T >= {margin} at T={duration}"
    )


def check_gap_margin(
    model: ContinuumModel, part: BandPartition, j0: int, durations, margin: float
) -> None:
    """Raise ConfigError at the smallest duration T whose gap*T misses margin.

    gap is the virtual gap of j0's band, so the check is the precondition
    of the adiabatic regime on the physical clock.  T passes by band_plan's
    rule, _reaches_margin(gap * T / margin), so minimal_time always does.
    """
    if margin <= 0.0:
        raise ConfigError(f"margin must be positive, got {margin}")
    gap = virtual_gap(model, part, part.band_of(j0))
    for t in sorted(durations):
        if not _reaches_margin(gap * t / margin):
            raise ConfigError(
                f"duration T={t:g} violates the gap margin: "
                f"gap*T = {gap * t!r} < {margin!r}"
            )


def validate_noncrossing(model: ContinuumModel, part: BandPartition) -> float:
    """Smallest in-band to exterior energy separation over s in [0, 1], exact.

    A single band covering the grid is vacuously crossing-free: inf.  The
    separation always exceeds EPS_CROSS, because ContinuumModel
    construction rejects every spectrum whose adjacent gap does not.
    """
    if len(part) < 2:
        return np.inf
    return min(virtual_gap(model, part, b) for b in range(len(part)))
