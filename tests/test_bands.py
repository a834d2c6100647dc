"""Band partitions, differential projectors, gaps, and crossing scans."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiabatic_continuum import (
    BandPartition,
    adiabatic_criterion,
    ConfigError,
    CrossingError,
    NoExteriorError,
    NoFeasibleBandError,
    band_projector,
    feasible_band_size,
    minimal_time,
    pair_gap,
    projector,
    tabulated_dispersion,
    validate_noncrossing,
    virtual_gap,
)

from conftest import make_model


# ---- partitions ------------------------------------------------------------


def test_partition_remainder_goes_to_last_band():
    part = BandPartition(8, 3)
    assert part.bands == ((0, 1, 2), (3, 4, 5, 6, 7))


def test_partition_even_split():
    part = BandPartition(16, 2)
    assert len(part) == 8
    assert part.bands[0] == (0, 1)
    assert part.bands[-1] == (14, 15)


def test_partition_single_band():
    part = BandPartition(16, 16)
    assert len(part) == 1
    with pytest.raises(NoExteriorError):
        part.exterior(0)


def test_partition_band_of_and_exterior():
    part = BandPartition(16, 2)
    assert part.band_of(0) == 0
    assert part.band_of(5) == 2
    assert part.band_of(15) == 7
    assert part.exterior(0) == tuple(range(2, 16))


def test_partition_validation():
    with pytest.raises(ConfigError):
        BandPartition(16, 0)
    with pytest.raises(ConfigError):
        BandPartition(16, 17)
    with pytest.raises(ConfigError):
        BandPartition(16, 2).band_of(16)
    with pytest.raises(ConfigError):
        BandPartition(16, 2).members(9)


@given(n=st.integers(2, 40), m=st.integers(1, 40))
@settings(max_examples=50, deadline=None)
def test_partition_covers_grid_disjointly(n, m):
    m = min(m, n)
    part = BandPartition(n, m)
    flat = [j for band in part.bands for j in band]
    assert flat == list(range(n))
    assert len(part) == max(1, n // m)
    assert all(len(band) >= m for band in part.bands)
    for b, band in enumerate(part.bands):
        for j in band:
            assert part.band_of(j) == b


# ---- projectors ------------------------------------------------------------


def test_projector_matches_frame_outer_products(default_model):
    p = projector(default_model, [2, 3], 0.4)
    assert p.rank == 2
    q = default_model.frame_matrix(0.4)
    direct = sum(np.outer(q[:, j], q[:, j].conj()) for j in (2, 3))
    assert np.abs(p.matrix - direct).max() < 1e-14


def test_projector_algebra(default_model, default_part):
    p = band_projector(default_model, default_part, 1, 0.7).matrix
    assert np.abs(p @ p - p).max() < 1e-13
    assert np.abs(p - p.conj().T).max() < 1e-14
    assert abs(np.trace(p) - 2.0) < 1e-13


def test_projector_at_start_is_indicator(default_model):
    p = projector(default_model, [0, 1], 0.0).matrix
    expected = np.zeros((16, 16))
    expected[0, 0] = expected[1, 1] = 1.0
    assert np.array_equal(p, expected)


def test_projector_validation(default_model):
    with pytest.raises(ConfigError):
        projector(default_model, [], 0.5)
    with pytest.raises(ConfigError):
        projector(default_model, [1, 1], 0.5)
    with pytest.raises(ConfigError):
        projector(default_model, [99], 0.5)


# ---- gaps and planning -----------------------------------------------------


def test_virtual_gap_default(default_model, default_part):
    # adjacent grid labels, profile minimum at s=0: gap = spacing
    gap = virtual_gap(default_model, default_part, 0)
    assert gap == pytest.approx(1.0 / 15.0, rel=1e-12, abs=0.0)


def test_pair_gap_grows_with_label_distance(default_model):
    gaps = [pair_gap(default_model, [0], [j]) for j in range(1, 16)]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_gaps_exact_on_kinked_table():
    # f dips to 0.2 at the knot s = 1/3, off the uniform sample grids: every
    # gap is the adjacent spacing 1/15 times min |f| = 0.2
    model = make_model(dispersion=tabulated_dispersion([1.0, 0.2, 1.0, 1.0]))
    part = BandPartition(16, 2)
    exact = (1.0 / 15.0) * 0.2
    assert virtual_gap(model, part, 0) == pytest.approx(exact, rel=1e-15, abs=0.0)
    assert adiabatic_criterion(model, part, 1).min_gap == pytest.approx(exact, rel=1e-15, abs=0.0)
    # the worst band sees the float grid, whose spacings differ from 1/15 by ulps
    spacing = np.diff(model.grid.nodes)[1::2].min()
    assert validate_noncrossing(model, part) == pytest.approx(spacing * 0.2, rel=1e-15, abs=0.0)


def test_pair_gap_validation(default_model):
    with pytest.raises(ConfigError):
        pair_gap(default_model, [], [1])


def test_minimal_time_examples():
    assert minimal_time(0.1, 100.0) == pytest.approx(1000.0)
    assert minimal_time(1.0 / 15.0, 100.0) == pytest.approx(1500.0)
    with pytest.raises(CrossingError):
        minimal_time(0.0, 100.0)
    with pytest.raises(ConfigError):
        minimal_time(0.1, -1.0)


def test_feasible_band_size_examples(default_model):
    assert feasible_band_size(default_model, 1500.0, 100.0) == 1
    with pytest.raises(NoFeasibleBandError):
        feasible_band_size(default_model, 15.0, 100.0)
    with pytest.raises(ConfigError):
        feasible_band_size(default_model, 0.0, 100.0)


# ---- crossing scans ----------------------------------------------------------


def test_validate_noncrossing_clean(default_model, default_part):
    sep = validate_noncrossing(default_model, default_part)
    assert sep == pytest.approx(1.0 / 15.0, rel=1e-10, abs=0.0)


def test_validate_noncrossing_single_band_vacuous(default_model):
    assert validate_noncrossing(default_model, BandPartition(16, 16)) == np.inf


def test_crossing_detected_between_samples():
    # profile dips negative between uniform samples: every inter-band pair
    # swaps order twice, without any sample landing near the touch point.
    # build_model rejects it, so validate_noncrossing never sees such a model.
    flip = tabulated_dispersion([1.0, -0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(CrossingError) as err:
        make_model(dispersion=flip)
    lo, hi = map(float, re.search(r"s-interval \[([0-9.]+), ([0-9.]+)\]", str(err.value)).groups())
    assert 0.0 <= lo < hi <= 0.25
