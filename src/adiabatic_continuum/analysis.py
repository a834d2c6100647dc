"""Adiabaticity diagnostics.

Oscillatory transition integrals and their integration-by-parts twin on
one composite Gauss-Legendre rule, exact and first-order band leakage,
the coupling/gap validity criterion, and log-log convergence fits over a
sweep of durations.

Every first-order number reads one list of coupled pairs, each keyed by
its mismatch (_coupled_pairs), and the rule that mismatch sets (_pair_rule).
One builder makes the leakage row of a duration (leakage_reports) from
its U(1) and W(1), which simulate and sweep_leakage both take from
propagation.final_propagators and the s=1 stage final_stage.

Everything is computed on the dimensionless schedule clock s; quantities
the literature states on the physical clock t = t0 + s*T absorb their
powers of T at the reporting boundary, never inside the integrators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import BandPartition
from .errors import AnalysisError, ConfigError
from .propagation import (
    GeneratorVariant,
    MIDPOINT,
    deviation_from_identity,
    final_propagators,
    final_stage,
    kato_state,
)
from .spectral import HBAR, ContinuumModel, pair_gap

# The first-order integrals' composite Gauss-Legendre rule (_pair_rule):
# nodes per panel, phase swing per panel in rad, and the least panel count.
_GL_ORDER = 20
_PHASE_BUDGET = 1.0
_MIN_PANELS = 64
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_ORDER)


@dataclass(frozen=True)
class LeakageReport:
    """Band-leakage summary for one run at one duration."""

    duration: float
    j0: int
    band: int
    eta_exact: float
    eta_first_order: float
    w_deviation: float


@dataclass(frozen=True)
class CriterionReport:
    """Coupling-to-gap margin of the validity criterion."""

    max_coupling: float
    min_gap: float
    margin: float
    threshold: float
    satisfied: bool


@dataclass(frozen=True)
class ConvergenceFit:
    """Least-squares line through (log duration, log leakage)."""

    durations: tuple[float, ...]
    leakages: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float
    excluded: tuple[float, ...]


@dataclass(frozen=True)
class TransitionParts:
    """Integration-by-parts split of one transition integral.

    total = boundary + tail; bound is the duration-scaled a-priori bound
    (hbar/T) * (2*max|g| + integral |g'|) with g = coupling/gap.
    """

    total: complex
    boundary: complex
    tail: complex
    bound: float


def _coupled_pairs(model: ContinuumModel, variant: GeneratorVariant, j0: int, states) -> list[tuple[int, float]]:
    """(j, dk) for the states j whose pair with j0 the variant keeps and G couples, dk = kappa_j0 - kappa_j.

    With the separable E(k, s) = kappa(k) f(s), E_j0 - E_j = dk f(s) and
    alpha_j0 - alpha_j = dk F(s), so no two large energies or phases are subtracted.
    """
    kept = variant.keep_mask(model.size)[j0] & (model.rotation.generator[j0] != 0.0)
    kappa = model.dispersion.kappa(model.grid.nodes)
    return [(j, float(kappa[j0] - kappa[j])) for j in states if kept[j]]


def _pair_rule(model: ContinuumModel, dk: float, duration: float):
    """Composite Gauss-Legendre rule on [0, 1] for a pair of mismatch dk: (required panels, edges, nodes, weights).

    `required` panels keep each one's phase swing T max|E_j0 - E_j| width / hbar
    (exact max over [0, 1]) within _PHASE_BUDGET.  The uniform panels
    used are at least _MIN_PANELS and a multiple of the profile's knot
    intervals, so none straddles a kink; nodes and weights run panel by
    panel.
    """
    disp = model.dispersion
    lo, hi = disp.profile_range(0.0, 1.0)
    de = abs(dk) * max(-lo, hi)
    required = max(1, math.ceil(abs(duration) * de / (HBAR * _PHASE_BUDGET)))
    segments = len(disp.knots) - 1
    panels = -(-max(_MIN_PANELS, required) // segments) * segments
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return required, edges, (edges[:-1, None] + half * (1.0 + _GL_X)).ravel(), (half * _GL_W).ravel()


def planned_substeps(
    model: ContinuumModel,
    part: BandPartition,
    j0: int,
    duration: float,
) -> tuple[int, int]:
    """(nodes the phase budget requires, nodes used) of _pair_rule on [0, 1].

    The max runs over the exterior pairs leakage_first_order integrates,
    those with G[j0, j] != 0; (0, 0) when there are none.
    """
    pairs = _coupled_pairs(model, kato_state(), j0, part.exterior(part.band_of(j0)))
    plans = [_pair_rule(model, dk, duration)[:2] for _, dk in pairs]
    if not plans:
        return 0, 0
    return _GL_ORDER * max(r for r, _ in plans), _GL_ORDER * (max(e.size for _, e in plans) - 1)


def _transition(model: ContinuumModel, j0: int, j: int, dk: float, duration: float) -> complex:
    """transition_integral of a coupled pair of mismatch dk."""
    _, _, s, w = _pair_rule(model, dk, duration)
    omega = duration * dk / HBAR
    weight = np.exp(1j * omega * model.dispersion.profile_integral(s))
    return complex(np.sum(w * weight * (1j * HBAR * model.frame_coupling_profile(j0, j, s))))


def transition_integral(
    model: ContinuumModel,
    variant: GeneratorVariant,
    j0: int,
    j: int,
    duration: float,
) -> complex:
    """Oscillatory integral of the masked coupling against the phase mismatch.

    Integral over [0, 1] of exp[i*T*(alpha_j0 - alpha_j)/hbar] *
    i*hbar*<phi_j0|dphi_j>, by the pair's composite Gauss-Legendre rule
    (_pair_rule).  Exactly zero for pairs removed by the variant's mask
    and for pairs the generator does not couple (the coupling is
    theta' * G[j0, j]).
    """
    pairs = _coupled_pairs(model, variant, j0, [j])
    return _transition(model, j0, *pairs[0], duration) if pairs else 0.0 + 0.0j


def transition_integral_parts(
    model: ContinuumModel,
    variant: GeneratorVariant,
    j0: int,
    j: int,
    duration: float,
) -> TransitionParts:
    """Integration-by-parts rearrangement of transition_integral, on the same nodes.

    Valid because the energy mismatch of two distinct states never
    vanishes on [0, 1]: ContinuumModel construction rejects every spectrum
    whose gaps reach EPS_CROSS.  Returns the boundary term, the remaining
    integral, and the resulting O(hbar/T) magnitude bound.  Couplings,
    gaps and their s-derivatives are closed form, evaluated only on
    [0, 1].  Every part is exactly zero where transition_integral is,
    including j == j0, which both variants mask.
    """
    if duration <= 0.0:
        raise ConfigError("integration by parts needs a positive duration")
    pairs = _coupled_pairs(model, variant, j0, [j])
    if not pairs:
        return TransitionParts(0j, 0j, 0j, 0.0)

    ((_, dk),) = pairs
    _, edges, s, w = _pair_rule(model, dk, duration)
    grid = np.sort(np.concatenate((edges, s)))
    disp = model.dispersion
    de = dk * disp.profile(grid)
    g = 1j * HBAR * model.frame_coupling_profile(j0, j, grid) / de
    # d/ds (coupling/gap) by the quotient rule, at the nodes only, where
    # the rate of a tabulated profile is continuous
    c, de = 1j * HBAR * model.frame_coupling_profile(j0, j, s), dk * disp.profile(s)
    cp = 1j * HBAR * model.frame_coupling_rate_profile(j0, j, s)
    gp = (cp * de - c * dk * disp.profile_rate(s)) / (de * de)

    omega = duration * dk / HBAR
    pref = HBAR / (1j * duration)
    boundary = pref * (np.exp(1j * omega * disp.profile_integral(1.0)) * g[-1] - g[0])
    tail = -pref * np.sum(w * np.exp(1j * omega * disp.profile_integral(s)) * gp)
    bound = (HBAR / duration) * (2.0 * float(np.abs(g).max()) + float(np.sum(w * np.abs(gp))))
    return TransitionParts(complex(boundary + tail), complex(boundary), complex(tail), bound)


def _final_column(matrix, j0: int) -> np.ndarray:
    """Column j0 of one N x N matrix at s=1; a stack of nodes would index the nodes instead, so it is refused."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ConfigError(f"expected the N x N matrix at s=1, got an array of shape {matrix.shape}")
    return matrix[:, j0]


def leakage_exact(model: ContinuumModel, u: np.ndarray, part: BandPartition, j0: int) -> float:
    """Probability that the evolved j0 state left its band by s=1, from the s=1 propagator u = U(1)."""
    members = list(part.members(part.band_of(j0)))
    v = _final_column(u, j0)
    c = model.frame_matrix(1.0)[:, members].conj().T @ v
    eta = 1.0 - float(np.sum(np.abs(c) ** 2))
    # Exact leakage is nonnegative; roundoff may land a hair below zero.
    return max(eta, 0.0)


def leakage_wave_form(model: ContinuumModel, w: np.ndarray, part: BandPartition, j0: int) -> float:
    """Leakage through the s=1 residual operator w = W(1): weight outside the initial band."""
    exterior = list(part.exterior(part.band_of(j0)))
    v = _final_column(w, j0)
    return float(np.sum(np.abs(v[exterior]) ** 2))


def leakage_first_order(
    model: ContinuumModel,
    part: BandPartition,
    j0: int,
    duration: float,
) -> float:
    """First-order leakage: summed |transition integral|^2 over the exterior."""
    pairs = _coupled_pairs(model, kato_state(), j0, part.exterior(part.band_of(j0)))
    return sum(abs(_transition(model, j0, j, dk, duration)) ** 2 for j, dk in pairs) / HBAR**2


def adiabatic_criterion(
    model: ContinuumModel,
    part: BandPartition,
    j0: int,
    threshold: float = 0.1,
) -> CriterionReport:
    """Max exterior coupling against min exterior gap, flagged by threshold.

    Both sides are exact.  The coupling theta'(s) G[j0, j] peaks at
    AngleSchedule.max_rate() * max |G[j0, j]| over the exterior, and the
    gap is spectral.pair_gap of j0 against its band's exterior, which
    ContinuumModel construction keeps above EPS_CROSS.
    """
    if threshold <= 0:
        raise ConfigError(f"threshold must be positive, got {threshold}")
    exterior = list(part.exterior(part.band_of(j0)))
    min_gap = pair_gap(model, [j0], exterior)
    coupled = float(np.abs(model.rotation.generator[j0, exterior]).max())
    max_coupling = model.rotation.schedule.max_rate() * coupled
    margin = max_coupling / min_gap
    return CriterionReport(max_coupling, min_gap, margin, threshold, margin <= threshold)


def leakage_reports(
    model: ContinuumModel,
    part: BandPartition,
    j0: int,
    durations,
    u1s,
    w1s,
) -> list[LeakageReport]:
    """One LeakageReport per duration, from its U(1) and W(1); the one builder of the leakage row.

    simulate and sweep_leakage both pass the finals of final_propagators
    and final_stage, so the two agree bitwise at the same T, steps,
    scheme and variant.  The three sequences must pair one to one.
    """
    if not len(durations) == len(u1s) == len(w1s):
        raise ConfigError(
            f"leakage_reports got {len(durations)} durations, {len(u1s)} finals U(1) and {len(w1s)} W(1)"
        )
    band = part.band_of(j0)
    return [
        LeakageReport(
            duration,
            j0,
            band,
            leakage_exact(model, u1, part, j0),
            leakage_first_order(model, part, j0, duration),
            deviation_from_identity(w1),
        )
        for duration, u1, w1 in zip(durations, u1s, w1s)
    ]


def sweep_leakage(
    model: ContinuumModel,
    part: BandPartition,
    j0: int,
    durations,
    steps: int,
    scheme: str = MIDPOINT,
    variant: GeneratorVariant | None = None,
) -> list[LeakageReport]:
    """One LeakageReport per distinct duration, ascending.

    `scheme` applies to the propagator.  Every U(1) comes from
    final_propagators and equals final_propagator at its duration
    bitwise.  A duration the step budget cannot resolve raises before any
    step, the smallest such one.
    """
    durations = sorted({float(t) for t in durations})
    variant = variant if variant is not None else kato_state()
    u1s = final_propagators(model, durations, steps, scheme)
    w1s, _, _ = final_stage(model, variant, part, durations, u1s)
    return leakage_reports(model, part, j0, durations, u1s, w1s)


def fit_power_law(durations, values) -> ConvergenceFit:
    """Least-squares line through (log T, log value); zeros are excluded.

    Exact zeros are a theorem (nothing leaked), not data; they are
    reported in `excluded` and never log-transformed.
    """
    durations = [float(t) for t in durations]
    values = [float(v) for v in values]
    if len(durations) != len(values):
        raise ConfigError("durations and values differ in length")
    bad = [t for t in durations if not t > 0.0]
    if bad:
        raise AnalysisError(f"duration T={bad[0]:g} is not positive and cannot enter a log-log fit")
    excluded = tuple(t for t, v in zip(durations, values) if v == 0.0)
    kept = [(t, v) for t, v in zip(durations, values) if v != 0.0]
    if not kept:
        raise AnalysisError(
            "trivially adiabatic: every leakage is exactly zero, nothing to fit"
        )
    if any(v < 0 for _, v in kept):
        raise AnalysisError("negative leakage cannot enter a log-log fit")
    if len(kept) < 3:
        raise AnalysisError(f"need at least 3 nonzero points, got {len(kept)}")
    x = np.log([t for t, _ in kept])
    y = np.log([v for _, v in kept])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return ConvergenceFit(
        tuple(t for t, _ in kept),
        tuple(v for _, v in kept),
        float(slope),
        float(intercept),
        r_squared,
        excluded,
    )

