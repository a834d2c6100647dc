"""Unitary families of the adiabatic construction.

Four families on a shared s-grid: the physical propagator (scaled by the
duration T), the transport unitary generated by the masked frame-velocity
generator (T-independent), the dynamical-phase operator (diagonal in the
initial frame), and the residual wave operator obtained by composition.

Every step is unitary to roundoff: a midpoint propagator step is a
diagonal phase times a rotation in the frame's eigenbasis, and a stepped
transport's step a Taylor exponential whose truncation error stays below
the unit roundoff (see below).  So the stepped families stay unitary to
roundoff at any step count; step budgets only control accuracy, never
stability.  The fourth-order U (below) combines two such families, so it
is unitary to its truncation error and the drift of its two passes.
The transport unitary also has a closed form (_exact_transport), because
the frame exp(theta(s) G) rotates with one constant generator; the stepped
schemes stay as its independent check.

The midpoint propagator step is Q(m_k) diag(p_k) Q(m_k)^dag, with m_k the
step's midpoint and p_k = exp(-i T kappa (F(s_k) - F(s_{k-1})) / hbar), the
exact phase of E = kappa f(s) over the step (F the profile's closed-form
integral).  That is ds E(m_k) for an affine profile, and it stays exact on
a step a tabulated profile's kink falls inside.  In the frame basis
x_k = Q(m_k)^dag U_k (x_0 = I, as Q(0) = I) it becomes
x_k = diag(p_k) R_k x_{k-1} with the step rotation R_k = Q(m_k)^dag Q(m_{k-1}).
With the frame's cached eigensystem iG = V diag(lam) V^dag,
Q(s) = V diag(exp(-i theta(s) lam)) V^dag, so R_k = I + E_k with
E_k = V diag(exp(i phi_k) - 1) V^dag, phi_k = (theta(m_k) - theta(m_{k-1})) lam.
The zero modes add nothing to E_k, so they need no basis, whatever the
kernel's dimension.  exp(i phi) - 1 is taken as -2 sin^2(phi/2) +
i sin(phi), which keeps its relative precision at a step's small angles,
where cos(phi) - 1 would cancel.  So the eigenvectors' residual defect
enters R_k scaled by the step's angle, through E_k, and not whole, as
V V^dag - I did in every V diag(exp(i phi)) V^dag.  A real G pairs its
spectrum as +-lam with conjugate eigenvectors, so
E_k = Re(W diag(exp(i phi_k) - 1) W^dag) with W = sqrt(2) V_+, the lam > 0
half alone: R_k is real orthogonal, and one real GEMM per chunk,
(chunk N, 2h) x (2h, N) with 2h <= N, builds every R_k (_rotations).  A
complex G keeps every nonzero mode and a complex GEMM.  W is the kernel's
own copy, polished by two Newton-Schulz steps (_polished), which take
that defect from eigh's 1e-15 to 2e-16 (frame_matrix keeps eigh's V).
Only p_k depends on T, so the kernel (_midpoint_chunks) carries a
durations axis: the chunk's R_k serve every duration, and each step is
one stacked matmul over the durations followed by the row scaling by
p_k, with no frame rebuild; a real R_k takes the (re, im) float view of
x, at half the multiplies of a complex product.  The stack is one GEMM
per duration: a single GEMM over all of them rounds a duration's columns
differently at some N (33 among them), and a final would then depend
on which durations share the pass.  The kernel yields the nodes
U_k = Q(m_k) x_k, with Q from frame_matrix, in the lab frame as every
other kernel does, and forms only those a caller reads: every node for a
stored family or propagator_nodes, the last alone for a final.  A frozen
frame (theta_max = 0) has the eigensystem (0, I) and no moving mode, so
its R_k and Q(m_k) are I exactly and its nodes are the diagonal
products of the diag(p_k), off-diagonals exactly 0, on the same path.
Every caller takes this one path: evolve_propagator and
propagator_nodes with one duration, final_propagators (so
final_propagator and final_stage) with all of them.  A duration's slice
sees the same matmuls in strict step order whatever shares the pass (a
stacked matmul is one GEMM per slice, and the chunks do not depend on the
durations), so a final equals the last node of its family bitwise, and a
sweep's U(1) equals final_propagator at its duration.  A pairwise tree
reduction would be faster for finals alone, but it rounds differently
from the sequential path and would fork the two.

The scheme key selects the fourth-order scheme of each family: for U,
Richardson on the midpoint kernel; for the stepped transports, the
commutator-free stages.  The midpoint step is a symmetric (Strang)
splitting, so the error of U_n, the kernel's U at n steps, expands in
even powers of the step (Gragg, SIAM J. Numer. Anal. 2 (1965)), and
R = (4 U_2n - U_n) / 3 is fourth order (Richardson, Phil. Trans. A 210
(1911)).  R is not unitary: to leading order R^dag R - I is
(4/9) X^dag X with X = U_n - U_2n, the midpoint error squared, so the key
takes R (I - (2/9) X^dag X) (_richardson), which cancels that term to
the same order and leaves the two passes' drift for verify's unitarity
check to see.  Both are ordinary passes of the kernel: final_propagators
combines the finals of its passes at steps and 2 steps, and a streamed
family node k of the n-step stream with node 2k of the 2n-step one
(_scheme_chunks).  So the s-grid, the step budget on steps and every
"final == last node" pin are the midpoint scheme's.

Both stepped transports run one kernel (_lab_chunks): a chunk builds
the stages at all its Gauss nodes (two per CF4 step, one per midpoint
step), each a Taylor exponential of ds theta'(s) Q G_masked Q^dag in the
lab frame, with Q(s) from the midpoint kernel's rotation builder.  A real
G (the nearest_neighbor and banded generators) keeps the whole evolution
in real GEMMs; a complex G keeps complex products.

The Taylor series (_expm) exponentiates a chunk's whole stack at once:
the degree (at most 16, evaluated by Paterson-Stockmeyer in at most six
matrix products) and the number of squarings follow from the chunk's
largest 1-norm and the double-precision backward-error thresholds of
Al-Mohy and Higham.  The steps are composed in order with one N x N
matmul each, again with no frame rebuild.  A zero stage gives the
identity and a diagonal one a diagonal step, exactly, so a frozen frame
keeps its exact transport.  The transport's stage stays the product
Q G_masked Q^dag instead of its exact form (theta' G for kato_state):
with that, the stepped transport would be the closed form by
construction and would no longer check it.

No command stores the families.  simulate, sweeps and verify's unitarity
check make one call each to the s=1 stage (final_stage), which steps U(1)
by final_propagators and returns W(1), the four unitarity defects and the
intertwining residual, from one Q(1), the closed-form A(1) and Phi(1) for
all durations: U and W are products of unitary steps (for the CF4 key,
combinations of two), so any step's defect carries to s=1, and A, Phi
and the residual are closed forms at every node.  Stored and staged W share one helper (_residual_operator,
Phi^dag as a row scaling by the phases), to which wave_operator passes
its Phi family's diagonal and final_stage the phases at s=1.  verify's
frozen-frame check streams the frozen frame's propagator diagonals
(frozen_phases), O(chunk N) in memory at any step count.  Every step is
then the kernel's own diagonal p_k (_step_phases), and one vector
multiply per step composes them in step order, as the kernel's row
scaling does (np.cumprod rounds differently), so each diagonal equals
the kernel's node bitwise, for CF4 through the same Richardson
combination.  The kernel's frozen off-diagonals are exactly 0, which
only the tests read.
propagator_nodes, every node streamed, is the tests' reference: each
node equals the stored family's bitwise, as no node depends on its chunk
(frame_matrix takes one N x N product per node).  verify's stepped
transport is streamed too (transport_residual).

The stored families (UnitaryFamily, from evolve_propagator,
evolve_intertwiner, phase_family and wave_operator, with phase_operator
and intertwine_residual beside them) stay only as the references of the
tests and the names the benchmark's span hooks wrap; no other module of
the package reads them.  A stored family holds (steps + 1) N^2 complex
numbers, so it is for small grids; every command streams instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bands import BandPartition
from .errors import ConfigError, StepBudgetError
from .spectral import HBAR, ContinuumModel

MIDPOINT = "midpoint_exponential"
# each family's fourth-order scheme: Richardson on the midpoint kernel for
# U, the commutator-free stages for the stepped transports
CF4 = "fourth_order_commutator_free"
SCHEMES = (MIDPOINT, CF4)

VARIANTS = ("kato_state", "weyl_band")

# Gauss-Legendre nodes on [0,1] and the commutator-free order-4 weights.
# First exponential weights the earlier node more (a1 > a2); swapping the
# weights demotes the scheme to order 2.
_C1 = 0.5 - math.sqrt(3.0) / 6.0
_C2 = 0.5 + math.sqrt(3.0) / 6.0
_A1 = 0.25 + math.sqrt(3.0) / 6.0
_A2 = 0.25 - math.sqrt(3.0) / 6.0

# Steps built per vectorised chunk: _CHUNK, or fewer on larger grids so
# that each of a chunk's few complex (stages, N, N) temporaries stays
# within _CHUNK_BYTES (one stage per midpoint step, two per CF4 step), and
# all _EXPM_TEMPS of a Taylor-exponential chunk together do.
# Memory is flat in `steps` and O(N^2); larger chunks buy no speed and
# cost peak RSS.
_CHUNK = 128
_CHUNK_BYTES = 2 << 20


# The step exponentials of the stepped transports:
# Taylor degrees evaluated by Paterson-Stockmeyer (1, 2, 3, 4, 5 and 6
# matrix products), each with the largest 1-norm theta at which its
# truncation is the exact exponential of a matrix within a unit roundoff
# (2^-53) of the argument, relatively (Al-Mohy & Higham, SIAM J. Matrix
# Anal. Appl. 31 (2009)).  Above the last theta the argument is halved
# until it fits and the result squared back.  An exponential holds about
# _EXPM_TEMPS stacks the size of its argument at once.
_TAYLOR_DEGREES = ((2, 2.58e-8), (4, 3.40e-4), (6, 9.07e-3), (9, 8.96e-2), (12, 3.00e-1), (16, 7.81e-1))
_EXPM_TEMPS = 8


def _chunk_len(n: int, stages: int = 1) -> int:
    """Steps (or stored nodes) per chunk at grid size n with `stages` (N, N) matrices each."""
    return max(1, min(_CHUNK, _CHUNK_BYTES // (16 * stages * n * n)))


@dataclass(frozen=True)
class PropagationConfig:
    """How to integrate one family: duration scale, resolution, scheme."""

    duration: float
    steps: int
    scheme: str = MIDPOINT

    def __post_init__(self):
        if not math.isfinite(self.duration) or self.duration < 0:
            raise ConfigError(f"duration must be finite and >= 0, got {self.duration}")
        _check_run(self.steps, self.scheme)


def _check_run(steps: int, scheme: str = MIDPOINT):
    """The steps and scheme checks of every evolution."""
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; pick one of {SCHEMES}")


@dataclass(frozen=True)
class GeneratorVariant:
    """Which couplings the transport generator keeps: those between two bands.

    The mask zeroes every same-band block of the partition, the symmetric
    reading that keeps the generator Hermitian (weyl_band).  Without a
    partition every state is its own band (kato_state): Kato's state-wise
    generator is the band generator of one state per band, and only the
    diagonal goes.
    """

    partition: BandPartition | None = None

    def keep_mask(self, n: int) -> np.ndarray:
        """Boolean matrix: True where row and column lie in different bands."""
        if self.partition is None:
            labels = np.arange(n)
        elif self.partition.grid_size != n:
            raise ConfigError(
                f"variant partition covers {self.partition.grid_size} states, model has {n}"
            )
        else:
            labels = self.partition.labels
        return labels[:, None] != labels[None, :]


def kato_state() -> GeneratorVariant:
    return GeneratorVariant()


def weyl_band(part: BandPartition) -> GeneratorVariant:
    return GeneratorVariant(part)


@dataclass(eq=False)
class UnitaryFamily:
    """One unitary per node of a uniform s-grid on [0, 1]."""

    kind: str
    s_nodes: np.ndarray
    matrices: np.ndarray

    def __post_init__(self):
        if self.kind not in ("U", "A", "Phi", "W"):
            raise ConfigError(f"unknown family kind {self.kind!r}")
        if self.matrices.shape[0] != self.s_nodes.shape[0]:
            raise ConfigError("family has a matrix count different from its node count")

    def __len__(self) -> int:
        return len(self.s_nodes)

    @property
    def final(self) -> np.ndarray:
        return self.matrices[-1]

    def chunks(self):
        """(s, matrices) views over consecutive chunks of the nodes."""
        step = _chunk_len(self.matrices.shape[-1])
        for lo in range(0, len(self), step):
            yield self.s_nodes[lo : lo + step], self.matrices[lo : lo + step]

    def unitarity_defect(self) -> float:
        """max over nodes of the entrywise defect of M^dag M from identity."""
        return max(_unitarity_defect(m) for _, m in self.chunks())


def _adjoint_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^dag y, stacked."""
    return np.matmul(x.conj().swapaxes(-1, -2), y)


def _identity_defect(prod: np.ndarray) -> float:
    """max over a stack of matrices of the entrywise distance from identity; prod is overwritten."""
    d = np.arange(prod.shape[-1])
    prod[..., d, d] -= 1.0
    return float(np.abs(prod).max())


def _unitarity_defect(mats: np.ndarray) -> float:
    """max over a stack of matrices of the entrywise defect of M^dag M from identity."""
    return _identity_defect(_adjoint_product(mats, mats))


# ---- step budgets ------------------------------------------------------


def _phase_budget(scale: float) -> int:
    """Minimum steps keeping each step's phase swing scale / steps <= pi/4."""
    return max(1, math.ceil(scale * 4.0 / math.pi))


def _check_budget(steps: int, required: int, what: str):
    if steps < required:
        raise StepBudgetError(f"steps={steps} cannot resolve {what}", required)


def propagator_step_budget(model: ContinuumModel, duration: float) -> int:
    """Minimum steps keeping each propagator step's phase swing <= pi/4."""
    return _phase_budget(abs(duration) * model.max_energy() / HBAR)


def _masked_generator(model: ContinuumModel, variant: GeneratorVariant) -> np.ndarray:
    """G with the couplings the variant removes set to zero."""
    return np.where(variant.keep_mask(model.size), model.rotation.generator, 0.0)


def generator_norm(model: ContinuumModel, variant: GeneratorVariant) -> float:
    """max over s in [0, 1] of the spectral norm of K(s), exact.

    K(s) = Q(s) (i hbar theta'(s) G_masked) Q(s)^dag has the eigenvalues
    hbar theta'(s) eig(i G_masked), so the norm peaks with |theta'|, at
    AngleSchedule.max_rate().
    """
    spread = np.abs(np.linalg.eigvalsh(1j * _masked_generator(model, variant))).max()
    return HBAR * model.rotation.schedule.max_rate() * float(spread)


def intertwiner_step_budget(model: ContinuumModel, variant: GeneratorVariant) -> int:
    """Step budget for the transport unitary (duration-free)."""
    return _phase_budget(generator_norm(model, variant) / HBAR)


# ---- generators --------------------------------------------------------


def generator_in_frame(model: ContinuumModel, variant: GeneratorVariant, s: float) -> np.ndarray:
    """Generator elements in the instantaneous frame: i*hbar*theta'(s)*G_masked, closed form.

    The overlaps <phi_a(s) | d/ds phi_b(s)> are theta'(s) G[a, b], because
    Q = exp(theta G) commutes with G.
    """
    return 1j * HBAR * model.rotation.schedule.angle_rate(s) * _masked_generator(model, variant)


def generator(model: ContinuumModel, variant: GeneratorVariant, s: float) -> np.ndarray:
    """Transport generator K(s), Hermitian by the symmetric masking.

    Equals i*hbar * sum_j (I - P_win(j)) |dphi_j><phi_j| with P_win(j) the
    projector onto j's band: the partition's (weyl_band), or j alone
    (kato_state, the one-state bands).
    """
    q = model.frame_matrix(s)
    masked = generator_in_frame(model, variant, s)
    return q @ masked @ q.conj().T


@dataclass(frozen=True)
class LiteralWindowDiagnostic:
    """Hermiticity defect of the asymmetric sliding-window generator.

    Zeroing couplings only toward the m indices at and above each state
    (a one-sided window) breaks Hermiticity on a grid; this diagnostic
    measures by how much.  The shipped variants use symmetric masks.
    """

    window: int
    s: float
    norm: float
    hermiticity_defect: float

    @property
    def relative_defect(self) -> float:
        return self.hermiticity_defect / self.norm if self.norm > 0 else 0.0


def literal_window_hermiticity(model: ContinuumModel, window: int, s: float) -> LiteralWindowDiagnostic:
    if not 1 <= window <= model.size:
        raise ConfigError(f"window must be in [1, {model.size}], got {window}")
    m = model.rotation.schedule.angle_rate(s) * model.rotation.generator
    n = model.size
    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    keep = ~((rows >= cols) & (rows < np.minimum(cols + window, n)))
    q = model.frame_matrix(s)
    k = 1j * HBAR * (q @ np.where(keep, m, 0.0) @ q.conj().T)
    norm = float(np.abs(k).max())
    defect = float(np.abs(k - k.conj().T).max())
    return LiteralWindowDiagnostic(window, float(s), norm, defect)


# ---- evolutions --------------------------------------------------------


def _polished(model: ContinuumModel):
    """(lam, W, wh): the frame's moving modes, their polished eigenvectors W, and _rotations' wh.

    The moving modes have |lam| above N eps max|lam| (on every banded
    generator up to N = 64 and random_banded up to width 3, zero modes read
    at most 0.2 of that, the others at least 4e10 times it): all of them
    for a complex G, with wh = W^dag; the lam > 0 half for a real G, with
    W = sqrt(2) V_+, whose float view is a real N x 2h isometry, and wh its
    transpose.  Two Newton-Schulz steps Y <- Y (3I - Y^dag Y) / 2 on W, or
    on that isometry, bring eigh's |V^dag V - I| of 1e-15 to 2e-16; the
    frozen frame's (0, I) leaves W empty.
    """
    lam, v = model.frame_eigensystem
    real = not model.rotation.generator.imag.any()
    keep = (lam if real else np.abs(lam)) > len(lam) * np.finfo(float).eps * np.abs(lam).max()
    y = np.ascontiguousarray(math.sqrt(2.0) * v[:, keep]).view(float) if real else v[:, keep]
    for _ in range(2):
        y = y @ (3.0 * np.eye(y.shape[1]) - y.conj().T @ y) / 2.0
    return lam[keep], y.view(complex), y.conj().T


def _cis(phi: np.ndarray, minus_one: bool = False) -> np.ndarray:
    """exp(i phi) of a real array from its cos and sin; with minus_one, exp(i phi) - 1 as -2 sin^2(phi / 2) + i sin(phi)."""
    z = np.empty(np.shape(phi), dtype=complex)
    np.sin(phi, out=z.imag)
    z.real = -2.0 * np.sin(0.5 * phi) ** 2 if minus_one else np.cos(phi)
    return z


def _rotations(w: np.ndarray, wh: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """I + W diag(exp(i phi_k) - 1) W^dag for every row phi_k of phi, from one (K N, h) x (h, N) GEMM in wh's dtype.

    wh is W^dag, or the transposed (re, im) float view of W, which makes the
    GEMM real, (K N, 2h) x (2h, N), and gives Re(W diag(.) W^dag), adding
    the -lam modes' conjugate half for a real G.  The zero modes take I
    alone, as I - Re(W W^dag) projects onto them.
    """
    n, h = w.shape
    e = (w * _cis(phi, minus_one=True)[:, None, :]).reshape(len(phi) * n, h).view(wh.dtype) @ wh
    e.reshape(len(phi), n * n)[:, :: n + 1] += 1.0  # the diagonals
    return e.reshape(-1, n, n)


def _step_phases(model: ContinuumModel, edges: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """p_k = exp(i rate kappa (F(s_k) - F(s_{k-1}))) of the steps between consecutive edges, for every rate; shape (K, D, N).

    rate is -T / hbar for each of the D durations; F is the profile's
    closed-form integral, so the phase is exact over any step.
    """
    df = np.diff(model.dispersion.profile_integral(edges))
    kappa = model.dispersion.kappa(model.grid.nodes)
    return _cis(np.multiply.outer(df, kappa)[:, None, :] * rate[:, None])


def _midpoint_chunks(model: ContinuumModel, durations, steps: int, every_node: bool = True):
    """Yield the nodes U_k of consecutive chunks of the steps 1..steps (midpoint scheme), every duration at once.

    Each chunk's stack, shape (chunk, D, N, N), is U_k = Q(m_k) x_k with
    the x_k of the module docstring and Q from frame_matrix at the chunk's
    midpoints m.  Without every_node, one stack of shape (1, D, N, N) comes
    after the last chunk, U at s=1 alone, so that the memory is O(D N^2)
    rather than one (chunk, N, N) stack per duration.

    A step writes R_k x (on x's (re, im) float view for a real R_k),
    scaled by p_k, into two preallocated buffers in turn or the chunk's
    node stack.
    """
    lam, w, wh = _polished(model)
    n = model.size
    ds = 1.0 / steps
    rate = (-1.0 / HBAR) * np.asarray(durations, dtype=float)
    chunk = _chunk_len(n)
    buffers = np.empty((2, len(rate), n, n), dtype=complex)
    buffers[1] = np.eye(n)  # x_0 = Q(0)^dag U(0) = I
    x, xf = buffers[1], buffers[1].view(wh.dtype)
    ring = itertools.cycle(zip(buffers, buffers.view(wh.dtype)))
    theta_prev = 0.0
    for lo in range(0, steps, chunk):
        edges = np.arange(lo, min(lo + chunk, steps) + 1) * ds
        sm = edges[:-1] + 0.5 * ds
        theta = model.rotation.schedule.angle(sm)
        # the chunk's R_k from one GEMM for all durations; p_k as (D, N, 1) row factors
        r = _rotations(w, wh, np.multiply.outer(np.diff(theta, prepend=theta_prev), lam))
        theta_prev = theta[-1]
        p = _step_phases(model, edges, rate)[..., None]
        if every_node:
            xs = np.empty((len(sm), *x.shape), dtype=complex)
        for pk, rk, (out, outf) in zip(p, r, zip(xs, xs.view(wh.dtype)) if every_node else ring):
            np.matmul(rk, xf, out=outf)
            out *= pk
            x, xf = out, outf
        del r, p  # only the x_k are held while the consumer reads the chunk
        if every_node:
            yield np.matmul(model.frame_matrix(sm)[:, None], xs)
    if not every_node:
        yield np.matmul(model.frame_matrix(sm[-1]), x)[None]


def _gauss_nodes(steps: int, scheme: str, n: int):
    """The Gauss nodes of consecutive chunks of the steps 1..steps, one array per chunk, in step order.

    Two nodes per CF4 step and one per midpoint step; a chunk holds as many
    steps as _EXPM_TEMPS stacks of their (N, N) stages allow.
    """
    ds = 1.0 / steps
    nodes = np.multiply((0.5,) if scheme == MIDPOINT else (_C1, _C2), ds)
    chunk = _chunk_len(n, len(nodes) * _EXPM_TEMPS)
    for lo in range(0, steps, chunk):
        yield np.add.outer(np.arange(lo, min(lo + chunk, steps)) * ds, nodes).ravel()


def _mixed(h: np.ndarray, scheme: str) -> np.ndarray:
    """The stages of the steps from the stack h of their nodes' values: a CF4 step mixes its two nodes with the commutator-free weights."""
    if scheme == MIDPOINT:
        return h
    h1, h2 = h[0::2], h[1::2]
    return np.stack((_A1 * h1 + _A2 * h2, _A2 * h1 + _A1 * h2), axis=1).reshape(h.shape)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for every matrix of the stack a, by a scaled and squared Taylor polynomial; a is overwritten.

    A real a takes real powers and gives a real result.  The degree and the
    number of squarings follow from the largest 1-norm of the stack
    (_TAYLOR_DEGREES), so before rounding each result is exp(a + e) with
    ||e||_1 <= 2^-53 ||a||_1.  A zero matrix gives the identity and a
    diagonal one a diagonal result, exactly.  A non-finite entry raises
    ConfigError.
    """
    norm = float(np.abs(a).sum(axis=-2).max())
    if not math.isfinite(norm):
        raise ConfigError(f"step exponential of a non-finite matrix (1-norm {norm})")
    squarings = 0
    for degree, theta in _TAYLOR_DEGREES:
        if norm <= theta:
            break
    else:
        squarings = math.ceil(math.log2(norm / theta))
        a *= 0.5**squarings
    x = _taylor(a, degree)
    for _ in range(squarings):
        x = x @ x
    return x


def _taylor(a: np.ndarray, degree: int) -> np.ndarray:
    """sum_{k <= degree} a^k / k! at every matrix of the stack a, by Paterson-Stockmeyer.

    With p = ceil(sqrt(degree)) and the powers a..a^p, the series splits
    into blocks of p terms, summed by Horner's rule in a^p: p - 1 products
    for the powers and one per block below the top.
    """
    p = math.isqrt(degree - 1) + 1
    powers = [a]
    for _ in range(p - 1):
        powers.append(powers[-1] @ a)
    top = (degree - 1) // p * p  # the top block holds the degrees top..degree
    x = powers[degree - top - 1] / math.factorial(degree)
    _add_block(x, powers, top, degree - top - 1)
    for lo in range(top - p, -1, -p):
        x = x @ powers[-1]
        _add_block(x, powers, lo, p - 1)
    return x


def _add_block(x: np.ndarray, powers: list, lo: int, top: int):
    """x += sum_{i <= top} a^i / (lo + i)!, in place, with powers[i - 1] = a^i and a^0 = I."""
    term = np.empty_like(powers[0])
    for i in range(top, 0, -1):
        x += np.multiply(powers[i - 1], 1 / math.factorial(lo + i), out=term)
    d = np.arange(x.shape[-1])
    x[..., d, d] += 1 / math.factorial(lo)


def _composed(x: np.ndarray, z: np.ndarray, scheme: str) -> np.ndarray:
    """The running products X_k ... X_1 z of a chunk's steps X_k, from their stage exponentials x, with one N x N matmul each.

    A CF4 step is the product of its two stage exponentials.
    """
    if scheme == CF4:
        x = x[1::2] @ x[0::2]
    zs = np.empty((len(x), *z.shape), dtype=np.result_type(x, z))
    for mat, out in zip(x, zs):
        z = np.dot(mat, z, out=out)
    return zs


def _lab_chunks(model: ContinuumModel, variant: GeneratorVariant, steps: int, scheme: str):
    """A chunks of the stepped transport, every stage a Taylor exponential in the lab frame.

    i hbar dA/ds = K(s) A with K(s) = i hbar theta'(s) Q(s) G_masked Q(s)^dag.
    Q(s) is I + E at phi = -theta(s) lam, from _rotations' one GEMM per
    chunk as the midpoint kernel's R_k, each stage is exp(R) with
    R = ds theta'(s) Q G_masked Q^dag, and _composed takes the steps in
    order.  A real G makes Q, R, _expm's powers and the whole evolution real.
    """
    lam, w, wh = _polished(model)
    core = _masked_generator(model, variant)
    if wh.dtype == float:
        core = core.real
    ds = 1.0 / steps
    y = np.eye(model.size)
    for s in _gauss_nodes(steps, scheme, model.size):
        q = _rotations(w, wh, np.multiply.outer(-model.rotation.schedule.angle(s), lam))
        h = np.matmul(q @ core, q.conj().swapaxes(-1, -2))
        h *= (ds * model.rotation.schedule.angle_rate(s))[:, None, None]
        ys = _composed(_expm(_mixed(h, scheme)), y, scheme)
        y = ys[-1]
        yield ys


def _richardson(fine: np.ndarray, coarse: np.ndarray, diagonal: bool = False) -> np.ndarray:
    """The CF4 key's U, R (I - (2/9) X^dag X) with R = (4 U_2n - U_n) / 3 and X = U_n - U_2n (module docstring).

    fine and coarse are stacks of U_2n and U_n or, with diagonal, of their diagonals.
    """
    r = (4 * fine - coarse) / 3
    x = coarse - fine
    if diagonal:
        return r - (2 / 9) * (r * (x.conj() * x))
    return r - (2 / 9) * (r @ _adjoint_product(x, x))


def _scheme_chunks(stream, steps: int, scheme: str, diagonal: bool = False):
    """The chunks of a midpoint stream(steps) for the midpoint scheme; for CF4, one per chunk of stream(steps), node k of it with node 2k of stream(2 steps), combined by _richardson."""
    if scheme == MIDPOINT:
        yield from stream(steps)
        return
    fine, held = stream(2 * steps), np.empty(0)
    for c in stream(steps):
        while len(held) < 2 * len(c):
            held = np.concatenate((held, next(fine))) if len(held) else next(fine)
        yield _richardson(held[1 : 2 * len(c) : 2], c, diagonal)
        held = held[2 * len(c) :]


def _propagator_chunks(model: ContinuumModel, config: PropagationConfig):
    """U for consecutive chunks of the nodes s_1..s_steps, from the stacked midpoint kernel with the one duration.

    The one sequential composition evolve_propagator and propagator_nodes consume.
    """

    def stream(steps: int):
        return (u[:, 0] for u in _midpoint_chunks(model, [config.duration], steps))

    return _scheme_chunks(stream, config.steps, config.scheme)


def _check_propagator_budget(model: ContinuumModel, config: PropagationConfig):
    _check_budget(config.steps, propagator_step_budget(model, config.duration), f"duration T={config.duration}")


def evolve_propagator(model: ContinuumModel, config: PropagationConfig) -> UnitaryFamily:
    """Physical propagator family U on steps+1 uniform nodes."""
    _check_propagator_budget(model, config)
    s_nodes = np.linspace(0.0, 1.0, config.steps + 1)
    return UnitaryFamily("U", s_nodes, _stored(_propagator_chunks(model, config), config.steps, model.size))


def final_propagator(model: ContinuumModel, config: PropagationConfig) -> np.ndarray:
    """U at s=1 only; final_propagators at the one duration."""
    return final_propagators(model, [config.duration], config.steps, config.scheme)[0]


def final_propagators(model: ContinuumModel, durations, steps: int, scheme: str = MIDPOINT) -> np.ndarray:
    """U at s=1 at every duration; shape (D, N, N).  The one source of every final U.

    The midpoint scheme takes one stacked pass: the step rotations R_k are
    duration-free and built once for all durations, and each duration pays
    one row scaling and one N x N product per step; memory is O(D N^2)
    plus one chunk of R_k, flat in steps.  The CF4 scheme takes two such
    passes, at steps and 2 steps, and returns their _richardson
    combination.  Slice d does not depend on which durations share the
    call or in what order.  A duration the step budget cannot resolve
    raises before any step is taken, the smallest such one first.
    """
    if len(durations) == 0:
        raise ConfigError("final_propagators needs at least one duration")
    configs = [PropagationConfig(duration, steps, scheme) for duration in durations]
    for config in sorted(configs, key=lambda c: c.duration):
        _check_propagator_budget(model, config)
    u = _last(_midpoint_chunks(model, durations, steps, every_node=False))
    if scheme == MIDPOINT:
        return u
    return _richardson(_last(_midpoint_chunks(model, durations, 2 * steps, every_node=False)), u)


def _stored(chunks, steps: int, n: int) -> np.ndarray:
    """Every node of a chunked evolution, stored: the _nodes chunks end to end."""
    matrices = np.empty((steps + 1, n, n), dtype=complex)
    k = 0
    for _, m in _nodes(chunks, steps, np.eye(n, dtype=complex)):
        matrices[k : k + len(m)] = m
        k += len(m)
    return matrices


def _last(chunks) -> np.ndarray:
    """The last node of a chunked evolution, complex."""
    for z in chunks:
        pass
    return z[-1].astype(complex)


def _nodes(chunks, steps: int, identity: np.ndarray):
    """(s, nodes) chunk by chunk over every node of a chunked evolution, s=0 (the identity, as a matrix or a diagonal) first."""
    s_nodes = np.linspace(0.0, 1.0, steps + 1)
    yield s_nodes[:1], identity[None]
    k = 1
    for z in chunks:
        yield s_nodes[k : k + len(z)], z
        k += len(z)


def propagator_nodes(model: ContinuumModel, config: PropagationConfig):
    """(s, U) for consecutive chunks of the steps+1 nodes, from s=0; the streamed evolve_propagator.

    The budget is checked on the call, before the first chunk is asked for.
    Each U equals the family's matrices at s bitwise, and one chunk is held
    at a time.
    """
    _check_propagator_budget(model, config)
    return _nodes(_propagator_chunks(model, config), config.steps, np.eye(model.size, dtype=complex))


def frozen_phases(model: ContinuumModel, config: PropagationConfig):
    """(s, diag U) for consecutive chunks of the steps+1 nodes of a frozen frame's propagator, from s=0.

    The midpoint steps are the kernel's diagonal p_k (module docstring),
    one vector multiply each, and the CF4 scheme combines two such streams
    as _propagator_chunks does; memory is O(chunk N).  A moving frame
    raises ConfigError, and the budget is checked, on the call.
    """
    if model.rotation.schedule.theta_max != 0.0:
        raise ConfigError("frozen_phases needs a frozen frame (theta_max = 0)")
    _check_propagator_budget(model, config)
    identity = np.ones(model.size, dtype=complex)

    def stream(steps: int):
        return _diagonal_products(_frozen_steps(model, config.duration, steps), identity)

    return _nodes(_scheme_chunks(stream, config.steps, config.scheme, diagonal=True), config.steps, identity)


def _frozen_steps(model: ContinuumModel, duration: float, steps: int):
    """A frozen frame's midpoint steps p_k, one (chunk, N) stack per chunk."""
    ds = 1.0 / steps
    rate = np.array([-duration / HBAR])
    chunk = _chunk_len(model.size)
    for lo in range(0, steps, chunk):
        yield _step_phases(model, np.arange(lo, min(lo + chunk, steps) + 1) * ds, rate)[:, 0]


def _diagonal_products(chunks, c: np.ndarray):
    """The running products of diagonal steps from c, chunk by chunk: one vector multiply per step."""
    for x in chunks:
        cs = np.empty_like(x)
        for xk, out in zip(x, cs):
            c = np.multiply(c, xk, out=out)
        yield cs


def _check_intertwiner(model: ContinuumModel, variant: GeneratorVariant, steps: int, scheme: str):
    _check_run(steps, scheme)
    _check_budget(steps, intertwiner_step_budget(model, variant), "the transport generator")


def _exact_transport(
    model: ContinuumModel, variant: GeneratorVariant, s: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Kato's closed form A(s) = exp(theta G) exp(-theta G_in), stacked over s, given Q = frame_matrix(s).

    With Q = exp(theta G) the frame velocity in the frame is theta' G, so
    the masked generator is theta' (G - G_in), where G_in keeps the couplings
    the variant removes; A = Q X then reduces to dX/ds = -theta' G_in X.
    G_in vanishes for kato_state (G has zero diagonal), leaving A = Q.  Both
    factors go through Hermitian eigendecompositions, so A is unitary to
    roundoff, and theta = 0 gives the identity bitwise.
    """
    n = model.size
    g_in = np.where(variant.keep_mask(n), 0.0, model.rotation.generator)
    if not g_in.any():
        return q
    theta = model.rotation.schedule.angle(s)
    mu, w = np.linalg.eigh(1j * g_in)
    a = q @ ((w * np.exp(1j * np.multiply.outer(theta, mu))[:, None, :]) @ w.conj().T)
    a[theta == 0.0] = np.eye(n)
    return a


def evolve_intertwiner(
    model: ContinuumModel,
    variant: GeneratorVariant,
    steps: int,
    scheme: str = MIDPOINT,
) -> UnitaryFamily:
    """Transport family A solving iħ dA/ds = K(s) A; duration-free."""
    _check_intertwiner(model, variant, steps, scheme)
    s_nodes = np.linspace(0.0, 1.0, steps + 1)
    matrices = _stored(_lab_chunks(model, variant, steps, scheme), steps, model.size)
    return UnitaryFamily("A", s_nodes, matrices)


def final_intertwiner(
    model: ContinuumModel,
    variant: GeneratorVariant,
    steps: int,
    scheme: str = MIDPOINT,
) -> np.ndarray:
    """A at s=1 only; streaming variant of evolve_intertwiner."""
    _check_intertwiner(model, variant, steps, scheme)
    return _last(_lab_chunks(model, variant, steps, scheme))


def _chunk_residual(part: BandPartition, x: np.ndarray) -> float:
    """max over bands and a chunk's nodes of sigma_max(X[ext(b), b]), for the stack X = Q^dag A.

    Band by band, with the band's rows and columns read from part.labels,
    sigma_max^2 is the top eigenvalue of the off-block's own Gram matrix
    X[ext(b), b]^dag X[ext(b), b]: one stacked matmul and eigvalsh per
    band, slice by slice, so a node's residual does not depend on its
    chunk.  Not subtracted from 1, it keeps small residuals' relative
    precision.
    """
    top = 0.0
    for band in range(len(part)):
        inside = part.labels == band
        off = x[:, ~inside][..., inside]
        top = max(top, float(np.linalg.eigvalsh(_adjoint_product(off, off))[..., -1].max()))
    return math.sqrt(max(top, 0.0))


def _check_partition(model: ContinuumModel, part: BandPartition):
    if part.grid_size != model.size:
        raise ConfigError("partition and model grid sizes disagree")


def intertwine_residual(a_family: UnitaryFamily, model: ContinuumModel, part: BandPartition) -> float:
    """max over bands and nodes of || P_band(s) − A(s) P_band(0) A(s)^dag ||_2.

    P_band(0) selects columns (the frame is the computational basis at
    s=0), so the transported band is spanned by A_b = A[:, band].  For two
    rank-m projectors the norm is the sine of the largest principal angle
    between their ranges: the largest singular value of the N x m matrix
    A_b − Q_b Q_b^dag A_b = Q_ext Q_ext^dag A_b, where Q_ext holds the frame
    columns outside the band.  Q_ext has orthonormal columns, so that
    singular value is exactly the largest one of the (N−m) x m off-block
    Q_ext^dag A_b = (Q^dag A)[ext, band], which is what is computed, band by
    band from the partition's labels, from each off-block's own Gram matrix
    (_chunk_residual).  The cosine form
    1 − sigma_min(Q_b^dag A_b)^2 is not used: it subtracts from 1, so
    residuals below about 1e-8 drown in the roundoff of the cosines near
    1.  The family is read chunk by chunk.
    """
    _check_partition(model, part)
    return _max_residual(model, part, a_family.chunks())


def transport_residual(
    model: ContinuumModel,
    variant: GeneratorVariant,
    part: BandPartition,
    steps: int,
    scheme: str = MIDPOINT,
) -> float:
    """intertwine_residual of the stepped transport family, streamed over its chunks unstored."""
    _check_intertwiner(model, variant, steps, scheme)
    _check_partition(model, part)
    nodes = _nodes(_lab_chunks(model, variant, steps, scheme), steps, np.eye(model.size, dtype=complex))
    return _max_residual(model, part, nodes)


def _max_residual(model: ContinuumModel, part: BandPartition, chunks) -> float:
    """The largest _chunk_residual over (s, A) chunks of a transport family."""
    return max(_chunk_residual(part, _adjoint_product(model.frame_matrix(s), a)) for s, a in chunks)


# ---- phases and the wave operator --------------------------------------


def phase_factors(model: ContinuumModel, duration: float, s) -> np.ndarray:
    """exp(-i T alpha_j(s) / hbar) for all j, from one vectorised phase call; shape (..., N).

    The diagonal of the dynamical-phase operator at s.
    """
    s = np.asarray(s, dtype=float)
    alphas = model.dispersion.phase(model.grid.nodes, s[..., None] if s.ndim else s)
    return np.exp(-1j * duration * alphas / HBAR)


def phase_operator(model: ContinuumModel, duration: float, s: float) -> np.ndarray:
    """Dynamical-phase unitary at s, diagonal in the initial frame.

    The initial frame is the computational basis (theta(0) = 0), so the
    operator is the diagonal matrix of the phases.
    """
    return np.diag(phase_factors(model, duration, s))


def phase_family(model: ContinuumModel, duration: float, steps: int) -> UnitaryFamily:
    _check_run(steps)
    s_nodes = np.linspace(0.0, 1.0, steps + 1)
    diagonal = np.eye(model.size, dtype=bool)  # where, not a product with I: off-diagonal zeros stay +0
    return UnitaryFamily("Phi", s_nodes, np.where(diagonal, phase_factors(model, duration, s_nodes)[:, None, :], 0.0))


def wave_operator(u: UnitaryFamily, a: UnitaryFamily, phi: UnitaryFamily) -> UnitaryFamily:
    """Residual family W = Phi^dag A^dag U on the shared s-grid."""
    for fam, kind in ((u, "U"), (a, "A"), (phi, "Phi")):
        if fam.kind != kind:
            raise ConfigError(f"expected a {kind} family, got {fam.kind}")
    if not (
        np.array_equal(u.s_nodes, a.s_nodes) and np.array_equal(u.s_nodes, phi.s_nodes)
    ):
        raise ConfigError("families do not share one s-grid")
    p = np.diagonal(phi.matrices, axis1=-2, axis2=-1)
    return UnitaryFamily("W", u.s_nodes.copy(), _residual_operator(u.matrices, a.matrices.conj().swapaxes(-1, -2), p))


def _residual_operator(u: np.ndarray, a_adj: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Phi^dag (A^dag U), stacked, from A^dag; Phi^dag is an in-place row scaling by the conjugated phases p."""
    w = np.matmul(a_adj, u)
    return np.multiply(p.conj()[..., :, None], w, out=w)


def deviation_from_identity(matrix: np.ndarray) -> float:
    """Spectral-norm distance from the identity."""
    n = matrix.shape[-1]
    return float(np.linalg.svd(matrix - np.eye(n), compute_uv=False)[0])


# ---- the s=1 stage ----------------------------------------------------


def final_stage(
    model: ContinuumModel, variant: GeneratorVariant, part: BandPartition, durations, steps: int, scheme: str = MIDPOINT
) -> tuple[np.ndarray, dict[str, float], float]:
    """The s=1 stage of a run: W(1) at every duration, the defects and A's residual.

    U(1) comes from final_propagators, after the partition check.  One
    frame Q(1) = frame_matrix(1), A(1) from the closed form on it and
    W(1) = Phi(1)^dag (A(1)^dag U(1)), shape (D, N, N), which equals the
    last node of wave_operator's family bitwise; A's residual is read
    against the same Q (for kato_state, whose closed-form A is Q itself,
    its Q^dag A is the A^dag A of the A defect).  The unitarity defects of
    U, A, Phi and W are maxima over the durations, Phi's taken elementwise
    as | |exp(-i T alpha)|^2 - 1 |, since Phi is diagonal.  U and W are
    products of unitary steps, so a defect any step adds carries to s=1,
    and A, Phi and the residual are closed forms at every node.
    """
    _check_partition(model, part)
    u1s = final_propagators(model, durations, steps, scheme)
    s = np.ones(1)
    q = model.frame_matrix(s)
    a = _exact_transport(model, variant, s, q)
    a_adj = a.conj().swapaxes(-1, -2)  # once, for A^dag U and A^dag A
    p = phase_factors(model, np.asarray(durations, dtype=float)[:, None], 1.0)
    w = _residual_operator(u1s, a_adj, p)
    aa = np.matmul(a_adj, a)
    residual = _chunk_residual(part, aa if a is q else _adjoint_product(q, a))
    defects = {
        "U": _unitarity_defect(u1s),
        "A": _identity_defect(aa),
        "Phi": float(np.abs(p.conj() * p - 1.0).max()),
        "W": _unitarity_defect(w),
    }
    return w, defects, residual
