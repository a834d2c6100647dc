"""In-memory span recorder wrapped around the package's public functions.

Functions are replaced where their callers look them up: the module
namespaces that imported them (``cli``, ``runner``, ``analysis``,
``verify``, ``config``; ``propagation`` for the step budgets), the command table, the verify
check table and the methods of ``ContinuumModel`` and ``UnitaryFamily``.
Nothing in the package is edited.  Each span records its name, start,
end, thread CPU time and the span that was open when it started; a span
started on a worker thread with no open span of its own is parented to
the innermost span open on the main thread.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time

import numpy as np

# (layer.name, module whose namespace binds it, attribute name).
# Every binding of the same function shares one wrapper.
SPANNED = (
    ("config.load_config", "config", "load_config"),
    ("spectral.build_model", "spectral", "build_model"),
    ("bands.validate_noncrossing", "bands", "validate_noncrossing"),
    ("bands.virtual_gap", "bands", "virtual_gap"),
    ("bands.band_projector", "bands", "band_projector"),
    ("propagation.evolve_propagator", "propagation", "evolve_propagator"),
    ("propagation.evolve_intertwiner", "propagation", "evolve_intertwiner"),
    ("propagation.final_propagator", "propagation", "final_propagator"),
    ("propagation.final_intertwiner", "propagation", "final_intertwiner"),
    ("propagation.phase_family", "propagation", "phase_family"),
    ("propagation.phase_operator", "propagation", "phase_operator"),
    ("propagation.wave_operator", "propagation", "wave_operator"),
    ("propagation.intertwine_residual", "propagation", "intertwine_residual"),
    ("propagation.step_budget", "propagation", "propagator_step_budget"),
    ("propagation.step_budget", "propagation", "intertwiner_step_budget"),
    ("propagation.deviation_from_identity", "propagation", "deviation_from_identity"),
    ("propagation.literal_window_hermiticity", "propagation", "literal_window_hermiticity"),
    ("propagation.generator", "propagation", "generator"),
    ("analysis.leakage_exact", "analysis", "leakage_exact"),
    ("analysis.leakage_first_order", "analysis", "leakage_first_order"),
    ("analysis.transition_integral_parts", "analysis", "transition_integral_parts"),
    ("analysis.adiabatic_criterion", "analysis", "adiabatic_criterion"),
    ("analysis.planned_substeps", "analysis", "planned_substeps"),
    ("analysis.sweep_leakage", "analysis", "sweep_leakage"),
    ("analysis.fit_power_law", "analysis", "fit_power_law"),
    ("verify.verify_config", "verify", "verify_config"),
    ("runner.write_outputs", "runner", "write_outputs"),
)

# Namespaces searched for bindings of the functions above.
BINDERS = ("cli", "runner", "analysis", "verify", "config")

# Also rebound in their own module, whose evolutions call them internally.
_INNER = {"propagator_step_budget", "intertwiner_step_budget"}

# Arguments that carry step counts, per wrapped propagation function.
_STEP_ARG = {
    "propagation.evolve_propagator": ("propagation.propagator_steps", "config"),
    "propagation.final_propagator": ("propagation.propagator_steps", "config"),
    "propagation.evolve_intertwiner": ("propagation.intertwiner_steps", "steps"),
    "propagation.final_intertwiner": ("propagation.intertwiner_steps", "steps"),
}

# Functions returning a stored UnitaryFamily: its matrices count as bytes.
_FAMILY_RESULT = {
    "propagation.evolve_propagator",
    "propagation.evolve_intertwiner",
    "propagation.phase_family",
    "propagation.wave_operator",
}


class SetupDone(BaseException):
    """Raised once the first model is built when only set-up is timed."""


class Tracer:
    """Spans and counters for one child process (one op)."""

    def __init__(self, record: bool, stop_after_setup: bool = False):
        self.record = record
        self.stop_after_setup = stop_after_setup
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.setup_end: float | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    # ---- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; after(args, kwargs, result) counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            main = self._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(self._ids)
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, c1 - c0))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def closed_span(self, name: str, t0: float, t1: float) -> None:
        self.spans.append((next(self._ids), None, name, t0, t1, 0.0))

    # ---- installation ----------------------------------------------------

    def install(self, package) -> None:
        """Hook the package; without recording only the set-up mark is taken."""
        if self.record:
            self._install_spans(package)
        config = package.config
        build_model = config.build_model

        @functools.wraps(build_model)
        def marked(*args, **kwargs):
            result = build_model(*args, **kwargs)
            if self.setup_end is None:
                self.setup_end = time.monotonic()
                if self.stop_after_setup:
                    raise SetupDone
            return result

        config.build_model = marked

    def _install_spans(self, package) -> None:
        modules = {
            name: getattr(package, name) for name in (*BINDERS, "propagation", "spectral", "bands")
        }
        for name, home, attr in SPANNED:
            original = getattr(modules[home], attr)
            wrapped = self.span(name, original, self._after(name, original))
            for binder in (*BINDERS, home) if attr in _INNER else BINDERS:
                if getattr(modules[binder], attr, None) is original:
                    setattr(modules[binder], attr, wrapped)

        runner = modules["runner"]
        for cmd, fn in list(runner.COMMANDS.items()):
            runner.COMMANDS[cmd] = self.span("runner.cmd", fn)
        verify = modules["verify"]
        verify._CHECKS = tuple(
            (check, self.span(f"verify.{check}", fn)) for check, fn in verify._CHECKS
        )

        family = modules["propagation"].UnitaryFamily
        family.unitarity_defect = self.span(
            "propagation.unitarity_defect", family.unitarity_defect
        )
        model = modules["spectral"].ContinuumModel
        frame_matrix = model.frame_matrix
        coupling_profile = model.frame_coupling_profile

        def counted_frame_matrix(obj, s):
            self.add("spectral.frame_matrix_calls", 1)
            return frame_matrix(obj, s)

        def counted_coupling_profile(obj, a, b, s):
            self.add("spectral.frame_coupling_points", np.size(s))
            return coupling_profile(obj, a, b, s)

        model.frame_matrix = counted_frame_matrix
        model.frame_coupling_profile = counted_coupling_profile

    def _after(self, name: str, fn):
        steps = _STEP_ARG.get(name)
        family = name in _FAMILY_RESULT
        if steps is None and not family:
            return None
        signature = inspect.signature(fn)

        def after(args, kwargs, result):
            if steps is not None:
                key, arg = steps
                value = signature.bind(*args, **kwargs).arguments[arg]
                self.add(key, value.steps if arg == "config" else int(value))
            if family:
                self.add("propagation.family_bytes", result.matrices.nbytes)

        return after


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _name, t0, t1, _cpu in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _parent, _name, t0, t1, _cpu in spans:
        out[sid] = (t1 - t0) - covered(children.get(sid, []), t0, t1)
    return out


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
