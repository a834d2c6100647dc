"""Exception classes shared across the package.

Each class maps to one CLI exit code (see the exit-code table in the
docstring of the cli module); keeping them distinct lets the harness report
failures without string matching.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


class StepBudgetError(ConfigError):
    """Step count too small to resolve the fastest phase or the transport generator.

    Carries the minimum admissible count so callers can rerun.
    """

    def __init__(self, message: str, required: int):
        super().__init__(f"{message} (required >= {required})")
        self.required = required


class CrossingError(ValueError):
    """In-band and exterior energies touch or cross somewhere in s."""


class DegenerateSpectrumError(CrossingError):
    """Grid energies touch, or leave strict order in k, somewhere in s; the model is rejected."""


class NoExteriorError(ValueError):
    """A band covers the whole grid, so no exterior states exist."""


class NoFeasibleBandError(ValueError):
    """No band size satisfies the gap-times-duration margin."""


class AnalysisError(ValueError):
    """A study cannot produce a meaningful result (e.g. all leakages zero)."""
