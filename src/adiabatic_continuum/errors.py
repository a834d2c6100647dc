"""Exception classes shared across the package.

Every class derives from HarnessError and carries its CLI exit code and
stderr label (the codes are tabled in the docstring of the cli module), so
``cli.main`` reports any of them with one clause and the scripts catch
them by one name, without string matching.
"""

from __future__ import annotations


class HarnessError(ValueError):
    """A failure a command reports as `label: message` on stderr, exiting with exit_code."""

    exit_code: int
    label: str


class ConfigError(HarnessError):
    """Invalid or incomplete experiment configuration."""

    exit_code, label = 2, "config error"


class StepBudgetError(ConfigError):
    """Step count too small to resolve the fastest phase or the transport generator.

    Carries the minimum admissible count so callers can rerun.
    """

    def __init__(self, message: str, required: int):
        super().__init__(f"{message} (required >= {required})")
        self.required = required


class CrossingError(HarnessError):
    """In-band and exterior energies touch or cross somewhere in s."""

    exit_code, label = 3, "crossing"


class DegenerateSpectrumError(CrossingError):
    """Grid energies touch, or leave strict order in k, somewhere in s; the model is rejected."""


class NoExteriorError(HarnessError):
    """A band covers the whole grid, so no exterior states exist."""

    exit_code, label = 5, "no exterior"


class NoFeasibleBandError(HarnessError):
    """No band size satisfies the gap-times-duration margin."""

    exit_code, label = 6, "no feasible band"


class AnalysisError(HarnessError):
    """A study cannot produce a meaningful result (e.g. all leakages zero)."""

    exit_code, label = 2, "analysis error"
