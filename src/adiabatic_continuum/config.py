"""Declarative experiment configuration.

Sectioned INI files describe the model, band plan, run parameters, and
output policy.  Parsing is strict: unknown sections or keys are rejected,
every default is materialized into a resolved dictionary, and the sha256
of that canonical dictionary identifies the experiment.
"""

from __future__ import annotations

import hashlib
import json
from configparser import ConfigParser, Error as ParserError
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bands import BandPartition
from .errors import ConfigError
from .propagation import SCHEMES, VARIANTS, GeneratorVariant, kato_state, weyl_band
from .spectral import (
    ANGLE_SCHEDULES,
    DISPERSION_FAMILIES,
    ROTATION_BUILDERS,
    AngleSchedule,
    ContinuumModel,
    DispersionSchedule,
    KGrid,
    banded_rotation,
    build_model,
    nearest_neighbor_rotation,
    random_banded_rotation,
)

_SECTIONS = ("grid", "dispersion", "rotation", "bands", "run", "analysis", "output")

_KNOWN_KEYS = {
    "grid": {"k_min", "k_max", "N"},
    "dispersion": {"family", "params"},
    "rotation": {"builder", "theta_max", "schedule", "width", "seed"},
    "bands": {"m"},
    "run": {"T", "T_list", "steps", "scheme", "variant"},
    "analysis": {"j0", "s_samples", "margin", "threshold"},
    "output": {"directory", "formats"},
}

_FORMATS = ("json", "csv")


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from None
    if not np.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite, got {raw!r}")
    return value


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from None


def _parse_float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    items = [p.strip() for p in raw.split(",") if p.strip()]
    if not items:
        raise ConfigError(f"[{section}] {key} is an empty list")
    return tuple(_parse_float(section, key, p) for p in items)


def _parse_tag(section: str, key: str, raw: str, allowed) -> str:
    if raw not in allowed:
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not one of {', '.join(allowed)}"
        )
    return raw


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description with all defaults applied."""

    k_min: float
    k_max: float
    grid_size: int
    dispersion_family: str
    dispersion_params: tuple[float, ...]
    rotation_builder: str
    theta_max: float
    schedule_kind: str
    width: int | None
    seed: int | None
    band_size: int
    duration: float | None
    duration_list: tuple[float, ...] | None
    steps: int
    scheme: str
    variant_kind: str
    j0: int
    s_samples: int
    margin: float
    threshold: float
    out_dir: str
    formats: tuple[str, ...]

    @property
    def resolved(self) -> dict:
        """Canonical nested dictionary with every default materialized."""
        rotation: dict = {
            "builder": self.rotation_builder,
            "theta_max": self.theta_max,
            "schedule": self.schedule_kind,
        }
        if self.width is not None:
            rotation["width"] = self.width
        if self.seed is not None:
            rotation["seed"] = self.seed
        run: dict = {
            "steps": self.steps,
            "scheme": self.scheme,
            "variant": self.variant_kind,
        }
        if self.duration is not None:
            run["T"] = self.duration
        else:
            run["T_list"] = list(self.duration_list)
        return {
            "grid": {"k_min": self.k_min, "k_max": self.k_max, "N": self.grid_size},
            "dispersion": {
                "family": self.dispersion_family,
                "params": list(self.dispersion_params),
            },
            "rotation": rotation,
            "bands": {"m": self.band_size},
            "run": run,
            "analysis": {
                "j0": self.j0,
                "s_samples": self.s_samples,
                "margin": self.margin,
                "threshold": self.threshold,
            },
            "output": {"directory": self.out_dir, "formats": list(self.formats)},
        }

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()

    # ---- materialization -------------------------------------------------

    def build_model(self) -> ContinuumModel:
        grid = KGrid(self.k_min, self.k_max, self.grid_size)
        dispersion = DispersionSchedule(self.dispersion_family, self.dispersion_params)
        schedule = AngleSchedule(self.schedule_kind, self.theta_max)
        if self.rotation_builder == "nearest_neighbor":
            rotation = nearest_neighbor_rotation(self.grid_size, schedule)
        elif self.rotation_builder == "banded":
            rotation = banded_rotation(self.grid_size, self.width, schedule)
        else:
            rotation = random_banded_rotation(self.grid_size, self.width, self.seed, schedule)
        return build_model(grid, dispersion, rotation)

    def build_partition(self) -> BandPartition:
        return BandPartition(self.grid_size, self.band_size)

    def build_variant(self, part: BandPartition) -> GeneratorVariant:
        if self.variant_kind == "kato_state":
            return kato_state()
        return weyl_band(part)

    def scalar_duration(self) -> float:
        if self.duration is None:
            raise ConfigError("this command needs a single duration: set [run] T")
        return self.duration

    def sweep_durations(self) -> tuple[float, ...]:
        if self.duration_list is None:
            raise ConfigError("a sweep needs [run] T_list with at least 3 entries")
        if len(self.duration_list) < 3:
            raise ConfigError(
                f"[run] T_list needs at least 3 entries, got {len(self.duration_list)}"
            )
        return self.duration_list

    def planning_duration(self) -> float:
        """Duration the band plan must hold for: the shortest configured one."""
        if self.duration is not None:
            return self.duration
        return min(self.duration_list)


def _validate(sections: dict[str, dict[str, str]]) -> ExperimentConfig:
    for name in _SECTIONS:
        if name not in sections:
            raise ConfigError(f"missing section [{name}]")
    for name, keys in sections.items():
        if name not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{name}]")
        for key in keys:
            if key not in _KNOWN_KEYS[name]:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")

    grid = sections["grid"]
    k_min = _parse_float("grid", "k_min", grid.get("k_min", "1.0"))
    k_max = _parse_float("grid", "k_max", grid.get("k_max", "2.0"))
    n = _parse_int("grid", "N", grid.get("N", "16"))
    if n < 2:
        raise ConfigError(f"[grid] N >= 2 is required, got {n}")
    if not k_max > k_min:
        raise ConfigError(f"[grid] needs k_max > k_min, got [{k_min}, {k_max}]")

    disp = sections["dispersion"]
    family = _parse_tag("dispersion", "family", disp.get("family", "linear"), DISPERSION_FAMILIES)
    params = _parse_float_list("dispersion", "params", disp.get("params", "1.0, 1.0"))
    if family in ("linear", "quadratic") and len(params) != 2:
        raise ConfigError(f"[dispersion] {family} family takes 2 params, got {len(params)}")
    if family == "tabulated" and len(params) < 2:
        raise ConfigError("[dispersion] tabulated family needs at least 2 params")

    rot = sections["rotation"]
    builder = _parse_tag("rotation", "builder", rot.get("builder", "nearest_neighbor"), ROTATION_BUILDERS)
    theta_max = _parse_float("rotation", "theta_max", rot.get("theta_max", "0.4"))
    schedule = _parse_tag("rotation", "schedule", rot.get("schedule", "cubic_ramp"), ANGLE_SCHEDULES)
    width: int | None = None
    if builder in ("banded", "random_banded"):
        width = _parse_int("rotation", "width", rot.get("width", "1"))
        if not 1 <= width < n:
            raise ConfigError(f"[rotation] width must be in [1, N-1], got {width}")
    elif "width" in rot:
        raise ConfigError("[rotation] width only applies to the banded builders")
    seed: int | None = None
    if builder == "random_banded":
        if "seed" not in rot:
            raise ConfigError("[rotation] random_banded builder needs a seed")
        seed = _parse_int("rotation", "seed", rot["seed"])
    elif "seed" in rot:
        raise ConfigError("[rotation] seed only applies to the random_banded builder")

    bands = sections["bands"]
    m = _parse_int("bands", "m", bands.get("m", "2"))
    if not 1 <= m <= n:
        raise ConfigError(f"[bands] m must be in [1, N], got {m}")

    run = sections["run"]
    if "T" in run and "T_list" in run:
        raise ConfigError("[run] set either T or T_list, not both")
    duration: float | None = None
    duration_list: tuple[float, ...] | None = None
    if "T_list" in run:
        duration_list = _parse_float_list("run", "T_list", run["T_list"])
        if any(t < 0 for t in duration_list):
            raise ConfigError("[run] T_list entries must be >= 0")
        if len(set(duration_list)) != len(duration_list):
            raise ConfigError("[run] T_list entries must be distinct")
    else:
        duration = _parse_float("run", "T", run.get("T", "100.0"))
        if duration < 0:
            raise ConfigError(f"[run] T must be >= 0, got {duration}")
    steps = _parse_int("run", "steps", run.get("steps", "4000"))
    if steps < 1:
        raise ConfigError(f"[run] steps must be >= 1, got {steps}")
    scheme = _parse_tag("run", "scheme", run.get("scheme", SCHEMES[0]), SCHEMES)
    variant = _parse_tag("run", "variant", run.get("variant", VARIANTS[0]), VARIANTS)

    analysis = sections["analysis"]
    j0 = _parse_int("analysis", "j0", analysis.get("j0", "1"))
    if not 0 <= j0 < n:
        raise ConfigError(f"[analysis] j0 must be in [0, N), got {j0}")
    # No computation reads s_samples (the criterion's coupling maximum is
    # exact); it stays accepted and echoed so existing files and their
    # config_hash do not change.
    s_samples = _parse_int("analysis", "s_samples", analysis.get("s_samples", "129"))
    if s_samples < 2:
        raise ConfigError(f"[analysis] s_samples must be >= 2, got {s_samples}")
    margin = _parse_float("analysis", "margin", analysis.get("margin", "100.0"))
    if margin <= 0:
        raise ConfigError(f"[analysis] margin must be positive, got {margin}")
    threshold = _parse_float("analysis", "threshold", analysis.get("threshold", "0.1"))
    if threshold <= 0:
        raise ConfigError(f"[analysis] threshold must be positive, got {threshold}")

    output = sections["output"]
    out_dir = output.get("directory", "out").strip()
    if not out_dir:
        raise ConfigError("[output] directory must be nonempty")
    formats = tuple(
        dict.fromkeys(p.strip() for p in output.get("formats", "json,csv").split(",") if p.strip())
    )
    if not formats:
        raise ConfigError("[output] formats must name at least one of json, csv")
    for fmt in formats:
        if fmt not in _FORMATS:
            raise ConfigError(f"[output] unknown format {fmt!r}; pick from {_FORMATS}")

    return ExperimentConfig(
        k_min=k_min,
        k_max=k_max,
        grid_size=n,
        dispersion_family=family,
        dispersion_params=params,
        rotation_builder=builder,
        theta_max=theta_max,
        schedule_kind=schedule,
        width=width,
        seed=seed,
        band_size=m,
        duration=duration,
        duration_list=duration_list,
        steps=steps,
        scheme=scheme,
        variant_kind=variant,
        j0=j0,
        s_samples=s_samples,
        margin=margin,
        threshold=threshold,
        out_dir=out_dir,
        formats=formats,
    )


def load_config(path, overrides: dict[tuple[str, str], str] | None = None) -> ExperimentConfig:
    """Parse, override, and validate an experiment file.

    `overrides` maps (section, key) to raw string values; the CLI routes
    --steps, --threshold, and --out through here so the resolved config
    embedded in outputs always reflects the values actually used.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except ParserError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    sections = {name: dict(parser[name]) for name in parser.sections()}
    for (section, key), raw in (overrides or {}).items():
        sections.setdefault(section, {})[key] = raw
    return _validate(sections)
