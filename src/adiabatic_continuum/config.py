"""Declarative experiment configuration.

Sectioned INI files describe the model, band plan, run parameters, and
output policy.  Each key is declared once, on its `ExperimentConfig`
field: section, key name, default text (None for a key present only when
set) and parser.  That declaration drives the known-section and
unknown-key checks, the default-and-parse pass and the `resolved` echo.
Rules that tie fields together (ranges, T versus T_list, the params
count and the builder-specific width and seed, which read the family and
builder declarations in `spectral`) follow the parse in `_validate`.
Parsing is strict: unknown sections or keys are rejected, every default
is materialized into a resolved dictionary, and the sha256 of that
canonical dictionary identifies the experiment.
"""

from __future__ import annotations

import hashlib
import json
from configparser import ConfigParser, Error as ParserError
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .bands import BandPartition
from .errors import ConfigError
from .propagation import SCHEMES, VARIANTS, GeneratorVariant, kato_state, weyl_band
from .spectral import (
    ANGLE_SCHEDULES,
    BUILDERS,
    FAMILIES,
    AngleSchedule,
    ContinuumModel,
    DispersionSchedule,
    KGrid,
    build_model,
    width_fault,
)

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


def _list_items(section: str, key: str, raw: str, empty: str) -> list[str]:
    """The stripped comma-separated entries of raw; no entry (message `empty`) or a blank one among others is an error."""
    items = [p.strip() for p in raw.split(",")]
    if not any(items):
        raise ConfigError(f"[{section}] {key} {empty}")
    if not all(items):
        raise ConfigError(f"[{section}] {key} = {raw!r} has an empty entry")
    return items


def _parse_float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(section, key, p) for p in _list_items(section, key, raw, "is an empty list"))


def _tag(allowed):
    """Parser of a value that must be one of `allowed` (a tuple, or a dict's keys)."""

    def parse(section: str, key: str, raw: str) -> str:
        if raw not in allowed:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not one of {', '.join(allowed)}")
        return raw

    return parse


def _parse_directory(section: str, key: str, raw: str) -> str:
    value = raw.strip()
    if not value:
        raise ConfigError(f"[{section}] {key} must be nonempty")
    return value


def _parse_formats(section: str, key: str, raw: str) -> tuple[str, ...]:
    formats = tuple(dict.fromkeys(_list_items(section, key, raw, "must name at least one of json, csv")))
    for fmt in formats:
        if fmt not in _FORMATS:
            raise ConfigError(f"[{section}] unknown format {fmt!r}; pick from {_FORMATS}")
    return formats


def _key(section: str, key: str, parse, default: str | None = None):
    """A field's INI declaration: `parse(section, key, raw)` reads the raw text,
    which is `default` when the key is absent (None: the field stays None)."""
    return field(metadata={"section": section, "key": key, "parse": parse, "default": default})


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description with all defaults applied."""

    k_min: float = _key("grid", "k_min", _parse_float, "1.0")
    k_max: float = _key("grid", "k_max", _parse_float, "2.0")
    grid_size: int = _key("grid", "N", _parse_int, "16")
    dispersion_family: str = _key("dispersion", "family", _tag(FAMILIES), "linear")
    dispersion_params: tuple[float, ...] = _key("dispersion", "params", _parse_float_list, "1.0, 1.0")
    rotation_builder: str = _key("rotation", "builder", _tag(BUILDERS), "nearest_neighbor")
    theta_max: float = _key("rotation", "theta_max", _parse_float, "0.4")
    schedule_kind: str = _key("rotation", "schedule", _tag(ANGLE_SCHEDULES), "cubic_ramp")
    width: int | None = _key("rotation", "width", _parse_int)
    seed: int | None = _key("rotation", "seed", _parse_int)
    band_size: int = _key("bands", "m", _parse_int, "2")
    duration: float | None = _key("run", "T", _parse_float)
    duration_list: tuple[float, ...] | None = _key("run", "T_list", _parse_float_list)
    steps: int = _key("run", "steps", _parse_int, "4000")
    scheme: str = _key("run", "scheme", _tag(SCHEMES), SCHEMES[0])
    variant_kind: str = _key("run", "variant", _tag(VARIANTS), VARIANTS[0])
    j0: int = _key("analysis", "j0", _parse_int, "1")
    # No computation reads s_samples (the criterion's coupling maximum is
    # exact); it stays accepted and echoed so existing files and their
    # config_hash do not change.
    s_samples: int = _key("analysis", "s_samples", _parse_int, "129")
    margin: float = _key("analysis", "margin", _parse_float, "100.0")
    threshold: float = _key("analysis", "threshold", _parse_float, "0.1")
    out_dir: str = _key("output", "directory", _parse_directory, "out")
    formats: tuple[str, ...] = _key("output", "formats", _parse_formats, "json,csv")

    @property
    def resolved(self) -> dict:
        """Canonical nested dictionary with every default materialized."""
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                section = out.setdefault(f.metadata["section"], {})
                section[f.metadata["key"]] = list(value) if isinstance(value, tuple) else value
        return out

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()

    # ---- materialization -------------------------------------------------

    def build_model(self) -> ContinuumModel:
        grid = KGrid(self.k_min, self.k_max, self.grid_size)
        dispersion = DispersionSchedule(self.dispersion_family, self.dispersion_params)
        schedule = AngleSchedule(self.schedule_kind, self.theta_max)
        build, options = BUILDERS[self.rotation_builder]
        rotation = build(self.grid_size, *(getattr(self, name) for name in options), schedule)
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


# section -> {key: field}, in declaration order
_DECLARED: dict[str, dict] = {}
for _f in fields(ExperimentConfig):
    _DECLARED.setdefault(_f.metadata["section"], {})[_f.metadata["key"]] = _f


def _validate(sections: dict[str, dict[str, str]]) -> ExperimentConfig:
    """Check every name, parse every declared key, then apply the cross-field rules."""
    for name, keys in sections.items():
        if name not in _DECLARED:
            raise ConfigError(f"unknown section [{name}]")
        for key in keys:
            if key not in _DECLARED[name]:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
    v = {}  # field name -> parsed value, None for an absent key without default
    for name, declared in _DECLARED.items():
        for key, f in declared.items():
            raw = sections[name].get(key, f.metadata["default"])
            v[f.name] = None if raw is None else f.metadata["parse"](name, key, raw)

    n, k_min, k_max = v["grid_size"], v["k_min"], v["k_max"]
    if n < 2:
        raise ConfigError(f"[grid] N >= 2 is required, got {n}")
    if not k_max > k_min:
        raise ConfigError(f"[grid] needs k_max > k_min, got [{k_min}, {k_max}]")

    family = v["dispersion_family"]
    if fault := FAMILIES[family].params_fault(len(v["dispersion_params"])):
        raise ConfigError(f"[dispersion] {family} family {fault}")

    builder = v["rotation_builder"]
    _, options = BUILDERS[builder]
    if "width" in options:
        if v["width"] is None:
            v["width"] = 1
        if fault := width_fault(n, v["width"]):
            raise ConfigError(f"[rotation] {fault}")
    elif v["width"] is not None:
        raise ConfigError("[rotation] width only applies to the banded builders")
    if "seed" in options:
        if v["seed"] is None:
            raise ConfigError(f"[rotation] {builder} builder needs a seed")
    elif v["seed"] is not None:
        raise ConfigError("[rotation] seed only applies to the random_banded builder")

    if not 1 <= v["band_size"] <= n:
        raise ConfigError(f"[bands] m must be in [1, N], got {v['band_size']}")

    if v["duration"] is not None and v["duration_list"] is not None:
        raise ConfigError("[run] set either T or T_list, not both")
    if v["duration_list"] is not None:
        if any(t < 0 for t in v["duration_list"]):
            raise ConfigError("[run] T_list entries must be >= 0")
        if len(set(v["duration_list"])) != len(v["duration_list"]):
            raise ConfigError("[run] T_list entries must be distinct")
    else:
        if v["duration"] is None:
            v["duration"] = 100.0
        if v["duration"] < 0:
            raise ConfigError(f"[run] T must be >= 0, got {v['duration']}")
    if v["steps"] < 1:
        raise ConfigError(f"[run] steps must be >= 1, got {v['steps']}")

    if not 0 <= v["j0"] < n:
        raise ConfigError(f"[analysis] j0 must be in [0, N), got {v['j0']}")
    if v["s_samples"] < 2:
        raise ConfigError(f"[analysis] s_samples must be >= 2, got {v['s_samples']}")
    if v["margin"] <= 0:
        raise ConfigError(f"[analysis] margin must be positive, got {v['margin']}")
    if v["threshold"] <= 0:
        raise ConfigError(f"[analysis] threshold must be positive, got {v['threshold']}")
    return ExperimentConfig(**v)


def load_config(path, overrides: dict[tuple[str, str], str] | None = None) -> ExperimentConfig:
    """Parse, override, and validate an experiment file.

    `overrides` maps (section, key) to raw string values; the CLI routes
    --steps, --threshold, and --out through here so the resolved config
    embedded in outputs always reflects the values actually used.  The
    file itself must hold every section: an override does not stand in
    for a missing one.
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
    for name in _DECLARED:
        if name not in sections:
            raise ConfigError(f"missing section [{name}]")
    for (section, key), raw in (overrides or {}).items():
        sections.setdefault(section, {})[key] = raw
    return _validate(sections)
