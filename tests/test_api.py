"""The public API: what `adiabatic_continuum` exports."""

from __future__ import annotations

import adiabatic_continuum


def test_every_exported_name_resolves():
    for name in adiabatic_continuum.__all__:
        assert hasattr(adiabatic_continuum, name), name


def test_exports_are_listed_once_and_counted():
    # growing or trimming the API is a deliberate edit of this count
    names = adiabatic_continuum.__all__
    assert len(set(names)) == len(names)
    assert len(names) == 77
