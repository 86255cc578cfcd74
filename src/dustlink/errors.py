"""Exception hierarchy shared by all dustlink modules, and the one check
of what a valid config number is."""

import math

import numpy as np


class DustlinkError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DustlinkError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class FormatError(DustlinkError, ValueError):
    """A catalog record or data file does not match the expected layout."""


class ConfigError(DustlinkError, ValueError):
    """An experiment configuration is malformed or inconsistent."""


class CatalogError(DustlinkError, ValueError):
    """Spectroscopic catalog files are missing or unreadable."""


def is_int(value) -> bool:
    """True for an int or a numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_finite(**values) -> None:
    """Raise ``DomainError`` unless every value is a finite real number.

    A real number is an int, a float, or a numpy integer or floating, but
    not a bool; an int too large for a float is not finite.
    """
    for name, value in values.items():
        if not (is_int(value) or isinstance(value, (float, np.floating))):
            raise DomainError(f"{name} must be real, got {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:   # an int too large for a float
            finite = False
        if not finite:
            raise DomainError(f"{name} must be finite, got {value!r}")
