"""Exception hierarchy shared by all dustlink modules, and the checks of
what a valid config number, positive or non-negative number, int and
vector are."""

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


def require_positive(**values) -> None:
    """Raise ``DomainError`` unless every value is a finite real number
    (``require_finite``, checked for all values first) above 0."""
    require_finite(**values)
    for name, value in values.items():
        if value <= 0:
            raise DomainError(f"{name} must be positive, got {value!r}")


def require_nonnegative(**values) -> None:
    """Raise ``DomainError`` unless every value is a finite real number
    (``require_finite``, checked for all values first) at or above 0."""
    require_finite(**values)
    for name, value in values.items():
        if value < 0:
            raise DomainError(f"{name} must be >= 0, got {value!r}")


def require_int(name: str, value, least: int | None = None,
                bits: int | None = None) -> None:
    """Raise ``DomainError`` unless ``value`` is an int (``is_int``) >= ``least``
    and < 2**``bits``, each bound when given; with ``bits``, give ``least`` too."""
    if not (is_int(value) and (least is None or value >= least)
            and (bits is None or value < 1 << bits)):
        bound = ("" if least is None else f" >= {least}" if bits is None
                 else f" in [{least}, 2**{bits})")
        raise DomainError(f"{name} must be an int{bound}, got {value!r}")


def require_vector(name: str, value, size: int) -> tuple:
    """The ``size`` entries of ``value``, each a finite real (``require_finite``),
    or ``DomainError``; a scalar, or a nested entry, counts as one entry."""
    try:
        entries = tuple(value)
    except TypeError:
        entries = (value,)
    if len(entries) != size:
        raise DomainError(f"{name} must have {size} entries, got {value!r}")
    for entry in entries:
        require_finite(**{name: entry})
    return entries
