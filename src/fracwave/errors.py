"""Typed errors shared across the package, and the named-choice enum
whose parse failures are one of them."""

from __future__ import annotations

import enum


class FracwaveError(Exception):
    """Base class for all fracwave errors."""


class BlowUpError(FracwaveError):
    """A field contains non-finite values (NaN/Inf), or a norm or ratio of
    fields is not finite.

    Carries the first offending index (a grid index, or a half-spectrum
    index when raised by a step; None for a norm or ratio) and, when
    raised inside a time stepper, the simulation time and stage at which
    it was detected.
    """

    def __init__(self, message, index=None, t=None, stage=None):
        super().__init__(message)
        self.index = index
        self.t = t
        self.stage = stage


class SymbolError(FracwaveError):
    """A Fourier multiplier evaluated to a non-finite value at some
    grid wavenumber."""


class ParameterError(FracwaveError):
    """An argument violates a documented precondition."""


class GridMismatchError(FracwaveError):
    """Fields from different grids were combined, or a value has the
    wrong length for its grid."""


class ConfigError(ParameterError):
    """A run configuration failed validation.  ``key`` names the
    offending entry when known."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class CheckpointError(FracwaveError):
    """A checkpoint file is unreadable: bad magic, version mismatch,
    truncation, or checksum failure."""


class NamedChoice(enum.Enum):
    """An enum read from user text.  ``from_string`` takes a member's value
    or name (aliases included) in any case, with surrounding blanks, and
    with '-' and '_' alike; subclasses name the choice with ``what=``."""

    def __init_subclass__(cls, *, what, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._what = what

    @classmethod
    def from_string(cls, text: str):
        key = text.strip().upper().replace("-", "_")
        for name, member in cls.__members__.items():
            if key in (name, member.value.upper().replace("-", "_")):
                return member
        raise ParameterError(
            f"unknown {cls._what} {text!r}; expected one of {[m.value for m in cls]}"
        )
