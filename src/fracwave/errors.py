"""Typed errors shared across the package."""

from __future__ import annotations


class FracwaveError(Exception):
    """Base class for all fracwave errors."""


class BlowUpError(FracwaveError):
    """A field contains non-finite values (NaN/Inf).

    Carries the first offending index (a grid index, or a half-spectrum
    index when raised by a step) and, when raised inside a time stepper,
    the simulation time and stage at which it was detected.
    """

    def __init__(self, message, index=None, t=None, stage=None):
        super().__init__(message)
        self.index = index
        self.t = t
        self.stage = stage


class SymmetryError(FracwaveError):
    """Spectral coefficients are not conjugate-symmetric but a real
    result was demanded."""


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
