"""Exception types for numerical-quality failures, and the input range check.

Every routine that truncates an infinite object (a quadrature window, a
lattice sum, an oscillator ladder, a time grid) raises one of these instead
of silently returning a degraded value.  Inputs out of range, NaN and
infinity included, are rejected with ``ValueError`` by ``check_positive``.
"""

import math


def check_positive(message: str, *values: float, allow_zero: bool = False) -> None:
    """Raise ValueError(message) unless every value is finite and positive.

    With ``allow_zero`` zero passes too.  Written as one positive test, so
    NaN fails it where a ``<= 0`` guard lets NaN through.
    """
    for x in values:
        if not (math.isfinite(x) and (x > 0 or (allow_zero and x == 0))):
            raise ValueError(message)


class CcgravError(Exception):
    """Base class for package-specific failures."""


class QuadratureError(CcgravError):
    """An adaptive quadrature did not reach its convergence target."""


class LatticeSumError(CcgravError):
    """A truncated lattice sum's tail estimate exceeded the tolerance."""


class TruncationOverflowError(CcgravError):
    """Ancilla population leaked into the top levels of the truncation."""


class PositivityError(CcgravError):
    """An input expected to be a density matrix is not one."""


class StepSizeError(CcgravError):
    """Time evolution cannot vouch for its result: the step is too coarse for
    the proven error bound, or a snapshot is not finite, off unit trace, or
    not positive."""
