"""Exception hierarchy shared by all spincm modules."""


class SpinCMError(Exception):
    """Base class for all spincm errors."""


class _RowEnd(SpinCMError):
    """An error that can end a row of a flow stack. ``time`` is the
    (complex) flow time where it happened, None outside a flow or before
    its first step; ``row`` is its stack row, or for a stack of phase
    points the flat index (C order over the stack axes) of the first
    failing point, else None."""

    def __init__(self, message, time=None, row=None):
        super().__init__(message)
        self.time = time
        self.row = row


class CollidingPoles(_RowEnd):
    """Two pole positions are within the collision floor eps_coll."""


class ConstraintViolated(SpinCMError):
    """The spin normalization b_i^T a_i = 1 is violated beyond tolerance."""


class ZeroScale(SpinCMError):
    """A gauge rescaling factor is zero."""


class DegenerateDraw(SpinCMError):
    """Random generation failed to produce a well-conditioned draw."""


class DimensionMismatch(SpinCMError):
    """Operands refer to incompatible particle counts or spin dimensions."""


class SpectralCollision(SpinCMError):
    """The spectral parameter z is (numerically) an eigenvalue of L."""


class PoleHit(SpinCMError):
    """An evaluation point x is within eps_coll of a pole x_i, or is not finite."""


class StepLimitExceeded(_RowEnd):
    """A flow row would record more than flows.MAX_STEPS samples, seen
    before its first step, or took that many steps unfinished."""


class IntegrationFailed(_RowEnd):
    """A flow left the finite numbers, or its DOP853 step fell below 10 ulp
    of its segment."""


class ConfigError(SpinCMError):
    """A config file cannot be read, is not valid JSON, or holds an unknown
    key or an invalid value."""


class StateFileError(SpinCMError):
    """A state file cannot be read, is not valid JSON, or lacks a field or
    holds an invalid value."""
