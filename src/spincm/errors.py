"""Exception hierarchy shared by all spincm modules."""


class SpinCMError(Exception):
    """Base class for all spincm errors."""


class CollidingPoles(SpinCMError):
    """Two pole positions are closer than the collision floor.

    Carries the (complex) flow time of breakdown in ``time`` when raised
    during integration; ``time`` is None for static configurations. When
    raised for a stack of phase points, ``row`` is the flat index (C order
    over the stack axes) of the first colliding point, else None.
    """

    def __init__(self, message, time=None, row=None):
        super().__init__(message)
        self.time = time
        self.row = row


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
    """An evaluation point x is too close to a pole x_i, or is not finite."""


class InsufficientSamples(SpinCMError):
    """A trajectory does not carry enough samples for the requested stencil."""


class StepLimitExceeded(SpinCMError):
    """The requested integration would exceed the configured step budget."""


class IntegrationFailed(SpinCMError):
    """The adaptive solver gave up before reaching the end of the segment."""


class ConfigError(SpinCMError):
    """A config file cannot be read, is not valid JSON, or holds an unknown
    key or an invalid value."""
