"""Exception types shared across the package."""


class SchemeError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(SchemeError):
    """An argument has the wrong spatial dimension or vector length."""


class ValidationError(SchemeError):
    """A configuration or scheme value is semantically invalid."""


class NonLatticeVelocity(ValidationError):
    """A velocity is not an integer multiple of the lattice speed per axis."""


class SingularMatrix(SchemeError):
    """A moment matrix is numerically singular for the given basis and shift."""


class NonConstantShift(SchemeError):
    """An operation requiring a spatially constant shift received a field shift."""


class OrderUnavailable(SchemeError):
    """A derivation order outside the supported range was requested."""


class BranchAmbiguity(SchemeError):
    """Two eigenvalue branches are too close to select a dominant one."""


class PoorFit(SchemeError):
    """The growth-rate series fit left a residual above the trust threshold."""


class SchemaError(SchemeError):
    """A configuration document is structurally invalid (carries a JSON pointer)."""
