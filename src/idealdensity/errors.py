"""Exception hierarchy for the idealdensity package."""


class IdealDensityError(Exception):
    """Base class for all errors raised by this package."""


class NotSquarefree(IdealDensityError):
    """The integer defining a quadratic field must be squarefree."""


class DegenerateM(IdealDensityError):
    """m in {0, 1} does not define a quadratic field."""


class NotPrime(IdealDensityError):
    """A rational prime was expected."""


class NotFundamental(IdealDensityError):
    """The discriminant is not a fundamental discriminant."""


class NotNegative(IdealDensityError):
    """A negative discriminant was expected."""


class UnsupportedField(IdealDensityError):
    """The operation is only defined for a subset of the supported fields."""


class FieldMismatch(IdealDensityError):
    """Operands belong to different number fields."""


class EmptySet(IdealDensityError):
    """A nonempty collection was expected."""


class TooLarge(IdealDensityError):
    """An exact computation would exceed its work bound."""


class DuplicateMembers(IdealDensityError):
    """A family was given with repeated members."""


class SNotGreaterThanOne(IdealDensityError):
    """Truncated zeta sums require s > 1."""


class BoundsExceedX(IdealDensityError):
    """Interval construction starts beyond the enumeration bound."""


class FamilySpecError(IdealDensityError):
    """An ideal-family specification document is malformed."""
