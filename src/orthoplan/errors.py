"""Exception types shared across the package."""


class NotAPrimePower(ValueError):
    """Requested field order is not a prime power."""


class UnsupportedOrder(ValueError):
    """Order is structurally valid but outside what the builders cover."""


class EvenCharacteristic(ValueError):
    """Square classes are only defined for fields of odd characteristic."""


class OrderTooSmall(ValueError):
    """Array order too small to yield a usable design."""


class UnknownFactor(ValueError):
    """Factor name not present in the plan."""


class NoBlocks(ValueError):
    """Block-level quantity requested from an unblocked plan."""


class SchemaViolation(ValueError):
    """Plan document violates the JSON schema.  Carries the offending path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class LevelOutOfRange(ValueError):
    """A run uses a symbol outside a factor's level range."""


class NotAnInteger(ValueError):
    """A level count, run symbol or block size is not an integer."""


class BlockSizeMismatch(ValueError):
    """Block sizes do not partition the runs."""


class OverlappingSets(ValueError):
    """Target factors overlap the conditioning set."""


class DimensionMismatch(ValueError):
    """Vector length does not match the number of factors."""


class SymbolMismatch(ValueError):
    """Symbols of an array are incompatible with the plan's levels."""


class BadCongruence(ValueError):
    """Field order fails a congruence condition required by a construction."""


class LengthMismatch(ValueError):
    """Effect vector length does not match the factor's level count."""


class ShapeMismatch(ValueError):
    """Matrix shape incompatible with the requested check."""


class VerificationFailed(ArithmeticError):
    """An exact self-check on a computed result did not hold."""


def require(ok, what):
    """Raise VerificationFailed naming the check ``what`` unless ``ok``.
    Every self-check goes through here, so ``python -O`` keeps them."""
    if not ok:
        raise VerificationFailed(f"{what} does not hold")
