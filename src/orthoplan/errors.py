"""The two ways a run can fail, one exception type each.

Bad input or usage raises a plain ``ValueError`` whose message says what
is wrong (``cli.main`` prints it and exits 2, as for an ``OSError``).  An
exact self-check on a computed result that does not hold raises
``VerificationFailed`` through ``require`` (``cli.main`` exits 1).
"""


class VerificationFailed(ArithmeticError):
    """An exact self-check on a computed result did not hold."""


def require(ok, what):
    """Raise VerificationFailed naming the check ``what`` unless ``ok``.
    Every self-check goes through here, so ``python -O`` keeps them."""
    if not ok:
        raise VerificationFailed(f"{what} does not hold")
