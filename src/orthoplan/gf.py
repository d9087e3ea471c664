"""Finite field arithmetic tables for GF(p^k), orders up to 128.

Elements are labelled 0 .. s-1.  The base-p digits of a label, constant
term least significant, are the coefficients of the element as a
polynomial over GF(p) reduced modulo the monic polynomial pinned below;
a prime field is the case k = 1, where the label is the residue itself.
With the modulus polynomials pinned, the label of a given field element
is stable across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require

MAX_ORDER = 128

# Monic irreducible modulus polynomials, ascending coefficients with the
# constant term first (Conway polynomials).  Keyed by field order.
_MODULUS = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (2, 2, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 4, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (3, 6, 1),
    64: (1, 1, 0, 1, 1, 0, 1),
    81: (2, 0, 0, 2, 1),
    121: (2, 7, 1),
    125: (3, 3, 0, 1),
    128: (1, 1, 0, 0, 0, 0, 0, 1),
}


def prime_power(n):
    """Return (p, k) with n == p**k, or None when n is not a prime power."""
    if n < 2:
        return None
    for p in range(2, n + 1):
        if p * p > n:
            return (n, 1)
        if n % p == 0:
            k, m = 0, n
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None


@dataclass(frozen=True, eq=False)
class GaloisField:
    """Complete addition / multiplication tables for one finite field.

    Every operation is a lookup: a + b is ``add_table[a, b]``, a * b is
    ``mul_table[a, b]``, -a is ``neg_table[a]``, and x - y is entry [x, y]
    of ``add_table[:, neg_table]``.  Indexing a table by an array applies
    it elementwise.  Immutable after construction, so safe to share
    between threads.
    """

    order: int
    char: int
    degree: int
    add_table: np.ndarray
    mul_table: np.ndarray
    neg_table: np.ndarray


def _tables(p, k, modulus):
    """Addition and multiplication tables of GF(p)[x] / (modulus), for a
    monic modulus of degree k given by its ascending coefficients.  The
    digits of a label are its coefficients: a sum adds them mod p, and a
    product is the polynomial product reduced from its top degree down."""
    weights = p ** np.arange(k)
    digits = np.arange(p**k)[:, None] // weights % p
    add = ((digits[:, None] + digits[None, :]) % p) @ weights
    prod = np.zeros((p**k, p**k, 2 * k - 1), dtype=np.int64)
    for i in range(k):
        prod[:, :, i:i + k] += digits[:, None, i, None] * digits[None, :, :]
    for d in range(2 * k - 2, k - 1, -1):     # clear degree d by x^(d-k) * modulus
        prod[:, :, d - k:d + 1] -= prod[:, :, d, None] * np.array(modulus)
    mul = (prod[:, :, :k] % p) @ weights
    return add, mul


def field_new(order):
    """Build GF(order).  Raises ValueError for an order that exceeds
    ``MAX_ORDER`` or is not a prime power; the bound is checked first, so a
    huge order is never factored."""
    if order > MAX_ORDER:
        raise ValueError(f"field order {order} exceeds {MAX_ORDER}")
    pk = prime_power(order)
    if pk is None:
        raise ValueError(f"{order} is not a prime power")
    p, k = pk
    add, mul = _tables(p, k, _MODULUS.get(order, (0, 1)))    # GF(p) is GF(p)[x] / (x)

    neg = (add == 0).argmax(axis=1)
    # One structural self-check: every unit must actually have an inverse
    # (fails iff a modulus polynomial were reducible).
    require((mul[1:] == 1).any(axis=1).all(), f"GF({order}): every unit has an inverse")

    return GaloisField(
        order=order,
        char=p,
        degree=k,
        add_table=add.astype(np.int16),
        mul_table=mul.astype(np.int16),
        neg_table=neg.astype(np.int16),
    )


@dataclass(frozen=True)
class SquareClasses:
    """Partition of the units of an odd-order field into squares and
    non-squares, each sorted ascending by label."""

    c0: tuple
    c1: tuple


def square_classes(field):
    """C0 = nonzero squares, C1 = the remaining units.

    Only defined for odd characteristic: in GF(2^k) every element is a
    square and the partition collapses.
    """
    if field.char == 2:
        raise ValueError("square classes need odd characteristic")
    sq = set(field.mul_table.diagonal()[1:].tolist())
    c0 = tuple(sorted(sq))
    c1 = tuple(a for a in range(1, field.order) if a not in sq)
    require(len(c0) == len(c1) == (field.order - 1) // 2,
            f"GF({field.order}): squares and non-squares each fill half the units")
    return SquareClasses(c0=c0, c1=c1)


def supported_orders():
    """All prime powers up to MAX_ORDER."""
    return tuple(n for n in range(2, MAX_ORDER + 1) if prime_power(n))
