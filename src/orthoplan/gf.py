"""Finite field arithmetic tables for GF(p^k), orders up to 128.

Elements are labelled 0 .. s-1.  For prime s the label is the residue
itself; for s = p^k the label encodes the coefficient vector of the
element (as a polynomial over GF(p)) in base p, constant term least
significant.  With the modulus polynomials pinned below, the label of a
given field element is stable across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvenCharacteristic, NotAPrimePower, UnsupportedOrder, ZeroInverse, require

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
    return None


@dataclass(frozen=True, eq=False)
class GaloisField:
    """Complete addition / multiplication tables for one finite field.

    Immutable after construction; all lookups are plain array reads so the
    object is safe to share between threads.
    """

    order: int
    char: int
    degree: int
    add_table: np.ndarray
    mul_table: np.ndarray
    neg_table: np.ndarray
    inv_table: np.ndarray
    modulus: tuple | None

    def _check(self, a):
        if not 0 <= a < self.order:
            raise ValueError(f"label {a} outside field of order {self.order}")
        return int(a)

    def add(self, a, b):
        return int(self.add_table[self._check(a), self._check(b)])

    def sub(self, a, b):
        return int(self.add_table[self._check(a), self.neg_table[self._check(b)]])

    def mul(self, a, b):
        return int(self.mul_table[self._check(a), self._check(b)])

    def neg(self, a):
        return int(self.neg_table[self._check(a)])

    def inv(self, a):
        if self._check(a) == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return int(self.inv_table[a])

    def pow(self, a, e):
        self._check(a)
        if e < 0:
            a, e = self.inv(a), -e
        out = 1
        for _ in range(e):
            out = self.mul(out, a)
        return out

    @property
    def elements(self):
        return range(self.order)

    @property
    def units(self):
        return range(1, self.order)


def _digits(n, p, k):
    """Base-p digit matrix of 0..n-1, least significant digit first."""
    idx = np.arange(n)
    return np.stack([(idx // p**i) % p for i in range(k)], axis=1)


def _encode(vec, p):
    """Inverse of _digits along the last axis."""
    weights = p ** np.arange(vec.shape[-1])
    return (vec * weights).sum(axis=-1)


def _tables_prime(p):
    idx = np.arange(p)
    add = (idx[:, None] + idx[None, :]) % p
    mul = (idx[:, None] * idx[None, :]) % p
    return add, mul


def _tables_prime_power(p, k, modulus):
    s = p**k
    vecs = _digits(s, p, k)
    add = _encode((vecs[:, None, :] + vecs[None, :, :]) % p, p)

    # x^k = -(low-order modulus coefficients); extend to x^(2k-2).
    mod = np.array(modulus[:-1])
    reduction = np.zeros((k - 1, k), dtype=np.int64)
    reduction[0] = (-mod) % p
    for t in range(1, k - 1):
        shifted = np.concatenate(([0], reduction[t - 1][:-1]))
        shifted = (shifted + reduction[t - 1][-1] * reduction[0]) % p
        reduction[t] = shifted

    # Raw polynomial product of every pair, degree up to 2k-2.
    prod = np.zeros((s, s, 2 * k - 1), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            prod[:, :, i + j] += vecs[:, None, i] * vecs[None, :, j]
    prod %= p
    for d in range(2 * k - 2, k - 1, -1):
        coef = prod[:, :, d]
        prod[:, :, :k] = (prod[:, :, :k] + coef[:, :, None] * reduction[d - k]) % p
        prod[:, :, d] = 0
    mul = _encode(prod[:, :, :k], p)
    return add, mul


def field_new(order):
    """Build GF(order).  Raises NotAPrimePower / UnsupportedOrder."""
    pk = prime_power(order)
    if pk is None:
        raise NotAPrimePower(f"{order} is not a prime power")
    if order > MAX_ORDER:
        raise UnsupportedOrder(f"field order {order} exceeds {MAX_ORDER}")
    p, k = pk
    if k == 1:
        add, mul = _tables_prime(p)
        modulus = None
    else:
        modulus = _MODULUS[order]
        add, mul = _tables_prime_power(p, k, modulus)

    neg = (add == 0).argmax(axis=1)
    inv = (mul == 1).argmax(axis=1)
    inv[0] = 0
    # One structural self-check: every unit must actually have an inverse
    # (fails iff a modulus polynomial were reducible).
    require((mul[np.arange(1, order), inv[1:]] == 1).all(),
            f"GF({order}): every unit has an inverse")

    return GaloisField(
        order=order,
        char=p,
        degree=k,
        add_table=add.astype(np.int16),
        mul_table=mul.astype(np.int16),
        neg_table=neg.astype(np.int16),
        inv_table=inv.astype(np.int16),
        modulus=modulus,
    )


@dataclass(frozen=True)
class SquareClasses:
    """Partition of the units of an odd-order field into squares and
    non-squares, each sorted ascending by label."""

    order: int
    c0: tuple
    c1: tuple

    def klass(self, a):
        if a in self.c0:
            return 0
        if a in self.c1:
            return 1
        raise ValueError(f"{a} is not a unit")


def square_classes(field):
    """C0 = nonzero squares, C1 = the remaining units.

    Only defined for odd characteristic: in GF(2^k) every element is a
    square and the partition collapses.
    """
    if field.char == 2:
        raise EvenCharacteristic("square classes need odd characteristic")
    sq = {field.mul(a, a) for a in field.units}
    c0 = tuple(sorted(sq))
    c1 = tuple(a for a in field.units if a not in sq)
    require(len(c0) == len(c1) == (field.order - 1) // 2,
            f"GF({field.order}): squares and non-squares each fill half the units")
    return SquareClasses(order=field.order, c0=c0, c1=c1)


def supported_orders():
    """All prime powers up to MAX_ORDER."""
    return tuple(n for n in range(2, MAX_ORDER + 1) if prime_power(n))
