"""Hadamard matrices and strength-2 orthogonal arrays.

Arrays follow the rows-are-factors convention: an OA(N, m, s, 2) is stored
as an m x N integer grid whose columns are the runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderTooSmall, UnsupportedOrder, require
from .gf import field_new, prime_power, square_classes
from .plan import MAX_GRAM_SIZE

__all__ = [
    "OrthogonalArray",
    "hadamard",
    "hadamard_to_oa",
    "oa_rao_hamming",
    "q_extend",
]


# The largest Hadamard order a built family can ask for.  ``construct_potp``
# builds from order h with gram size 2 h s + 1, largest at its smallest
# field, s = 3: 6 h + 1 <= MAX_GRAM_SIZE gives h <= 1397 (``construct_potb2``,
# at 16 h + 1, stops lower).  ``hadamard`` refuses a larger order before it
# builds anything, as the N x N matrix and its check grow about eightfold in
# time per doubling of N.
MAX_HADAMARD_ORDER = (MAX_GRAM_SIZE - 1) // 6


@dataclass(frozen=True, eq=False)
class OrthogonalArray:
    """An orthogonal array of strength 2, or its zero-row extension.

    When ``zero_row`` is set the grid carries an extra all-zero first row
    and the strength-2 property is only claimed among the remaining rows.
    """

    grid: np.ndarray
    symbols: int
    zero_row: bool = False

    def __post_init__(self):
        g = np.asarray(self.grid)
        if g.ndim != 2:
            raise ValueError("grid must be two-dimensional")
        if g.min() < 0 or g.max() >= self.symbols:
            raise ValueError("grid symbols outside 0..s-1")
        if self.zero_row and g[0].any():
            raise ValueError("zero_row set but first row is not zero")
        object.__setattr__(self, "grid", g.astype(np.int64))
        verify_strength2(self)

    @property
    def rows(self):
        return self.grid.shape[0]

    @property
    def columns(self):
        return self.grid.shape[1]


def verify_strength2(oa):
    """Exhaustively count ordered symbol pairs over every pair of rows.

    Each of the s^2 pairs must appear N/s^2 times.  For a zero-row
    extension the all-zero first row is exempt.
    """
    g = oa.grid[1:] if oa.zero_row else oa.grid
    s, n = oa.symbols, oa.grid.shape[1]
    if len(g) >= 2:
        # the pair condition only bites once two effective rows exist
        if n % (s * s) != 0:
            raise ValueError("column count not divisible by s^2")
        want = n // (s * s)
        for i in range(len(g)):
            for j in range(i + 1, len(g)):
                counts = np.bincount(s * g[i] + g[j], minlength=s * s)
                if not (counts == want).all():
                    raise ValueError(f"rows {i},{j}: pair counts {counts.tolist()}")
    # every row on its own must be balanced as well
    for i in range(len(g)):
        counts = np.bincount(g[i], minlength=s)
        if not (counts == n // s).all():
            raise ValueError(f"row {i} not symbol-balanced")


def _paley(q):
    """Hadamard matrix of order q+1 from the quadratic character of GF(q),
    for prime powers q = 3 (mod 4)."""
    f = field_new(q)
    sq = square_classes(f)
    chi = np.zeros(q, dtype=np.int64)
    for a in sq.c0:
        chi[a] = 1
    for a in sq.c1:
        chi[a] = -1
    jac = np.array([[chi[f.sub(i, j)] for j in range(q)] for i in range(q)])
    h = np.zeros((q + 1, q + 1), dtype=np.int64)
    h[0, :] = 1
    h[1:, 0] = -1
    h[1:, 1:] = jac + np.eye(q, dtype=np.int64)
    return h


def _build_hadamard(order):
    """Recursive builder; returns an un-normalized matrix or None."""
    if order == 1:
        return np.array([[1]], dtype=np.int64)
    if order == 2:
        return np.array([[1, 1], [1, -1]], dtype=np.int64)
    if order % 4 != 0:
        return None
    q = order - 1
    pk = prime_power(q)
    if pk is not None and q % 4 == 3 and q <= 128:
        return _paley(q)
    half = _build_hadamard(order // 2)
    if half is not None:
        return np.block([[half, half], [half, -half]])
    d = 2
    while d * d <= order:
        if order % d == 0:
            a = _build_hadamard(d)
            b = _build_hadamard(order // d)
            if a is not None and b is not None:
                return np.kron(a, b)
        d += 1
    return None


def hadamard(order):
    """Hadamard matrix of the given order, first row normalized to +1.

    Orders covered: 1, 2, and multiples of 4 reachable by the quadratic
    character construction, column doubling, and Kronecker products.
    The H H' = order * I identity is checked exactly before returning.
    Orders above ``MAX_HADAMARD_ORDER`` are refused before anything is built.
    """
    if order < 1 or (order > 2 and order % 4 != 0):
        raise UnsupportedOrder(f"no Hadamard matrix of order {order}")
    if order > MAX_HADAMARD_ORDER:
        raise UnsupportedOrder(f"Hadamard order {order} exceeds the limit {MAX_HADAMARD_ORDER}")
    h = _build_hadamard(order)
    if h is None:
        raise UnsupportedOrder(f"order {order} not reachable by the built-in constructions")
    h = h * h[0]  # flip columns so the first row is all +1
    gram = h @ h.T
    require((gram == order * np.eye(order, dtype=np.int64)).all(),
            f"hadamard({order}): H H' = {order} I")
    return h


def hadamard_to_oa(h):
    """Two-symbol strength-2 OA from a Hadamard matrix.

    Drops the all-ones first row and recodes +1 -> 0, -1 -> 1, giving an
    OA(h, h-1, 2, 2) stored as (h-1) rows by h columns.
    """
    h = np.asarray(h)
    order = h.shape[0]
    if order < 4:
        raise OrderTooSmall("need order >= 4; smaller orders leave fewer than two rows")
    if h.shape != (order, order) or not (h[0] == 1).all():
        raise ValueError("expected a normalized square Hadamard matrix")
    grid = ((1 - h[1:]) // 2).astype(np.int64)
    return OrthogonalArray(grid=grid, symbols=2)


def oa_rao_hamming(field):
    """OA(s^2, s+1, s, 2) over GF(s): columns are the points (u, v) of the
    affine plane, rows read off u, v, and u + a*v for each unit a."""
    s = field.order
    cols = [(u, v) for u in range(s) for v in range(s)]
    rows = [np.array([u for u, _ in cols]), np.array([v for _, v in cols])]
    for a in field.units:
        rows.append(np.array([field.add(u, field.mul(a, v)) for u, v in cols]))
    return OrthogonalArray(grid=np.stack(rows), symbols=s)


def q_extend(oa):
    """Prepend an all-zero row, producing the translation array used by the
    block-multiplying construction."""
    if oa.zero_row:
        raise ValueError("array already carries a zero row")
    grid = np.vstack([np.zeros(oa.columns, dtype=np.int64), oa.grid])
    return OrthogonalArray(grid=grid, symbols=oa.symbols, zero_row=True)
