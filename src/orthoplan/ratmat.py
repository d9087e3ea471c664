"""Exact linear algebra over Python ints with a common denominator.

An exact matrix is an integer numpy object array ``num`` together with
one positive int ``d``, standing for num / d.  Rank, the g-inverse and the
Schur complement all run on one fraction-free (Bareiss) elimination over
Python ints, which a square diagonal system skips (d is the lcm of its
diagonal), and verify their results over ints with checks that
``python -O`` keeps.  The kernel has that one matrix form from input to
result: a pivot updates every free row in one array expression, and back
substitution is one row product per pivot.  It has one pivot order; the
reversed order is a test oracle in ``tests/oracles.py`` only.  ``Fraction``
input is accepted only by ``rank`` and ``g_inverse``, which scale it to
ints once; ``Fraction`` entries are made only by ``_over``, where a matrix
leaves through the public API, and a report prints an entry x / d with
``_text``.  No floating point enters: the one eigenvalue routine is
``contrasts.checked_eigenvalues``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from numbers import Integral

import numpy as np

from .errors import require

__all__ = [
    "is_zero",
    "rank",
    "g_inverse",
    "schur_complement",
]


def is_zero(m):
    return not any(m.flat)


def _scaled_ints(m):
    """The matrix ``m`` (integer entries, numpy integers too, or rational
    ones) as an object matrix of Python ints, every entry multiplied by the
    least common denominator s of its entries; returns (ints, s)."""
    exact = np.frompyfunc(lambda x: int(x) if isinstance(x, Integral) else Fraction(x), 1, 1)(
        np.asarray(m, dtype=object))
    scale = lcm(1, *(x.denominator for x in exact.flat))
    return np.frompyfunc(lambda x: x.numerator * (scale // x.denominator), 1, 1)(exact), scale


def _eliminate(a, ncol):
    """The one exact elimination: a fraction-free (Bareiss 1968) forward
    pass over an object copy of the integer matrix ``a``.

    Pivots come from the first ``ncol`` columns; later columns (right-hand
    sides) ride along.  The scan is deterministic: columns left to right
    and, within a column, the first still-unused row from the top with a
    nonzero entry.  Every division by the previous pivot is exact, and
    each eliminated row is a nonzero multiple of the row ordinary Gaussian
    elimination would give, so the pivots are the ones that elimination
    picks.

    Returns (eliminated matrix, (original_row, column) pivots in order, d),
    d being the last pivot: the determinant of the pivot submatrix, up to
    sign, and 1 when there is no pivot.
    """
    a = np.array(a, dtype=object)
    free = list(range(a.shape[0]))
    pivots = []
    prev = 1
    for c in range(ncol):
        pr = next((r for r in free if a[r, c]), None)
        if pr is None:
            continue
        pivots.append((pr, c))
        free.remove(pr)
        p = a[pr, c]
        a[free] = (p * a[free] - a[free, c, None] * a[pr]) // prev
        prev = p
    return a, pivots, prev


def _back_substitute(a, pivots, d, ncol):
    """Integer Z with M Z = d RHS from the eliminated [M | RHS], free
    variables zero.  Each division is exact: d is the determinant of the
    pivot submatrix, so d Z is integral by Cramer's rule."""
    z = np.zeros((ncol, a.shape[1] - ncol), dtype=object)
    for pr, c in reversed(pivots):
        z[c] = (d * a[pr, ncol:] - a[pr, :ncol] @ z) // a[pr, c]
    return z


def _over(num, d):
    """The matrix num / d with Fraction entries."""
    return np.frompyfunc(Fraction, 2, 1)(num, d)


def _text(x, d):
    """``str(Fraction(x, d))`` for ints x and d > 0, without the Fraction."""
    g = gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


def rank(m):
    return len(_eliminate(_scaled_ints(m)[0], m.shape[1])[1])


def _solve_scaled(m, rhs):
    """Z = Z_int / d with M Z = RHS, for integer object matrices M and RHS,
    as (Z_int, d): Z_int an object matrix of Python ints, d a nonzero int,
    and M Z_int = d RHS verified over ints.  Mismatched row counts raise
    ValueError (from ``np.hstack``).  A square, non-empty, diagonal M needs
    no elimination: d is the lcm of its nonzero diagonal entries and
    Z_int[i] = (d / m_ii) RHS[i]; a zero m_ii needs RHS[i] = 0 (Z_int[i] = 0).
    Otherwise the one elimination of [M | RHS] zeroes the M part of every
    free row by construction, so only its RHS part is checked; M Z = d RHS
    decides the result whatever the elimination did."""
    ncol = m.shape[1]
    diag = m.diagonal()
    if 0 < ncol == m.shape[0] == rhs.shape[0] and np.count_nonzero(m) == np.count_nonzero(diag):
        require(not any(rhs[i].any() for i in np.flatnonzero(diag == 0)),
                "no inconsistent equation")
        d = lcm(*(x for x in diag if x))
        z = np.array([d // x if x else 0 for x in diag], dtype=object)[:, None] * rhs
    else:
        a, pivots, d = _eliminate(np.hstack([m, rhs]), ncol)
        rest = np.delete(a, [pr for pr, _ in pivots], axis=0)
        require(is_zero(rest[:, ncol:]), "no inconsistent equation")
        z = _back_substitute(a, pivots, d, ncol)
    require((m @ z == d * rhs).all(), "M Z = d RHS")
    return z, d


def schur_complement(corner, left, m, right):
    """corner - left M^- right = num / d, exact, for integer object matrices,
    as the canonical pair of an integer object matrix num and an
    int d > 0 with gcd(d, *num) = 1, so every pivot order gives the same
    pair.

    M^- right is the solution Z of M Z = right from ``_solve_scaled``; the
    product left Z is the same for every solution when the rows of
    ``left`` lie in the row space of M.  num is d corner - left Z_int over
    Python ints, divided by the common gcd: unreduced, d is the
    determinant of a pivot block of M, far larger than the true
    denominator.
    """
    if not set(map(type, chain(corner.flat, left.flat, m.flat, right.flat))) <= {int}:
        raise TypeError("schur_complement takes integer matrices; scale Fractions first")
    z, d = _solve_scaled(m, right)
    return _reduced(d * corner - left @ z, d)


def _reduced(num, d):
    """The canonical pair of num / d: d > 0 and gcd(d, *num) = 1."""
    g = gcd(d, *num.flat) * (1 if d > 0 else -1)
    return num // g, d // g


def _g_inverse(m):
    """A generalized inverse of the integer object matrix M as (G_int, d),
    G = G_int / d, with M G_int M = d M verified over ints.

    Found from a full-rank submatrix in one elimination of [M | I]: it
    picks r independent rows I and columns J of M, and back substitution
    with the free variables zero solves M[I,J] Z = d I[I,:].  So G carries
    (M[I,J])^-1 on the (J, I) positions, zero elsewhere, in the one pivot
    order; ``tests/oracles.py`` ``g_inverse_reversed`` is the reversed one.
    """
    nrow, ncol = m.shape
    a, pivots, d = _eliminate(np.hstack([m, np.eye(nrow, dtype=object)]), ncol)
    g = _back_substitute(a, pivots, d, ncol)
    require((m @ g @ m == d * m).all(), "M G M = M")
    return g, d


def g_inverse(m):
    """A generalized inverse G with M G M = M, exact: ``_g_inverse`` of M
    scaled to ints (see there for the choice of G)."""
    system, scale = _scaled_ints(m)
    g, d = _g_inverse(system)
    # M = M_int / scale and G_int checks against M_int, so G = scale G_int / d
    return _over(scale * g, d)
