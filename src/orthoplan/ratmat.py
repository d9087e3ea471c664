"""Exact linear algebra over Python ints with a common denominator.

An exact matrix is an integer numpy object array ``num`` together with
one positive int ``d``, standing for num / d.  Rank, the g-inverse and the
Schur complement all run on one fraction-free (Bareiss) elimination over
Python ints, which a square diagonal system skips (d is the lcm of its
diagonal), and verify their results over ints with checks that
``python -O`` keeps.  It has one pivot order; a second is the same
elimination on the index-reversed matrix.  ``Fraction`` input is accepted
only by ``rank`` and ``g_inverse``, which scale it to ints once; ``Fraction``
entries are made only by ``_over``, where a matrix leaves through the
public API.  Floating point enters only in ``checked_eigenvalues``, the one
eigenvalue routine.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from numbers import Integral

import numpy as np

from .errors import VerificationFailed, require

__all__ = [
    "to_float",
    "is_zero",
    "rank",
    "g_inverse",
    "schur_complement",
    "checked_eigenvalues",
]

# The one float tolerance: the relative eigenpair residual bound, and the
# eigenvalue at or below which ``optimality.a_value`` calls a spectrum singular
_EIGEN_TOL = 1e-9


def to_float(m):
    return np.array([[float(x) for x in row] for row in m], dtype=np.float64)


def is_zero(m):
    return bool(all(x == 0 for x in m.flat))


def _scaled_ints(m):
    """The rows of the matrix ``m`` as lists of Python ints (numpy integers
    too), every entry multiplied by the least common denominator s of its
    entries; returns (rows, s)."""
    rows = [[int(x) if isinstance(x, Integral) else Fraction(x) for x in row] for row in m]
    scale = lcm(1, *(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


def _eliminate(rows, ncol):
    """The one exact elimination: a fraction-free (Bareiss 1968) forward
    pass over a copy of the integer ``rows``.

    Pivots come from the first ``ncol`` columns; later columns (right-hand
    sides) ride along.  The scan is deterministic: columns left to right
    and, within a column, the first still-unused row from the top with a
    nonzero entry.  Every division by the previous pivot is exact, and
    each eliminated row is a nonzero multiple of the row ordinary Gaussian
    elimination would give, so the pivots are the ones that elimination
    picks.

    Returns (eliminated rows, (original_row, column) pivots in order, d),
    d being the last pivot: the determinant of the pivot submatrix, up to
    sign, and 1 when there is no pivot.
    """
    rows = [row[:] for row in rows]
    free = list(range(len(rows)))
    pivots = []
    prev = 1
    for c in range(ncol):
        pr = next((r for r in free if rows[r][c] != 0), None)
        if pr is None:
            continue
        pivots.append((pr, c))
        free.remove(pr)
        p = rows[pr][c]
        prow = rows[pr]
        for r in free:
            f = rows[r][c]
            row = rows[r]
            if f:
                rows[r] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
            else:
                rows[r] = [p * a // prev for a in row]
        prev = p
    return rows, pivots, prev


def _back_substitute(rows, pivots, d, ncol, t):
    """Integer Z with M Z = d RHS from eliminated rows [M | RHS], free
    variables zero.  Each division is exact: d is the determinant of the
    pivot submatrix, so d Z is integral by Cramer's rule."""
    z = [[0] * t for _ in range(ncol)]
    solved = []
    for pr, c in reversed(pivots):
        row = rows[pr]
        p = row[c]
        for j in range(t):
            acc = d * row[ncol + j]
            for c2 in solved:
                if row[c2]:
                    acc -= row[c2] * z[c2][j]
            z[c][j] = acc // p
        solved.append(c)
    return z


def _object(rows, ncol):
    return np.array(rows, dtype=object).reshape(len(rows), ncol)


def _over(num, d):
    """The matrix num / d with Fraction entries."""
    out = np.empty(num.shape, dtype=object)
    for idx, x in np.ndenumerate(num):
        out[idx] = Fraction(x, d)
    return out


def rank(m):
    return len(_eliminate(_scaled_ints(m)[0], m.shape[1])[1])


def _solve_scaled(m, rhs):
    """Z = Z_int / d with M Z = RHS, for integer object matrices M and RHS,
    as (Z_int, d): Z_int an object matrix of Python ints, d a nonzero int,
    and M Z_int = d RHS verified over ints.  Mismatched row counts raise
    ValueError (from ``np.hstack``).  A square, non-empty, diagonal M needs
    no elimination: d is the lcm of its nonzero diagonal entries and
    Z_int[i] = (d / m_ii) RHS[i]; a zero m_ii needs RHS[i] = 0 (Z_int[i] = 0)."""
    ncol, t = m.shape[1], rhs.shape[1]
    diag = m.diagonal()
    if 0 < ncol == m.shape[0] == rhs.shape[0] and np.count_nonzero(m) == np.count_nonzero(diag):
        if any(rhs[i].any() for i in np.flatnonzero(diag == 0)):
            raise ArithmeticError("system is inconsistent")
        d = lcm(*(x for x in diag if x))
        z = np.array([d // x if x else 0 for x in diag], dtype=object)[:, None] * rhs
    else:
        rows, pivots, d = _eliminate(np.hstack([m, rhs]).tolist(), ncol)
        used = {pr for pr, _ in pivots}
        for r, row in enumerate(rows):
            if r in used:
                continue
            require(not any(row[:ncol]), "free rows of the elimination are zero")
            if any(row[ncol:]):
                raise ArithmeticError("system is inconsistent")
        z = _object(_back_substitute(rows, pivots, d, ncol, t), t)
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
    num = d * corner - left @ z
    g = gcd(d, *num.flat) * (1 if d > 0 else -1)
    return num // g, d // g


def _g_inverse(m):
    """A generalized inverse of the integer object matrix M as (G_int, d),
    G = G_int / d, with M G_int M = d M verified over ints.

    Found from a full-rank submatrix: elimination picks r independent rows
    I and columns J, and G carries (M[I,J])^-1 on the (J, I) positions,
    zero elsewhere.  The g-inverse of the index-reversed M, reversed back,
    is a second, generally different, one.
    """
    nrow, ncol = m.shape
    _, piv, _ = _eliminate(m.tolist(), ncol)
    g = _object([[0] * nrow for _ in range(ncol)], nrow)
    d = 1
    if piv:
        rows = [p[0] for p in piv]
        cols = [p[1] for p in piv]
        inv, d = _solve_scaled(m[np.ix_(rows, cols)], np.eye(len(piv), dtype=object))
        g[np.ix_(cols, rows)] = inv
    require((m @ g @ m == d * m).all(), "M G M = M")
    return g, d


def g_inverse(m):
    """A generalized inverse G with M G M = M, exact: ``_g_inverse`` of M
    scaled to ints (see there for the choice of G)."""
    system, scale = _scaled_ints(m)
    g, d = _g_inverse(_object(system, m.shape[1]))
    # M = M_int / scale and G_int checks against M_int, so G = scale G_int / d
    return _over(scale * g, d)


def checked_eigenvalues(f):
    """Ascending eigenvalues of a symmetric float matrix by ``eigh``.

    Each eigenpair residual must satisfy |F v - lam v| <= _EIGEN_TOL *
    max(1, |F|) (max-abs norm), else VerificationFailed.
    """
    w, v = np.linalg.eigh(f)
    bound = _EIGEN_TOL * max(1.0, np.abs(f).max())
    resid = np.abs(f @ v - v * w).max()
    if resid > bound:
        raise VerificationFailed(f"eigen residual {resid} exceeds {bound}")
    return [float(x) for x in w]
