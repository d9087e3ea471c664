"""Exact linear algebra over Python ints with a common denominator.

Inside the package an exact matrix is an integer numpy object array
``num`` together with one positive int ``d``, standing for num / d.  Rank,
inverse, g-inverse, the consistent solve and the Schur complement all run
on one fraction-free (Bareiss) elimination over Python ints, which a
square diagonal system skips (d is the lcm of its diagonal), and verify
their results over ints with checks that ``python -O`` keeps.  It has one
pivot order; a second is the same elimination on the index-reversed
matrix.  ``Fraction`` input is accepted only at the public edge, where
rank, inverse, g-inverse and the solve scale it to ints once; ``Fraction``
entries are made once, by ``_over``, where a matrix leaves through the
public API.  Floating point enters only in ``checked_eigenvalues``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from numbers import Integral

import numpy as np

from .errors import NotSymmetric, VerificationFailed, require

__all__ = [
    "rational",
    "vector",
    "zeros",
    "eye",
    "ones",
    "to_float",
    "is_zero",
    "is_symmetric",
    "rank",
    "inverse",
    "g_inverse",
    "solve_consistent",
    "schur_complement",
    "checked_eigenvalues",
    "sym_eigenvalues",
]

# The one float tolerance: the relative eigenpair residual bound, and the
# eigenvalue at or below which ``optimality.a_value`` calls a spectrum singular
_EIGEN_TOL = 1e-9


def rational(values):
    """Coerce a nested sequence / array to an object matrix of Fractions."""
    vals = np.asarray(values, dtype=object)
    if vals.ndim == 1:
        vals = vals[None, :] if len(vals) else vals.reshape(0, 0)
    out = np.empty(vals.shape, dtype=object)
    for idx in np.ndindex(vals.shape):
        out[idx] = Fraction(vals[idx])
    return out


def vector(values):
    """Column vector of Fractions, shape (n, 1)."""
    return rational([[v] for v in values])


def zeros(r, c):
    out = np.empty((r, c), dtype=object)
    out[:] = Fraction(0)
    return out


def eye(n):
    out = zeros(n, n)
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


def ones(r, c):
    out = np.empty((r, c), dtype=object)
    out[:] = Fraction(1)
    return out


def to_float(m):
    return np.array([[float(x) for x in row] for row in m], dtype=np.float64)


def is_zero(m):
    return bool(all(x == 0 for x in m.flat))


def is_symmetric(m):
    return bool(m.shape[0] == m.shape[1] and (m == m.T).all())


def _scaled_ints(*mats):
    """The rows of the side-by-side matrices ``mats`` as lists of Python
    ints (numpy integers too), every entry multiplied by the least common
    denominator s of all of them; returns (rows, s)."""
    rows = [[int(x) if isinstance(x, Integral) else Fraction(x)
             for x in chain.from_iterable(parts)] for parts in zip(*mats)]
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


def solve_consistent(m, rhs):
    """One exact solution Z of M Z = RHS, with free variables set to zero.

    Raises ArithmeticError when some RHS column is outside the column
    space of M.  For the normal systems solved in this package (M a gram
    matrix, RHS of the form M W) the result equals G @ RHS for some
    generalized inverse G; products P @ Z with the rows of P inside the
    row space of M do not depend on the choice.
    """
    (m_int, s_m), (rhs_int, s_rhs) = _scaled_ints(m), _scaled_ints(rhs)
    z, d = _solve_scaled(_object(m_int, m.shape[1]), _object(rhs_int, rhs.shape[1]))
    return _over(s_m * z, d * s_rhs)


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


def inverse(m):
    """Exact inverse of a nonsingular square matrix."""
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("inverse needs a square matrix")
    if rank(m) < n:
        raise ValueError("matrix is singular")
    return solve_consistent(m, eye(n))


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


def sym_eigenvalues(m):
    """Eigenvalues of an exactly-symmetric rational matrix, ascending,
    computed in floating point by ``checked_eigenvalues``."""
    if not is_symmetric(m):
        raise NotSymmetric("matrix is not exactly symmetric")
    return checked_eigenvalues(to_float(m))
