"""Contrast bases and the exact representation of contrast C-matrices.

The canonical basis O_A for a factor with s levels is the orthonormal
Helmert system: (s-1) rows, each orthogonal to the all-ones vector, with
O_A O_A' = I.  Row j of the un-normalized (integer) system is

    (1, ..., 1, -j, 0, ..., 0)        (j ones, squared norm j(j+1))

so every orthonormal entry is an integer divided by sqrt(j(j+1)).  A
congruence O M O' therefore has entries  num[i,j] / (d sqrt(n_i n_j)),
num an integer matrix over one denominator d > 0 (the integer pair of
``ratmat``) and n_i the squared row norms.  ``ContrastMatrix`` carries
(num, d) and the norms, so the identity check stays on integers and a
rational entry is printed from its integer pair; a Fraction is made only
for the scalar a of ``scalar_identity``.  It converts to floating
point, num / d entry by entry (correctly rounded), only for eigenvalues
and irrational entries, and forms the float matrix and its spectrum
once, on first use, and keeps them.  ``congruence`` applies the integer
rows by prefix sums (the explicit rows are a test oracle), and
``checked_eigenvalues`` is the package's one eigenvalue routine.

Note on scaling: some authors use contrast rows of squared norm 2 (for
two levels, the row (1, -1)).  Every C-matrix produced under that
convention is exactly twice the orthonormal one reported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

import numpy as np

from . import ratmat
from .errors import VerificationFailed

__all__ = ["helmert_norms", "congruence", "checked_eigenvalues", "ContrastMatrix"]

# The one float tolerance: the relative eigenpair residual bound, and the
# eigenvalue at or below which ``optimality.a_value`` calls a spectrum singular
_EIGEN_TOL = 1e-9


def helmert_norms(s):
    """Squared row norms j(j+1), j = 1..s-1, of the integer Helmert rows."""
    return tuple(j * (j + 1) for j in range(1, s))


def _helmert(x):
    """H x for the s rows of x, H the (s-1) x s integer Helmert rows
    (1, ..., 1, -j, 0, ..., 0), by prefix sums."""
    return np.cumsum(x, axis=0)[:-1] - np.arange(1, len(x), dtype=object)[:, None] * x[1:]


def congruence(num, d, cols):
    """The contrast C-matrix H M H' of M = num / d over the factors whose
    columns are the slices ``cols``, H their block-diagonal Helmert rows:
    the integer congruence H num H' over the same d."""
    rows = np.vstack([_helmert(num[c, :]) for c in cols])
    con = np.hstack([_helmert(rows[:, c].T).T for c in cols])
    return ContrastMatrix(num=con, d=d,
                          norms=tuple(n for c in cols for n in helmert_norms(c.stop - c.start)))


def checked_eigenvalues(f):
    """Ascending eigenvalues of a symmetric float matrix by ``eigh``; each
    eigenpair residual must satisfy |F v - lam v| <= _EIGEN_TOL max(1, |F|)
    (max-abs norm), else VerificationFailed."""
    w, v = np.linalg.eigh(f)
    bound = _EIGEN_TOL * max(1.0, np.abs(f).max())
    resid = np.abs(f @ v - v * w).max()
    if resid > bound:
        raise VerificationFailed(f"eigen residual {resid} exceeds {bound}")
    return [float(x) for x in w]


@dataclass(frozen=True, eq=False)
class ContrastMatrix:
    """A matrix O M O' over a stacked orthonormal Helmert basis, stored as
    the integer congruence ``num`` over one denominator ``d`` plus squared
    row norms.  An instance is immutable: ``num`` is not written after
    construction, so its float form and spectrum, formed on first use,
    stay valid.  Two instances compare equal when they hold the same matrix."""

    num: np.ndarray          # v x v Python ints, num[i,j] / d = u_i' M u_j
    d: int                   # positive common denominator
    norms: tuple             # squared norms n_i of the integer rows

    def __post_init__(self):
        v = len(self.norms)
        if self.num.shape != (v, v):
            raise ValueError("num / norms sizes disagree")

    def __eq__(self, other):
        """Equal when both hold the same matrix: equal norms and
        num / d == num' / d' entry by entry, whatever pair represents it."""
        if not isinstance(other, ContrastMatrix):
            return NotImplemented
        return self.norms == other.norms and bool((self.num * other.d == other.num * self.d).all())

    @property
    def dim(self):
        return len(self.norms)

    @cached_property
    def _float(self):
        """The symmetrized float matrix, formed once per instance."""
        scale = 1.0 / np.sqrt(np.array(self.norms, dtype=np.float64))
        f = (self.num / self.d).astype(np.float64) * scale[:, None] * scale[None, :]
        return (f + f.T) / 2.0

    @cached_property
    def _spectrum(self):
        """The eigenvalues, decomposed once per instance."""
        return tuple(checked_eigenvalues(self._float))

    def scalar_identity(self):
        """(True, a) when the matrix is exactly a * I, else (False, None)."""
        diag = self.num.diagonal()      # entry i is diag[i] / (d n_i)
        if (self.dim and np.count_nonzero(self.num) == np.count_nonzero(diag)
                and all(x * self.norms[0] == diag[0] * n for x, n in zip(diag, self.norms))):
            return True, Fraction(diag[0], self.d * self.norms[0])
        return False, None

    def eigenvalues(self):
        """Ascending eigenvalues (floating point), residual-checked by
        ``checked_eigenvalues``."""
        return list(self._spectrum)

    def entries_json(self):
        """Entries as strings: the ``Fraction`` text of each rational entry
        (x = 0 or n_i n_j a square), the float decimal of each other one."""
        out = []
        for x_row, f_row, n_i in zip(self.num.tolist(), self._float.tolist(), self.norms):
            row = []
            for x, f, n_j in zip(x_row, f_row, self.norms):
                r = isqrt(n_i * n_j)
                row.append(ratmat._text(x, self.d * r) if not x or r * r == n_i * n_j
                           else repr(f))
            out.append(row)
        return out

    def to_json(self):
        """The report's ``c_matrix`` block: entries and eigenvalues."""
        return {"entries": self.entries_json(), "eigenvalues": self.eigenvalues()}
