"""Contrast bases and the exact representation of contrast C-matrices.

The canonical basis O_A for a factor with s levels is the orthonormal
Helmert system: (s-1) rows, each orthogonal to the all-ones vector, with
O_A O_A' = I.  Row j of the un-normalized (integer) system is

    (1, ..., 1, -j, 0, ..., 0)        (j ones, squared norm j(j+1))

so every orthonormal entry is an integer divided by sqrt(j(j+1)).  A
congruence O M O' therefore has entries  num[i,j] / (d sqrt(n_i n_j)),
num an integer matrix over one denominator d > 0 (the integer pair of
``ratmat``) and n_i the squared row norms.  ``ContrastMatrix`` carries
(num, d) and the norms, so the identity check and the printed rational
entries stay on integers; a Fraction is made only for a scalar (the a of
``scalar_identity``, the factor of ``scaled``).  It converts to floating
point, num / d entry by entry (correctly rounded), only for eigenvalues
and irrational entries, and forms the float matrix and its spectrum once,
on first use, and keeps them.

Note on scaling: some authors use contrast rows of squared norm 2 (for
two levels, the row (1, -1)).  Every C-matrix produced under that
convention is exactly twice the orthonormal one reported here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt

import numpy as np

from . import ratmat
from .errors import ShapeMismatch

__all__ = ["helmert_raw", "helmert_norms", "orthonormal_contrasts", "ContrastMatrix"]


def helmert_raw(s):
    """Integer Helmert rows, (s-1) x s, pairwise orthogonal, zero row
    sums, as an object array of Python ints."""
    if s < 2:
        raise ValueError("need at least two levels")
    rows = []
    for j in range(1, s):
        rows.append([1] * j + [-j] + [0] * (s - 1 - j))
    return np.array(rows, dtype=object)


def helmert_norms(s):
    """Squared row norms of helmert_raw(s)."""
    return tuple(j * (j + 1) for j in range(1, s))


def orthonormal_contrasts(s):
    """The canonical orthonormal contrast basis as floats, (s-1) x s."""
    raw = ratmat.to_float(helmert_raw(s))
    norms = helmert_norms(s)
    return raw / np.sqrt(np.array(norms))[:, None]


@dataclass(frozen=True, eq=False)
class ContrastMatrix:
    """A matrix O M O' over a stacked orthonormal Helmert basis, stored as
    the integer congruence ``num`` over one denominator ``d`` plus squared
    row norms.  An instance is immutable: ``num`` is not written after
    construction, so its float form and spectrum, formed on first use,
    stay valid."""

    num: np.ndarray          # v x v Python ints, num[i,j] / d = u_i' M u_j
    d: int                   # positive common denominator
    norms: tuple             # squared norms n_i of the integer rows
    labels: tuple            # human-readable contrast row labels

    def __post_init__(self):
        v = len(self.norms)
        if self.num.shape != (v, v) or len(self.labels) != v:
            raise ShapeMismatch("num / norms / labels sizes disagree")

    @property
    def dim(self):
        return len(self.norms)

    def _exact(self, i, j):
        """The (i, j) entry as a reduced pair (p, q), q > 0, or None when it is irrational."""
        x = self.num[i, j]
        if not x:
            return 0, 1
        nn = self.norms[i] * self.norms[j]
        r = isqrt(nn)
        if r * r != nn:
            return None
        g = gcd(x, self.d * r)
        return x // g, self.d * r // g

    @cached_property
    def _float(self):
        """The symmetrized float matrix, formed once per instance."""
        scale = 1.0 / np.sqrt(np.array(self.norms, dtype=np.float64))
        f = (self.num / self.d).astype(np.float64) * scale[:, None] * scale[None, :]
        return (f + f.T) / 2.0

    @cached_property
    def _spectrum(self):
        """The eigenvalues, decomposed once per instance."""
        return tuple(ratmat.checked_eigenvalues(self._float))

    def scalar_identity(self):
        """(True, a) when the matrix is exactly a * I, else (False, None)."""
        diag = self.num.diagonal()      # entry i is diag[i] / (d n_i)
        if (self.dim and np.count_nonzero(self.num) == np.count_nonzero(diag)
                and all(x * self.norms[0] == diag[0] * n for x, n in zip(diag, self.norms))):
            return True, Fraction(diag[0], self.d * self.norms[0])
        return False, None

    def eigenvalues(self):
        """Ascending eigenvalues (floating point), residual-checked by
        ``ratmat.checked_eigenvalues``."""
        return list(self._spectrum)

    def scaled(self, factor):
        """The same matrix multiplied by an exact rational factor."""
        factor = Fraction(factor)
        return replace(self, num=self.num * factor.numerator, d=self.d * factor.denominator)

    def entries_json(self):
        """Entries as strings: exact 'p/q' when rational (the text of
        ``str(Fraction)``, from the reduced pair), decimal otherwise."""
        out = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                e = self._exact(i, j)
                row.append(repr(float(self._float[i, j])) if e is None
                           else str(e[0]) if e[1] == 1 else f"{e[0]}/{e[1]}")
            out.append(row)
        return out
