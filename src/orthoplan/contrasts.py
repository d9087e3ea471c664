"""Contrast bases and the exact representation of contrast C-matrices.

The canonical basis O_A for a factor with s levels is the orthonormal
Helmert system: (s-1) rows, each orthogonal to the all-ones vector, with
O_A O_A' = I.  Row j of the un-normalized (integer) system is

    (1, ..., 1, -j, 0, ..., 0)        (j ones, squared norm j(j+1))

so every orthonormal entry is an integer divided by sqrt(j(j+1)).  A
congruence O M O' therefore has entries  raw[i,j] / sqrt(d_i d_j)  with
raw exactly rational; ``ContrastMatrix`` carries (raw, d) so that
zero / identity / rational-equality checks stay exact, and converts to
floating point only for eigenvalues and irrational entries.  It forms the
float matrix and its spectrum once, on first use, and keeps them.

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
from .errors import ShapeMismatch

__all__ = ["helmert_raw", "helmert_norms", "orthonormal_contrasts", "ContrastMatrix"]

_EIGEN_TOL = 1e-9


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
    the exact rational congruence ``raw`` plus squared row norms.  An
    instance is immutable: ``raw`` is not written after construction, so
    its float form and spectrum, formed on first use, stay valid."""

    raw: np.ndarray          # v x v Fractions, raw[i,j] = u_i' M u_j
    norms: tuple             # squared norms d_i of the integer rows
    labels: tuple            # human-readable contrast row labels

    def __post_init__(self):
        v = len(self.norms)
        if self.raw.shape != (v, v) or len(self.labels) != v:
            raise ShapeMismatch("raw / norms / labels sizes disagree")

    @property
    def dim(self):
        return len(self.norms)

    def entry_exact(self, i, j):
        """The (i, j) entry as a Fraction, or None when it is irrational."""
        if self.raw[i, j] == 0:
            return Fraction(0)
        d = self.norms[i] * self.norms[j]
        r = isqrt(d)
        if r * r != d:
            return None
        return Fraction(self.raw[i, j], r)

    @cached_property
    def _float(self):
        """The symmetrized float matrix, formed once per instance."""
        scale = 1.0 / np.sqrt(np.array(self.norms, dtype=np.float64))
        f = ratmat.to_float(self.raw) * scale[:, None] * scale[None, :]
        return (f + f.T) / 2.0

    @cached_property
    def _spectrum(self):
        """The eigenvalues at the default tolerance, decomposed once per instance."""
        return tuple(ratmat.checked_eigenvalues(self._float, _EIGEN_TOL))

    def as_float(self):
        return self._float.copy()

    def scalar_identity(self):
        """(True, a) when the matrix is exactly a * I, else (False, None)."""
        v = self.dim
        diag = [Fraction(self.raw[i, i], self.norms[i]) for i in range(v)]
        off_zero = all(self.raw[i, j] == 0 for i in range(v) for j in range(v) if i != j)
        if off_zero and len(set(diag)) == 1:
            return True, diag[0]
        return False, None

    def equals_rational(self, expected):
        """Exact comparison against a rational matrix."""
        expected = ratmat.rational(expected)
        if expected.shape != self.raw.shape:
            return False
        for i in range(self.dim):
            for j in range(self.dim):
                e = self.entry_exact(i, j)
                if e is None or e != Fraction(expected[i, j]):
                    return False
        return True

    def eigenvalues(self, tol=_EIGEN_TOL):
        """Ascending eigenvalues (floating point), residual-checked by
        ``ratmat.checked_eigenvalues``."""
        if tol != _EIGEN_TOL:
            return ratmat.checked_eigenvalues(self._float, tol)
        return list(self._spectrum)

    def scaled(self, factor):
        """The same matrix multiplied by an exact rational factor."""
        factor = Fraction(factor)
        raw = self.raw * factor
        return ContrastMatrix(raw=ratmat.rational(raw), norms=self.norms, labels=self.labels)

    def entries_json(self):
        """Entries as strings: exact 'p/q' when rational, decimal otherwise."""
        out = []
        f = self._float
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                e = self.entry_exact(i, j)
                row.append(str(e) if e is not None else repr(float(f[i, j])))
            out.append(row)
        return out
