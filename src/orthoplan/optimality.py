"""Optimality diagnostics for blocked main-effect plans.

Covers the sufficient conditions for universal optimality (per-factor
level balance within blocks, pairwise orthogonality through the block
factor, scalar-plus-J form of the adjusted information), the E- and
A-values read off the contrast information matrix, and verification of
balanced incomplete block design parameters.

All pattern fits (a I + b J, a I) are one exact test, never least
squares: ``ContrastMatrix.scalar_identity``.  A factor's fit reads its
fully adjusted block H_A C_A H_A' of the contrast C-matrix the report
prints.  H_A 1 = 0 and C_A 1 = 0 (``orthogonality._contrast`` checks M's
rows), so C_A = a I + b J exactly when that block is a I; b = -a / s_A.
Only given plans are compared with each other here; class-wide
optimality certificates are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ratmat
from .contrasts import _EIGEN_TOL, ContrastMatrix
from .orthogonality import (_coupling, _fully_adjusted, _incidences, _slices,
                            contrast_c_matrix)
from .plan import BLOCK

__all__ = [
    "FactorConditions",
    "OptimalityLedger",
    "universal_ledger",
    "e_value",
    "a_value",
    "bibd_check",
]


@dataclass(frozen=True)
class FactorConditions:
    """Per-factor ledger entry for the three sufficient conditions."""

    factor: str
    count_pass: bool                 # every level t_j or t_j + 1 times per block
    block_counts: tuple              # per block: tuple of level counts
    t_floor: tuple                   # per block: floor(k_j / s_A)
    orth_pass: bool                  # orthogonal through block to every other factor
    scalar_pass: bool                # C_A = a I + b J exactly
    a: Fraction | None
    b: Fraction | None

    @property
    def passed(self):
        return self.count_pass and self.orth_pass and self.scalar_pass

    def to_json(self):
        return {
            "factor": self.factor,
            "count_condition": {
                "pass": self.count_pass,
                "per_block_counts": [list(c) for c in self.block_counts],
                "floor": list(self.t_floor),
            },
            "pairwise_orthogonality": {"pass": self.orth_pass},
            "scalar_form": {
                "pass": self.scalar_pass,
                "a": None if self.a is None else str(self.a),
                "b": None if self.b is None else str(self.b),
            },
            "pass": self.passed,
        }


@dataclass(frozen=True)
class OptimalityLedger:
    plan_name: str
    factors: tuple
    global_pass: bool
    global_a: Fraction | None
    spectrum: tuple                  # ascending eigenvalues of tilde-C

    @property
    def mu0(self):
        return self.spectrum[0]

    @property
    def mu1(self):
        return self.spectrum[min(1, len(self.spectrum) - 1)]

    def to_json(self):
        return {
            "plan": self.plan_name,
            "factors": [f.to_json() for f in self.factors],
            "global": {
                "pass": self.global_pass,
                "a": None if self.global_a is None else str(self.global_a),
            },
            "e_value": {"mu0": self.mu0, "mu1": self.mu1},
            "spectrum": list(self.spectrum),
        }


def universal_ledger(plan):
    """Assemble the full ledger: per-factor conditions, the global scalar
    identity, and the contrast spectrum, all read off one contrast
    C-matrix of X'(I - P_block)X."""
    if not plan.blocked:
        raise ValueError("the per-factor conditions are about blocked plans")
    return _ledger(plan, contrast_c_matrix(plan))


def _ledger(plan, c_con):
    """``universal_ledger`` read off the contrast C-matrix ``c_con`` of
    X'(I - P_block)X and its ``_coupling`` map; s_A is one more than the
    width of A's contrast column slice."""
    cols = _slices({f.name: f.levels - 1 for f in plan.factors})
    nbrs = _coupling(c_con.num, cols)
    adjusted = _fully_adjusted((c_con.num, c_con.d), cols, nbrs)
    n_of = _incidences(plan, (BLOCK,) + plan.factor_names)
    factors = []
    for a, own in cols.items():
        s_a = own.stop - own.start + 1
        floors = tuple(int(k) // s_a for k in plan.block_sizes)
        counts = tuple(map(tuple, n_of(a, BLOCK).T.tolist()))
        count_pass = all(c in (t, t + 1) for t, col in zip(floors, counts) for c in col)
        scalar_pass, fit_a = ContrastMatrix(*adjusted[a], c_con.norms[own]).scalar_identity()
        fit_b = None if fit_a is None else -fit_a / s_a
        factors.append(FactorConditions(factor=a, count_pass=count_pass,
                                        block_counts=counts, t_floor=floors,
                                        orth_pass=not nbrs[a], scalar_pass=scalar_pass,
                                        a=fit_a, b=fit_b))
    return OptimalityLedger(plan.name, tuple(factors), *c_con.scalar_identity(),
                            tuple(c_con.eigenvalues()))


def e_value(plan):
    """The second-smallest eigenvalue of the contrast C-matrix (equal to
    the smallest whenever that one is repeated or the dimension is 1)."""
    spectrum = contrast_c_matrix(plan).eigenvalues()
    return spectrum[min(1, len(spectrum) - 1)]


def a_value(plan):
    """Sum of reciprocal eigenvalues of the contrast C-matrix; smaller is
    better.  Raises on a singular spectrum (disconnected plan): one with an
    eigenvalue at or below ``contrasts._EIGEN_TOL``."""
    spectrum = contrast_c_matrix(plan).eigenvalues()
    if min(spectrum) <= _EIGEN_TOL:
        raise ValueError("contrast information is singular; no A-value")
    return float(sum(1.0 / x for x in spectrum))


def bibd_check(l_mat, v, b, r, k, lam):
    """True when the v x b incidence matrix has integer entries and all the
    balanced incomplete block design identities for (v, b, r, k, lambda):
    row sums r, column sums k, L L' = (r - lambda) I + lambda J, and the
    counting identities v r = b k and lambda (v - 1) = r (k - 1)."""
    l_mat = np.atleast_2d(np.asarray(l_mat, dtype=object))
    if l_mat.shape != (v, b):
        raise ValueError(f"incidence is {l_mat.shape}, expected {(v, b)}")
    if v * r != b * k or lam * (v - 1) != r * (k - 1):
        return False
    ints, scale = ratmat._scaled_ints(l_mat)
    want = (r - lam) * np.eye(v, dtype=object) + lam
    return bool(scale == 1 and (ints.sum(axis=1) == r).all() and (ints.sum(axis=0) == k).all()
                and (ints @ ints.T == want).all())
