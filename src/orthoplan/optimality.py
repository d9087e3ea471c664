"""Optimality diagnostics for blocked main-effect plans.

Covers the sufficient conditions for universal optimality (per-factor
level balance within blocks, pairwise orthogonality through the block
factor, scalar-plus-J form of the adjusted information), the E- and
A-values read off the contrast information matrix, and verification of
balanced incomplete block design parameters.

All pattern fits (a I + b J, a I) are exact rational comparisons, never
least squares.  Only given plans are compared with each other here;
class-wide optimality certificates are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ratmat
from .errors import NoBlocks, ShapeMismatch
from .orthogonality import (_columns, _contrast, _factor_information, _fully_adjusted,
                            _incidences, contrast_c_matrix)
from .plan import BLOCK

__all__ = [
    "FactorConditions",
    "OptimalityLedger",
    "check_universal_factor",
    "check_universal_global",
    "universal_ledger",
    "contrast_spectrum",
    "e_value",
    "a_value",
    "bibd_check",
]


def _fit_scalar_plus_j(num, d):
    """(True, a, b) when num / d = a I + b J exactly, for a square integer
    ``num`` and an int d > 0, else (False, None, None); a and b are the
    only Fractions made."""
    off = set(num[~np.eye(len(num), dtype=bool)])
    diag = set(num.diagonal())
    if len(diag) != 1 or len(off) > 1:
        return False, None, None
    b = off.pop() if off else 0
    return True, Fraction(diag.pop() - b, d), Fraction(b, d)


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


def _factor_conditions(plan, a, l_a, info, c_a):
    """The three per-factor conditions: the count condition read off the
    level-by-block counts ``l_a``, the other two off ``info`` = (num, d) and
    the factor's fully adjusted information ``c_a`` = (num, d)."""
    s = plan.factor(a).levels
    floors = tuple(int(k) // s for k in plan.block_sizes)
    counts = tuple(tuple(int(x) for x in l_a[:, j]) for j in range(plan.b))
    count_pass = all(
        c in (t, t + 1) for t, col in zip(floors, counts) for c in col)
    own = _columns(plan, plan.factor_names)[a]
    num, _ = info
    orth_pass = ratmat.is_zero(num[own, :own.start]) and ratmat.is_zero(num[own, own.stop:])
    scalar_pass, fit_a, fit_b = _fit_scalar_plus_j(*c_a)
    return FactorConditions(factor=a, count_pass=count_pass,
                            block_counts=counts, t_floor=floors,
                            orth_pass=orth_pass, scalar_pass=scalar_pass,
                            a=fit_a, b=fit_b)


def check_universal_factor(plan, a):
    """Evaluate the three per-factor conditions on a blocked plan.

    Jointly they certify the factor's universal optimality in the class
    of plans with the same block profile (consistency check against the
    construction claims; no class-wide search is performed).
    """
    factors = universal_ledger(plan).factors
    return factors[plan.factor_names.index(plan.factor(a).name)]


def check_universal_global(plan):
    """(True, a) when the full contrast C-matrix is exactly a I, with the
    contrast rows normalized to unit length; else (False, None)."""
    if not plan.blocked:
        raise NoBlocks("the global condition is about blocked plans")
    return contrast_c_matrix(plan).scalar_identity()


def universal_ledger(plan):
    """Assemble the full ledger: per-factor conditions, the global scalar
    identity, and the contrast spectrum, all read off one matrix
    X'(I - P_block)X."""
    if not plan.blocked:
        raise NoBlocks("the per-factor conditions are about blocked plans")
    info = _factor_information(plan)
    return _ledger(plan, info, _contrast(plan, info))


def _ledger(plan, info, c_con):
    """``universal_ledger`` read off ``info`` = X'(I - P_block)X as (num, d)
    and its contrast C-matrix ``c_con``."""
    names = plan.factor_names
    adjusted = _fully_adjusted(plan, info)
    n_of = _incidences(plan, (BLOCK,) + names)
    factors = tuple(_factor_conditions(plan, f, n_of(f, BLOCK), info, adjusted[f])
                    for f in names)
    global_pass, global_a = c_con.scalar_identity()
    spectrum = tuple(c_con.eigenvalues())
    return OptimalityLedger(plan_name=plan.name, factors=factors,
                            global_pass=global_pass, global_a=global_a,
                            spectrum=spectrum)


def contrast_spectrum(plan):
    """Ascending eigenvalues of the contrast C-matrix (unit-norm rows)."""
    return contrast_c_matrix(plan).eigenvalues()


def e_value(plan):
    """The second-smallest eigenvalue of the contrast C-matrix (equal to
    the smallest whenever that one is repeated or the dimension is 1)."""
    spectrum = contrast_spectrum(plan)
    return spectrum[min(1, len(spectrum) - 1)]


def a_value(plan):
    """Sum of reciprocal eigenvalues of the contrast C-matrix; smaller is
    better.  Raises on a singular spectrum (disconnected plan): one with an
    eigenvalue at or below ``ratmat._EIGEN_TOL``."""
    spectrum = contrast_spectrum(plan)
    if min(spectrum) <= ratmat._EIGEN_TOL:
        raise ValueError("contrast information is singular; no A-value")
    return float(sum(1.0 / x for x in spectrum))


def bibd_check(l_mat, v, b, r, k, lam):
    """True when the v x b incidence matrix has integer entries and all the
    balanced incomplete block design identities for (v, b, r, k, lambda):
    row sums r, column sums k, L L' = (r - lambda) I + lambda J, and the
    counting identities v r = b k and lambda (v - 1) = r (k - 1)."""
    l_mat = np.atleast_2d(np.asarray(l_mat, dtype=object))
    if l_mat.shape != (v, b):
        raise ShapeMismatch(f"incidence is {l_mat.shape}, expected {(v, b)}")
    if v * r != b * k or lam * (v - 1) != r * (k - 1):
        return False
    rows, scale = ratmat._scaled_ints(l_mat)
    ints = ratmat._object(rows, b)
    want = (r - lam) * np.eye(v, dtype=object) + lam
    return bool(scale == 1 and (ints.sum(axis=1) == r).all() and (ints.sum(axis=0) == k).all()
                and (ints @ ints.T == want).all())
