"""Adjusted sums of squares and the SS-equivalence experiment.

The SS of a factor set U adjusted for a set T is the squared length of
the projection of Y onto span(V), V = (I - P_T) X_U.  With
L = X_U' - N_UT G_T X_T' = V' and C = C_UU;T = V'V it is the g-inverse
form  Q' C^- Q  with  Q = L Y = X_U'Y - N_UT G_T X_T'Y.

Everything that does not depend on Y (L, C and one g-inverse G of C) is
built once per (U, T) as integer matrices over one denominator: [C | L]
is the Schur complement, by ``ratmat.schur_complement``, of the T block
of the stacked [X'X | X'] over T then U, whose X' is read off the runs'
symbols (the per-call oracle test checks C against ``orthogonality``'s
route), with L L' = C and G checked over ints.  Those two checks decide
every response: Q = L Y lies in col(L) = col(L L') = col(C), where Q' G Q
is the same for every g-inverse G (Rao & Mitra 1971).  A response is
scaled once to integers over one denominator (binary floats are
rationals); a sum of squares is then one integer matrix-vector product
and one integer quadratic form, so "SS fully adjusted = SS adjusted for
T" is a decidable identity instead of an almost-sure event.  The
independent routes are kept in the tests: the per-call oracle
``tests/oracles.py`` ``ss_adjusted_per_call`` (the projection route and
both pivot orders) and the dense projector of ``test_ss_invariant_across_runs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ratmat
from .errors import require
from .plan import BLOCK, GENERAL, _as_tuple, _symbols, gram, levels_of

__all__ = [
    "EquivalenceReport",
    "ss_adjusted",
    "estssq_equivalence",
]


def _response(plan, y):
    """The response Y as (y, s): an integer column y with Y = y / s, one
    denominator s for every entry (binary floats are rationals)."""
    y_col, s = ratmat._scaled_ints(np.array(y, dtype=object).reshape(len(y), 1))
    if len(y_col) != plan.n:
        raise ValueError(f"response length {len(y_col)} != {plan.n} runs")
    return y_col, s


@dataclass(frozen=True)
class _SSForm:
    """Everything in SS_{U;T} that does not depend on the response, as
    integer matrices over the reduced denominator d of one Schur
    complement, [C | L] = [c | l] / d with C = C_UU;T and
    L = X_U' - N_UT G_T X_T', and one g-inverse g of c as the pair
    (num, den), checked over ints when it was built, as was L L' = C.  So
    every Q = L Y lies in col(C), where Q' C^- Q, the projection
    Y' V (V'V)^- V' Y, is the same for every g-inverse of C."""

    d: int
    l: np.ndarray
    c: np.ndarray
    g: tuple

    def ss(self, y, s):
        """SS_{U;T} of the response Y = y / s, ``y`` an integer column."""
        q = self.l @ y                       # Q = q / (d s)
        num, den = self.g                    # Q' C^- Q = q' c^- q / (d s^2)
        return Fraction((q.T @ num @ q)[0, 0], den * self.d * s * s)


def _ss_form(plan, target, adjust_for=()):
    """The ``_SSForm`` of the factor set ``target`` adjusted for the set
    ``adjust_for``, from one stacked [X'X | X'] over T then U and one Schur
    complement of its slices:
    [C | L] = [N_UU | X_U'] - N_UT (X_T'X_T)^- [N_TU | X_T']."""
    target = _as_tuple(target)
    adjust = _as_tuple(adjust_for)
    if not target:
        raise ValueError("empty target set")
    if set(target) & set(adjust):
        raise ValueError(f"target {target} meets adjusting set {adjust}")
    idents = adjust + target
    # X' of each identifier: the column of a run with symbol x is column x of I
    xt = np.vstack([np.eye(levels_of(plan, w), dtype=object)[:, list(_symbols(plan, w))]
                    for w in idents])
    gx = np.hstack([gram(plan, idents), xt])                    # [X'X | X']
    t = sum(levels_of(plan, w) for w in adjust)
    u = xt.shape[0] - t
    cl, d = ratmat.schur_complement(gx[t:, t:], gx[t:, :t], gx[:t, :t], gx[:t, t:])
    c, l = cl[:, :u], cl[:, u:]
    # L = V', so the run-level L L' = V'V must be the gram-level C: l l' = d c
    require((l @ l.T == d * c).all(), f"V'V = C for {target} adjusted for {adjust}")
    return _SSForm(d=d, l=l, c=c, g=ratmat._g_inverse(c))


def ss_adjusted(plan, y, target, adjust_for=()):
    """SS of the factor set ``target`` adjusted for the set ``adjust_for``
    (identifiers may include the general effect and the block factor).

    The g-inverse form Q' C^- Q is evaluated with one checked g-inverse of
    C: L L' = C, checked when the form is built, puts Q = L Y in col(C),
    where the form does not depend on the g-inverse chosen.  Returns the
    exact ``Fraction``.
    """
    return _ss_form(plan, target, adjust_for).ss(*_response(plan, y))


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the SS-equivalence experiment for one factor: does
    adjusting for T alone reproduce the fully adjusted SS?

    The algebraic condition (the factor orthogonal through T to every
    other model term) is decided exactly, as C_{A;T u O} = C_{A;T} on the
    C of the two SS forms; random rational responses then probe the SS
    identity itself.  The two must agree in both directions, which
    ``biconditional_observed`` records.
    """

    plan_name: str
    factor: str
    adjust_for: tuple
    condition_holds: bool
    checked_against: tuple
    trials: int
    equal_trials: int
    first_trial: dict
    witness: dict | None

    @property
    def all_equal(self):
        return self.equal_trials == self.trials

    @property
    def biconditional_observed(self):
        return self.condition_holds == self.all_equal

    def to_json(self):
        return {
            "plan": self.plan_name,
            "factor": self.factor,
            "adjust_for": list(self.adjust_for),
            "condition": {
                "holds": self.condition_holds,
                "checked_against": list(self.checked_against),
            },
            "trials": {
                "count": self.trials,
                "equal": self.equal_trials,
                "all_equal": self.all_equal,
            },
            "first_trial": self.first_trial,
            "witness": self.witness,
            "biconditional_observed": self.biconditional_observed,
        }


def estssq_equivalence(plan, a, adjust_for, *, trials, seed):
    """Test whether SS_{A;T} equals the fully adjusted SS of A.

    The necessary-and-sufficient condition is that A is orthogonal
    through T to every other term O of the model (other treatment
    factors, the general effect, the block factor when present):
    N = X_A'(I - P_T)X_O = 0.  As C_{A;T u O} = C_{A;T} - N C_{O;T}^- N'
    and N C_{O;T}^- N' = 0 only when N = 0, it is decided exactly by
    comparing the C of the two forms the trials use.  Each trial
    draws a small-integer response so both sums of squares are exact;
    when the condition fails the differing response is recorded as a
    witness.  Raises ValueError unless ``trials`` is at least 1 and
    ``seed`` is non-negative.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    adjust = _as_tuple(adjust_for)
    if a in adjust:
        raise ValueError(f"{a!r} cannot be adjusted for itself")
    plan.factor(a)
    others = [f for f in plan.factor_names if f != a and f not in adjust]
    if GENERAL not in adjust:
        others.append(GENERAL)
    if plan.blocked and BLOCK not in adjust:
        others.append(BLOCK)
    full = _ss_form(plan, a, adjust + tuple(others))
    part = _ss_form(plan, a, adjust)
    condition = bool((full.c * part.d == part.c * full.d).all())
    equal = 0
    witness = None
    first = None
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        y = [int(v) for v in rng.integers(-9, 10, size=plan.n)]
        response = _response(plan, y)
        ss_full, ss_t = full.ss(*response), part.ss(*response)
        if t == 0:
            first = {"ss_fully_adjusted": str(ss_full), "ss_adjusted": str(ss_t)}
        if ss_full == ss_t:
            equal += 1
        elif witness is None:
            witness = {"trial": t, "y": [str(v) for v in y],
                       "ss_fully_adjusted": str(ss_full), "ss_adjusted": str(ss_t)}
    return EquivalenceReport(plan_name=plan.name, factor=a, adjust_for=adjust,
                             condition_holds=condition,
                             checked_against=tuple(others), trials=trials,
                             equal_trials=equal, first_trial=first,
                             witness=witness)
