"""Linear-model simulation and adjusted sums of squares.

The SS of a factor set U adjusted for a set T is the squared length of
the projection of Y onto span(V), V = (I - P_T) X_U.  With
L = X_U' - N_UT G_T X_T' = V' and C = C_UU;T = V'V it is the g-inverse
form  Q' C^- Q  with  Q = L Y = X_U'Y - N_UT G_T X_T'Y,  evaluated on
every call with two g-inverses of C, which must agree exactly: the
second is that of C with its indices reversed, a second pivot order.

Everything that does not depend on Y (L, C and the two g-inverses of C)
is built once per (U, T) as integer matrices over one denominator, [C | L]
from one ``ratmat.schur_complement`` as every X_A'(I - P_T)X_B of the
package is, with V'V = C and each g-inverse checked over ints.  A
response is scaled once to integers over one denominator (binary floats
are rationals); a sum of squares is then one integer matrix-vector
product and two integer quadratic forms, so "SS fully adjusted = SS
adjusted for T" is a decidable identity instead of an almost-sure event.  The independent
projection route Y' V (V'V)^- V' Y is kept in the tests: the per-call
oracle ``tests/oracles.py`` ``ss_adjusted_per_call`` and the dense
projector of ``test_ss_invariant_across_runs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import ratmat
from .errors import LengthMismatch, NoBlocks, OverlappingSets, require
from .orthogonality import _information
from .plan import BLOCK, GENERAL, _as_tuple, design_matrix, gram, levels_of

__all__ = [
    "ModelSpec",
    "SSResult",
    "EquivalenceReport",
    "simulate",
    "ss_adjusted",
    "estssq_equivalence",
]


@dataclass(frozen=True)
class ModelSpec:
    """An additive main-effects model on a plan: general effect, one
    effect vector per named factor, optional block effects, and
    independent noise with standard deviation sigma."""

    plan: object
    effects: dict = field(default_factory=dict)
    block_effects: tuple | None = None
    general: object = 0
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, vec in self.effects.items():
            s = self.plan.factor(name).levels
            if len(vec) != s:
                raise LengthMismatch(f"effect vector for {name} has length "
                                     f"{len(vec)}, factor has {s} levels")
        if self.block_effects is not None:
            if not self.plan.blocked:
                raise NoBlocks("block effects on an unblocked plan")
            if len(self.block_effects) != self.plan.b:
                raise LengthMismatch(f"{len(self.block_effects)} block effects "
                                     f"for {self.plan.b} blocks")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


def simulate(model):
    """Response vector Y for the model.

    With sigma = 0 the exact mean response is returned (Fractions when
    the effects are rational).  Otherwise the mean is perturbed by
    sigma * z with z standard normal from ``default_rng(seed)``, making
    repeated calls byte-identical.
    """
    plan = model.plan
    mean = [Fraction(model.general)] * plan.n
    for name, vec in model.effects.items():
        col = plan.column(name)
        for u in range(plan.n):
            mean[u] += Fraction(vec[col[u]])
    if model.block_effects is not None:
        for u, j in enumerate(plan.block_labels()):
            mean[u] += Fraction(model.block_effects[j])
    if model.sigma == 0:
        return np.array(mean, dtype=object)
    rng = np.random.default_rng(model.seed)
    noise = rng.standard_normal(plan.n)
    return np.array([float(x) for x in mean]) + model.sigma * noise


@dataclass(frozen=True)
class SSResult:
    """An adjusted sum of squares, exact."""

    target: tuple
    adjust_for: tuple
    value: Fraction

    def __float__(self):
        return float(self.value)

    def to_json(self):
        return {
            "target": list(self.target),
            "adjust_for": list(self.adjust_for),
            "value": str(self.value),
            "value_float": float(self.value),
        }


def _response(plan, y):
    """The response Y as (y, s): an integer column y with Y = y / s, one
    denominator s for every entry (binary floats are rationals)."""
    rows, s = ratmat._scaled_ints([[v] for v in y])
    if len(rows) != plan.n:
        raise LengthMismatch(f"response length {len(rows)} != {plan.n} runs")
    return ratmat._object(rows, 1), s


def _quad(x, g, scale):
    """x' G x / scale for G = num / den given as the pair g = (num, den)."""
    num, den = g
    return Fraction((x.T @ num @ x)[0, 0], den * scale)


@dataclass(frozen=True)
class _SSForm:
    """Everything in SS_{U;T} that does not depend on the response, as
    integer matrices over the reduced denominator d of one Schur
    complement, [C | L] = [c | l] / d with C = C_UU;T and
    L = X_U' - N_UT G_T X_T', and the g-inverses g of c and g2 of c
    index-reversed (reversed back) as pairs (num, den), each checked over
    ints when it was built, as was L L' = C.  L is V' = ((I - P_T) X_U)',
    so Q' C^- Q is the projection Y' V (V'V)^- V' Y."""

    target: tuple
    adjust: tuple
    d: int
    l: np.ndarray
    c: np.ndarray
    g: tuple
    g2: tuple

    def ss(self, y, s):
        """SS_{U;T} of the response Y = y / s, ``y`` an integer column,
        from both g-inverses, required equal."""
        q = self.l @ y                       # Q = q / (d s)
        num, den = self.g
        require((self.c @ (num @ q) == den * q).all(),
                f"Q of {self.target} adjusted for {self.adjust} in the column space of C")
        # Q' C^- Q = q' c^- q / (d s^2), from both g-inverses
        ss_g = _quad(q, self.g, self.d * s * s)
        ss_g2 = _quad(q, self.g2, self.d * s * s)
        require(ss_g == ss_g2 >= 0,
                f"SS of {self.target} adjusted for {self.adjust}: routes agree")
        return ss_g


def _ss_form(plan, target, adjust_for=()):
    """The ``_SSForm`` of the factor set ``target`` adjusted for the set
    ``adjust_for``, from one gram matrix and one Schur complement:
    [C | L] = [N_UU | X_U'] - N_UT (X_T'X_T)^- [N_TU | X_T']."""
    target = _as_tuple(target)
    adjust = _as_tuple(adjust_for)
    if not target:
        raise ValueError("empty target set")
    if set(target) & set(adjust):
        raise OverlappingSets(f"target {target} meets adjusting set {adjust}")
    x = np.hstack([design_matrix(plan, u) for u in adjust + target])
    g = gram(plan, adjust + target)
    t = sum(levels_of(plan, u) for u in adjust)
    u = g.shape[0] - t
    cl, d = ratmat.schur_complement(np.hstack([g[t:, t:], x[:, t:].T]), g[t:, :t],
                                    g[:t, :t], np.hstack([g[:t, t:], x[:, :t].T]))
    c, l = cl[:, :u], cl[:, u:]
    # L = V', so the run-level L L' = V'V must be the gram-level C: l l' = d c
    require((l @ l.T == d * c).all(), f"V'V = C for {target} adjusted for {adjust}")
    g = ratmat._g_inverse(c)
    g2, den2 = ratmat._g_inverse(c[::-1, ::-1])
    return _SSForm(target=target, adjust=adjust, d=d, l=l, c=c, g=g, g2=(g2[::-1, ::-1], den2))


def ss_adjusted(plan, y, target, adjust_for=()):
    """SS of the factor set ``target`` adjusted for the set ``adjust_for``
    (identifiers may include the general effect and the block factor).

    The g-inverse form Q' C^- Q is evaluated with two g-inverses of C and
    required equal, making invariance to the g-inverse choice part of the
    result; the form's L is checked against C once, when it is built.
    """
    form = _ss_form(plan, target, adjust_for)
    return SSResult(target=form.target, adjust_for=form.adjust, value=form.ss(*_response(plan, y)))


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the SS-equivalence experiment for one factor: does
    adjusting for T alone reproduce the fully adjusted SS?

    The algebraic condition (the factor orthogonal through T to every
    other model term) is evaluated exactly; random rational responses
    then probe the SS identity itself.  The two must agree in both
    directions, which ``biconditional_observed`` records.
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


def estssq_equivalence(plan, a, adjust_for, trials=20, seed=0):
    """Test whether SS_{A;T} equals the fully adjusted SS of A.

    The necessary-and-sufficient condition is that A is orthogonal
    through T to every other term of the model (other treatment factors,
    the general effect, the block factor when present).  Each trial
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
        raise OverlappingSets(f"{a!r} cannot be adjusted for itself")
    plan.factor(a)
    others = [f for f in plan.factor_names if f != a and f not in adjust]
    if GENERAL not in adjust:
        others.append(GENERAL)
    if plan.blocked and BLOCK not in adjust:
        others.append(BLOCK)
    condition = ratmat.is_zero(_information(plan, a, others, adjust)[0])

    full = _ss_form(plan, a, adjust + tuple(others))
    part = _ss_form(plan, a, adjust)
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
