"""Oracles for the exact linear algebra.

The dense projectors build n x n matrices explicitly, which the package
never does, and serve only as independent references for its small-matrix
identities.  The per-call adjusted sum of squares redoes all of its
response-free algebra for every response, as the package did before it
built that algebra once per (target, adjusting set).  The one-stage Schur
complement eliminates everything else at once over Fractions, and the
contrast oracle reads a C-matrix off its Fraction congruence entry by
entry, as ``ContrastMatrix`` did before it kept an integer pair; the
scalar-plus-J fit reads a Fraction matrix, as the ledger did before it
fitted the integer pair.

The package's elimination has one pivot order.  The ``*_reversed``
helpers give the invariance tests their second order: the same
elimination on the index-reversed system, with the result reversed back.
"""

from fractions import Fraction
from math import isqrt

import numpy as np

from orthoplan import ratmat
from orthoplan.anova import SSResult
from orthoplan.errors import LengthMismatch, OverlappingSets, require
from orthoplan.plan import _as_tuple, design_matrix, gram, levels_of


def flip(m):
    """M with the order of its rows and of its columns reversed."""
    return m[::-1, ::-1]


def g_inverse_reversed(m):
    """``ratmat.g_inverse`` under the reverse pivot order."""
    return flip(ratmat.g_inverse(flip(m)))


def schur_reversed(corner, left, m, right):
    """``ratmat.schur_complement`` with M eliminated in the reverse pivot order."""
    return ratmat.schur_complement(corner, left[:, ::-1], flip(m), right[::-1])


def information_reversed(plan, a, b, through):
    """``orthogonality.adjusted_information`` with X_T'X_T eliminated in the
    reverse pivot order."""
    a, b, through = _as_tuple(a), _as_tuple(b), _as_tuple(through)
    t, u = (sum(levels_of(plan, x) for x in group) for group in (through, a))
    g = gram(plan, through + a + b)
    num, d = schur_reversed(g[t:t + u, t + u:], g[t:t + u, :t], g[:t, :t], g[:t, t + u:])
    return ratmat._over(num, d)


def is_idempotent(m):
    return bool((m @ m == m).all())


def projector(m, reverse=False):
    """Orthogonal projector onto the column space, P = M (M'M)^- M', with
    the g-inverse of M'M under the reverse pivot order when ``reverse``.

    Exact, and invariant to the g-inverse route (checked by tests).  A
    matrix with no columns projects onto {0}.
    """
    n = m.shape[0]
    if m.shape[1] == 0:
        return np.zeros((n, n), dtype=object)
    g = (g_inverse_reversed if reverse else ratmat.g_inverse)(m.T @ m)
    p = m @ g @ m.T
    assert (p == p.T).all() and is_idempotent(p)
    return p


def projector_decompose(u, v):
    """Residual projector P_Z with Z = (I - P_V) U, satisfying
    P_[U V] = P_V + P_Z.  The identity is asserted exactly."""
    pv = projector(v)
    z = u - pv @ u
    pz = projector(z)
    whole = projector(np.hstack([u, v]))
    assert (whole == pv + pz).all()
    return pz


def _form(x, m, scale, reverse=False):
    """x' M^- x / scale for x in the column space of M, both integer: minus
    the 1 x 1 Schur complement of M in [[0, x'], [x, M]], over ``scale``,
    with M eliminated in the reverse pivot order when ``reverse``."""
    schur = schur_reversed if reverse else ratmat.schur_complement
    num, den = schur(np.zeros((1, 1), dtype=object), x.T, m, x)
    return Fraction(-num[0, 0], den * scale)


def ss_adjusted_per_call(plan, y, target, adjust_for=()):
    """``orthoplan.ss_adjusted`` with one integer solve over X_T'X_T and three
    1 x 1 Schur complements for this response alone; both routes and both
    pivot orders are required equal."""
    target = _as_tuple(target)
    adjust = _as_tuple(adjust_for)
    if not target:
        raise ValueError("empty target set")
    if set(target) & set(adjust):
        raise OverlappingSets(f"target {target} meets adjusting set {adjust}")
    rows, s = ratmat._scaled_ints([[v] for v in y])
    if len(rows) != plan.n:
        raise LengthMismatch(f"response length {len(rows)} != {plan.n} runs")
    y_col = ratmat._object(rows, 1)    # Y = y_col / s
    x = np.hstack([design_matrix(plan, u) for u in adjust + target])
    g, xy = gram(plan, adjust + target), x.T @ y_col
    t = sum(levels_of(plan, u) for u in adjust)
    g_tt, n_ut, g_uu = g[:t, :t], g[t:, :t], g[t:, t:]
    z, d = ratmat._solve_scaled(g_tt, np.hstack([n_ut.T, xy[:t]]))
    z_n, z_y = z[:, :-1], z[:, -1:]
    q = d * xy[t:] - n_ut @ z_y              # Q = q / (d s)
    c = d * g_uu - n_ut @ z_n                # C = c / d
    v = d * x[:, t:] - x[:, :t] @ z_n        # V = v / d
    w = v.T @ y_col                          # V'Y = w / (d s)

    # projection route: Y'V (V'V)^- V'Y = w' (v'v)^- w / s^2
    ss_proj = _form(w, v.T @ v, s * s)
    # g-inverse route, under both pivoting orders: Q' C^- Q = q' c^- q / (d s^2)
    ss_g = _form(q, c, d * s * s)
    ss_g2 = _form(q, c, d * s * s, reverse=True)
    require(ss_proj == ss_g == ss_g2 >= 0, f"SS of {target} adjusted for {adjust}: routes agree")
    return SSResult(target=target, adjust_for=adjust, value=ss_proj)


class PerCallForm:
    """Stand-in for ``orthoplan.anova._ss_form`` that hands every response of
    an experiment to ``ss_adjusted_per_call``."""

    def __init__(self, plan, target, adjust_for=()):
        self.plan, self.target, self.adjust_for = plan, target, adjust_for

    def ss(self, y, s):
        ys = [Fraction(v, s) for v in y.flat]
        return ss_adjusted_per_call(self.plan, ys, self.target, self.adjust_for).value


def one_stage_schur(m, keep, drop):
    """M_kk - M_kd M_dd^- M_dk, exact, for index lists ``keep`` and ``drop``
    of the integer matrix M, with the ``Fraction`` g-inverse of M_dd."""
    m = np.asarray(m, dtype=object)
    return (m[np.ix_(keep, keep)]
            - m[np.ix_(keep, drop)] @ ratmat.g_inverse(m[np.ix_(drop, drop)]) @ m[np.ix_(drop, keep)])


def fit_scalar_plus_j(mat):
    """(True, a, b) when the Fraction matrix mat = a I + b J exactly, else
    (False, None, None)."""
    s = mat.shape[0]
    off = {Fraction(mat[i, j]) for i in range(s) for j in range(s) if i != j}
    diag = {Fraction(mat[i, i]) for i in range(s)}
    if len(diag) != 1 or len(off) > 1:
        return False, None, None
    b = off.pop() if off else Fraction(0)
    return True, diag.pop() - b, b


def contrast_oracle(raw, norms):
    """(entries_json, eigenvalues, scalar_identity) of the contrast matrix
    with entries raw[i,j] / sqrt(n_i n_j), from the Fraction matrix ``raw``."""
    v = len(norms)
    scale = 1.0 / np.sqrt(np.array(norms, dtype=np.float64))
    f = ratmat.to_float(raw) * scale[:, None] * scale[None, :]
    f = (f + f.T) / 2.0
    entries = []
    for i in range(v):
        row = []
        for j in range(v):
            nn = norms[i] * norms[j]
            exact = raw[i, j] == 0 or isqrt(nn) ** 2 == nn
            row.append(str(Fraction(raw[i, j], isqrt(nn))) if exact else repr(float(f[i, j])))
        entries.append(row)
    diag = [Fraction(raw[i, i], norms[i]) for i in range(v)]
    off_zero = all(raw[i, j] == 0 for i in range(v) for j in range(v) if i != j)
    identity = (True, diag[0]) if off_zero and len(set(diag)) == 1 else (False, None)
    return entries, ratmat.checked_eigenvalues(f), identity
