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
read the contrast form of the integer pair, and the level-coordinate
ledger reads each C_A off M and then its contrast form, with its C_A 1 = 0
check, as the ledger did before it read the contrast C-matrix.  The
explicit Helmert rows and their orthonormal float form check the prefix
sums and norms the package applies instead.

The gram oracle counts X'X run by run, one pair of column indices at a
time, as ``plan.gram`` did before it was one bincount.  The design matrix
X_u, n x s with one unit entry per run, is built run by run; the package
never forms it, and reads X'X and X' off the runs' symbols instead.
``dumps`` joins the pieces of ``plan._dump`` into the whole JSON text, to
write plan files and to compare documents.

The translation oracle adds GF(p^k) labels digit by digit in base p,
symbol by symbol, as ``constructions.translate`` did before it read one
padded addition table; it never reads a field table.

The signed-seed oracle checks conditions (a)-(c) of Theorem 2orthPlan on
a seed array directly, pair of rows by pair of rows; ``constructions._potp``
checks only the theorem's conclusion, on the plan it returns.

The Gaussian-elimination oracle runs ordinary elimination over Fractions,
row by row, with the pivot rule of the package's fraction-free kernel, so
the two must pick the same pivots.

The package's elimination has one pivot order.  The ``*_reversed``
helpers give the invariance tests their second order: the same
elimination on the index-reversed system, with the result reversed back.
"""

from fractions import Fraction
from itertools import accumulate, combinations
from math import isqrt

import numpy as np

from orthoplan import contrasts, ratmat
from orthoplan.contrasts import congruence, helmert_norms
from orthoplan.errors import require
from orthoplan.gf import prime_power
from orthoplan.orthogonality import _coupling, _fully_adjusted, _information
from orthoplan.plan import _as_tuple, _dump, _symbols, gram, levels_of


def to_float(m):
    """A matrix of ints or Fractions as float64, entry by entry."""
    return np.array([[float(x) for x in row] for row in m], dtype=np.float64)


def design_matrix(plan, name):
    """n x s indicator matrix of a factor, or of GENERAL / BLOCK."""
    s = levels_of(plan, name)
    return np.array([[int(x == lvl) for lvl in range(s)] for x in _symbols(plan, name)],
                    dtype=object)


def dumps(doc):
    """``plan._dump``'s pieces joined: the whole JSON text of ``doc``."""
    pieces = []
    _dump(doc, pieces.append)
    return "".join(pieces)


def gram_oracle(plan, idents):
    """X'X of the stacked design matrices of ``idents``, counted in one pass
    over the runs: each run adds 1 at every pair of its column indices."""
    idents = _as_tuple(idents)
    *offsets, size = accumulate((levels_of(plan, u) for u in idents), initial=0)
    counts = [[0] * size for _ in range(size)]
    for symbols in zip(*(_symbols(plan, u) for u in idents)):
        hit = [o + x for o, x in zip(offsets, symbols)]
        for i in hit:
            row = counts[i]
            for j in hit:
                row[j] += 1
    return np.array(counts, dtype=object).reshape(size, size)


def helmert_raw(s):
    """Integer Helmert rows, (s-1) x s, pairwise orthogonal, zero row
    sums, as an object array of Python ints."""
    if s < 2:
        raise ValueError("need at least two levels")
    return np.array([[1] * j + [-j] + [0] * (s - 1 - j) for j in range(1, s)], dtype=object)


def orthonormal_contrasts(s):
    """The canonical orthonormal contrast basis as floats, (s-1) x s."""
    return to_float(helmert_raw(s)) / np.sqrt(np.array(helmert_norms(s)))[:, None]


def flip(m):
    """M with the order of its rows and of its columns reversed."""
    return m[::-1, ::-1]


def gauss_pivots(m):
    """The (original_row, column) pivots, in order, of ordinary Gaussian
    elimination of the matrix ``m`` over Fractions: columns left to right
    and, within a column, the first still-unused row from the top with a
    nonzero entry."""
    rows = [[Fraction(int(x)) for x in row] for row in m]
    free = list(range(len(rows)))
    pivots = []
    for c in range(m.shape[1]):
        pr = next((r for r in free if rows[r][c]), None)
        if pr is None:
            continue
        pivots.append((pr, c))
        free.remove(pr)
        for r in free:
            f = rows[r][c] / rows[pr][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
    return pivots


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
        raise ValueError(f"target {target} meets adjusting set {adjust}")
    y_col, s = ratmat._scaled_ints(np.array(y, dtype=object).reshape(len(y), 1))  # Y = y_col / s
    if len(y_col) != plan.n:
        raise ValueError(f"response length {len(y_col)} != {plan.n} runs")
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
    return ss_proj


class PerCallForm:
    """Stand-in for ``orthoplan.anova._ss_form`` that hands every response of
    an experiment to ``ss_adjusted_per_call``, and whose C = c / d is
    X_U'(I - P_T)X_U from ``orthogonality._information``, the route that
    is independent of the form's own Schur complement."""

    def __init__(self, plan, target, adjust_for=()):
        self.plan, self.target, self.adjust_for = plan, target, adjust_for
        self.c, self.d = _information(plan, target, target, adjust_for)

    def ss(self, y, s):
        ys = [Fraction(v, s) for v in y.flat]
        return ss_adjusted_per_call(self.plan, ys, self.target, self.adjust_for)


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


def level_ledger(info, cols):
    """({A: (scalar_pass, a, b)}, {A: C_A}) read off M = ``info`` as (num, d)
    with level column slices ``cols``: each C_A a Schur complement of M,
    checked to sum to zero by rows, then fitted by the scalar identity of
    its contrast form, with b = -a / s_A."""
    adjusted = _fully_adjusted(info, cols, _coupling(info[0], cols))
    fits = {}
    for a, (c_num, c_d) in adjusted.items():
        s_a = cols[a].stop - cols[a].start
        require(ratmat.is_zero(c_num.sum(axis=1)), f"C_{a} 1 = 0")
        ok, fit = congruence(c_num, c_d, [slice(0, s_a)]).scalar_identity()
        fits[a] = (ok, fit, None if fit is None else -fit / s_a)
    return fits, adjusted


def contrast_oracle(raw, norms):
    """(entries_json, eigenvalues, scalar_identity) of the contrast matrix
    with entries raw[i,j] / sqrt(n_i n_j), from the Fraction matrix ``raw``."""
    v = len(norms)
    scale = 1.0 / np.sqrt(np.array(norms, dtype=np.float64))
    f = to_float(raw) * scale[:, None] * scale[None, :]
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
    return entries, contrasts.checked_eigenvalues(f), identity


def translate_symbol(x, u, s):
    """x + u in GF(s) on labels: the base-p digits of x and u (least
    significant first) added mod p; the label s, the absorbing point of an
    (s+1)-level factor, maps to itself."""
    if x == s:
        return s
    p, k = prime_power(s)
    return sum(((x // p**i + u // p**i) % p) * p**i for i in range(k))


def translate_oracle(plan, vectors, s):
    """The runs of ``constructions.translate``: vector-major, then runs."""
    return tuple(tuple(translate_symbol(x, u, s) for x, u in zip(run, v))
                 for v in vectors for run in plan.runs)


def validate_signed_seed(p):
    """Conditions on a signed seed array over {0, 1, -1} with n columns:

    (a) the first row is zero;
    (b) entries of any two rows never differ by more than one;
    (c) for k in {1, -1} the count of columns with row_j - row_i = k is
        n/2 for the leading pair {0, 1} and n/4 for every other pair.
    """
    p = np.asarray(p)
    m, n = p.shape
    if n % 4 != 0:
        raise ValueError("seed array needs a column count divisible by 4")
    if p[0].any():
        raise ValueError("first seed row must be zero")
    if not np.isin(p, (-1, 0, 1)).all():
        raise ValueError("seed entries must lie in {0, 1, -1}")
    # (j, i) is the check of (i, j) with k = 1 and k = -1 swapped
    for i, j in combinations(range(m), 2):
        diff = p[j] - p[i]
        if np.abs(diff).max() > 1:
            raise ValueError(f"rows {i},{j}: difference leaves {{0,1,-1}}")
        want = n // 2 if (i, j) == (0, 1) else n // 4
        for k in (1, -1):
            got = int((diff == k).sum())
            if got != want:
                raise ValueError(
                    f"rows {i},{j}: difference {k} occurs {got} times, expected {want}")
    return True
