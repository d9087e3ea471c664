"""Plan constructions: seed plans, orbit translation, the signed-seed
expansion for plans orthogonal through a factor pair, and the
block-multiplying product of a plan with a zero-row orthogonal array.

Every built family's private ``_family(...)`` re-verifies its output
with the exact checkers and returns (plan, report); the public
``construct_family(...)`` is ``_family(...)[0]``.  Nothing below relies on
a claimed property that is not recomputed on the concrete output.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from .arrays import OrthogonalArray, hadamard, hadamard_to_oa, oa_rao_hamming, q_extend
from .errors import (
    BadCongruence,
    DimensionMismatch,
    SymbolMismatch,
    UnsupportedOrder,
    require,
)
from .gf import field_new, square_classes
from .optimality import bibd_check
from .orthogonality import _incidences, is_potb, is_potp
from .plan import BLOCK, MAX_GRAM_SIZE, Factor, Plan

__all__ = [
    "seed_plans",
    "seed_potp_34",
    "seed_potb_27",
    "seed_ico_26",
    "seed_potb_33",
    "translate",
    "orbit",
    "c0_expand",
    "validate_signed_seed",
    "construct_potp",
    "power_plan",
    "diamond",
    "construct_potb2",
    "construct_potb3",
    "construct_asym",
    "asym_report",
]


# ---------------------------------------------------------------------------
# seed plans (rows are factors, columns are runs)

def _plan_from_rows(name, factor_names, levels, rows, block_sizes=None):
    runs = tuple(zip(*rows))
    factors = tuple(Factor(nm, lv) for nm, lv in zip(factor_names, levels))
    return Plan(name=name, factors=factors, runs=runs, block_sizes=block_sizes)


def seed_potp_34():
    """Four three-level factors in 12 runs, no blocks; factors A3, A4 (and
    every other pair avoiding {A1, A2}) are orthogonal through {A1, A2}."""
    rows = [
        [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2],
        [1, 1, 2, 2, 2, 2, 0, 0, 0, 0, 1, 1],
        [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2],
        [0, 1, 0, 2, 1, 2, 1, 0, 2, 0, 2, 1],
    ]
    return _plan_from_rows("potp_3_4", ["A1", "A2", "A3", "A4"], [3] * 4, rows)


def seed_potb_27():
    """Seven two-level factors in two blocks of five; orthogonal through
    the block factor, with contrast C-matrix 4 I_7.  The second block
    deliberately repeats one run."""
    rows = [
        [0, 0, 1, 1, 0, 0, 1, 1, 1, 1],
        [0, 1, 0, 1, 0, 1, 0, 1, 1, 1],
        [0, 1, 1, 0, 0, 1, 1, 0, 1, 1],
        [0, 0, 1, 1, 1, 1, 0, 0, 0, 0],
        [0, 1, 0, 1, 1, 0, 1, 0, 0, 0],
        [0, 1, 1, 0, 1, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 1, 1],
    ]
    names = [f"A{i}" for i in range(1, 8)]
    return _plan_from_rows("potb_2_7", names, [2] * 7, rows, block_sizes=(5, 5))


def seed_ico_26():
    """Six two-level factors in two blocks of five, split into two classes
    {A1,B1,C1} / {A2,B2,C2}: cross-class pairs are orthogonal through the
    block factor, within-class pairs are not."""
    rows = [
        [0, 0, 1, 1, 0, 0, 0, 1, 1, 0],
        [0, 1, 0, 1, 0, 0, 1, 0, 1, 0],
        [0, 1, 1, 0, 0, 0, 1, 1, 0, 0],
        [0, 0, 1, 1, 0, 1, 1, 0, 0, 1],
        [0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
        [0, 1, 1, 0, 0, 1, 0, 0, 1, 1],
    ]
    names = ["A1", "B1", "C1", "A2", "B2", "C2"]
    return _plan_from_rows("ico_2_6", names, [2] * 6, rows, block_sizes=(5, 5))


def seed_potb_33():
    """Three three-level factors in blocks of sizes 4, 4, 2; orthogonal
    through the block factor and universally optimal in its class."""
    rows = [
        [0, 0, 1, 2, 0, 0, 1, 2, 1, 2],
        [0, 1, 0, 2, 2, 0, 1, 0, 2, 1],
        [0, 1, 2, 0, 2, 0, 0, 1, 1, 2],
    ]
    return _plan_from_rows("potb_3_3", ["A1", "A2", "A3"], [3] * 3, rows,
                           block_sizes=(4, 4, 2))


def seed_plans():
    """All built-in seed plans, keyed by name."""
    plans = [seed_potp_34(), seed_potb_27(), seed_ico_26(), seed_potb_33()]
    return {p.name: p for p in plans}


# ---------------------------------------------------------------------------
# translation orbits

def _translate_symbol(x, u, field, levels):
    if levels == field.order:
        return field.add(x, u)
    if levels == field.order + 1:
        # the extra top label is the absorbing point at infinity
        return x if x == field.order else field.add(x, u)
    raise SymbolMismatch(
        f"factor with {levels} levels incompatible with field of order {field.order}")


def translate(plan, vectors, field, name=None):
    """Replace the runs by {x + v : x run, v in vectors}, coordinatewise in
    the field (an absorbing extra level is allowed, see construct_asym).

    The block structure is replicated once per translation vector, in the
    order given: the result has b * len(vectors) blocks.
    """
    vectors = [tuple(int(x) for x in v) for v in vectors]
    for v in vectors:
        if len(v) != plan.m:
            raise DimensionMismatch(f"vector {v} has {len(v)} coordinates, plan has {plan.m}")
        if any(not 0 <= x < field.order for x in v):
            raise SymbolMismatch(f"translation amounts must be field labels: {v}")
    runs = []
    for v in vectors:
        for run in plan.runs:
            runs.append(tuple(
                _translate_symbol(x, u, field, f.levels)
                for x, u, f in zip(run, v, plan.factors)))
    blocks = plan.block_sizes * len(vectors) if plan.blocked else None
    return Plan(name=name or f"{plan.name}_t{len(vectors)}",
                factors=plan.factors, runs=tuple(runs), block_sizes=blocks)


def orbit(plan, field, name=None):
    """Translate by all constant vectors u * 1, u in the field."""
    vectors = [(u,) * plan.m for u in field.elements]
    return translate(plan, vectors, field, name=name)


def c0_expand(array, field):
    """Columns {c * P : c in C0}, nonzero squares ascending, each scaled
    copy keeping the original column order."""
    sq = square_classes(field)
    array = np.asarray(array)
    blocks = []
    for c in sq.c0:
        blocks.append(np.vectorize(lambda x, c=c: field.mul(c, x))(array))
    return np.hstack(blocks)


# ---------------------------------------------------------------------------
# plans orthogonal through a pair of factors

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
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            diff = p[j] - p[i]
            if np.abs(diff).max() > 1:
                raise ValueError(f"rows {i},{j}: difference leaves {{0,1,-1}}")
            want = n // 2 if {i, j} == {0, 1} else n // 4
            for k in (1, -1):
                got = int((diff == k).sum())
                if got != want:
                    raise ValueError(
                        f"rows {i},{j}: difference {k} occurs {got} times, expected {want}")
    return True


def _signed_seed(h):
    """The 2h x 2h signed seed array built from a normalized Hadamard
    matrix: a zero row, a (+1/-1)-split row, and two half-mapped copies of
    the trimmed matrix."""
    hm = hadamard(h)
    core = hm[1:]                      # (h-1) x h, entries +-1
    up = (core + 1) // 2               # +1 -> 1, -1 -> 0
    down = (core - 1) // 2             # +1 -> 0, -1 -> -1
    left = np.vstack([np.zeros((1, h), dtype=np.int64),
                      np.ones((1, h), dtype=np.int64), up, up])
    right = np.vstack([np.zeros((1, h), dtype=np.int64),
                       -np.ones((1, h), dtype=np.int64), -up, down])
    return np.hstack([left, right])


def construct_potp(h, s):
    """Plan for 2h factors at s levels, s a prime power = 3 (mod 4), on
    h s (s-1) runs, orthogonal through its first two factors.

    Built by expanding the signed seed array by the nonzero squares and
    then by the full translation orbit.  The pairwise incidence pattern
    (a multiple of J - I for the leading pair, of (s-2) I + J otherwise)
    and the orthogonality claim are re-verified exactly on the output.
    """
    return _potp(h, s)[0]


def _refuse_gram_size(what, size):
    """UnsupportedOrder for a family whose gram size (levels + blocks + 1)
    exceeds ``MAX_GRAM_SIZE``, raised before anything is built."""
    if size > MAX_GRAM_SIZE:
        raise UnsupportedOrder(f"{what}: gram size {size} exceeds the limit {MAX_GRAM_SIZE}")


def _potp(h, s):
    """``construct_potp(h, s)`` and its verified ``is_potp`` report through
    the first two factors, as (plan, report)."""
    _refuse_gram_size(f"potp h={h} s={s}", 2 * h * s + 1)
    field = field_new(s)
    if s % 4 != 3:
        raise BadCongruence(f"s = {s} fails s = 3 (mod 4)")
    if h % 4 != 0:
        raise UnsupportedOrder(f"seed needs a Hadamard order divisible by 4, got {h}")
    seed = _signed_seed(h)
    validate_signed_seed(seed)
    labels = np.where(seed >= 0, seed, field.neg(1))
    expanded = c0_expand(labels, field)
    m = 2 * h
    factors = tuple(Factor(f"A{i}", s) for i in range(1, m + 1))
    base = Plan(name=f"potp_{s}_{m}", factors=factors,
                runs=tuple(zip(*expanded.tolist())))
    plan = orbit(base, field, name=f"potp_{s}_{m}")

    c = h // 2                        # c = 2h / 4, an integer as 4 divides h
    eye = np.eye(s, dtype=object)
    jay = np.ones((s, s), dtype=object)
    lead = 2 * c * (jay - eye)
    other = c * ((s - 2) * eye + jay)
    names = plan.factor_names
    what = f"potp h={h} s={s}"
    n_of = _incidences(plan, names)
    for i in range(m):
        for j in range(i + 1, m):
            want = lead if (i, j) == (0, 1) else other
            require((n_of(names[i], names[j]) == want).all(),
                    f"{what}: incidence pattern at {names[i]},{names[j]}")
    report = is_potp(plan, (names[0], names[1]))
    require(report.passed, f"{what}: pairs orthogonal through {names[0]},{names[1]}")
    return plan, report


# ---------------------------------------------------------------------------
# block-multiplying product with a zero-row orthogonal array

def power_plan(plan, t):
    """Juxtapose each run with itself t times: m*t factors named
    <name>_1 .. <name>_t, same runs and blocks."""
    if t < 1:
        raise ValueError("power needs t >= 1")
    if t == 1:
        return plan
    factors = []
    for i in range(1, t + 1):
        factors.extend(Factor(f"{f.name}_{i}", f.levels) for f in plan.factors)
    runs = tuple(run * t for run in plan.runs)
    return Plan(name=f"{plan.name}^{t}", factors=tuple(factors), runs=runs,
                block_sizes=plan.block_sizes)


def diamond(q, plan0, field, name=None):
    """Product of a zero-row array Q (m rows, N columns) with a plan:
    the m-th power of the plan, translated by one vector per column of Q,
    the vector repeating q[i, col] across the i-th copy's factors.

    The copy aligned with the zero row is never translated, so the result
    contains the power plan itself; blocks multiply to b * N.
    """
    if not isinstance(q, OrthogonalArray) or not q.zero_row:
        raise ValueError("diamond needs a zero-row orthogonal array")
    if q.symbols != field.order:
        raise SymbolMismatch(f"array symbols {q.symbols} != field order {field.order}")
    for f in plan0.factors:
        if f.levels != field.order:
            raise SymbolMismatch(f"factor {f.name} has {f.levels} levels, field wants {field.order}")
    pw = power_plan(plan0, q.rows)
    vectors = []
    for col in range(q.columns):
        vec = []
        for row in range(q.rows):
            vec.extend([int(q.grid[row, col])] * plan0.m)
        vectors.append(tuple(vec))
    return translate(pw, vectors, field,
                     name=name or f"{plan0.name}_x{q.columns}")


def _q_array_two_level(h):
    """Zero-row two-symbol translation array with h rows and h columns."""
    if h == 2:
        grid = np.array([[0, 0], [0, 1]], dtype=np.int64)
        return OrthogonalArray(grid=grid, symbols=2, zero_row=True)
    return q_extend(hadamard_to_oa(hadamard(h)))


def construct_potb2(h):
    """Plan for 7h two-level factors in 2h blocks of five, orthogonal
    through the block factor, with contrast C-matrix 4h * I.

    The two-level seed plan is multiplied by the h-row zero-row array
    derived from a Hadamard matrix of order h (h = 2 or a multiple of 4).
    """
    return _potb2(h)[0]


def _potb2(h):
    """``construct_potb2(h)`` and its verified ``is_potb`` report, as (plan, report)."""
    _refuse_gram_size(f"potb2 h={h}", 16 * h + 1)
    return _product(seed_potb_27(), _q_array_two_level(h), f"potb2 h={h}", 4 * h)


def construct_potb3():
    """Plan for 15 three-level factors in 27 blocks (sizes 4,4,2 repeated),
    orthogonal through the block factor, contrast C-matrix 3 * 9 * I.

    Uses the nine-column strength-2 array over GF(3) extended by a zero
    row (five rows total), so the seed is translated nine times.
    """
    return _potb3()[0]


def _potb3():
    """``construct_potb3()`` and its verified ``is_potb`` report, as (plan, report)."""
    return _product(seed_potb_33(), q_extend(oa_rao_hamming(field_new(3))), "potb3", 27)


def _product(seed, q, what, scalar):
    """``diamond(q, seed)`` and the ``is_potb`` report that verified it, as
    (plan, report): the shape its inputs give, every pair orthogonal through
    the block factor, and the contrast C-matrix ``scalar * I``."""
    m, block_sizes = seed.m * q.rows, seed.block_sizes * q.columns
    plan = diamond(q, seed, field_new(q.symbols), name=f"potb_{q.symbols}_{m}")
    require(plan.m == m and plan.block_sizes == block_sizes,
            f"{what}: {m} factors in {len(block_sizes)} blocks")
    report = is_potb(plan)
    require(report.passed, f"{what}: pairs orthogonal through block")
    require(report.c_matrix.scalar_identity() == (True, scalar),
            f"{what}: contrast C-matrix = {scalar} I")
    return plan, report


# ---------------------------------------------------------------------------
# the asymmetric s^t x (s+1) family

def construct_asym(s):
    """Plan on s(s+1) runs in 2s blocks of size (s+1)/2, for t = (s-1)/2
    factors at s levels (indexed by the nonzero squares) plus one factor
    at s+1 levels whose top label is an absorbing point.

    Each s-level factor against each other one is orthogonal through the
    block factor; against the extended factor the proportional frequency
    condition holds instead (the strict blocked identity fails, which the
    pair report of the checkers makes visible).  Both level-by-block
    incidence matrices are balanced incomplete block designs.  Like
    ``construct_potb2``, it pays for the ``asym_report`` that verifies it.
    """
    return _asym(s)[0]


def _asym(s):
    """``construct_asym(s)`` and its verified ``asym_report``, as (plan, report)."""
    field = field_new(s)
    sq = square_classes(field)       # raises EvenCharacteristic for 2^k
    if s % 4 == 1:
        warnings.warn(f"s = {s}: orthogonality claims for this family are "
                      "only established for s = 3 (mod 4)")
    t = (s - 1) // 2
    c0 = list(sq.c0)
    alpha = min(sq.c1)
    inf = s                           # absorbing label of the extended factor
    index = c0 + [inf]                # rows and columns of the two arrays

    def entry(level, x, y):
        if x != inf and y != inf:
            return field.mul(field.pow(alpha, level), field.mul(x, y))
        if x != inf and y == inf:
            return 0
        if x == inf and y != inf:
            return field.mul(field.pow(alpha, level + 1), y)
        return 0 if level == 0 else inf

    blocks = []
    for level in (0, 1):
        blocks.append([tuple(entry(level, x, y) for x in index) for y in index])
    factors = tuple([Factor(f"x{c}", s) for c in c0] + [Factor("inf", s + 1)])
    base = Plan(name=f"asym_{s}", factors=factors,
                runs=tuple(blocks[0] + blocks[1]), block_sizes=(t + 1, t + 1))
    plan = orbit(base, field, name=f"asym_{s}")
    _verify_asym(plan, field, sq, t)
    report = asym_report(plan)
    require(report.passed, f"asym s={s}: s-level pairs orthogonal through block")
    return plan, report


def asym_report(plan):
    """Dual-status pair report for the asymmetric family: pairs of
    s-level factors must satisfy the blocked identity; pairs involving
    the extended factor are reported informationally, with the identity's
    residual alongside the proportional frequency status (which is what
    actually holds for them)."""
    rep = is_potb(plan)
    pairs = tuple(replace(p, informational="inf" in (p.a, p.b)) for p in rep.pairs)
    return replace(rep, check="asym-dual", pairs=pairs)


def _verify_asym(plan, field, sq, t):
    s = field.order
    c0 = list(sq.c0)
    eye = np.eye(s, dtype=object)
    jay = np.ones((s, s), dtype=object)
    names = [f"x{c}" for c in c0]
    what = f"asym s={s}"
    n_of = _incidences(plan, (BLOCK,) + plan.factor_names)

    # within the s-level factors: incidence I + J; L L' = (t+1) N is the report's pass
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            require((n_of(a, b) == eye + jay).all(), f"{what}: N({a},{b}) = I + J")

    # against the extended factor: flat incidence
    for a in names:
        require((n_of(a, "inf") == 1).all(), f"{what}: N({a},inf) = J")

    # level-by-block structure: each s-level factor sees, per translate u,
    # the set (C0 + u) u {u} in the even blocks and (C1 + u) u {u} in the
    # odd ones; with m(p, q) = [q - p in C0] the two halves are M' + I and
    # J - M', so every s-level factor has one L and one BIBD check covers all
    m_mat = np.array([[int(field.sub(q, p) in sq.c0) for q in range(s)]
                      for p in range(s)], dtype=object)
    half0 = m_mat.T + eye
    half1 = jay - m_mat.T
    for a in names:
        la = n_of(a, BLOCK)
        require((la[:, 0::2] == half0).all() and (la[:, 1::2] == half1).all(),
                f"{what}: L({a}) = M' + I on even blocks, J - M' on odd ones")
    for a, v, r, lam in [(names[0], s, s + 1, t + 1), ("inf", s + 1, s, t)]:
        require(bibd_check(n_of(a, BLOCK), v=v, b=2 * s, r=r, k=t + 1, lam=lam),
                f"{what}: L({a}) is a BIBD(v={v}, b={2 * s}, r={r}, k={t + 1}, lambda={lam})")
