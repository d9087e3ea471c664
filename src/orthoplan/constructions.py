"""Plan constructions: seed plans, orbit translation, the signed-seed
expansion for plans orthogonal through a factor pair, and the
block-multiplying product of a plan with a strength-2 orthogonal array,
which keeps one untranslated copy of the plan.

Every built family's private ``_family(...)`` re-verifies its output
with the exact checkers and returns (plan, report, potb contrast scalar
or None); the public ``construct_family(...)`` is ``_family(...)[0]``.
Nothing below relies on a claimed property that is not recomputed on the
concrete output.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .arrays import hadamard, hadamard_to_oa, oa_rao_hamming, q_extend
from .errors import require
from .gf import field_new, square_classes
from .optimality import bibd_check
from .orthogonality import _incidences, is_potb, is_potp
from .plan import BLOCK, MAX_GRAM_SIZE, Factor, Plan

__all__ = [
    "seed_plans",
    "translate",
    "orbit",
    "c0_expand",
    "construct_potp",
    "power_plan",
    "diamond",
    "construct_potb2",
    "construct_potb3",
    "construct_asym",
    "asym_report",
]


# ---------------------------------------------------------------------------
# seed plans: factor names, levels, rows (one per factor, columns are runs)
# and block sizes, each under the property it is built for

_SEEDS = {
    # no blocks; every pair avoiding {A1, A2}, A3 and A4 among them, is
    # orthogonal through {A1, A2}
    "potp_3_4": (("A1", "A2", "A3", "A4"), 3, (
        (0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2),
        (1, 1, 2, 2, 2, 2, 0, 0, 0, 0, 1, 1),
        (0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2),
        (0, 1, 0, 2, 1, 2, 1, 0, 2, 0, 2, 1),
    ), None),
    # orthogonal through the block factor with contrast C-matrix 4 I_7; the
    # second block deliberately repeats one run
    "potb_2_7": (("A1", "A2", "A3", "A4", "A5", "A6", "A7"), 2, (
        (0, 0, 1, 1, 0, 0, 1, 1, 1, 1),
        (0, 1, 0, 1, 0, 1, 0, 1, 1, 1),
        (0, 1, 1, 0, 0, 1, 1, 0, 1, 1),
        (0, 0, 1, 1, 1, 1, 0, 0, 0, 0),
        (0, 1, 0, 1, 1, 0, 1, 0, 0, 0),
        (0, 1, 1, 0, 1, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1, 0, 0, 0, 1, 1),
    ), (5, 5)),
    # cross-class pairs of {A1, B1, C1} / {A2, B2, C2} are orthogonal through
    # the block factor, within-class pairs are not
    "ico_2_6": (("A1", "B1", "C1", "A2", "B2", "C2"), 2, (
        (0, 0, 1, 1, 0, 0, 0, 1, 1, 0),
        (0, 1, 0, 1, 0, 0, 1, 0, 1, 0),
        (0, 1, 1, 0, 0, 0, 1, 1, 0, 0),
        (0, 0, 1, 1, 0, 1, 1, 0, 0, 1),
        (0, 1, 0, 1, 0, 1, 0, 1, 0, 1),
        (0, 1, 1, 0, 0, 1, 0, 0, 1, 1),
    ), (5, 5)),
    # orthogonal through the block factor, universally optimal in its class
    "potb_3_3": (("A1", "A2", "A3"), 3, (
        (0, 0, 1, 2, 0, 0, 1, 2, 1, 2),
        (0, 1, 0, 2, 2, 0, 1, 0, 2, 1),
        (0, 1, 2, 0, 2, 0, 0, 1, 1, 2),
    ), (4, 4, 2)),
}


def seed_plans():
    """All built-in seed plans, keyed by name."""
    return {name: Plan(name=name, factors=tuple(Factor(f, levels) for f in names),
                       runs=tuple(zip(*rows)), block_sizes=blocks)
            for name, (names, levels, rows, blocks) in _SEEDS.items()}


# ---------------------------------------------------------------------------
# translation orbits

def translate(plan, vectors, field, name=None):
    """Replace the runs by {x + v : x run, v in vectors}, coordinatewise in
    the field (an absorbing extra level is allowed, see construct_asym).

    The block structure is replicated once per translation vector, in the
    order given: the result has b * len(vectors) blocks.
    """
    s = field.order
    for f in plan.factors:
        if f.levels not in (s, s + 1):
            raise ValueError(
                f"factor with {f.levels} levels incompatible with field of order {s}")
    vectors = [tuple(int(x) for x in v) for v in vectors]
    for v in vectors:
        if len(v) != plan.m:
            raise ValueError(f"vector {v} has {len(v)} coordinates, plan has {plan.m}")
        if any(not 0 <= x < s for x in v):
            raise ValueError(f"translation amounts must be field labels: {v}")
    # the extra row [s, ..., s] keeps the top label of an (s+1)-level
    # factor, the absorbing point at infinity, where it is
    padded = np.vstack([field.add_table, np.full(s, s, dtype=field.add_table.dtype)])
    shifts = np.array(vectors, dtype=np.int64).reshape(-1, 1, plan.m)
    runs = padded[np.array(plan.runs), shifts].reshape(-1, plan.m)   # vector-major
    blocks = plan.block_sizes * len(vectors) if plan.blocked else None
    return Plan(name=name or f"{plan.name}_t{len(vectors)}",
                factors=plan.factors, runs=runs.tolist(), block_sizes=blocks)


def orbit(plan, field, name=None):
    """Translate by all constant vectors u * 1, u in the field."""
    vectors = [(u,) * plan.m for u in range(field.order)]
    return translate(plan, vectors, field, name=name)


def c0_expand(array, field):
    """Columns {c * P : c in C0}, nonzero squares ascending, each scaled
    copy keeping the original column order."""
    array = np.asarray(array)
    if array.min() < 0 or array.max() >= field.order:
        raise ValueError(f"entries must be labels of the field of order {field.order}")
    return np.hstack([field.mul_table[c][array] for c in square_classes(field).c0])


# ---------------------------------------------------------------------------
# plans orthogonal through a pair of factors

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
    """ValueError for a family whose gram size (levels + blocks + 1)
    exceeds ``MAX_GRAM_SIZE``, raised before anything is built."""
    if size > MAX_GRAM_SIZE:
        raise ValueError(f"{what}: gram size {size} exceeds the limit {MAX_GRAM_SIZE}")


def _potp(h, s):
    """``construct_potp(h, s)`` and its verified ``is_potp`` report through
    the first two factors, as (plan, report, None).

    The hypothesis of Theorem 2orthPlan, a signed seed meeting conditions
    (a)-(c), is implied and not checked on its own: the seed is read off a
    Hadamard matrix that ``hadamard`` verified (H H' = h I), and the
    conclusion, every pair's incidence pattern and orthogonality through
    the leading pair, is required of the plan returned.  A seed that breaks
    (a)-(c) in a way that matters fails those checks (exit 1)."""
    _refuse_gram_size(f"potp h={h} s={s}", 2 * h * s + 1)
    field = field_new(s)
    if s % 4 != 3:
        raise ValueError(f"s = {s} fails s = 3 (mod 4)")
    if h % 4 != 0:
        raise ValueError(f"seed needs a Hadamard order divisible by 4, got {h}")
    seed = _signed_seed(h)
    labels = np.where(seed >= 0, seed, field.neg_table[1])
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
    return plan, report, None


# ---------------------------------------------------------------------------
# block-multiplying product with a strength-2 orthogonal array

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


def diamond(q, plan0, name=None):
    """Product of an array Q (m rows, N columns, s symbols) with a plan over
    GF(s): the (m+1)-th power of the plan, translated by one vector per
    column of ``q_extend(Q)``, repeating its i-th entry over the i-th copy.

    The first copy, under the zero row, is never translated, so the result
    contains the power plan itself; blocks multiply to b * N.
    """
    field = field_new(q.symbols)
    for f in plan0.factors:
        if f.levels != field.order:
            raise ValueError(f"factor {f.name} has {f.levels} levels, field wants {field.order}")
    pw = power_plan(plan0, q.rows + 1)
    vectors = np.repeat(q_extend(q).T, plan0.m, axis=1)
    return translate(pw, vectors, field,
                     name=name or f"{plan0.name}_x{q.columns}")


def construct_potb2(h):
    """Plan for 7h two-level factors in 2h blocks of five, orthogonal
    through the block factor, with contrast C-matrix 4h * I.

    The two-level seed plan is multiplied by the (h-1)-row array derived
    from a Hadamard matrix of order h (h = 2 or a multiple of 4).
    """
    return _potb2(h)[0]


def _potb2(h):
    """``construct_potb2(h)`` as (plan, verified report, contrast scalar 4h)."""
    _refuse_gram_size(f"potb2 h={h}", 16 * h + 1)
    return _product(seed_plans()["potb_2_7"], hadamard_to_oa(hadamard(h)), f"potb2 h={h}", 4 * h)


def construct_potb3():
    """Plan for 15 three-level factors in 27 blocks (sizes 4,4,2 repeated),
    orthogonal through the block factor, contrast C-matrix 3 * 9 * I.

    Uses the four-row, nine-column strength-2 array over GF(3), so five
    copies of the seed, one untranslated, are translated nine times.
    """
    return _potb3()[0]


def _potb3():
    """``construct_potb3()`` as (plan, verified report, contrast scalar 27)."""
    return _product(seed_plans()["potb_3_3"], oa_rao_hamming(field_new(3)), "potb3", 27)


def _product(seed, q, what, scalar):
    """``diamond(q, seed)``, the ``is_potb`` report that verified it and
    ``scalar`` as (plan, report, scalar): the shape its inputs give and the
    contrast C-matrix ``scalar * I``, which implies the report's pass: it
    leaves each block H_A M_AB H_B' zero, and M's rows and columns sum to
    zero over each factor (``orthogonality._contrast``), so each M_AB is 0."""
    m, block_sizes = seed.m * (q.rows + 1), seed.block_sizes * q.columns
    plan = diamond(q, seed, name=f"potb_{q.symbols}_{m}")
    require(plan.m == m and plan.block_sizes == block_sizes,
            f"{what}: {m} factors in {len(block_sizes)} blocks")
    report = is_potb(plan)
    require(report.c_matrix.scalar_identity() == (True, scalar),
            f"{what}: contrast C-matrix = {scalar} I")
    return plan, report, scalar


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
    """``construct_asym(s)`` and its verified ``asym_report``, as (plan, report, None)."""
    field = field_new(s)
    sq = square_classes(field)       # refuses GF(2^k)
    t = (s - 1) // 2
    c0 = np.array(sq.c0)
    alpha = min(sq.c1)
    mul = field.mul_table
    powers = (1, alpha, int(mul[alpha, alpha]))     # alpha^0, alpha^1, alpha^2
    inf = s                           # absorbing label of the extended factor

    # one run per y and one factor per x, each over C0 then inf
    blocks = []
    for level in (0, 1):
        runs = np.zeros((t + 1, t + 1), dtype=np.int64)          # y = inf, x finite: 0
        runs[:t, :t] = mul[powers[level]][mul[np.ix_(c0, c0)]]    # alpha^level x y
        runs[:t, t] = mul[powers[level + 1]][c0]                 # x = inf: alpha^(level+1) y
        runs[t, t] = inf if level else 0                         # x = y = inf
        blocks.append(runs)
    factors = tuple([Factor(f"x{c}", s) for c in sq.c0] + [Factor("inf", s + 1)])
    base = Plan(name=f"asym_{s}", factors=factors,
                runs=np.vstack(blocks).tolist(), block_sizes=(t + 1, t + 1))
    plan = orbit(base, field, name=f"asym_{s}")
    _verify_asym(plan, field, sq, t)
    report = asym_report(plan)
    require(report.passed, f"asym s={s}: s-level pairs orthogonal through block")
    return plan, report, None


def asym_report(plan):
    """Dual-status pair report for the asymmetric family: pairs of
    s-level factors must satisfy the blocked identity; pairs involving
    the extended factor are reported informationally, with the identity's
    residual alongside the proportional frequency status (which is what
    actually holds for them)."""
    rep = is_potb(plan)
    pairs = tuple(replace(p, informational=True) if "inf" in (p.a, p.b) else p
                  for p in rep.pairs)
    return replace(rep, check="asym-dual", pairs=pairs)


def _verify_asym(plan, field, sq, t):
    """N(x, inf) = J, the level-by-block pattern L of each s-level factor x
    and the BIBDs of L(x0) and L(inf).  N(a, b) = I + J between s-level
    factors is implied: the checked L and BIBD give L L' = (t + 1)(I + J)
    over blocks of t + 1, so the report's pass, which ``_asym`` requires,
    holds exactly when N(a, b) = L L' / (t + 1) = I + J."""
    s = field.order
    c0 = list(sq.c0)
    eye = np.eye(s, dtype=object)
    jay = np.ones((s, s), dtype=object)
    names = [f"x{c}" for c in c0]
    what = f"asym s={s}"
    n_of = _incidences(plan, (BLOCK,) + plan.factor_names)

    # against the extended factor: flat incidence
    for a in names:
        require((n_of(a, "inf") == 1).all(), f"{what}: N({a},inf) = J")

    # level-by-block structure: each s-level factor sees, per translate u,
    # the set (C0 + u) u {u} in the even blocks and (C1 + u) u {u} in the
    # odd ones; with m(p, q) = [q - p in C0] the two halves are M' + I and
    # J - M', so every s-level factor has one L and one BIBD check covers all
    m_t = np.isin(field.add_table[:, field.neg_table], sq.c0).astype(np.int64)   # M'[q, p]
    half0 = m_t + eye
    half1 = jay - m_t
    for a in names:
        la = n_of(a, BLOCK)
        require((la[:, 0::2] == half0).all() and (la[:, 1::2] == half1).all(),
                f"{what}: L({a}) = M' + I on even blocks, J - M' on odd ones")
    for a, v, r, lam in [(names[0], s, s + 1, t + 1), ("inf", s + 1, s, t)]:
        require(bibd_check(n_of(a, BLOCK), v=v, b=2 * s, r=r, k=t + 1, lam=lam),
                f"{what}: L({a}) is a BIBD(v={v}, b={2 * s}, r={r}, k={t + 1}, lambda={lam})")
