"""Orthogonality of factor pairs through a conditioning set.

Factors A and B are orthogonal through a set T of other factors when

    X_A' (I - P_T) X_B = 0,

with P_T the orthogonal projector on the span of the design matrices of
the members of T.  One private function, ``_information``, evaluates it,
for sets of factors A and B at once, in exact arithmetic via the
small-matrix identity

    X_A' (I - P_T) X_B = N_AB - N_AT (X_T' X_T)^- N_TB,

which never materializes an n x n projector.  Its result is one integer
matrix over one denominator, (num, d); every report reads slices of num.
A pair check keeps its integer slice and d, from which a failed pair's
residual is printed; Fractions are made only when ``residual`` is read.
The classical special cases are such slices:

* T = {G}: the proportional frequency condition n N_AB = r_A r_B';
* T = {block}: the defining condition of a plan orthogonal through the
  block factor, N_AB = L_A D_k^{-1} L_B'.

The stacked matrix M over all factors through the blocks (through G for
an unblocked plan) is the plan's one information matrix: it gives the
contrast C-matrix K = H M H', its ``_coupling`` map (each factor pair
tested once) and, as Schur complements along that map, every C_A.  M's
rows sum to zero over each factor's columns (``_contrast`` checks it), the
part H drops, so K couples the pairs M couples and its Schur complements
are the H_A C_A H_A' that ``optimality`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, combinations
from math import lcm

import numpy as np

from . import ratmat
from .contrasts import ContrastMatrix, congruence
from .errors import require
from .plan import BLOCK, GENERAL, _as_tuple, gram, levels_of

__all__ = [
    "PairCheck",
    "OrthReport",
    "orth_through",
    "pair_checks",
    "is_potb",
    "is_potp",
    "contrast_c_matrix",
    "c_matrix_factor",
    "adjusted_information",
]


def _slices(widths):
    """{u: slice}: the widths {u: w} packed side by side, in order."""
    *starts, _ = accumulate(widths.values(), initial=0)
    return {u: slice(o, o + w) for (u, w), o in zip(widths.items(), starts)}


def _columns(plan, idents):
    """Slice of each identifier's columns in the stacked design matrix."""
    return _slices({u: levels_of(plan, u) for u in idents})


def _incidences(plan, idents):
    """N(u, v) = X_u' X_v for any two of ``idents``, as a function of (u, v);
    every one is a slice of one gram matrix, counted once."""
    g, cols = gram(plan, idents), _columns(plan, idents)
    return lambda u, v: g[cols[u], cols[v]]


def _pick(cols, group):
    """The stacked column indices of the identifiers ``group``."""
    return np.array([i for u in group for i in range(cols[u].start, cols[u].stop)],
                    dtype=np.intp)


def _information(plan, a, b, through):
    """X_A' (I - P_T) X_B = num / d as the pair (num, d) of ``ratmat.schur_complement``.

    Computed as N_AB - N_AT Z from one gram matrix over T, A and B and one
    exact solve of X_T'X_T Z = N_TB with every B column at once, with no
    elimination when T is one identifier (X_T'X_T is then diagonal);
    N_AT Z, and so the canonical pair, does not depend on which solution
    the elimination picks."""
    a, b, through = _as_tuple(a), _as_tuple(b), _as_tuple(through)
    idents = tuple(dict.fromkeys(through + a + b))
    g = gram(plan, idents)
    cols = _columns(plan, idents)
    ta, ia, ib = _pick(cols, through), _pick(cols, a), _pick(cols, b)
    return ratmat.schur_complement(g[np.ix_(ia, ib)], g[np.ix_(ia, ta)],
                                   g[np.ix_(ta, ta)], g[np.ix_(ta, ib)])


def adjusted_information(plan, a, b, through):
    """X_A' (I - P_T) X_B as Fractions, for a factor identifier or a tuple
    of them on each side (the result then stacks one block per identifier)."""
    return ratmat._over(*_information(plan, a, b, through))


@dataclass(frozen=True)
class PairCheck:
    a: str
    b: str
    through: tuple
    passed: bool
    # X_A'(I - P_T)X_B as (num, d): the pair's integer slice of the stacked
    # information and its denominator; ``residual`` makes the Fractions.  It
    # is left out of ``==``: an array compared elementwise has no truth value
    _information: tuple = field(repr=False, compare=False)
    pfc: bool | None = None
    informational: bool = False

    @property
    def residual(self):
        """X_A'(I - P_T)X_B, exact, as Fractions."""
        return ratmat._over(*self._information)

    def to_json(self):
        doc = {
            "a": self.a,
            "b": self.b,
            "through": list(self.through),
            "pass": self.passed,
        }
        if self.pfc is not None:
            doc["pfc"] = self.pfc
        if self.informational:
            doc["informational"] = True
        if not self.passed:
            num, d = self._information
            doc["residual"] = [[ratmat._text(x, d) for x in row] for row in num.tolist()]
        return doc


@dataclass(frozen=True)
class OrthReport:
    plan_name: str
    check: str
    pairs: tuple
    c_matrix: ContrastMatrix | None = None

    @property
    def passed(self):
        return all(p.passed for p in self.pairs if not p.informational)

    def pair(self, a, b):
        for p in self.pairs:
            if {p.a, p.b} == {a, b}:
                return p
        raise KeyError((a, b))

    def to_json(self):
        doc = {
            "plan": self.plan_name,
            "check": self.check,
            "pass": self.passed,
            "pairs": [p.to_json() for p in self.pairs],
        }
        if self.c_matrix is not None:
            doc["c_matrix"] = self.c_matrix.to_json()
        return doc


def orth_through(plan, a, b, through):
    """Single-pair check; returns a PairCheck with the exact residual."""
    through = _as_tuple(through)
    if a == b or a in through or b in through:
        raise ValueError(f"{a!r}, {b!r} must be distinct and outside {through!r}")
    num, d = _information(plan, a, b, through)
    return PairCheck(a=a, b=b, through=through, passed=ratmat.is_zero(num),
                     _information=(num, d))


def _coupling(num, cols):
    """{A: the factors coupled with A} for a symmetric stacked information
    matrix ``num`` with column slices ``cols``: B is coupled with A when
    their block of ``num`` is nonzero.  Each unordered pair is tested once."""
    coupled = {a: set() for a in cols}
    for a, b in combinations(cols, 2):
        if not ratmat.is_zero(num[cols[a], cols[b]]):
            coupled[a].add(b)
            coupled[b].add(a)
    return coupled


def pair_checks(plan, names, through, pfc=None):
    """A PairCheck for every unordered pair of ``names`` (in combinations
    order) and the one stacked information they are read off, as (checks,
    (num, d)).  Its ``_coupling`` map decides each pass, and ``pfc``, the
    map through {G}, each PFC flag."""
    through = _as_tuple(through)
    num, d = info = _information(plan, names, names, through)
    cols = _columns(plan, names)
    coupled = _coupling(num, cols)
    return tuple(PairCheck(a=a, b=b, through=through, passed=b not in coupled[a],
                           _information=(num[cols[a], cols[b]].copy(), d),  # a view keeps num alive
                           pfc=None if pfc is None else b not in pfc[a])
                 for a, b in combinations(names, 2)), info


def is_potb(plan):
    """Check every unordered treatment pair for orthogonality through the
    block factor; PFC status through {G} is recorded per pair as well."""
    if not plan.blocked:
        raise ValueError(f"plan {plan.name!r} has no blocks")
    names = plan.factor_names
    general, _ = _information(plan, names, names, (GENERAL,))
    checks, info = pair_checks(plan, names, (BLOCK,), _coupling(general, _columns(plan, names)))
    return OrthReport(plan_name=plan.name, check="potb", pairs=checks,
                      c_matrix=_contrast(plan, info))


def is_potp(plan, through):
    """Check every unordered factor pair outside ``through`` for
    orthogonality through that pair (or any factor set)."""
    through = _as_tuple(through)
    rest = [f for f in plan.factor_names if f not in through]
    checks = pair_checks(plan, rest, through)[0]
    return OrthReport(plan_name=plan.name, check="potp", pairs=checks,
                      c_matrix=contrast_c_matrix(plan))


def _contrast(plan, info):
    """The contrast C-matrix of the stacked information ``info`` = (num, d)
    over all factors (``contrasts.congruence``), once its rows are checked
    to sum to zero over each factor's columns."""
    cols = _columns(plan, plan.factor_names).values()
    require(ratmat.is_zero(np.add.reduceat(info[0], [c.start for c in cols], axis=1)),
            "M 1_A = 0 for every factor A")
    return congruence(*info, cols)


def contrast_c_matrix(plan):
    """The C-matrix of all normalized main-effect contrasts, dimension
    v = sum_A (s_A - 1), as an exact ContrastMatrix: the contrasts of
    X'(I - P_T)X, adjusted for T = {block} in a blocked plan and for the
    general effect, T = {G}, in an unblocked one."""
    return _contrast(plan, _factor_information(plan))


def _factor_information(plan):
    """X'(I - P_T)X over all factors as (num, d), T = {block} for a blocked
    plan and {G} otherwise: the plan's one information matrix, which the
    contrast C-matrix and every factor's C_A are read from."""
    names = plan.factor_names
    return _information(plan, names, names, (BLOCK,) if plan.blocked else (GENERAL,))


def _fully_adjusted(info, cols, nbrs):
    """{A: C_A} over the factors of ``nbrs``, each fully adjusted information
    C_A a reduced pair (num, d), from ``info`` = M over them as (num, d) with
    column slices ``cols`` (on the contrast C-matrix, each is H_A C_A H_A').
    C_A is the Schur complement of M over the other factors, and Schur
    complements compose (Crabtree & Haynsworth 1969; for positive
    semidefinite M, Carlson, Haynsworth & Markham 1974), so factors are
    eliminated in the order of the coupling graph G_M, ``nbrs`` =
    ``_coupling`` of M (George & Liu 1981).  C_A depends only on A's
    connected component.  A star with hub h (a lone factor is one with no
    leaf) is solved leaf by leaf: with term_i = M_hi M_ii^- M_ih and S =
    M_hh - sum_i term_i, C_h = S and C_j = M_jj - M_jh (S + term_j)^- M_hj.
    Any other component is split: eliminate one half, recurse into the
    other with the map of its Schur complement."""
    names = tuple(nbrs)
    num, d = info
    out = {}
    for a in names:
        if a in out:
            continue
        comp, grow = {a}, [a]
        while grow:
            new = nbrs[grow.pop()] - comp
            comp |= new
            grow.extend(new)
        part = [u for u in names if u in comp]
        hub = next((h for h in part if all(nbrs[i] == {h} for i in part if i != h)), None)
        if hub is None:
            half = len(part) // 2
            for keep, drop in ((part[:half], part[half:]), (part[half:], part[:half])):
                k, r = _pick(cols, keep), _pick(cols, drop)
                c_num, c_d = ratmat.schur_complement(num[np.ix_(k, k)], num[np.ix_(k, r)],
                                                     num[np.ix_(r, r)], num[np.ix_(r, k)])
                sub = ratmat._reduced(c_num, c_d * d)
                sub_cols = _slices({u: cols[u].stop - cols[u].start for u in keep})
                out.update(_fully_adjusted(sub, sub_cols, _coupling(sub[0], sub_cols)))
            continue
        h, leaves = cols[hub], [(i, cols[i]) for i in part if i != hub]
        # each -term_i reduced on its own, then over the lcm of their denominators
        negs = [ratmat.schur_complement(0 * num[h, h], num[h, c], num[c, c], num[c, h])
                for _, c in leaves]
        den = lcm(*(t_d for _, t_d in negs))
        negs = [t_num * (den // t_d) for t_num, t_d in negs]
        s_num = den * num[h, h] + sum(negs)          # S = s_num / den
        out[hub] = ratmat._reduced(s_num, den * d)
        for (j, c), t_num in zip(leaves, negs):
            c_num, c_d = ratmat.schur_complement(num[c, c], num[c, h], s_num - t_num,
                                                 den * num[h, c])
            out[j] = ratmat._reduced(c_num, c_d * d)
    return {a: out[a] for a in names}


def c_matrix_factor(plan, a):
    """The fully adjusted information C_A = X_A' (I - P_T) X_A of factor
    ``a``, exact: T is everything else, i.e. all other treatment factors,
    the general effect, and the block factor when present.  For any other
    T, ``adjusted_information(plan, a, a, T)`` is C_AA;T."""
    plan.factor(a)
    info, cols = _factor_information(plan), _columns(plan, plan.factor_names)
    return ratmat._over(*_fully_adjusted(info, cols, _coupling(info[0], cols))[a])
