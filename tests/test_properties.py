"""Property tests on random small plans: the stacked adjusted information
and its canonical integer pair (num, d) against the dense projector oracle
and the single-pair check, the coupling map of a stacked matrix against
the pairs that fail that check, every report's pair residuals against the
blocks of the stacked information, the counted gram against the dense
X'X and the run-by-run count (over stacks that span several chunks of
runs), the text of an integer pair against that of its Fraction, the C_A
read along the coupling graph (also on random star, two-component, chain
and triangle couplings), the ledger and the connectedness verdicts
against their one-stage definitions, the ledger's per-factor fit and the
fully adjusted blocks of the contrast C-matrix against the
level-coordinate route (on random and built plans and on those
couplings), the contrast C-matrix and its printed entries, spectrum and
scalar form against its Fraction congruence, the adjusted sum of squares
against the dense projection Y' P_V Y, the SS-equivalence condition against the cross information of
the factor with every other term, the pair verdicts against relabelled plans, report equality
across repeated runs, the JSON round trip, and translation over GF(s) and
the C0 expansion against their symbol-by-symbol definitions."""

from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, combinations
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from oracles import (PerCallForm, contrast_oracle, design_matrix, dumps, fit_scalar_plus_j,
                     gram_oracle, helmert_raw, information_reversed, level_ledger,
                     one_stage_schur, projector, schur_reversed, ss_adjusted_per_call,
                     translate_oracle)

from orthoplan import (BLOCK, GENERAL, Factor, Plan, anova, asym_report, c0_expand,
                       contrast_c_matrix, estssq_equivalence, field_new, is_potb, is_potp,
                       optimality, orbit, orth_through, orthogonality, ratmat, ss_adjusted,
                       translate, universal_ledger)
from orthoplan.contrasts import ContrastMatrix, congruence
from orthoplan.orthogonality import (_columns, _contrast, _coupling, _factor_information,
                                     _fully_adjusted, _slices, adjusted_information,
                                     c_matrix_factor, pair_checks)
from orthoplan.plan import gram, incidence, levels_of, plan_loads, plan_to_json


@st.composite
def plans(draw):
    """2-6 factors at 2-4 levels, n <= 12 runs, blocked or not."""
    levels = draw(st.lists(st.integers(2, 4), min_size=2, max_size=6))
    n = draw(st.integers(2, 12))
    runs = draw(st.lists(st.tuples(*[st.integers(0, s - 1) for s in levels]),
                         min_size=n, max_size=n))
    block_sizes = None
    if draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.integers(1, n - 1), unique=True, max_size=3)))
        bounds = [0, *cuts, n]
        block_sizes = tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    factors = tuple(Factor(f"F{i}", s) for i, s in enumerate(levels))
    return Plan("random", factors, tuple(runs), block_sizes)


def stacked_design(plan, names):
    return np.hstack([design_matrix(plan, u) for u in names]).astype(object)


def residual_projector(plan, through):
    """I - P_T with the n x n projector built explicitly."""
    if not through:
        return np.eye(plan.n, dtype=object)
    return np.eye(plan.n, dtype=object) - projector(stacked_design(plan, through))


def dense_oracle(plan, names, through):
    """X_U' (I - P_T) X_U with the n x n projector built explicitly."""
    x_u = stacked_design(plan, names)
    return x_u.T @ residual_projector(plan, through) @ x_u


def assert_ledger_reads_the_contrast_blocks(plan, info, c_con):
    """The ledger's per-factor (scalar_pass, a, b) against the level-coordinate
    oracle on M = ``info``, and each fully adjusted block of the contrast
    C-matrix ``c_con`` = H M H' against H_A C_A H_A'."""
    names = plan.factor_names
    fits, level = level_ledger(info, _columns(plan, names))
    ledger = optimality._ledger(plan, c_con)
    assert {f.factor: (f.scalar_pass, f.a, f.b) for f in ledger.factors} == fits
    cols = _slices({u: levels_of(plan, u) - 1 for u in names})
    blocks = _fully_adjusted((c_con.num, c_con.d), cols, _coupling(c_con.num, cols))
    assert list(blocks) == list(names)
    for a, (c_num, c_d) in blocks.items():
        want = congruence(*level[a], [slice(0, levels_of(plan, a))])
        assert ContrastMatrix(c_num, c_d, c_con.norms[cols[a]]) == want


def helmert_rows(plan, names):
    """The block-diagonal integer Helmert rows H over ``names``."""
    sizes = [levels_of(plan, u) for u in names]
    h = np.zeros((sum(sizes) - len(sizes), sum(sizes)), dtype=object)
    r = c = 0
    for s in sizes:
        h[r:r + s - 1, c:c + s] = helmert_raw(s)
        r, c = r + s - 1, c + s
    return h


@settings(max_examples=60, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(plans(), st.sampled_from(["none", "general", "block", "first"]), st.booleans())
def test_stacked_information_matches_projector_and_pair_checks(plan, which, reverse):
    assume(which != "block" or plan.blocked)
    names = plan.factor_names
    through = {"none": (), "general": (GENERAL,), "block": (BLOCK,),
               "first": names[:1]}[which]

    oracle = dense_oracle(plan, names, through)
    got = (information_reversed if reverse else adjusted_information)(plan, names, names, through)
    assert (got == oracle).all()

    g = gram(plan, through + names)
    t = sum(levels_of(plan, u) for u in through)
    pairs = [schur(g[t:, t:], g[t:, :t], g[:t, :t], g[:t, t:])
             for schur in (ratmat.schur_complement, schur_reversed)]
    (num, d), (num_rev, d_rev) = pairs
    assert d == d_rev and (num == num_rev).all()
    assert d > 0 and gcd(d, *num.flat) == 1
    assert (num == d * oracle).all()
    if which == "block":
        assert lcm(*plan.block_sizes) % d == 0
    if which == "general":
        assert plan.n % d == 0

    offsets = np.cumsum([0] + [levels_of(plan, u) for u in names])
    span = {u: slice(offsets[i], offsets[i + 1]) for i, u in enumerate(names)}
    failed = set()
    for a, b in combinations(names, 2):
        if a in through or b in through:
            continue
        check = orth_through(plan, a, b, through)
        assert (got[span[a], span[b]] == check.residual).all()
        if not check.passed:
            failed |= {(a, b), (b, a)}

    # the stacked matrix is symmetric, so the coupling map tests each
    # unordered pair once; it couples exactly the pairs that fail
    assert (num == num.T).all()
    assert {(a, b) for a, nbrs in _coupling(num, span).items() for b in nbrs} == failed

    # the proportional frequency condition: A and B are orthogonal through G
    # exactly when n N_AB = r_A r_B'
    for a, b in combinations(names, 2):
        r_a, r_b = incidence(plan, a, GENERAL), incidence(plan, b, GENERAL)
        pfc = bool((plan.n * incidence(plan, a, b) == r_a @ r_b.T).all())
        assert orth_through(plan, a, b, GENERAL).passed == pfc

    pseudo = (GENERAL, BLOCK) if plan.blocked else (GENERAL,)
    idents = names + pseudo + names[:1]
    x = np.hstack([design_matrix(plan, u) for u in idents])
    assert (gram(plan, idents) == x.T @ x).all()

    # every C_A from the recursive split against the one-stage oracle
    info, cols = _factor_information(plan), _columns(plan, names)
    adjusted = _fully_adjusted(info, cols, _coupling(info[0], cols))
    oracles = {a: adjusted_information(plan, a, a, tuple(f for f in names if f != a) + pseudo)
               for a in names}
    assert list(adjusted) == list(names)
    for a, (c_num, c_d) in adjusted.items():
        assert c_d > 0 and gcd(c_d, *c_num.flat) == 1
        assert (c_num == c_d * oracles[a]).all()
        assert (c_matrix_factor(plan, a) == oracles[a]).all()

    if plan.blocked:
        for entry in universal_ledger(plan).factors:
            verdicts = [orth_through(plan, entry.factor, b, (BLOCK,)).passed
                        for b in names if b != entry.factor]
            assert entry.orth_pass == all(verdicts)
            fit = fit_scalar_plus_j(oracles[entry.factor])
            assert (entry.scalar_pass, entry.a, entry.b) == fit
        assert_ledger_reads_the_contrast_blocks(plan, info, contrast_c_matrix(plan))

    # the integer contrast C-matrix against its Fraction congruence
    contrast_through = (BLOCK,) if plan.blocked else (GENERAL,)
    h = helmert_rows(plan, names)
    raw = h @ adjusted_information(plan, names, names, contrast_through) @ h.T
    cm = contrast_c_matrix(plan)
    assert (cm.num == cm.d * raw).all()
    entries, spectrum, identity = contrast_oracle(raw, cm.norms)
    assert cm.entries_json() == entries
    assert cm.eigenvalues() == spectrum
    assert cm.scalar_identity() == identity


# Coupling graphs over factors 0..k-1: (edges, whether C_A needs the split).
@st.composite
def stacks(draw):
    """(plan, idents): a random plan and up to 24 of its identifiers, with
    G, the block and repeats among them, or none."""
    plan = draw(plans())
    pseudo = (GENERAL, BLOCK) if plan.blocked else (GENERAL,)
    return plan, tuple(draw(st.lists(st.sampled_from(plan.factor_names + pseudo),
                                     max_size=24)))


def chunks(plan, idents):
    """How many chunks of runs ``gram`` counts: size^2 // k^2 runs each."""
    size = sum(levels_of(plan, u) for u in idents)
    return -(-plan.n // (size * size // len(idents) ** 2)) if idents else 1


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(stacks())
def test_gram_matches_the_run_by_run_count(stack):
    plan, idents = stack
    got, want = gram(plan, idents), gram_oracle(plan, idents)
    assert got.shape == want.shape and (got == want).all()
    assert {type(x) for x in got.flat} <= {int}


def test_the_random_stacks_span_several_chunks():
    """The stacks drawn for the test above reach past one chunk of runs."""
    seen = []

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(stacks())
    def count(stack):
        seen.append(chunks(*stack))

    count()
    assert sum(c > 1 for c in seen) >= 20 and 1 in seen


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.integers(-10 ** 30, 10 ** 30) | st.just(0), st.integers(1, 10 ** 12) | st.just(1))
def test_text_is_the_text_of_the_fraction(x, d):
    assert ratmat._text(x, d) == str(Fraction(x, d))


COUPLINGS = {
    "star": ([(0, 1), (0, 2), (0, 3)], False),
    "two components": ([(0, 1), (0, 2), (3, 4)], False),
    "chain": ([(0, 1), (1, 2), (2, 3)], True),
    "triangle": ([(0, 1), (1, 2), (0, 2)], True),
}


@st.composite
def coupled_information(draw, centred=False):
    """(plan, (num, d), shape): M = num / d with num = A'A for an integer A
    whose row blocks each touch one factor or one coupled pair, so M's
    coupling graph is exactly the drawn shape; factors in a drawn order.
    ``centred`` makes each row sum to zero over each factor's columns, as
    the rows of an information matrix through the blocks do, and blocks
    the one-run plan."""
    shape = draw(st.sampled_from(sorted(COUPLINGS)))
    edges, _ = COUPLINGS[shape]
    k = 1 + max(max(e) for e in edges)
    sizes = draw(st.lists(st.integers(2, 3), min_size=k, max_size=k))
    order = draw(st.permutations(range(k)))
    starts = list(accumulate((sizes[f] for f in order), initial=0))
    cols = {f: range(starts[p], starts[p] + sizes[f]) for p, f in enumerate(order)}
    rows = []
    for group in [(f,) for f in range(k)] + edges:
        for _ in range(draw(st.integers(1, 2))):
            row = [0] * starts[-1]
            for f in group:
                vals = [draw(st.integers(-3, 3)) for _ in cols[f]]
                if centred:
                    vals[-1] -= sum(vals)
                for c, x in zip(cols[f], vals):
                    row[c] = x
            rows.append(row)
    a = np.array(rows, dtype=object)
    num = a.T @ a
    for i, j in edges:
        assume(not ratmat.is_zero(num[np.ix_(cols[i], cols[j])]))
    plan = Plan("coupled", tuple(Factor(f"F{f}", sizes[f]) for f in order),
                (tuple(0 for _ in order),), (1,) if centred else None)
    return plan, (num, draw(st.integers(1, 6))), shape


@settings(max_examples=60, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(coupled_information())
def test_fully_adjusted_follows_the_coupling_graph(case):
    """Every C_A against the one-stage Schur complement over Fractions, on
    PSD matrices coupled as a star, two components, a chain or a triangle;
    only the last two recurse into the split."""
    plan, (num, d), shape = case
    names = plan.factor_names
    real = orthogonality._fully_adjusted
    calls = []

    def recorded(*args):
        calls.append(args)
        return real(*args)

    orthogonality._fully_adjusted = recorded
    try:
        cols = _columns(plan, names)
        adjusted = real((num, d), cols, _coupling(num, cols))
    finally:
        orthogonality._fully_adjusted = real
    assert bool(calls) == COUPLINGS[shape][1]
    starts = list(accumulate((levels_of(plan, u) for u in names), initial=0))
    span = {u: list(range(lo, hi)) for u, lo, hi in zip(names, starts, starts[1:])}
    assert list(adjusted) == list(names)
    for a, (c_num, c_d) in adjusted.items():
        rest = [i for u in names if u != a for i in span[u]]
        oracle = one_stage_schur(num, span[a], rest)    # d times C_A
        assert c_d > 0 and gcd(c_d, *c_num.flat) == 1
        assert (d * c_num == c_d * oracle).all()


@settings(max_examples=60, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(coupled_information(centred=True))
def test_ledger_reads_the_contrast_c_matrix_of_any_coupling(case):
    """The ledger's fit and the contrast blocks against the level-coordinate
    route, on information matrices coupled as a star, a split (chain or
    triangle) or two components, singular ones among them."""
    plan, info, _ = case
    assert_ledger_reads_the_contrast_blocks(plan, info, _contrast(plan, info))


@pytest.mark.parametrize("plan", ["potb27", "ico26", "potb33", "potb3_15", "asym3", "asym7"])
def test_ledger_reads_the_contrast_c_matrix_of_built_plans(request, plan):
    """The same comparison on plans whose factors of three or more levels
    reach the a I + b J form, which random ones seldom do."""
    plan = request.getfixturevalue(plan)
    assert_ledger_reads_the_contrast_blocks(plan, _factor_information(plan),
                                            contrast_c_matrix(plan))


def assert_residuals_are_blocks(plan, pairs, names, through):
    """Each pair's residual, pass verdict and printed residual against the
    matching block of the stacked X_U'(I - P_T)X_U over ``names``."""
    stacked = adjusted_information(plan, names, names, through)
    offsets = np.cumsum([0] + [levels_of(plan, u) for u in names])
    span = {u: slice(offsets[i], offsets[i + 1]) for i, u in enumerate(names)}
    for p in pairs:
        block = stacked[span[p.a], span[p.b]]
        assert p.through == through
        assert p.residual.shape == block.shape and (p.residual == block).all()
        assert all(type(x) is Fraction for x in p.residual.flat)
        assert p.passed == ratmat.is_zero(block)
        doc = p.to_json()
        assert ("residual" in doc) == (not p.passed)
        if not p.passed:
            assert doc["residual"] == [[str(x) for x in row] for row in block]


@settings(max_examples=60, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(plans(), st.sampled_from(["none", "general", "block", "first"]))
def test_pair_residuals_are_blocks_of_the_stacked_information(plan, which):
    """For passing and failing pairs alike, straight from ``pair_checks``
    and in the reports of ``is_potb``, ``is_potp`` and ``asym_report``."""
    assume(which != "block" or plan.blocked)
    names = plan.factor_names
    through = {"none": (), "general": (GENERAL,), "block": (BLOCK,),
               "first": names[:1]}[which]
    rest = tuple(f for f in names if f not in through)
    checks = pair_checks(plan, rest, through)[0]
    assert_residuals_are_blocks(plan, checks, rest, through)
    if which == "first":
        assert_residuals_are_blocks(plan, is_potp(plan, through).pairs, rest, through)
    if which == "block":
        for rep in (is_potb(plan), asym_report(plan)):
            assert_residuals_are_blocks(plan, rep.pairs, names, through)
            pfc = pair_checks(plan, names, (GENERAL,))[0]
            assert [p.pfc for p in rep.pairs] == [p.passed for p in pfc]


@settings(max_examples=30, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(plans())
def test_repeated_reports_compare_equal(plan):
    """Two ``is_potb`` runs on one blocked plan give equal reports: the
    integer information each pair holds is left out of the comparison,
    and the C-matrix compares by value, whichever (num, d) pair holds it."""
    assume(plan.blocked)
    first, second = is_potb(plan), is_potb(plan)
    assert first == second
    c = first.c_matrix
    assert replace(c, num=2 * c.num, d=2 * c.d) == c
    shifted = replace(c, num=c.num + c.d * np.eye(c.dim, dtype=object))    # C + I
    assert replace(first, c_matrix=shifted) != first


def test_informational_residuals_are_blocks_of_the_stacked_information(asym7):
    rep = asym_report(asym7)
    assert {p.passed for p in rep.pairs} == {True, False}
    assert_residuals_are_blocks(asym7, rep.pairs, asym7.factor_names, (BLOCK,))


@settings(max_examples=60, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(plans(), st.integers(1, 2), st.data())
def test_ss_adjusted_matches_dense_projection(plan, width, data):
    """Against Y' P_V Y and against the per-call evaluation, for integer,
    Fraction and float responses, adjusted for nothing, G, one factor, a
    factor pair and the blocks."""
    names = plan.factor_names
    target = names[:width]
    conditioning = [(), (GENERAL,), names[width:width + 1], names[width:width + 2]]
    if plan.blocked:
        conditioning.append((BLOCK,))
    responses = [
        data.draw(st.lists(st.integers(-9, 9), min_size=plan.n, max_size=plan.n)),
        data.draw(st.lists(st.fractions(-9, 9, max_denominator=12),
                           min_size=plan.n, max_size=plan.n)),
        data.draw(st.lists(st.floats(-9, 9, allow_nan=False, allow_infinity=False),
                           min_size=plan.n, max_size=plan.n)),
    ]
    for through in dict.fromkeys(conditioning):
        p_v = projector(residual_projector(plan, through) @ stacked_design(plan, target))
        for y in responses:
            y_col = np.array([[Fraction(x)] for x in y], dtype=object)
            oracle = (y_col.T @ p_v @ y_col)[0, 0]
            got = ss_adjusted(plan, y, target, through)
            assert got == oracle == ss_adjusted_per_call(plan, y, target, through)


def test_estssq_condition_is_the_cross_information_of_a_with_the_other_terms(monkeypatch):
    """The experiment's condition, its two C-matrices equal, is
    X_A'(I - P_T)X_O = 0 over every other term O, with T drawn from the
    other factors, G and the blocks; the responses agree with it, and
    the sample holds both outcomes.  Each report is the one the per-call
    oracle gives, whose every SS takes the projection route and both pivot
    orders, required equal, which the package does not check per response."""
    outcomes = []

    @settings(max_examples=60, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plans(), st.data())
    def experiment(plan, data):
        names = plan.factor_names
        terms = names + ((GENERAL, BLOCK) if plan.blocked else (GENERAL,))
        a = data.draw(st.sampled_from(names))
        adjust = tuple(data.draw(st.lists(st.sampled_from([u for u in terms if u != a]),
                                          unique=True, max_size=3)))
        others = tuple(u for u in terms if u != a and u not in adjust)
        rep = estssq_equivalence(plan, a, adjust, trials=5, seed=0)
        with monkeypatch.context() as patched:
            patched.setattr(anova, "_ss_form", PerCallForm)
            assert estssq_equivalence(plan, a, adjust, trials=5, seed=0) == rep
        assert rep.checked_against == others
        assert rep.condition_holds == ratmat.is_zero(
            adjusted_information(plan, a, others, adjust))
        assert rep.biconditional_observed
        outcomes.append(rep.condition_holds)

    experiment()
    assert set(outcomes) == {True, False}


def pair_verdicts(plan):
    """Pass/fail of every pair of the factors outside T, for T empty, {G},
    the first factor and, on a blocked plan, the blocks."""
    names = plan.factor_names
    throughs = [(), (GENERAL,), names[:1]] + ([(BLOCK,)] if plan.blocked else [])
    return [[p.passed for p in pair_checks(plan, tuple(f for f in names if f not in t), t)[0]]
            for t in throughs]


@settings(max_examples=60, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(plans(), st.data())
def test_pair_verdicts_are_invariant_under_relabelling(plan, data):
    """Runs permuted within their blocks, blocks reordered together with
    their sizes, and one factor's levels relabelled: each leaves every
    pair's verdict as it was (an unblocked plan is one block)."""
    sizes = plan.block_sizes or (plan.n,)
    bounds = list(accumulate(sizes, initial=0))
    blocks = [plan.runs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    shuffled = [data.draw(st.permutations(runs)) for runs in blocks]
    order = data.draw(st.permutations(range(len(blocks))))
    j = data.draw(st.integers(0, plan.m - 1))
    relabel = data.draw(st.permutations(range(plan.factors[j].levels)))

    def moved(runs, block_sizes=plan.block_sizes):
        return Plan(plan.name, plan.factors, tuple(runs), block_sizes)

    want = pair_verdicts(plan)
    assert pair_verdicts(moved(r for runs in shuffled for r in runs)) == want
    reordered = moved((r for k in order for r in blocks[k]),
                      tuple(sizes[k] for k in order) if plan.blocked else None)
    assert pair_verdicts(reordered) == want
    relabelled = moved(r[:j] + (relabel[r[j]],) + r[j + 1:] for r in plan.runs)
    assert pair_verdicts(relabelled) == want


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(plans())
def test_plan_json_round_trip(plan):
    assert plan_loads(dumps(plan_to_json(plan))) == plan


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([3, 5, 7, 9, 25, 27]), st.data())
def test_translate_and_orbit_match_the_digit_oracle(s, data):
    """Random plans whose factors have s or s + 1 levels, translated by
    random vectors and by the whole orbit: every symbol is the oracle's
    base-p digit sum, the top label of an (s+1)-level factor stays put."""
    levels = data.draw(st.lists(st.sampled_from([s, s + 1]), min_size=1, max_size=4))
    runs = data.draw(st.lists(st.tuples(*[st.integers(0, v - 1) for v in levels]),
                              min_size=1, max_size=6))
    vectors = data.draw(st.lists(st.tuples(*[st.integers(0, s - 1) for _ in levels]),
                                 min_size=1, max_size=4))
    plan = Plan("random", tuple(Factor(f"F{i}", v) for i, v in enumerate(levels)), tuple(runs))
    field = field_new(s)
    assert translate(plan, vectors, field).runs == translate_oracle(plan, vectors, s)
    constant = [(u,) * plan.m for u in range(s)]
    assert orbit(plan, field).runs == translate_oracle(plan, constant, s)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([3, 5, 7, 11, 13, 127]), st.data())
def test_c0_expand_matches_products_mod_p(p, data):
    """Over a prime field, the copy for each nonzero square c (ascending)
    is c * x mod p, entry by entry."""
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    array = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=rows * cols,
                                        max_size=rows * cols))).reshape(rows, cols)
    squares = sorted({x * x % p for x in range(1, p)})
    want = np.hstack([c * array % p for c in squares])
    assert (c0_expand(array, field_new(p)) == want).all()
