"""Property tests on random small plans: the stacked adjusted information
against the dense projector oracle and the single-pair check, the counted
gram against the dense X'X, and the Schur-complement C_A and the ledger
against their one-stage definitions."""

from itertools import combinations

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from orthoplan import BLOCK, GENERAL, Factor, Plan, orth_through, ratmat, universal_ledger
from orthoplan.orthogonality import adjusted_information, c_matrix_factor
from orthoplan.plan import design_matrix, gram, levels_of


@st.composite
def plans(draw):
    """2-4 factors at 2-4 levels, n <= 12 runs, blocked or not."""
    levels = draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
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


def dense_oracle(plan, names, through):
    """X_U' (I - P_T) X_U with the n x n projector built explicitly."""
    x_u = ratmat.rational(np.hstack([design_matrix(plan, u) for u in names]))
    if through:
        x_t = ratmat.rational(np.hstack([design_matrix(plan, u) for u in through]))
        residual = ratmat.eye(plan.n) - ratmat.projector(x_t)
    else:
        residual = ratmat.eye(plan.n)
    return x_u.T @ residual @ x_u


@settings(max_examples=60, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(plans(), st.sampled_from(["none", "general", "block", "first"]), st.booleans())
def test_stacked_information_matches_projector_and_pair_checks(plan, which, reverse):
    assume(which != "block" or plan.blocked)
    names = plan.factor_names
    through = {"none": (), "general": (GENERAL,), "block": (BLOCK,),
               "first": names[:1]}[which]

    got = adjusted_information(plan, names, names, through, reverse=reverse)
    assert (got == dense_oracle(plan, names, through)).all()

    offsets = np.cumsum([0] + [levels_of(plan, u) for u in names])
    span = {u: slice(offsets[i], offsets[i + 1]) for i, u in enumerate(names)}
    for a, b in combinations(names, 2):
        if a in through or b in through:
            continue
        residual = orth_through(plan, a, b, through).residual
        assert (got[span[a], span[b]] == residual).all()

    pseudo = (GENERAL, BLOCK) if plan.blocked else (GENERAL,)
    idents = names + pseudo + names[:1]
    x = np.hstack([design_matrix(plan, u) for u in idents])
    assert (gram(plan, idents) == x.T @ x).all()

    for a in names:
        others = tuple(f for f in names if f != a)
        assert (c_matrix_factor(plan, a)
                == adjusted_information(plan, a, a, others + pseudo)).all()

    if plan.blocked:
        for entry in universal_ledger(plan).factors:
            verdicts = [orth_through(plan, entry.factor, b, (BLOCK,)).passed
                        for b in names if b != entry.factor]
            assert entry.orth_pass == all(verdicts)
