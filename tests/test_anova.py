"""Exact adjusted sums of squares and the SS-equivalence experiment."""

from fractions import Fraction

import numpy as np
import pytest
from oracles import PerCallForm, design_matrix, projector, ss_adjusted_per_call

from orthoplan import (
    BLOCK,
    GENERAL,
    Factor,
    Plan,
    anova,
    estssq_equivalence,
    ratmat,
    ss_adjusted,
)
from orthoplan.errors import VerificationFailed


def aliased_plan():
    """Two factors that always move together."""
    return Plan("aliased", (Factor("A", 2), Factor("B", 2)),
                ((0, 0), (1, 1), (0, 0), (1, 1)))


# ---------------------------------------------------------------------------
# adjusted sums of squares

def test_ss_unadjusted_matches_hand_formula(potb27):
    y = [Fraction(v) for v in range(1, 11)]
    got = ss_adjusted(potb27, y, "A1")
    col = potb27.column("A1")
    totals = [sum(yy for yy, c in zip(y, col) if c == lvl) for lvl in (0, 1)]
    reps = [col.count(0), col.count(1)]
    assert got == sum(t * t / Fraction(r) for t, r in zip(totals, reps))


def test_ss_general_adjustment(potb27):
    y = [Fraction(v) for v in range(1, 11)]
    got = ss_adjusted(potb27, y, "A1", (GENERAL,))
    col = potb27.column("A1")
    totals = [sum(yy for yy, c in zip(y, col) if c == lvl) for lvl in (0, 1)]
    reps = [col.count(0), col.count(1)]
    raw = sum(t * t / Fraction(r) for t, r in zip(totals, reps))
    assert got == raw - Fraction(sum(y)) ** 2 / 10
    assert got == Fraction(80, 3)


def test_ss_zero_when_response_in_conditioning_span(potb27):
    y = [3 if b == 0 else -2 for b in potb27.block_labels()]
    got = ss_adjusted(potb27, y, "A1", (BLOCK, GENERAL))
    assert got == 0


def test_ss_result_conversions(potb27):
    """The SS is returned as an exact ``Fraction``, with no wrapper around it."""
    y = [Fraction(v) for v in range(1, 11)]
    got = ss_adjusted(potb27, y, "A1", (GENERAL,))
    assert type(got) is Fraction and str(got) == "80/3"


def test_ss_validation(potb27):
    y = [Fraction(v) for v in range(1, 11)]
    with pytest.raises(ValueError, match="empty target"):
        ss_adjusted(potb27, y, ())
    with pytest.raises(ValueError, match=r"target \('A1',\) meets adjusting set \('A1',\)"):
        ss_adjusted(potb27, y, "A1", ("A1",))
    with pytest.raises(ValueError, match="response length 9 != 10 runs"):
        ss_adjusted(potb27, y[:-1], "A1")


def test_ss_multi_factor_target(potp34):
    """A two-factor target: SS of {A1, A2} jointly, against the projector
    computed from first principles."""
    rng = np.random.default_rng(5)
    y = [Fraction(int(v)) for v in rng.integers(-9, 10, size=potp34.n)]
    got = ss_adjusted(potp34, y, ("A1", "A2"), (GENERAL,))
    x_u = np.hstack([design_matrix(potp34, "A1"), design_matrix(potp34, "A2")])
    x_t = design_matrix(potp34, GENERAL)
    v = x_u - projector(x_t.astype(object)) @ x_u
    y_col = np.array([[x] for x in y], dtype=object)
    want = (y_col.T @ projector(v) @ y_col)[0, 0]
    assert got == want


@pytest.mark.parametrize("fixture", ["potp34", "potp43"])
def test_ss_through_a_pair_matches_the_per_call_oracle(request, fixture):
    """On plans orthogonal through the pair (A1, A2), for integer, float and
    Fraction responses, adjusted for the pair and for the pair and G."""
    plan = request.getfixturevalue(fixture)
    rng = np.random.default_rng(3)
    ints = [int(v) for v in rng.integers(-9, 10, size=plan.n)]
    responses = [ints, [float(v) for v in rng.standard_normal(plan.n)],
                 [Fraction(v, 7) for v in ints]]
    for target in plan.factor_names[2:]:
        for through in (("A1", "A2"), ("A1", "A2", GENERAL)):
            for y in responses:
                want = ss_adjusted_per_call(plan, y, target, through)
                assert ss_adjusted(plan, y, target, through) == want


@pytest.mark.parametrize("seed", range(10))
def test_ss_invariant_across_runs(potb33, seed):
    """The value is pinned: the g-inverse form under both pivot orders
    agrees with an independent evaluation through the dense projector
    onto V = (I - P_T) X_U on random rational responses."""
    rng = np.random.default_rng([7, seed])
    y = [Fraction(int(a), int(b)) for a, b in
         zip(rng.integers(-9, 10, size=potb33.n), rng.integers(1, 4, size=potb33.n))]
    got = ss_adjusted(potb33, y, "A1", (BLOCK, GENERAL, "A2"))
    x_u = design_matrix(potb33, "A1")
    x_t = np.hstack([design_matrix(potb33, BLOCK), design_matrix(potb33, GENERAL),
                     design_matrix(potb33, "A2")])
    v = x_u - projector(x_t.astype(object)) @ x_u
    y_col = np.array([[x] for x in y], dtype=object)
    assert got == (y_col.T @ projector(v) @ y_col)[0, 0]


def test_ss_numpy_integer_response_is_exact(potb27):
    """int64 entries become Python ints, so no product wraps around."""
    small = ss_adjusted(potb27, range(1, 11), "A1", (BLOCK,))
    y = np.arange(1, 11, dtype=np.int64) * 2**40
    assert ss_adjusted(potb27, y, "A1", (BLOCK,)) == 2**80 * small != 0


def test_a_form_takes_one_g_inverse(potb27, record_calls):
    """One g-inverse of C, in the one pivot order, and none of V'V: the
    projection Y'V (V'V)^- V'Y is the g-inverse form Q' C^- Q itself, and
    L L' = C puts every Q = L Y in col(C), where any g-inverse gives it."""
    calls = record_calls(ratmat, "_g_inverse")
    form = anova._ss_form(potb27, "A1", (BLOCK,))
    assert len(calls) == 1
    assert form.c.tolist() == [[10, -10], [-10, 10]]
    g, den = form.g
    assert (g.tolist(), den) == ([[1, 0], [0, 0]], 10)


def test_l_that_is_not_v_transposed_is_refused(potb27, monkeypatch):
    """An X_T' part of the solve that is off by one in one entry (past the
    solve's own check) makes L L' differ from C, and the form refuses."""
    real = ratmat._solve_scaled

    def off_by_one(m, rhs):
        z, d = real(m, rhs)
        if rhs.shape[1] == 2 + potb27.n:    # [N_TU | X_T'] for the two levels of A1
            z = z.copy()
            z[0, -1] += 1
        return z, d

    monkeypatch.setattr(ratmat, "_solve_scaled", off_by_one)
    with pytest.raises(VerificationFailed, match="V'V = C"):
        anova._ss_form(potb27, "A1", (BLOCK,))


# ---------------------------------------------------------------------------
# the SS-equivalence experiment

def test_equivalence_through_pair(potp34):
    rep = estssq_equivalence(potp34, "A3", ("A1", "A2"), trials=50, seed=42)
    assert rep.condition_holds
    assert rep.equal_trials == rep.trials == 50
    assert rep.checked_against == ("A4", GENERAL)
    assert rep.first_trial == {"ss_fully_adjusted": "763/6", "ss_adjusted": "763/6"}
    assert rep.witness is None
    assert rep.all_equal and rep.biconditional_observed


def test_equivalence_through_block(potb27):
    rep = estssq_equivalence(potb27, "A1", (BLOCK,), trials=50, seed=42)
    assert rep.condition_holds and rep.equal_trials == 50
    assert rep.first_trial == {"ss_fully_adjusted": "512/25", "ss_adjusted": "512/25"}


def test_equivalence_fails_with_witness():
    rep = estssq_equivalence(aliased_plan(), "A", (), trials=20, seed=0)
    assert not rep.condition_holds
    assert rep.equal_trials == 0
    assert rep.witness is not None and rep.witness["trial"] == 0
    assert rep.witness["ss_fully_adjusted"] == "0"
    assert rep.biconditional_observed   # inequality is what the condition predicts


def test_equivalence_checks_the_block_a_blocked_plan_leaves_out(potb27):
    """Adjusting a blocked plan for the general effect alone leaves the
    block factor among the terms A must be orthogonal to."""
    rep = estssq_equivalence(potb27, "A1", (GENERAL,), trials=20, seed=0)
    assert rep.checked_against == ("A2", "A3", "A4", "A5", "A6", "A7", BLOCK)
    assert not rep.condition_holds and rep.equal_trials == 0
    assert rep.biconditional_observed


SEED_EXPERIMENTS = [("potb_2_7", "A1", (BLOCK,)), ("ico_2_6", "A1", (BLOCK,)),
                    ("potp_3_4", "A3", ("A1", "A2"))]


@pytest.mark.parametrize("name, target, adjust", SEED_EXPERIMENTS)
def test_equivalence_matches_the_per_call_oracle(seeds, monkeypatch, name, target, adjust):
    """The experiment on forms built once gives the report, byte for byte,
    that redoing all the response-free algebra for every trial gives."""
    plan = seeds[name]
    got = estssq_equivalence(plan, target, adjust, trials=50, seed=42).to_json()
    monkeypatch.setattr(anova, "_ss_form", PerCallForm)
    assert estssq_equivalence(plan, target, adjust, trials=50, seed=42).to_json() == got


@pytest.mark.parametrize("name, target, adjust", SEED_EXPERIMENTS)
def test_trials_share_the_response_free_algebra(seeds, monkeypatch, name, target, adjust):
    """A trial runs no exact elimination: 50 trials eliminate as often as one."""
    real = ratmat._eliminate
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(ratmat, "_eliminate", counted)
    counts = []
    for trials in (1, 50):
        calls.clear()
        estssq_equivalence(seeds[name], target, adjust, trials=trials, seed=42)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("name, target, adjust", SEED_EXPERIMENTS)
def test_equivalence_decides_the_condition_on_its_two_forms(seeds, record_calls,
                                                            name, target, adjust):
    """One Schur complement per SS form, and none more for the condition."""
    calls = record_calls(ratmat, "schur_complement")
    estssq_equivalence(seeds[name], target, adjust, trials=3, seed=0)
    assert len(calls) == 2


def test_equivalence_json(potp34):
    doc = estssq_equivalence(potp34, "A3", ("A1", "A2"), trials=3, seed=0).to_json()
    assert doc["condition"]["holds"] is True
    assert doc["trials"] == {"count": 3, "equal": 3, "all_equal": True}
    assert doc["biconditional_observed"] is True


def test_equivalence_overlap(potp34):
    with pytest.raises(ValueError, match="'A1' cannot be adjusted for itself"):
        estssq_equivalence(potp34, "A1", ("A1",), trials=1, seed=0)


@pytest.mark.parametrize("trials", [0, -3])
def test_equivalence_needs_a_trial(potp34, trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        estssq_equivalence(potp34, "A3", ("A1", "A2"), trials=trials, seed=0)


def test_equivalence_needs_a_non_negative_seed(potp34):
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        estssq_equivalence(potp34, "A3", ("A1", "A2"), trials=1, seed=-1)


def test_equivalence_has_no_default_trials_or_seed(potp34):
    """Every caller states the experiment it runs: trials and seed are
    required, by keyword."""
    with pytest.raises(TypeError, match="trials"):
        estssq_equivalence(potp34, "A3", ("A1", "A2"), seed=0)
    with pytest.raises(TypeError, match="seed"):
        estssq_equivalence(potp34, "A3", ("A1", "A2"), trials=1)
    with pytest.raises(TypeError):
        estssq_equivalence(potp34, "A3", ("A1", "A2"), 1, 0)
