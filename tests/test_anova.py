"""Simulation and exact adjusted sums of squares."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from oracles import PerCallForm, projector, ss_adjusted_per_call

from orthoplan import (
    BLOCK,
    GENERAL,
    Factor,
    ModelSpec,
    Plan,
    anova,
    estssq_equivalence,
    ratmat,
    simulate,
    ss_adjusted,
)
from orthoplan.errors import LengthMismatch, NoBlocks, OverlappingSets, VerificationFailed
from orthoplan.plan import design_matrix


def aliased_plan():
    """Two factors that always move together."""
    return Plan("aliased", (Factor("A", 2), Factor("B", 2)),
                ((0, 0), (1, 1), (0, 0), (1, 1)))


# ---------------------------------------------------------------------------
# model specification and simulation

def test_model_spec_validation(potb33):
    with pytest.raises(LengthMismatch):
        ModelSpec(plan=potb33, effects={"A1": (1, 2)})
    with pytest.raises(LengthMismatch):
        ModelSpec(plan=potb33, block_effects=(1, 2))
    with pytest.raises(ValueError):
        ModelSpec(plan=potb33, sigma=-1.0)


def test_block_effects_need_blocks(potp34):
    with pytest.raises(NoBlocks):
        ModelSpec(plan=potp34, block_effects=(0,) * 4)


def test_simulate_exact_mean(potb33):
    model = ModelSpec(plan=potb33, general=Fraction(1, 2),
                      effects={"A1": (0, 1, -1)},
                      block_effects=(10, 20, 30))
    y = simulate(model)
    assert y.dtype == object
    # run 0: block 0, A1 level 0; run 9: block 2, A1 level 2
    assert y[0] == Fraction(21, 2)
    assert y[9] == Fraction(59, 2)


def test_simulate_noise_reproducible(potb33):
    model = ModelSpec(plan=potb33, effects={"A2": (1, 2, 3)}, sigma=0.5, seed=11)
    y1, y2 = simulate(model), simulate(model)
    assert y1.dtype == np.float64
    assert (y1 == y2).all()
    mean = simulate(ModelSpec(plan=potb33, effects={"A2": (1, 2, 3)}))
    noise = np.random.default_rng(11).standard_normal(potb33.n)
    assert np.abs(y1 - ([float(v) for v in mean] + 0.5 * noise)).max() == 0


# ---------------------------------------------------------------------------
# adjusted sums of squares

def test_ss_unadjusted_matches_hand_formula(potb27):
    y = [Fraction(v) for v in range(1, 11)]
    got = ss_adjusted(potb27, y, "A1")
    col = potb27.column("A1")
    totals = [sum(yy for yy, c in zip(y, col) if c == lvl) for lvl in (0, 1)]
    reps = [col.count(0), col.count(1)]
    assert got.value == sum(t * t / Fraction(r) for t, r in zip(totals, reps))


def test_ss_general_adjustment(potb27):
    y = [Fraction(v) for v in range(1, 11)]
    got = ss_adjusted(potb27, y, "A1", (GENERAL,))
    col = potb27.column("A1")
    totals = [sum(yy for yy, c in zip(y, col) if c == lvl) for lvl in (0, 1)]
    reps = [col.count(0), col.count(1)]
    raw = sum(t * t / Fraction(r) for t, r in zip(totals, reps))
    assert got.value == raw - Fraction(sum(y)) ** 2 / 10
    assert got.value == Fraction(80, 3)


def test_ss_zero_when_response_in_conditioning_span(potb27):
    y = [3 if b == 0 else -2 for b in potb27.block_labels()]
    got = ss_adjusted(potb27, y, "A1", (BLOCK, GENERAL))
    assert got.value == 0


def test_ss_result_conversions(potb27):
    y = [Fraction(v) for v in range(1, 11)]
    got = ss_adjusted(potb27, y, "A1", (GENERAL,))
    assert float(got) == pytest.approx(80 / 3)
    doc = got.to_json()
    assert doc["value"] == "80/3" and doc["target"] == ["A1"]


def test_ss_validation(potb27):
    y = [Fraction(v) for v in range(1, 11)]
    with pytest.raises(ValueError, match="empty target"):
        ss_adjusted(potb27, y, ())
    with pytest.raises(OverlappingSets):
        ss_adjusted(potb27, y, "A1", ("A1",))
    with pytest.raises(LengthMismatch):
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
    assert got.value == want


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
                want = ss_adjusted_per_call(plan, y, target, through).value
                assert ss_adjusted(plan, y, target, through).value == want


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
    assert got.value == (y_col.T @ projector(v) @ y_col)[0, 0]


def test_ss_numpy_integer_response_is_exact(potb27):
    """int64 entries become Python ints, so no product wraps around."""
    small = ss_adjusted(potb27, range(1, 11), "A1", (BLOCK,)).value
    y = np.arange(1, 11, dtype=np.int64) * 2**40
    assert ss_adjusted(potb27, y, "A1", (BLOCK,)).value == 2**80 * small != 0


def test_routes_agree_check_fires(potb27, monkeypatch):
    """A g-inverse of C under the second pivot order that is off by one in
    one entry (so no g-inverse, past its own check) makes the g-inverse
    routes disagree, and the call must refuse to answer."""
    real = ratmat._g_inverse
    calls = []

    def off_by_one(m):
        g, d = real(m)
        calls.append(m)
        if len(calls) == 2:                 # the second route: C index-reversed
            g = g.copy()
            g[0, 0] += 1
        return g, d

    monkeypatch.setattr(ratmat, "_g_inverse", off_by_one)
    with pytest.raises(VerificationFailed, match="routes agree"):
        ss_adjusted(potb27, range(1, 11), "A1", (BLOCK,))


def test_a_form_takes_two_g_inverses(potb27, record_calls):
    """One g-inverse of C per pivot order, and none of V'V: the projection
    Y'V (V'V)^- V'Y is the g-inverse form Q' C^- Q itself.  The two are
    different g-inverses, the second that of C index-reversed, reversed
    back, so the routes-agree check compares two routes."""
    calls = record_calls(ratmat, "_g_inverse")
    form = anova._ss_form(potb27, "A1", (BLOCK,))
    assert len(calls) == 2
    assert form.c.tolist() == [[10, -10], [-10, 10]]
    (g, den), (g2, den2) = form.g, form.g2
    assert (g.tolist(), den) == ([[1, 0], [0, 0]], 10)
    assert (g2.tolist(), den2) == ([[0, 0], [0, 1]], 10)
    flipped, flipped_den = ratmat._g_inverse(form.c[::-1, ::-1])
    assert (flipped[::-1, ::-1].tolist(), flipped_den) == (g2.tolist(), den2)


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


def test_q_outside_the_column_space_of_c_is_refused(potb27):
    """Q = L Y must lie in the column space of C; an L that misses the
    adjustment for the blocks puts it outside, and the trial refuses."""
    form = anova._ss_form(potb27, "A1", (BLOCK,))
    unadjusted = replace(form, l=form.d * design_matrix(potb27, "A1").T)
    y, s = anova._response(potb27, range(1, 11))
    assert form.ss(y, s) == ss_adjusted(potb27, range(1, 11), "A1", (BLOCK,)).value
    with pytest.raises(VerificationFailed, match="column space of C"):
        unadjusted.ss(y, s)


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


def test_equivalence_json(potp34):
    doc = estssq_equivalence(potp34, "A3", ("A1", "A2"), trials=3).to_json()
    assert doc["condition"]["holds"] is True
    assert doc["trials"] == {"count": 3, "equal": 3, "all_equal": True}
    assert doc["biconditional_observed"] is True


def test_equivalence_overlap(potp34):
    with pytest.raises(OverlappingSets):
        estssq_equivalence(potp34, "A1", ("A1",))


@pytest.mark.parametrize("trials", [0, -3])
def test_equivalence_needs_a_trial(potp34, trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        estssq_equivalence(potp34, "A3", ("A1", "A2"), trials=trials)


def test_equivalence_needs_a_non_negative_seed(potp34):
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        estssq_equivalence(potp34, "A3", ("A1", "A2"), seed=-1)
