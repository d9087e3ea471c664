"""Orthogonality through a factor set: residuals, pair reports, and the
contrast C-matrix goldens for the built-in plans."""

from fractions import Fraction

import numpy as np
import pytest
from oracles import information_reversed

from orthoplan import (
    BLOCK,
    GENERAL,
    Factor,
    Plan,
    a_value,
    construct_asym,
    contrast_c_matrix,
    c_matrix_factor,
    e_value,
    is_potb,
    is_potp,
    orth_through,
    proportional_frequencies,
    ratmat,
)
from orthoplan.errors import NoBlocks, OverlappingSets, UnknownFactor
from orthoplan.orthogonality import (
    _factor_information,
    _fully_adjusted,
    adjusted_information,
    connected_factors,
    gram,
)
from orthoplan.plan import design_matrix, incidence


def full_factorial_22():
    return Plan("ff22", (Factor("A", 2), Factor("B", 2)),
                ((0, 0), (0, 1), (1, 0), (1, 1)))


# ---------------------------------------------------------------------------
# building blocks

def test_gram_and_cross_incidence(potb27):
    g = gram(potb27, (BLOCK,))
    assert g.tolist() == [[5, 0], [0, 5]]
    n_at = gram(potb27, ("A1", BLOCK, GENERAL))[:2, 2:]
    xa = design_matrix(potb27, "A1")
    xt = np.hstack([design_matrix(potb27, BLOCK), design_matrix(potb27, GENERAL)])
    assert (n_at == xa.T @ xt).all()
    twice = np.hstack([xa, xa])
    assert (gram(potb27, ("A1", "A1")) == twice.T @ twice).all()


@pytest.mark.parametrize("pair", [("A1", "A2"), ("A3", "A7"), ("A2", "A5")])
def test_adjusted_information_matches_g_inverse_formula(potb27, pair):
    """The solve-based residual equals N_AB - N_AT G N_BT' for an explicit
    generalized inverse G of the conditioning gram, either pivot order."""
    a, b = pair
    through = (BLOCK,)
    n_ab = incidence(potb27, a, b).astype(object)
    x_t = np.hstack([design_matrix(potb27, u) for u in through])
    n_at = (design_matrix(potb27, a).T @ x_t).astype(object)
    n_bt = (design_matrix(potb27, b).T @ x_t).astype(object)
    g = ratmat.g_inverse(gram(potb27, through))
    want = n_ab - n_at @ g @ n_bt.T
    assert (adjusted_information(potb27, a, b, through) == want).all()
    assert (information_reversed(potb27, a, b, through) == want).all()


def test_adjusted_information_empty_set_is_incidence(potp34):
    out = adjusted_information(potp34, "A1", "A2", ())
    assert (out == incidence(potp34, "A1", "A2")).all()


# ---------------------------------------------------------------------------
# single-pair checks

def test_orth_through_block(potb27):
    chk = orth_through(potb27, "A1", "A2", (BLOCK,))
    assert chk.passed and ratmat.is_zero(chk.residual)
    assert chk.through == (BLOCK,)


def test_orth_through_nothing_fails(potb27):
    assert not orth_through(potb27, "A1", "A2", ()).passed


def test_orth_through_overlap_raises(potb27):
    with pytest.raises(OverlappingSets):
        orth_through(potb27, "A1", "A1", (BLOCK,))
    with pytest.raises(OverlappingSets):
        orth_through(potb27, "A1", "A2", ("A2",))


def test_proportional_frequencies():
    assert proportional_frequencies(full_factorial_22(), "A", "B") is True


def test_proportional_frequencies_fails_on_seed(potb27):
    assert proportional_frequencies(potb27, "A1", "A2") is False


# ---------------------------------------------------------------------------
# whole-plan reports

def test_is_potb_seed(potb27):
    rep = is_potb(potb27)
    assert rep.passed and len(rep.pairs) == 21
    assert rep.check == "potb"
    assert all(p.passed for p in rep.pairs)
    assert not any(p.pfc for p in rep.pairs)   # counts are not proportional
    assert rep.pair("A3", "A5").passed
    with pytest.raises(KeyError):
        rep.pair("A1", "Z9")


def test_is_potb_needs_blocks(potp34):
    with pytest.raises(NoBlocks):
        is_potb(potp34)


def test_is_potb_interchanged_classes(ico26):
    rep = is_potb(ico26)
    assert not rep.passed
    classes = {"A1": 1, "B1": 1, "C1": 1, "A2": 2, "B2": 2, "C2": 2}
    for p in rep.pairs:
        same = classes[p.a] == classes[p.b]
        assert p.passed == (not same)


def test_is_potp_seed(potp34):
    rep = is_potp(potp34, ("A1", "A2"))
    assert rep.passed and len(rep.pairs) == 1
    assert rep.pair("A3", "A4").through == ("A1", "A2")


def test_is_potp_unknown_factor(potp34):
    with pytest.raises(UnknownFactor):
        is_potp(potp34, ("A1", "Z9"))


def test_report_json_shape(potb33):
    doc = is_potb(potb33).to_json()
    assert doc["plan"] == "potb_3_3" and doc["pass"] is True
    assert len(doc["pairs"]) == 3
    assert all(set(p) >= {"a", "b", "through", "pass", "pfc"} for p in doc["pairs"])
    assert "c_matrix" in doc


def test_failed_pair_carries_residual(ico26):
    rep = is_potb(ico26)
    bad = rep.pair("A1", "B1")
    doc = bad.to_json()
    assert doc["pass"] is False and "residual" in doc
    assert doc["residual"] == [[str(Fraction(x)) for x in row] for row in bad.residual]


# ---------------------------------------------------------------------------
# contrast C-matrices (the exact golden values)

def test_c_matrix_two_level_seed(potb27):
    cm = contrast_c_matrix(potb27)
    assert cm.dim == 7
    assert cm.entries_json() == [["4" if i == j else "0" for j in range(7)] for i in range(7)]
    ok, val = cm.scalar_identity()
    assert ok and val == 4


def test_c_matrix_three_level_seed(potb33):
    cm = contrast_c_matrix(potb33)
    assert cm.dim == 6
    ok, val = cm.scalar_identity()
    assert ok and val == 3


def test_c_matrix_interchanged_classes(ico26):
    cm = contrast_c_matrix(ico26)
    a, b = "24/5", "4/5"
    block = [[a, b, b], [b, a, b], [b, b, a]]
    zero = ["0"] * 3
    assert cm.entries_json() == [row + zero for row in block] + [zero + row for row in block]
    assert cm.labels == ("A1[1]", "B1[1]", "C1[1]", "A2[1]", "B2[1]", "C2[1]")


def test_unblocked_c_matrix_is_adjusted_for_the_mean():
    """An unblocked plan's contrasts are adjusted for the general effect,
    X'(I - P_G)X, as a blocked plan's are for the blocks.  With
    replications (1, 3) the contrast's variance is 1/1 + 1/3 over the
    squared norm 2, i.e. 2/3, so C = 3/2; X'X would give C = 2."""
    plan = Plan("r13", (Factor("A", 2),), ((0,), (1,), (1,), (1,)))
    assert contrast_c_matrix(plan).entries_json() == [["3/2"]]
    assert a_value(plan) == pytest.approx(2 / 3)
    assert e_value(plan) == pytest.approx(3 / 2)


def test_c_matrix_factor_level_space(potb27):
    c = c_matrix_factor(potb27, "A1")          # fully adjusted
    assert c.tolist() == [[2, -2], [-2, 2]]


@pytest.mark.parametrize("s", [3, 7, 11])
def test_asym_ledger_matches_the_one_stage_oracle(record_calls, s):
    """The asym coupling graph is a star with hub ``inf``: every C_A read
    leaf by leaf equals the one-stage adjustment for all other factors
    and the blocks, and no solve spans more than one factor."""
    plan = construct_asym(s)
    calls = record_calls(ratmat, "_eliminate")
    adjusted = _fully_adjusted(plan, _factor_information(plan))
    assert max(ncol for _, ncol, *_ in calls) <= s + 1
    names = plan.factor_names
    for a, (c_num, c_d) in adjusted.items():
        oracle = adjusted_information(plan, a, a, tuple(f for f in names if f != a) + (BLOCK,))
        assert (c_num == c_d * oracle).all()


def test_connected_factors(potb27):
    assert all(connected_factors(potb27).values())


def test_disconnected_factor_warns():
    p = Plan("stuck", (Factor("A", 3), Factor("B", 2)), ((0, 0), (0, 1), (1, 0), (1, 1)))
    with pytest.warns(UserWarning, match="factor A is not connected"):
        out = connected_factors(p)
    assert out["A"] is False and out["B"] is True
